#!/usr/bin/env python3
"""lppm benchmark: seeded CLI sessions, timed end to end, traced per layer.

    python3 perfbench/run.py --workload build_traces --seed 1 --seconds 45 --trace 0

Run from the repository root. One client in one process drives `lppm.cli.main`
as a closed loop: each job is one CLI invocation and starts when the previous
one ends. The workload's job list runs in passes, stopping at the pass boundary
nearest to `--seconds`; a job's time is its median over passes. With `--trace 1`
passes alternate untraced and traced and the per-layer metrics are printed
instead; the difference of the two kinds of pass is the tracing overhead.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See perfbench/README.md.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
COMMANDS = ("build", "synthesize", "verify", "simulate", "baselines")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

_TIMES = [f"mobility.{f}.s" for f in ("parse_traces", "extract_pois", "build_cloaks",
                                      "estimate_transitions", "assemble_mdp")] + [
    f"serialize.{f}.s" for f in ("save_mdp", "load_mdp", "save_result", "load_result")] + [
    "mdp.check_unichain_exhaustive.s", "mdp.stationary_distribution.s",
    "adversary.adversary_matrix.s", "adversary.belief_trajectory.s",
    "adversary.belief_update.s", "metrics.write_metric_series.s",
    "optim.solve_lp.s", "optim.maximize_concave.s"] + [
    f"synthesis.{f}.s" for f in ("synthesize_unconstrained", "synthesize_eps_private",
                                 "verify_invariance", "theorem1_certificate")] + [
    f"baselines.{k}.s" for k in ("max_entropy", "max_inference_error", "dp")] + [
    f"{layer}.self_s" for layer in ("cli", "mobility", "serialize", "mdp", "adversary",
                                    "metrics", "optim", "synthesis", "baselines")] + [
    f"cli.{cmd}.s" for cmd in COMMANDS] + ["trace.overhead_s"]
_COUNTS = ["mobility.samples", "mobility.stationary_samples", "mobility.pois",
           "mobility.cloaks", "geo.haversine_m.calls", "mdp.unichain_budget_exceeded",
           "mdp.stationary_distribution.calls", "adversary.adversary_matrix.calls",
           "adversary.belief_trajectory.calls", "adversary.belief_update.calls",
           "optim.solve_lp.calls", "optim.pivots", "optim.lp_vars.max", "optim.lp_rows.max",
           "optim.solve_lp.nonoptimal", "optim.maximize_concave.calls", "optim.fw.iterations",
           "optim.fw.hit_cap", "baselines.steps"]
PER_LAYER = {name: "s" for name in _TIMES}
PER_LAYER.update({name: "count" for name in _COUNTS})
PER_LAYER.update({
    "serialize.mdp_json_bytes": "bytes", "mdp.transition_bytes": "bytes",
    "optim.max_violation.max": "abs", "optim.pivots_per_s": "1/s",
    "optim.fw.gap.max": "gap", "optim.fw.oracle_share": "ratio",
    "capped_ratio": "ratio", "fail_ratio": "ratio",
})
# counts that must repeat exactly between passes and runs with the same seed
EXACT = ["optim.pivots", "optim.solve_lp.calls", "geo.haversine_m.calls",
         "optim.fw.iterations"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


# ----------------------------------------------------------- environment

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> tuple[str, object]:
    import ctypes

    import numpy as np
    try:
        vendor = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    threads: object = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return vendor, int(fn())
    return vendor, threads


def environment(seed: int) -> dict:
    import numpy as np
    vendor, threads = _blas()
    return {"commit": _git_commit(), "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": vendor, "blas_threads": threads, "machine": platform.machine()}


# --------------------------------------------------------------- running

class Runner:
    def __init__(self, workload, recorder):
        import lppm.cli
        self.cli = lppm.cli
        self.workload = workload
        self.recorder = recorder
        self.next_job = 0
        self.attempted = 0
        self.failures: dict = {}       # job id -> problems
        self.highs_costs = defaultdict(list)   # key -> [(job id, cost)]

    def run_pass(self, jobs, traced: bool) -> dict:
        rec = self.recorder
        times = []
        cpu = []
        ids = []
        for job in jobs:
            job_id = self.next_job
            self.next_job += 1
            ids.append(job_id)
            gc.collect()
            out, err = io.StringIO(), io.StringIO()
            if rec is not None:
                rec.job = job_id
                rec.active = traced
            t0 = time.perf_counter()
            c0 = time.process_time()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = self.cli.main(job.argv)
                except Exception as exc:  # the CLI process would exit 1 with a traceback
                    rc = 1
                    print(f"{type(exc).__name__}: {exc}", file=err)
            elapsed = time.perf_counter() - t0
            cpu.append(time.process_time() - c0)
            if rec is not None:
                rec.active = False
                if traced:
                    rec.per_job[job_id][f"cli.{job.cmd}.s"] = elapsed
            times.append(elapsed)
            self.attempted += 1
            try:
                problems = job.check(rc, out.getvalue())
            except Exception as exc:  # a check that cannot read the output fails the job
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if not problems and job.highs_key is not None:
                from lppm import serialize
                cost = serialize.load_result(job.result).average_cost
                self.highs_costs[job.highs_key].append((job_id, cost))
            if problems:
                self.failures[job_id] = [f"{job.cmd}: {p}" for p in problems]
                if err.getvalue().strip():
                    self.failures[job_id].append(err.getvalue().strip().splitlines()[-1])
        return {"ids": ids, "traced": traced, "cmds": [job.cmd for job in jobs],
                "times": times, "cpu": cpu}

    def cross_check(self) -> str:
        """HiGHS comparison of eps_private optima, once per model, after measuring."""
        from workloads import highs_problems
        costs = {k: [c for _, c in v] for k, v in self.highs_costs.items()}
        found = highs_problems(self.workload, costs)
        if not costs:
            return "not needed"
        if not found:
            return "skipped (scipy not importable)"
        for key, problem in found.items():
            if problem is not None:
                for job_id, _ in self.highs_costs[key]:
                    self.failures.setdefault(job_id, []).append(f"synthesize: {problem}")
        return f"{len(found)} model(s) compared"


def measure(runner, workload, seconds: float, trace: bool) -> list[dict]:
    passes = []
    clock = []
    t0 = time.perf_counter()
    n = 0
    while True:
        traced = trace and n % 2 == 1
        start = time.perf_counter()
        passes.append(runner.run_pass(workload.jobs(f"pass{n}"), traced))
        clock.append(time.perf_counter() - start)
        n += 1
        elapsed = time.perf_counter() - t0
        kinds = {p["traced"] for p in passes}
        # stop at the pass boundary nearest to the requested duration
        if (not trace or len(kinds) == 2) and elapsed + median(clock) / 2 >= seconds:
            return passes


def warm_up(work: Path) -> None:
    """Untimed: load what the CLI imports lazily and touch every command once.

    A mid-sized LP first warms numpy's linear algebra, which otherwise slows
    the first large solve of the run.
    """
    import gen
    import lppm.cli
    from lppm.synthesis import synthesize_unconstrained
    synthesize_unconstrained(gen.make_model(0, 0, 64), check_unichain=False)
    trace = gen.make_trace(0, 0, 3, 3000)
    gen.write_plt(trace, work / "warm.plt")
    out = str(work / "warm")
    model = ["--fixture", "campus"]
    for argv in (["build", "--traces", str(work / "warm.plt"), "--out", out],
                 ["synthesize", *model, "--mode", "eps_private", "--epsilon", "0.2",
                  "--secret", "s4", "--out", out],
                 ["verify", *model, "--result", out + "/result.json", "--out", out],
                 ["simulate", *model, "--result", out + "/result.json", "--horizon", "10",
                  "--out", out],
                 ["baselines", *model, "--horizon", "1", "--kind", "max_inference_error,dp",
                  "--secret", "s4", "--out", out]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                lppm.cli.main(argv)
            except Exception:  # a broken command fails its measured jobs instead
                pass


def job_medians(passes, traced: bool) -> dict:
    """Seconds per command: each job's median over passes, summed per command."""
    chosen = [p for p in passes if p["traced"] == traced]
    out = defaultdict(float)
    for j, cmd in enumerate(chosen[0]["cmds"]):
        out[cmd] += median(p["times"][j] for p in chosen)
    return dict(out)


def end_to_end(passes, setup_s: float, peak_rss_mb: float) -> dict:
    wall_s = sum(job_medians(passes, traced=False).values())
    return {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}


def per_layer(passes, recorder, fail_ratio: float) -> tuple[dict, list[str]]:
    traced = [recorder.pass_metrics(p["ids"]) for p in passes if p["traced"]]
    out = {}
    for name in PER_LAYER:
        out[name] = median(m.get(name, 0.0) for m in traced)
    out["trace.overhead_s"] = (sum(job_medians(passes, traced=True).values())
                               - sum(job_medians(passes, traced=False).values()))
    out["fail_ratio"] = fail_ratio
    unsteady = [name for name in EXACT if len({m.get(name, 0.0) for m in traced}) > 1]
    return out, unsteady


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lppm" / "cli.py").is_file():
        print(f"error: no lppm sources under {ROOT / 'src'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import lppm.cli  # noqa: F401  (the package as a user's process imports it)
    t_import = time.perf_counter() - T_START

    from tracing import Recorder
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    records = ROOT / ".bench_work" / "records"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    records.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.size, run_dir)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_s = t_import + median(setup_times)
        workload.prepare()
        warm_up(run_dir)
        recorder = None
        if args.trace:
            recorder = Recorder()
            recorder.install()
        runner = Runner(workload, recorder)
        passes = measure(runner, workload, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recorder is not None:
            recorder.uninstall()
        highs = runner.cross_check()
        failed = len(runner.failures)
        fail_ratio = failed / runner.attempted
        if args.trace:
            metrics, unsteady = per_layer(passes, recorder, fail_ratio)
            recorder.write_spans(records / f"{args.workload}-s{args.seed}-spans.csv")
        else:
            metrics, unsteady = end_to_end(passes, setup_s, peak_rss_mb), []
        units = PER_LAYER if args.trace else END_TO_END
        env = environment(args.seed)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "size": args.size, "env": env,
                  "setup_times": setup_times, "import_s": t_import, "highs": highs,
                  "passes": [{k: p[k] for k in ("traced", "cmds", "times", "cpu")} for p in passes],
                  "seconds_per_command": job_medians(passes, traced=False),
                  "failures": {str(k): v for k, v in runner.failures.items()},
                  "metrics": metrics}
        (records / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"jobs {runner.attempted}  failed {failed}  fail_ratio {fail_ratio:g}  "
          f"highs {highs}")
    print("env " + json.dumps(env))
    plain = job_medians(passes, traced=False)
    print("seconds per pass, untraced: " + "  ".join(
        f"{cmd}_s {plain.get(cmd, 0.0):.4g}" for cmd in COMMANDS))
    for job_id, problems in sorted(runner.failures.items())[:10]:
        print(f"FAILED job {job_id}: " + "; ".join(problems))
    for name in unsteady:
        print(f"WARNING: {name} differs between traced passes")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    # One BLAS thread: the run is one client, and on a machine with a few shared
    # cores a BLAS pool measures the scheduler (two threads were no faster on
    # synth_large, and noisier). Set before main() first imports numpy.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
