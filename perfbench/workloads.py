"""The benchmark workloads: inputs, job lists and per-job checks.

A workload writes its inputs under a work directory in `setup`, computes the
references its checks need in `prepare`, and returns its job list from
`jobs`. A job is one `lppm` CLI invocation plus a check of its exit code and
outputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import gen

SIZES = {
    # (places, samples, format) per user
    "build_traces": {"full": [(10, 50_000, "csv"), (20, 50_000, "plt"), (30, 60_000, "csv")],
                     "tiny": [(3, 4_000, "csv"), (4, 4_000, "plt")]},
    # n = m per model
    "synth_large": {"full": [48, 96, 120], "tiny": [10, 14]},
    # horizon of the Frank-Wolfe baselines on the campus fixture
    "campus_baselines": {"full": 2, "tiny": 1},
}


@dataclass
class Job:
    cmd: str
    argv: list[str]
    check: Callable[[int, str], list[str]]
    # eps_private jobs: the result's cost is compared with HiGHS after the measurement
    highs_key: str | None = None
    result: Path | None = None


def _load(path):
    from lppm import serialize
    return serialize.load_result(path)


def _load_model(path):
    from lppm import serialize
    return serialize.load_mdp(path)


def _ok(rc: int, problems_fn) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    return problems_fn()


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, work: Path):
        self.seed = seed
        self.size = size
        self.work = work
        # key -> (model, secret, eps): eps_private optima to check with HiGHS later
        self.highs_keys: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """References for the checks; not part of set-up time."""

    def jobs(self, tag: str) -> list[Job]:
        raise NotImplementedError


def _private_jobs(model_arg, mdp, secret, eps, out, key, simulate=False) -> list[Job]:
    """synthesize eps_private -> verify [-> simulate from the uniform prior]."""
    res = out / "result.json"
    jobs = [Job("synthesize", ["synthesize", *model_arg, "--mode", "eps_private",
                               "--epsilon", repr(eps), "--secret", f"s{secret + 1}",
                               "--out", str(out)],
                lambda rc, o: _ok(rc, lambda: checks.check_private(
                    mdp, _load(res), secret, eps)), key, res),
            Job("verify", ["verify", *model_arg, "--result", str(res), "--out", str(out)],
                lambda rc, o: _ok(rc, lambda: checks.check_verify(
                    mdp, _load(res), secret, eps, o)))]
    if simulate:
        horizon = 1000
        b0 = np.full(mdp.n_states, 1.0 / mdp.n_states)
        bound = eps if b0[secret] <= eps else None    # all-time guarantee from a safe prior
        jobs.append(Job("simulate", ["simulate", *model_arg, "--result", str(res),
                                     "--horizon", str(horizon), "--out", str(out)],
                        lambda rc, o: _ok(rc, lambda: checks.check_simulate(
                            mdp, _load(res), out, horizon, b0, secret, bound))))
    return jobs


class BuildTraces(Workload):
    """Trace -> model -> private policy -> verification, for a few users."""

    name = "build_traces"

    def setup(self):
        self.traces = []
        self.paths = []
        for u, (places, samples, fmt) in enumerate(SIZES[self.name][self.size]):
            trace = gen.make_trace(self.seed, u, places, samples)
            path = self.work / f"user{u}.{fmt}"
            (gen.write_csv if fmt == "csv" else gen.write_plt)(trace, path)
            self.traces.append(trace)
            self.paths.append(path)

    def prepare(self):
        from lppm.mdp import make_mdp
        self.refs = []
        for u, trace in enumerate(self.traces):
            ref = checks.reference_trace_model(trace)
            n, m = ref.lat.size, len(ref.cloaks)
            transition = np.zeros((m, n, n))
            for s, acts in enumerate(ref.available):
                transition[list(acts), s] = ref.p[s]
            p0 = np.zeros(n)
            p0[0] = 1.0
            mdp = make_mdp(transition, ref.utility, ref.available, p0)
            # the most visited POI is the secret
            secret, eps = checks.private_spec(mdp, [int(np.argmax(ref.visits))])
            self.refs.append((ref, mdp, secret, eps))
            self.highs_keys[f"user{u}"] = (mdp, secret, eps)

    def jobs(self, tag):
        jobs = []
        for u, path in enumerate(self.paths):
            ref, mdp, secret, eps = self.refs[u]
            out = self.work / tag / f"user{u}"
            model = out / "mdp.json"

            def build_check(rc, _o, model=model, ref=ref):
                return _ok(rc, lambda: checks.compare_models(_load_model(model), ref))

            jobs.append(Job("build", ["build", "--traces", str(path), "--out", str(out)],
                            build_check))
            jobs += _private_jobs(["--model", str(model)], mdp, secret, eps, out, f"user{u}")
        return jobs


class SynthLarge(Workload):
    """Few large occupancy LPs on generated mobility-like models, then the
    baselines on the campus fixture: hundreds of tiny Frank-Wolfe oracle LPs."""

    name = "synth_large"
    CAMPUS_SECRET = 3       # s4
    EPS_DP = 0.7
    KINDS = ("max_entropy", "max_inference_error", "dp")

    def setup(self):
        from lppm import serialize
        self.models = []      # drop the previous repeat's models before making new ones
        for i, n in enumerate(SIZES[self.name][self.size]):
            mdp = gen.make_model(self.seed, i, n)
            path = self.work / f"model{i}" / "mdp.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            serialize.save_mdp(mdp, path)
            self.models.append((mdp, path))

    def prepare(self):
        self.specs = []
        for i, (mdp, _) in enumerate(self.models):
            pi = checks.stationary(checks.user_chain(mdp))
            # among the five most visited states, one whose budget binds
            top = [int(s) for s in np.argsort(-pi, kind="stable")[:5]]
            secret, eps = checks.private_spec(mdp, top)
            self.specs.append((secret, eps))
            self.highs_keys[f"model{i}"] = (mdp, secret, eps)
        from lppm import fixtures
        self.campus_states = fixtures.campus().n_states
        # the seed moves the observer's unsafe prior for the baselines
        self.mass = round(0.2 + 0.1 * float(np.random.default_rng([self.seed, 0]).random()), 6)

    def jobs(self, tag):
        jobs = []
        for i, (mdp, path) in enumerate(self.models):
            secret, eps = self.specs[i]
            out = self.work / tag / f"model{i}"
            res = out / "unconstrained" / "result.json"
            jobs.append(Job("synthesize", ["synthesize", "--model", str(path), "--mode",
                                           "unconstrained", "--out", str(res.parent)],
                            lambda rc, o, mdp=mdp, res=res: _ok(
                                rc, lambda: checks.check_unconstrained(mdp, _load(res)))))
            jobs += _private_jobs(["--model", str(path)], mdp, secret, eps, out, f"model{i}",
                                  simulate=True)
        steps = SIZES["campus_baselines"][self.size]
        base = self.work / tag / "baselines"
        jobs.append(Job("baselines", ["baselines", "--fixture", "campus", "--horizon", str(steps),
                                      "--kind", ",".join(self.KINDS),
                                      "--secret", f"s{self.CAMPUS_SECRET + 1}",
                                      "--eps-dp", str(self.EPS_DP), "--belief", "unsafe",
                                      "--belief-mass", repr(self.mass), "--out", str(base)],
                        lambda rc, o: _ok(rc, lambda: [
                            p for kind in self.KINDS
                            for p in checks.check_baseline(base, kind, steps,
                                                           self.campus_states, self.EPS_DP)])))
        return jobs


WORKLOADS = {w.name: w for w in (BuildTraces, SynthLarge)}


def highs_problems(workload: Workload, costs: dict) -> dict:
    """Compare recorded eps_private costs with HiGHS; key -> problem or None.

    Returns {} when scipy is not importable.
    """
    found = {}
    for key, values in costs.items():
        mdp, secret, eps = workload.highs_keys[key]
        want = checks.highs_private_cost(mdp, secret, eps)
        if want is None:
            return {}
        bad = [v for v in values if not math.isclose(v, want, rel_tol=1e-6, abs_tol=1e-9)]
        found[key] = f"cost {bad[0]!r} != HiGHS optimum {want!r}" if bad else None
    return found
