"""Span and counter recording around lppm's public functions, from outside.

`Recorder.install()` replaces module attributes of the lppm package with
wrappers: every module that holds a reference to a wrapped function gets the
wrapper, so calls between modules (``synthesis`` calling ``optim.solve_lp``)
are seen too. A span records (name, start, end, parent span, job id); hooks
add counts from a call's arguments and result. Spans stay in memory until the
run ends. Nothing under src/ is modified; `uninstall()` puts the originals
back.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

class Recorder:
    def __init__(self):
        self.spans: list = []            # [name, t0, t1, parent index, job id]
        self.stack: list[int] = []
        self.job = None
        self.active = False
        self.sums: dict = defaultdict(lambda: defaultdict(float))   # job -> name -> sum
        self.maxes: dict = defaultdict(lambda: defaultdict(float))  # job -> name -> max
        self.per_job: dict = defaultdict(dict)   # job -> name -> one value per job, summed
        self._restore: list = []

    # ---------------------------------------------------------- recording

    def add(self, name: str, value: float = 1.0) -> None:
        self.sums[self.job][name] += value

    def once(self, name: str, value: float) -> None:
        self.per_job[self.job][name] = float(value)

    def high(self, name: str, value: float) -> None:
        cur = self.maxes[self.job]
        cur[name] = max(cur[name], float(value))

    def span(self, fn, name, after=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            idx = len(rec.spans)
            rec.spans.append([label, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.job])
            rec.stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                rec.stack.pop()
                rec.spans[idx][1] = t0
                rec.spans[idx][2] = t1
            if after is not None:
                after(rec, out, args, kwargs)
            return out

        return wrapper

    def counter(self, fn, name):
        sums = self.sums
        rec = self

        @functools.wraps(fn)
        def wrapper(*args):
            if rec.active:
                sums[rec.job][name] += 1.0
            return fn(*args)

        return wrapper

    # ------------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every target in every lppm module that refers to it."""
        modules = [m for k, m in sys.modules.items() if k == "lppm" or k.startswith("lppm.")]
        for module_name, attr, make in _targets(self):
            fn = getattr(sys.modules[module_name], attr)
            wrapped = make(fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()

    # ------------------------------------------------------------ results

    def pass_metrics(self, jobs: list) -> dict:
        """Per-layer figures for one pass (the given job ids)."""
        jobset = set(jobs)
        idxs = [i for i, s in enumerate(self.spans) if s[4] in jobset]
        dur = {i: self.spans[i][2] - self.spans[i][1] for i in idxs}
        child = defaultdict(float)
        for i in idxs:
            parent = self.spans[i][3]
            if parent >= 0:
                child[parent] += dur[i]
        out: dict = defaultdict(float)
        fw_oracle = 0.0
        for i in idxs:
            name = self.spans[i][0]
            out[name + ".s"] += dur[i]
            out[name + ".calls"] += 1.0
            out[name.split(".")[0] + ".self_s"] += dur[i] - child[i]
            parent = self.spans[i][3]
            if name == "optim.solve_lp" and parent >= 0 \
                    and self.spans[parent][0] == "optim.maximize_concave":
                fw_oracle += dur[i]
        for job in jobs:
            for key, value in self.sums[job].items():
                out[key] += value
            for key, value in self.per_job[job].items():
                out[key] += value
            for key, value in self.maxes[job].items():
                out[key] = max(out[key], value)
        fw = out["optim.maximize_concave.s"]
        out["optim.fw.oracle_share"] = fw_oracle / fw if fw > 0 else 0.0
        lp = out["optim.solve_lp.s"]
        out["optim.pivots_per_s"] = out["optim.pivots"] / lp if lp > 0 else 0.0
        solves = out["optim.maximize_concave.calls"]
        out["capped_ratio"] = out["optim.fw.hit_cap"] / solves if solves else 0.0
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,job\n")
            for name, t0, t1, parent, job in self.spans:
                fh.write(f"{name},{t0:.9f},{t1:.9f},{parent},{job}\n")


# --------------------------------------------------------------- hooks

def _file_bytes(rec, path_arg):
    try:
        rec.add("serialize.mdp_json_bytes", os.path.getsize(path_arg))
    except OSError:
        pass


def _model_seen(rec, mdp):
    rec.high("mdp.transition_bytes", 8.0 * mdp.n_actions * mdp.n_states ** 2)


def _after_save_mdp(rec, out, args, kwargs):
    _file_bytes(rec, args[1] if len(args) > 1 else kwargs["path"])


def _after_load_mdp(rec, out, args, kwargs):
    _file_bytes(rec, args[0] if args else kwargs["path"])
    _model_seen(rec, out)


def _after_solve_lp(rec, sol, args, kwargs):
    lp = args[0] if args else kwargs["lp"]
    rec.add("optim.pivots", sol.iterations)
    rec.high("optim.lp_vars.max", lp.n_vars)
    rec.high("optim.lp_rows.max", lp.n_rows)
    rec.high("optim.max_violation.max", sol.max_violation)
    if sol.status != "optimal":
        rec.add("optim.solve_lp.nonoptimal")


def _fw_after(signature):
    def after(rec, res, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        rec.add("optim.fw.iterations", res.iterations)
        rec.high("optim.fw.gap.max", res.gap)
        if res.iterations >= bound.arguments["max_iter"] and res.gap > bound.arguments["gap_tol"]:
            rec.add("optim.fw.hit_cap")
    return after


def _targets(rec: Recorder):
    """(defining module, attribute, wrapper factory) for everything traced."""
    import lppm.optim

    def span(name, after=None):
        return lambda fn: rec.span(fn, name, after)

    def count(key, of):
        return lambda r, out, a, k: r.add(key, of(out))

    fw_after = _fw_after(inspect.signature(lppm.optim.maximize_concave))
    return [
        ("lppm.cli", "main", span("cli.main")),
        ("lppm.mobility", "parse_traces", span("mobility.parse_traces",
                                               count("mobility.samples", len))),
        ("lppm.mobility", "extract_pois", span("mobility.extract_pois",
                                               count("mobility.pois", lambda o: len(o[0])))),
        ("lppm.mobility", "build_cloaks", span("mobility.build_cloaks",
                                               count("mobility.cloaks", len))),
        # called twice per build on the same trace, so kept once per job
        ("lppm.mobility", "stationary_flags", span(
            "mobility.stationary_flags",
            lambda r, o, a, k: r.once("mobility.stationary_samples", o.sum()))),
        ("lppm.mobility", "estimate_transitions", span("mobility.estimate_transitions")),
        ("lppm.mobility", "assemble_mdp", span("mobility.assemble_mdp",
                                               lambda r, o, a, k: _model_seen(r, o))),
        ("lppm.geo", "haversine_m", lambda fn: rec.counter(fn, "geo.haversine_m.calls")),
        ("lppm.fixtures", "campus", span("fixtures.campus",
                                         lambda r, o, a, k: _model_seen(r, o))),
        ("lppm.serialize", "save_mdp", span("serialize.save_mdp", _after_save_mdp)),
        ("lppm.serialize", "load_mdp", span("serialize.load_mdp", _after_load_mdp)),
        ("lppm.serialize", "save_result", span("serialize.save_result")),
        ("lppm.serialize", "load_result", span("serialize.load_result")),
        ("lppm.mdp", "check_unichain_exhaustive", span(
            "mdp.check_unichain_exhaustive",
            lambda r, o, a, k: r.add("mdp.unichain_budget_exceeded",
                                     o.status == "budget_exceeded"))),
        ("lppm.mdp", "stationary_distribution", span("mdp.stationary_distribution")),
        ("lppm.adversary", "adversary_matrix", span("adversary.adversary_matrix")),
        ("lppm.adversary", "belief_trajectory", span("adversary.belief_trajectory")),
        ("lppm.adversary", "belief_update", span("adversary.belief_update")),
        ("lppm.metrics", "write_metric_series", span("metrics.write_metric_series")),
        ("lppm.optim", "solve_lp", span("optim.solve_lp", _after_solve_lp)),
        ("lppm.optim", "maximize_concave", span("optim.maximize_concave", fw_after)),
        ("lppm.synthesis", "synthesize_unconstrained",
         span("synthesis.synthesize_unconstrained")),
        ("lppm.synthesis", "synthesize_eps_private", span("synthesis.synthesize_eps_private")),
        ("lppm.synthesis", "verify_invariance", span("synthesis.verify_invariance")),
        ("lppm.synthesis", "theorem1_certificate", span("synthesis.theorem1_certificate")),
        ("lppm.baselines", "run_baseline", span(
            lambda mdp, kind, *a, **k: f"baselines.{kind}",
            lambda r, o, a, k: r.add("baselines.steps", len(o.losses)))),
    ]

