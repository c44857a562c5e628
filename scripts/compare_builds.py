#!/usr/bin/env python3
"""Compare `lppm build` and the synthesis chain between two source trees.

    python3 scripts/compare_builds.py PARENT_TREE CHANGE_TREE [--seeds 1501 4242 9090]
                                      [--model MDP_JSON ...]

A tree is a checkout of this repository; its commands run in subprocesses
with PYTHONPATH=<tree>/src. Both trees build the same inputs, written once
under a temporary directory from this script's own repository:

* the bundled trace tests/data/synthetic_traces.csv;
* for every seed, the build_traces benchmark traces of perfbench/gen.py
  (user0 as csv and as plt, user1 as plt, user2 as csv);
* the bundled trace with one quoted row, which sends the file to the
  row-by-row reader;
* the bundled trace, and the first seed's user0 csv, at two non-default
  parameter sets;
* a seeded model whose rows differ by action at partial availability (the
  built models and campus move the same way under every action), written by
  the parent tree's lppm, so that both trees read it.

Each side then runs the synthesis chain on the model it built, on the campus
fixture, on the action-dependent model and on every --model file:
`synthesize` unconstrained, then eps_private, `verify` of both results and
`simulate` of both (200 steps). Every --model file must be in a model schema
the parent reads.
The secret state and budget of a model come from the parent's model through
perfbench's `private_spec` (imported from this script's repository): the
state most visited under the uniform policy, at a budget where the
certificate rows bind. The unconstrained result is verified and simulated
against that same budget. On campus the chain goes on with `synthesize`
asymptotic at epsilon 0.16 with secret s4, its `verify` and its `simulate`,
then a `simulate` of the eps_private result from the `unsafe` prior with
all mass on the secret (beliefs with zeros and tiny masses), and
`baselines` of all three kinds over 2 steps from that prior; the
action-dependent model's chain ends with the same `baselines` run.

Each command compares every file written, stdout, stderr and the exit code,
after replacing each side's output directory and tree path in stdout and
stderr with <out> and <tree>. The script prints one line per difference, and
for a JSON or CSV file also the largest relative and absolute differences
among the numbers both sides hold at the same place, with their places,
and the places only one side has, and exits 1 if there is any; otherwise it prints how many runs
matched and exits 0. Two `mdp.json` or two `result.json` files that differ
in bytes are also both read with this script's own lppm: when they hold the
same model bit for bit (`rows`, `utility`, `p0`, `available` and the meta)
or the same result bit for bit (every field of `SynthesisResult`), as after
a change of the file schema alone, the script prints that on its own line
and does not count it as a difference; otherwise the numbers compared are
those of the two models or results, by their places in `Mdp` or
`SynthesisResult`.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import importlib.util
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUNDLED = ROOT / "tests" / "data" / "synthetic_traces.csv"
# the build_traces shapes: (places, samples) per user, and the formats written
USERS = [(10, 50_000, ("csv", "plt")), (20, 50_000, ("plt",)), (30, 60_000, ("csv",))]
PARAM_SETS = {"small": ["--max-radius", "20", "--min-dist", "30", "--min-stay", "0.2"],
              "wide": ["--max-radius", "300", "--min-dist", "200", "--min-speed", "3"]}
HORIZON = "200"
ASYMPTOTIC = ["--epsilon", "0.16", "--secret", "s4"]  # the campus asymptotic run
UNSAFE = ["--belief", "unsafe", "--belief-mass", "1"]  # every mass on the secret at t = 0
BASELINE_KINDS = "max_entropy,max_inference_error,dp"
ACTION_DEPENDENT_SEED = 2400  # its eps_private budget binds: the cost rises above the optimum


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_inputs(work: Path, seeds: list[int]) -> list[tuple[str, Path, list[str]]]:
    """The builds to compare: (name, trace file, extra build arguments)."""
    gen = _perfbench("gen")
    runs = [("bundled", BUNDLED, [])]
    for seed in seeds:
        for user, (places, samples, formats) in enumerate(USERS):
            trace = gen.make_trace(seed, user, places, samples)
            for fmt in formats:
                path = work / f"seed{seed}_user{user}.{fmt}"
                (gen.write_plt if fmt == "plt" else gen.write_csv)(trace, path)
                runs.append((path.stem + "_" + fmt, path, []))
    lines = BUNDLED.read_text().splitlines(keepends=True)
    quoted = work / "bundled_quoted_row.csv"
    quoted.write_text("".join(lines[:50] + ['"40.0","-74.0","1"\n'] + lines[50:]))
    runs.append(("bundled_quoted_row", quoted, []))
    for name, args in PARAM_SETS.items():
        runs.append((f"bundled_{name}", BUNDLED, args))
        if seeds:
            runs.append((f"seed{seeds[0]}_user0_csv_{name}", work / f"seed{seeds[0]}_user0.csv",
                         args))
    return runs


def _own_lppm():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


# run as `python -c ACTION_DEPENDENT_MODEL PATH SEED` with a tree's lppm on the path
ACTION_DEPENDENT_MODEL = """
import sys
import numpy as np
from lppm.mdp import make_mdp
from lppm.serialize import save_mdp

rng = np.random.default_rng(int(sys.argv[2]))
n, m = 8, 5
available = [tuple(int(a) for a in rng.permutation(m)[:rng.integers(2, 5)]) for _ in range(n)]
save_mdp(make_mdp(rng.dirichlet(np.ones(n), size=(m, n)), rng.uniform(1.0, 5.0, size=(n, m)),
                  available, np.full(n, 1.0 / n)), sys.argv[1])
"""


def write_action_dependent_model(tree: Path, path: Path) -> None:
    """8 states, 5 actions, 2 to 4 of them available at each state, and a
    Dirichlet row of full support per available pair, so that every policy
    has an ergodic chain; written by `tree`'s lppm."""
    subprocess.run([sys.executable, "-c", ACTION_DEPENDENT_MODEL, str(path),
                    str(ACTION_DEPENDENT_SEED)],
                   env={**os.environ, "PYTHONPATH": str(tree / "src")}, check=True)


def private_spec(model_args: list[str]) -> tuple[int, float]:
    """(secret state, epsilon) for a model given as CLI arguments, read with
    this script's own lppm."""
    _own_lppm()
    from lppm import fixtures, serialize
    from lppm.mdp import occupancy_from_policy, uniform_policy

    kind, where = model_args
    mdp = fixtures.campus() if kind == "--fixture" else serialize.load_mdp(where)
    visits = occupancy_from_policy(mdp, uniform_policy(mdp)).sum(axis=1)
    candidates = [int(s) for s in sorted(range(mdp.n_states), key=lambda s: -visits[s])[:5]]
    return _perfbench("checks").private_spec(mdp, candidates)


def chain(model_args: list[str], secret: int, eps: float,
          baselines: bool = False) -> list[tuple[str, list[str]]]:
    """(step, CLI arguments) of the synthesis chain, run from the directory
    that holds every step's output directory, named after the step; campus,
    and the other models with `baselines`, end with a `baselines` run."""
    private = ["--epsilon", repr(eps), "--secret", str(secret)]
    modes = {"unconstrained": [], "eps_private": private}
    if model_args == ["--fixture", "campus"]:
        modes["asymptotic"] = ASYMPTOTIC
    steps = [(f"synthesize_{mode}", ["synthesize", *model_args, "--mode", mode, *given])
             for mode, given in modes.items()]
    for mode in modes:
        given = private if mode == "unconstrained" else []
        result = ["--result", f"synthesize_{mode}/result.json"]
        steps += [(f"verify_{mode}", ["verify", *model_args, *result, *given]),
                  (f"simulate_{mode}",
                   ["simulate", *model_args, *result, "--horizon", HORIZON, *given])]
    if "asymptotic" in modes:
        # beliefs with zeros and tiny masses, and the baselines' metric files
        steps.append(("simulate_eps_private_unsafe",
                      ["simulate", *model_args, "--result", "synthesize_eps_private/result.json",
                       "--horizon", HORIZON, *UNSAFE]))
    if baselines or "asymptotic" in modes:
        steps.append(("baselines", ["baselines", *model_args, "--kind", BASELINE_KINDS,
                                    "--horizon", "2", "--secret", str(secret), *UNSAFE]))
    return steps


def start(tree: Path, args: list[str], out: Path) -> subprocess.Popen:
    """One lppm command of `tree`, run in out's parent with --out out."""
    out.parent.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.Popen([sys.executable, "-m", "lppm.cli", *args, "--out", str(out)],
                            env=env, cwd=out.parent, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def outcome(proc: subprocess.Popen, tree: Path, out: Path) -> dict:
    """Exit code, normalized stdout and stderr, and the bytes of every file written."""
    stdout, stderr = proc.communicate()

    def normalize(text):
        return text.replace(str(out), "<out>").replace(str(tree), "<tree>")

    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit code": proc.returncode, "stdout": normalize(stdout),
            "stderr": normalize(stderr), **files}


def _walk(obj, path: str = "", found: dict | None = None) -> dict:
    """Every value of nested dicts and lists by its JSON path, numbers as
    floats and anything else as its repr."""
    found = {} if found is None else found
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else None
    if items is None:
        number = isinstance(obj, (int, float)) and not isinstance(obj, bool)
        found[path] = float(obj) if number else repr(obj)
    for key, value in items or ():
        _walk(value, f"{path}.{key}" if isinstance(key, str) else f"{path}[{key}]", found)
    return found


def _values(name: str, data: bytes) -> dict | None:
    """Every value of a JSON or CSV file by its place (a JSON path, or row and
    column), numbers as floats; None for other files or unreadable ones."""
    try:
        text = data.decode("utf-8")
        if name.endswith(".json"):
            return _walk(json.loads(text))
        if name.endswith(".csv"):
            found = {}
            for r, row in enumerate(csv.reader(io.StringIO(text))):
                for col, field in enumerate(row):
                    try:
                        found[f"row {r} column {col}"] = float(field)
                    except ValueError:
                        found[f"row {r} column {col}"] = field
            return found
    except (UnicodeDecodeError, ValueError, csv.Error):
        return None
    return None


def _model(data: bytes):
    """The model a model file holds, read with this script's own lppm; None
    when it holds none that lppm reads."""
    _own_lppm()
    from lppm.serialize import mdp_from_dict
    try:
        return mdp_from_dict(json.loads(data))
    except (LookupError, TypeError, ValueError, OverflowError):
        return None


def _result(data: bytes):
    """The synthesis result a result file holds, read with this script's own
    lppm; None when it holds none that lppm reads."""
    _own_lppm()
    from lppm.serialize import result_from_dict
    try:
        return result_from_dict(json.loads(data))
    except (LookupError, TypeError, ValueError, OverflowError):
        return None


def _plain(obj):
    """A result's fields as nested dicts and lists: each array by its
    `tolist()`, the certificate by its fields."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    return obj.tolist() if hasattr(obj, "tolist") else obj


def _model_values(mdp) -> dict:
    """Every value of a model by its place in `Mdp` (such as `.rows[3][7]`):
    the numbers of `rows`, `utility` and `p0` as floats, and `available` and
    the meta as their repr, which tells every float apart, -0.0 from 0.0 too."""
    found = {f".{key}": repr(getattr(mdp, key))
             for key in ("available", "state_meta", "action_meta")}
    for key in ("rows", "utility", "p0"):
        array = getattr(mdp, key)
        found[f".{key} shape"] = repr(array.shape)
        for index, x in zip(itertools.product(*map(range, array.shape)), array.ravel().tolist()):
            found[f".{key}" + "".join(f"[{i}]" for i in index)] = x
    return found


def number_difference(name: str, a: bytes, b: bytes) -> dict | None:
    """The largest |x - y| / max(|x|, |y|) ("relative") and |x - y|
    ("absolute") over the numbers both files hold at the same place, each
    as (difference, place), and the places only one file has ("only"); None
    when they are not JSON or CSV files or differ in a value that is not a
    number. Near zero the relative difference says little, hence both."""
    xs, ys = _values(name, a), _values(name, b)
    if xs is None or ys is None:
        return None
    return _value_difference(xs, ys)


def _value_difference(xs: dict, ys: dict) -> dict | None:
    """number_difference over two maps of values by place."""
    rel = gap = (0.0, None)
    for place in sorted(xs.keys() & ys.keys()):
        x, y = xs[place], ys[place]
        if isinstance(x, str) or isinstance(y, str):
            if x != y:
                return None
        elif x != y and not (math.isnan(x) and math.isnan(y)):
            scale = max(abs(x), abs(y))
            rel = max(rel, (abs(x - y) / scale if math.isfinite(scale) else math.inf, place),
                      key=lambda t: t[0])
            gap = max(gap, (abs(x - y), place), key=lambda t: t[0])
    return {"relative": rel, "absolute": gap, "only": sorted(xs.keys() ^ ys.keys())}


# file name -> (what it holds, its reader, the values of what it holds by place)
READERS = {"mdp.json": ("model", _model, _model_values),
           "result.json": ("result", _result, lambda result: _walk(_plain(result)))}


def _differences(name: str, got: list[dict]) -> tuple[list[str], list[str]]:
    """One line per output the two sides differ in, and one per model or
    result file that differs in bytes only, holding the same model or result
    bit for bit."""
    lines, same = [], []
    for key in sorted(set(got[0]) | set(got[1])):
        a, b = got[0].get(key), got[1].get(key)
        if a == b:
            continue
        line = f"{name}: {key} differs"
        files = isinstance(a, bytes) and isinstance(b, bytes)
        kind, read, values = READERS.get(key if files else None, (None, None, None))
        held = [read(a), read(b)] if read else [None]
        if None in held:
            diff = number_difference(key, a, b) if files else None
        else:
            xs, ys = map(values, held)
            if {k: repr(v) for k, v in xs.items()} == {k: repr(v) for k, v in ys.items()}:
                same.append(f"{name}: {key} holds the same {kind} bit for bit in other bytes")
                continue
            diff = _value_difference(xs, ys)
        if diff is not None:
            parts = [f"largest {kind} difference {value:.3g}" + (f" at {place}" if place else "")
                     for kind in ("relative", "absolute") for value, place in [diff[kind]]]
            if diff["only"]:
                parts.append(f"on one side only: {', '.join(diff['only'])}")
            line += f" ({'; '.join(parts)})"
        lines.append(line)
    return lines, same


def _run_both(trees, args: list[str], out: Path) -> list[dict]:
    """Outcomes of one command run on both trees at once, with the output
    directories <side>/<out> under the temporary directory."""
    procs = [(start(tree, args, side / out), tree, side / out) for side, tree in trees]
    return [outcome(*proc) for proc in procs]


def compare(parent: Path, change: Path, seeds: list[int],
            models: list[Path] = ()) -> tuple[list[str], list[str]]:
    """One line per differing output of each command, and one per model or
    result file that differs in bytes only."""
    problems, same, runs = [], [], 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        trees = [(work / "parent", parent), (work / "change", change)]
        # (name, the model as CLI arguments from the run's directory, the parent's model)
        chains = [("campus", ["--fixture", "campus"], ["--fixture", "campus"])]
        for name, trace, args in write_inputs(work, seeds):
            got = _run_both(trees, ["build", "--traces", str(trace), *args],
                            Path(name) / "build")
            lines, same_model = _differences(name, got)
            problems, same, runs = problems + lines, same + same_model, runs + 1
            if all("mdp.json" in side for side in got):
                chains.append((name, ["--model", "build/mdp.json"],
                               ["--model", str(work / "parent" / name / "build" / "mdp.json")]))
        model = work / "action_dependent.json"
        write_action_dependent_model(parent, model)
        chains.append(("action_dependent", ["--model", str(model)], ["--model", str(model)]))
        chains += [(f"model{k}_{path.stem}", ["--model", str(path)], ["--model", str(path)])
                   for k, path in enumerate(models)]
        for name, model_args, parent_model in chains:
            for step, args in chain(model_args, *private_spec(parent_model),
                                    baselines=name == "action_dependent"):
                lines, same_model = _differences(f"{name} {step}",
                                                 _run_both(trees, args, Path(name) / step))
                problems, same, runs = problems + lines, same + same_model, runs + 1
        print(f"{runs} runs compared", file=sys.stderr)
    return problems, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--seeds", type=int, nargs="*", default=[1501, 4242, 9090],
                        help="perfbench trace seeds (default: 1501 4242 9090)")
    parser.add_argument("--model", type=Path, nargs="*", default=[],
                        help="saved model files to run the synthesis chain on as well; both "
                             "trees read them, so each must be in a model schema the parent "
                             "reads")
    args = parser.parse_args(argv)
    problems, same = compare(args.parent.resolve(), args.change.resolve(), args.seeds,
                             [path.resolve() for path in args.model])
    for line in same + problems:
        print(line)
    if not problems:
        print("byte-identical: every file written, stdout, stderr and exit code"
              + (f", but for the {len(same)} model and result files above" if same else ""))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
