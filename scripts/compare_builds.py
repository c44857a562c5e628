#!/usr/bin/env python3
"""Compare `lppm build` between two source trees, output by output.

    python3 scripts/compare_builds.py PARENT_TREE CHANGE_TREE [--seeds 1501 4242 9090]

A tree is a checkout of this repository; its `build` runs in a subprocess
with PYTHONPATH=<tree>/src. Both trees build the same inputs, written once
under a temporary directory from this script's own repository:

* the bundled trace tests/data/synthetic_traces.csv;
* for every seed, the build_traces benchmark traces of perfbench/gen.py
  (user0 as csv and as plt, user1 as plt, user2 as csv);
* the bundled trace with one quoted row, which sends the file to the
  row-by-row reader;
* the bundled trace, and the first seed's user0 csv, at two non-default
  parameter sets.

Each run compares every file written (mdp.json, poi_summary.csv), stdout,
stderr and the exit code, after replacing each side's output directory and
tree path in stdout and stderr with <out> and <tree>. The script prints one
line per difference and exits 1 if there is any; otherwise it prints how
many runs matched and exits 0.
"""
from __future__ import annotations

import argparse
import importlib.util
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


def _gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_inputs(work: Path, seeds: list[int]) -> list[tuple[str, Path, list[str]]]:
    """The runs to compare: (name, trace file, extra build arguments)."""
    gen = _gen()
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


def start_build(tree: Path, trace: Path, args: list[str], out: Path) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.Popen([sys.executable, "-m", "lppm.cli", "build", "--traces", str(trace),
                             "--out", str(out), *args],
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


def compare(parent: Path, change: Path, seeds: list[int]) -> list[str]:
    """One line per differing output of each run."""
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        runs = write_inputs(work, seeds)
        for name, trace, args in runs:
            sides = []
            for side, tree in (("parent", parent), ("change", change)):
                out = work / side / name
                out.parent.mkdir(exist_ok=True)
                sides.append((start_build(tree, trace, args, out), tree, out))
            got = [outcome(*side) for side in sides]
            for key in sorted(set(got[0]) | set(got[1])):
                if got[0].get(key) != got[1].get(key):
                    problems.append(f"{name}: {key} differs")
        print(f"{len(runs)} runs compared", file=sys.stderr)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--seeds", type=int, nargs="*", default=[1501, 4242, 9090],
                        help="perfbench trace seeds (default: 1501 4242 9090)")
    args = parser.parse_args(argv)
    problems = compare(args.parent.resolve(), args.change.resolve(), args.seeds)
    for line in problems:
        print(line)
    if not problems:
        print("byte-identical: mdp.json, poi_summary.csv, stdout, stderr and exit code")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
