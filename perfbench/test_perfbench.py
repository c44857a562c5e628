"""The benchmark's own tests, on tiny inputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()


def _bench(capsys, workload, trace=0, seed=3):
    rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                   "--trace", str(trace), "--size", "tiny"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    return json.loads(out[-1])


def test_declared_metrics_match_the_runner():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["unit"] == {**run.END_TO_END, **run.PER_LAYER}[m["name"]]
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("workload", ["build_traces", "synth_large"])
def test_every_end_to_end_metric_is_emitted(capsys, workload):
    result = _bench(capsys, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_every_per_layer_metric_is_emitted_and_counts_repeat(capsys):
    first = _bench(capsys, "synth_large", trace=1)
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert first["metrics"]["optim.pivots"]["value"] > 0
    assert first["metrics"]["mdp.transition_bytes"]["value"] > 0
    second = _bench(capsys, "synth_large", trace=1)
    for name in run.EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_trace_counts_see_the_trace_pipeline(capsys):
    metrics = _bench(capsys, "build_traces", trace=1)["metrics"]
    assert metrics["geo.haversine_m.calls"]["value"] > 0
    assert metrics["mobility.samples"]["value"] == 8000
    assert 0 < metrics["mobility.stationary_samples"]["value"] < 8000


def test_corrupted_output_counts_as_failed_job(capsys, monkeypatch):
    from lppm import serialize

    save = serialize.save_result

    def corrupt(result, path):
        result.average_cost *= 1.01
        save(result, path)

    monkeypatch.setattr(serialize, "save_result", corrupt)
    result = _bench(capsys, "build_traces")
    assert not result["correct"]
    assert result["failed"] >= 2          # one eps_private job per user
    assert result["failed"] < result["attempted"]


def test_corrupted_model_counts_as_failed_job(capsys, monkeypatch):
    from lppm import mobility

    estimate = mobility.estimate_transitions

    def shifted(traces, pois, params):
        counts, p = estimate(traces, pois, params)
        return counts, p[::-1].copy()

    monkeypatch.setattr(mobility, "estimate_transitions", shifted)
    result = _bench(capsys, "build_traces")
    assert not result["correct"] and result["failed"] >= 2


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "build_traces",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_job_that_raises_counts_as_failed(capsys, monkeypatch):
    from lppm import cli

    def broken(*args, **kwargs):
        raise RuntimeError("broken verifier")

    monkeypatch.setattr(cli, "verify_invariance", broken)
    result = _bench(capsys, "build_traces")
    assert not result["correct"] and result["failed"] == 2    # the verify job of each user
