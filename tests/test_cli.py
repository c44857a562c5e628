import json
from functools import partial

import numpy as np
import pytest

from lppm import baselines as bl, serialize
from lppm.cli import main
from lppm.fixtures import campus as campus_fixture
from lppm import synthesis
from lppm.mdp import Mdp, make_mdp
from lppm.optim import LpSolution
from lppm.serialize import load_mdp, load_result, save_mdp, save_result
from lppm.synthesis import InvarianceVerdict, SynthesisResult
from support import (action_independent_mdp, binding_spec, csv_write_belief_csv,
                     csv_write_metric_series, random_dense_mdp,
                     record_chain_builds, record_synthesis_lps, recursive_dumps_canonical,
                     save_mdp_v1, save_mdp_v2)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestBuild:
    def test_fixture_model_written(self, tmp_path, capsys):
        rc, out, _ = run(capsys, "build", "--fixture", "campus",
                         "--out", str(tmp_path))
        assert rc == 0
        mdp = load_mdp(tmp_path / "mdp.json")
        assert mdp.n_states == 6
        assert "mdp.json" in out

    def test_traces_pipeline_outputs(self, tmp_path, capsys, trace_path):
        rc, out, _ = run(capsys, "build", "--traces", str(trace_path),
                         "--out", str(tmp_path))
        assert rc == 0
        assert (tmp_path / "mdp.json").exists()
        assert (tmp_path / "poi_summary.csv").exists()
        mdp = load_mdp(tmp_path / "mdp.json")
        assert mdp.n_states == 2

    def test_build_deterministic_bytes(self, tmp_path, capsys, trace_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "build", "--traces", str(trace_path),
                   "--out", str(d1))[0] == 0
        assert run(capsys, "build", "--traces", str(trace_path),
                   "--out", str(d2))[0] == 0
        assert (d1 / "mdp.json").read_bytes() == (d2 / "mdp.json").read_bytes()

    def test_missing_input_is_exit_1(self, tmp_path, capsys):
        rc, _, err = run(capsys, "build", "--out", str(tmp_path))
        assert rc == 1
        assert err

    def test_nonexistent_trace_file_is_exit_1(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "build", "--traces",
                       str(tmp_path / "missing.csv"), "--out", str(tmp_path))
        assert rc == 1

    def test_unknown_fixture_is_exit_1(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "build", "--fixture", "nowhere",
                       "--out", str(tmp_path))
        assert rc == 1

    def test_all_moving_trace_is_exit_2(self, tmp_path, capsys):
        from test_mobility import travel_rows, write_csv
        p = tmp_path / "t.csv"
        write_csv(p, travel_rows(0.0, 0.0, 30000.0, 0.0, 0.0))
        rc, _, _ = run(capsys, "build", "--traces", str(p),
                       "--out", str(tmp_path))
        assert rc == 2


class TestSynthesize:
    def test_unconstrained_prints_cost(self, tmp_path, capsys):
        rc, out, err = run(capsys, "synthesize", "--fixture", "campus",
                           "--mode", "unconstrained", "--out", str(tmp_path))
        assert (rc, err) == (0, "")
        assert "average_cost" in out
        res = load_result(tmp_path / "result.json")
        assert res.average_cost == pytest.approx(3.526652, abs=1e-5)

    def test_full_budget_equals_unconstrained(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "synthesize", "--fixture", "campus",
                       "--mode", "eps_private", "--epsilon", "1.0",
                       "--secret", "s4", "--out", str(tmp_path / "a"))
        assert rc == 0
        rc, _, _ = run(capsys, "synthesize", "--fixture", "campus",
                       "--mode", "unconstrained", "--out", str(tmp_path / "b"))
        assert rc == 0
        capped = load_result(tmp_path / "a" / "result.json")
        free = load_result(tmp_path / "b" / "result.json")
        assert capped.average_cost == pytest.approx(free.average_cost,
                                                    abs=1e-8)

    def test_secret_accepts_integer_index(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "synthesize", "--fixture", "campus",
                       "--mode", "eps_private", "--epsilon", "0.2",
                       "--secret", "3", "--out", str(tmp_path))
        assert rc == 0
        assert load_result(tmp_path / "result.json").secret_states == (3,)

    def test_infeasible_budget_is_exit_3(self, tmp_path, capsys):
        rc, out, err = run(capsys, "synthesize", "--fixture", "campus",
                           "--mode", "eps_private", "--epsilon", "0.05",
                           "--secret", "s4", "--out", str(tmp_path))
        assert rc == 3
        assert "infeasible" in (out + err).lower()

    def test_asymptotic_mode(self, tmp_path, capsys):
        rc, out, err = run(capsys, "synthesize", "--fixture", "campus",
                           "--mode", "asymptotic", "--epsilon", "0.16",
                           "--secret", "s4", "--out", str(tmp_path))
        assert rc == 0
        res = load_result(tmp_path / "result.json")
        assert res.mode == "asymptotic"
        assert res.b_inf[3] <= 0.16
        assert err == ""
        assert "warning" not in out

    def test_action_dependent_model_exit_1(self, tmp_path, capsys):
        mdp = campus_fixture()
        rows = mdp.rows.copy()
        rows[4, 1] = np.nextafter(rows[4, 1], 1.0)  # the last pair of state 1
        save_mdp(Mdp(rows, mdp.available, mdp.utility, mdp.p0), tmp_path / "mdp.json")
        rc, out, err = run(capsys, "synthesize", "--model", str(tmp_path / "mdp.json"),
                           "--mode", "asymptotic", "--epsilon", "0.16", "--secret", "3",
                           "--out", str(tmp_path))
        assert rc == 1 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert "state 1" in lines[0]

    def test_unreachable_asymptotic_budget_exit_3(self, tmp_path, capsys):
        rc, out, err = run(capsys, "synthesize", "--fixture", "campus",
                           "--mode", "asymptotic", "--epsilon", "0.08",
                           "--secret", "s4", "--out", str(tmp_path))
        assert rc == 3 and out == ""
        first = err.splitlines()[0]
        assert first.startswith("infeasible: ") and "feasibility unknown" in first
        assert "smallest limit secret mass reached was 0.087824" in first
        assert not (tmp_path / "result.json").exists()

    def test_unichain_budget_exceeded_warns(self, tmp_path, capsys):
        # two distinct rows at each of 15 states: 2**15 deterministic chains
        mdp = random_dense_mdp(np.random.default_rng(7), n_states=15, n_actions=2)
        save_mdp(mdp, tmp_path / "mdp.json")
        rc, out, err = run(capsys, "synthesize", "--model", str(tmp_path / "mdp.json"),
                           "--mode", "unconstrained", "--out", str(tmp_path))
        assert rc == 0
        lines = err.strip().splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith("warning: unichain check skipped: the model has more "
                                   "than 20000 distinct deterministic policy chains")
        assert "warning" not in out
        assert load_result(tmp_path / "result.json").diagnostics["unichain"] == \
            "budget_exceeded"

    def test_missing_epsilon_is_exit_1(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "synthesize", "--fixture", "campus",
                       "--mode", "eps_private", "--secret", "s4",
                       "--out", str(tmp_path))
        assert rc == 1

    def self_check_fails(self, tmp_path, capsys, mode, epsilon):
        """synthesize exits 4 with one error line and writes no result; the line."""
        spec = () if epsilon is None else ("--epsilon", epsilon, "--secret", "s4")
        rc, out, err = run(capsys, "synthesize", "--fixture", "campus", "--mode", mode, *spec,
                           "--out", str(tmp_path))
        assert rc == 4 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            f"error: the synthesized {mode} policy failed its self-check: "), err
        assert not (tmp_path / "result.json").exists()
        return lines[0]

    def test_private_policy_above_the_verify_slack_exit_4(self, tmp_path, capsys, monkeypatch):
        # a worst mass 1e-8 above epsilon: refused by verify, so by synthesize too
        monkeypatch.setattr("lppm.synthesis.verify_invariance",
                            lambda chain, spec: InvarianceVerdict(False, 0.20000001, None))
        line = self.self_check_fails(tmp_path, capsys, "eps_private", "0.2")
        assert line.endswith("worst one-step secret mass 0.20000001 (epsilon 0.2)")

    def test_asymptotic_limit_that_fails_exit_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("lppm.synthesis.limit_check",
                            lambda chain, spec, b_inf: (0.17, 0.0, False))
        line = self.self_check_fails(tmp_path, capsys, "asymptotic", "0.16")
        assert line.endswith("limit secret mass 0.17, stored b_inf off by 0 (epsilon 0.16)")

    @pytest.mark.parametrize("mode,epsilon", [("eps_private", "0.2"), ("asymptotic", "0.16"),
                                              ("unconstrained", None)])
    def test_theta_drift_exit_4(self, tmp_path, capsys, monkeypatch, mode, epsilon):
        def drifted(mdp, result):  # theta 1e-8 off the policy's own occupancy
            result.theta.flat[np.argmax(result.theta)] += 1e-8
            return deployed_chain(mdp, result)

        deployed_chain = synthesis.deployed_chain
        monkeypatch.setattr("lppm.synthesis.deployed_chain", drifted)
        line = self.self_check_fails(tmp_path, capsys, mode, epsilon)
        assert line.endswith("its own occupancy differs from theta by 1e-08 > 1e-09 (max abs)")

    @pytest.mark.parametrize("mode,epsilon", [("eps_private", "0.2"), ("asymptotic", "0.16"),
                                              ("unconstrained", None)])
    def test_non_ergodic_policy_chain_exit_4(self, tmp_path, capsys, monkeypatch, mode, epsilon):
        # no silent check of the stored theta instead
        monkeypatch.setattr("lppm.synthesis.induce_chain",
                            lambda mdp, policy: np.eye(mdp.n_states))
        line = self.self_check_fails(tmp_path, capsys, mode, epsilon)
        assert line.endswith("its chain is not ergodic")


class TestSimulate:
    def synth(self, capsys, tmp_path, *extra):
        rc, _, _ = run(capsys, "synthesize", "--fixture", "campus",
                       "--mode", "eps_private", "--epsilon", "0.2",
                       "--secret", "s4", "--out", str(tmp_path), *extra)
        assert rc == 0

    def test_private_run_holds_budget(self, tmp_path, capsys):
        self.synth(capsys, tmp_path)
        rc, out, _ = run(capsys, "simulate", "--fixture", "campus",
                         "--result", str(tmp_path / "result.json"),
                         "--horizon", "200", "--out", str(tmp_path))
        assert rc == 0
        assert "holds" in out
        rows = (tmp_path / "belief.csv").read_text().strip().splitlines()
        assert len(rows) == 202
        for row in rows[1:]:
            assert float(row.split(",")[-1]) <= 0.2 + 1e-8
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "quality.csv").exists()

    def test_unconstrained_with_budget_reports_violation(self, tmp_path,
                                                         capsys):
        rc, _, _ = run(capsys, "synthesize", "--fixture", "campus",
                       "--mode", "unconstrained", "--out", str(tmp_path))
        assert rc == 0
        rc, out, _ = run(capsys, "simulate", "--fixture", "campus",
                         "--result", str(tmp_path / "result.json"),
                         "--horizon", "100", "--epsilon", "0.2",
                         "--secret", "s4", "--out", str(tmp_path))
        assert rc == 0
        assert "violated" in out

    def test_bound_check_reads_the_csv_column(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "synthesize", "--fixture", "campus",
                       "--mode", "unconstrained", "--out", str(tmp_path))
        assert rc == 0
        rows = []
        for out, secret in [("once", "s4,s1,s6"), ("repeated", "s4,s1,s6,s4")]:
            rc, text, _ = run(capsys, "simulate", "--fixture", "campus",
                              "--result", str(tmp_path / "result.json"), "--horizon", "30",
                              "--epsilon", "0.44", "--secret", secret,
                              "--out", str(tmp_path / out))
            assert rc == 0
            masses = [float(r.split(",")[-1]) for r in
                      (tmp_path / out / "belief.csv").read_text().splitlines()[1:]]
            metric = [float(r.split(",")[-1]) for r in
                      (tmp_path / out / "metrics.csv").read_text().splitlines()[1:]]
            assert metric == masses
            first = next(t for t, m in enumerate(masses) if m > 0.44 + 1e-9)
            assert f"violated at t={first} (max mass {max(masses):.6f}" in text
            rows.append((tmp_path / out / "belief.csv").read_bytes())
        assert rows[0] == rows[1]   # a repeated secret state counts once

    def test_horizon_zero_header_only(self, tmp_path, capsys):
        self.synth(capsys, tmp_path)
        rc, _, _ = run(capsys, "simulate", "--fixture", "campus",
                       "--result", str(tmp_path / "result.json"),
                       "--horizon", "0", "--out", str(tmp_path))
        assert rc == 0
        for name in ("belief.csv", "metrics.csv", "quality.csv"):
            lines = (tmp_path / name).read_text().strip().splitlines()
            assert len(lines) == 1, name

    def test_quality_converges_to_result_cost(self, tmp_path, capsys):
        self.synth(capsys, tmp_path)
        rc, _, _ = run(capsys, "simulate", "--fixture", "campus",
                       "--result", str(tmp_path / "result.json"),
                       "--horizon", "2000", "--out", str(tmp_path))
        assert rc == 0
        res = load_result(tmp_path / "result.json")
        last = (tmp_path / "quality.csv").read_text().strip().splitlines()[-1]
        avg = float(last.split(",")[2])
        assert avg == pytest.approx(res.average_cost, rel=0.02)


class TestVerify:
    def test_private_result_verifies_clean(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "synthesize", "--fixture", "campus",
                       "--mode", "eps_private", "--epsilon", "0.2",
                       "--secret", "s4", "--out", str(tmp_path))
        assert rc == 0
        rc, out, _ = run(capsys, "verify", "--fixture", "campus",
                         "--result", str(tmp_path / "result.json"),
                         "--out", str(tmp_path))
        assert rc == 0
        assert "invariant" in out

    def test_unconstrained_chain_escapes_with_witness(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "synthesize", "--fixture", "campus",
                       "--mode", "unconstrained", "--out", str(tmp_path))
        assert rc == 0
        rc, out, _ = run(capsys, "verify", "--fixture", "campus",
                         "--result", str(tmp_path / "result.json"),
                         "--epsilon", "0.16", "--secret", "s4",
                         "--out", str(tmp_path))
        assert rc == 1
        assert "witness belief: [0 0 0 0.16 0 0.84]\n" in out

    def test_all_time_output_unchanged(self, tmp_path, capsys):
        self.private_result(tmp_path, capsys)
        rc, out, err = run(capsys, "verify", "--fixture", "campus",
                           "--result", str(tmp_path / "result.json"))
        assert rc == 0 and err == ""
        lines = out.splitlines()
        assert lines[:2] == [
            "direct check: worst one-step secret mass from the safe set = 0.200000000 "
            "(epsilon 0.2)",
            "invariant: True"]
        assert len(lines) == 3 and lines[2].startswith("certificate: z=0.444444444, margin=")

    def asymptotic_result(self, tmp_path, capsys, epsilon="0.16"):
        rc, _, _ = run(capsys, "synthesize", "--fixture", "campus",
                       "--mode", "asymptotic", "--epsilon", epsilon,
                       "--secret", "s4", "--out", str(tmp_path))
        assert rc == 0
        return load_result(tmp_path / "result.json")

    def test_asymptotic_result_verifies(self, tmp_path, capsys):
        self.asymptotic_result(tmp_path, capsys)
        rc, out, err = run(capsys, "verify", "--fixture", "campus",
                           "--result", str(tmp_path / "result.json"))
        assert rc == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("limit check: secret mass of the limit belief = 0.158")
        assert lines[0].endswith(" (epsilon 0.16)")
        assert lines[1] == "stored b_inf: max abs difference 0.000e+00"
        assert lines[2] == "holds in the limit: True"

    def test_edited_limit_belief_fails(self, tmp_path, capsys):
        result = self.asymptotic_result(tmp_path, capsys)
        result.b_inf[0] += 1e-6
        result.b_inf[1] -= 1e-6
        rc, out, _ = self.verify_altered(tmp_path, capsys, result)
        assert rc == 1
        assert out.splitlines()[-1] == "holds in the limit: False"

    def test_limit_above_epsilon_fails(self, tmp_path, capsys):
        self.asymptotic_result(tmp_path, capsys, epsilon="0.3")
        rc, out, _ = run(capsys, "verify", "--fixture", "campus",
                         "--result", str(tmp_path / "result.json"), "--epsilon", "0.16")
        assert rc == 1
        assert "limit belief = 0.298" in out
        assert out.splitlines()[-1] == "holds in the limit: False"

    def test_verify_solves_no_lp(self, tmp_path, capsys, monkeypatch):
        solved = record_synthesis_lps(monkeypatch)
        self.private_result(tmp_path, capsys)
        assert len(solved) == 1  # the eps_private LP; its post-verify check is closed form
        rc, out, _ = run(capsys, "verify", "--fixture", "campus",
                         "--result", str(tmp_path / "result.json"), "--out", str(tmp_path))
        assert rc == 0 and "invariant: True" in out
        assert len(solved) == 1

    def private_result(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "synthesize", "--fixture", "campus",
                       "--mode", "eps_private", "--epsilon", "0.2",
                       "--secret", "s4", "--out", str(tmp_path))
        assert rc == 0
        return load_result(tmp_path / "result.json")

    def verify_altered(self, tmp_path, capsys, result, command="verify"):
        save_result(result, tmp_path / "altered.json")
        return run(capsys, command, "--fixture", "campus",
                   "--result", str(tmp_path / "altered.json"), "--out", str(tmp_path))

    def test_tampered_policy_exit_4(self, tmp_path, capsys):
        result = self.private_result(tmp_path, capsys)
        result.policy[0] = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]  # was all on action 4
        rc, out, err = self.verify_altered(tmp_path, capsys, result)
        assert rc == 4
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert "theta" in lines[0]

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_non_ergodic_policy_exit_4(self, tmp_path, capsys, command):
        # action 0 stays put, action 1 swaps the two states
        transition = np.stack([np.eye(2), np.eye(2)[::-1]])
        mdp = make_mdp(transition, np.ones((2, 2)), ((0, 1), (0, 1)), np.array([0.5, 0.5]))
        save_mdp(mdp, tmp_path / "mdp.json")
        stay = np.array([[1.0, 0.0], [1.0, 0.0]])
        save_result(SynthesisResult("eps_private", 0.5 * stay, stay, np.full(2, 0.5), 1.0,
                                    epsilon=0.5, secret_states=(0,)), tmp_path / "result.json")
        rc, out, err = run(capsys, command, "--model", str(tmp_path / "mdp.json"),
                           "--result", str(tmp_path / "result.json"), "--out", str(tmp_path))
        assert rc == 4
        assert out == ""
        assert err.splitlines() == [
            "error: the result's eps_private policy fails its check: its chain is not ergodic"]

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    @pytest.mark.parametrize("shift,code", [(1e-12, 0), (1e-8, 4)])
    def test_theta_drift_tolerance(self, tmp_path, capsys, shift, code, command):
        result = self.private_result(tmp_path, capsys)
        result.theta[1, 4] += shift
        rc, out, err = self.verify_altered(tmp_path, capsys, result, command)
        assert rc == code, err
        if code == 4:
            assert out == ""
            assert err.splitlines() == [
                "error: the result's eps_private policy fails its check: its own occupancy "
                "differs from theta by 1e-08 > 1e-09 (max abs)"]


class TestBaselines:
    def test_three_csvs_written(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "baselines", "--fixture", "campus",
                       "--horizon", "5", "--eps-dp", "0.7", "--secret", "s4",
                       "--out", str(tmp_path))
        assert rc == 0
        for kind in ("max_entropy", "max_inference_error", "dp"):
            path = tmp_path / f"baseline_{kind}.csv"
            assert path.exists(), kind
            lines = path.read_text().strip().splitlines()
            assert len(lines) == 7   # header + horizon + final belief row

    def test_runs_byte_identical(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            rc, _, _ = run(capsys, "baselines", "--fixture", "campus",
                           "--horizon", "4", "--eps-dp", "0.7",
                           "--secret", "s4", "--out", str(d))
            assert rc == 0
        for kind in ("max_entropy", "max_inference_error", "dp"):
            name = f"baseline_{kind}.csv"
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_single_kind_selection(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "baselines", "--fixture", "campus",
                       "--horizon", "3", "--kind", "max_entropy",
                       "--secret", "s4", "--out", str(tmp_path))
        assert rc == 0
        assert (tmp_path / "baseline_max_entropy.csv").exists()
        assert not (tmp_path / "baseline_dp.csv").exists()

    def test_unknown_kind_is_exit_1(self, tmp_path, capsys):
        rc, _, err = run(capsys, "baselines", "--fixture", "campus",
                         "--kind", "uniform,dp", "--out", str(tmp_path))
        assert rc == 1
        assert "unknown baseline kind" in err
        assert "uniform" in err
        assert not (tmp_path / "baseline_dp.csv").exists()

    def test_infeasible_dp_is_exit_3(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "baselines", "--fixture", "campus",
                       "--horizon", "3", "--kind", "dp", "--eps-dp", "0.7",
                       "--secret", "s4", "--belief", "explicit",
                       "--config", self.explicit_config(tmp_path),
                       "--out", str(tmp_path))
        assert rc == 3

    UNSAFE_ARGV = ("baselines", "--fixture", "campus", "--horizon", "2", "--belief", "unsafe",
                   "--secret", "s4")

    def test_unconverged_frank_wolfe_warns_once(self, tmp_path, capsys, monkeypatch):
        # one round per step cannot reach the gap tolerance from the uniform start
        monkeypatch.setattr(bl, "maximize_concave", partial(bl.maximize_concave, max_iter=1))
        rc, out, err = run(capsys, *self.UNSAFE_ARGV, "--out", str(tmp_path))
        assert rc == 0
        lines = err.strip().splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith("warning: max_entropy: Frank-Wolfe stopped above its gap "
                                   "tolerance 1e-06 in 2 of 2 steps (largest gap ")
        assert "warning" not in out
        # the other kinds run no Frank-Wolfe loop
        rc, _, err = run(capsys, *self.UNSAFE_ARGV, "--kind", "max_inference_error,dp",
                         "--out", str(tmp_path))
        assert (rc, err) == (0, "")

    def test_campus_baselines_converge_silently(self, tmp_path, capsys):
        rc, _, err = run(capsys, *self.UNSAFE_ARGV, "--out", str(tmp_path))
        assert (rc, err) == (0, "")

    def test_converged_frank_wolfe_is_silent(self, tmp_path, capsys):
        # one action per state: the uniform start is the only mechanism, gap 0
        mdp = make_mdp(np.full((2, 2, 2), 0.5), np.ones((2, 2)), ((0,), (1,)),
                       np.array([0.5, 0.5]))
        save_mdp(mdp, tmp_path / "mdp.json")
        rc, _, err = run(capsys, "baselines", "--model", str(tmp_path / "mdp.json"),
                         "--horizon", "3", "--kind", "max_entropy", "--out", str(tmp_path))
        assert (rc, err) == (0, "")

    @pytest.mark.parametrize("kind,lp", [("dp", "dp"),
                                         ("max_inference_error", "inference-error")])
    def test_stalled_lp_is_one_error_line_exit_3(self, tmp_path, capsys, monkeypatch, kind, lp):
        monkeypatch.setattr(bl, "solve_lp", lambda _lp: LpSolution("stalled", None, None, 17))
        rc, out, err = run(capsys, "baselines", "--fixture", "campus", "--horizon", "2",
                           "--kind", kind, "--out", str(tmp_path))
        assert rc == 3
        assert err == f"error: {kind}: the {lp} LP stalled after 17 pivots; feasibility unknown\n"
        assert "infeasible" not in err and out == ""
        assert not (tmp_path / f"baseline_{kind}.csv").exists()

    @staticmethod
    def explicit_config(tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"belief_vector": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]}))
        return str(cfg)


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["synthesize", "--fixture", "campus", "--secret", "s4", "--epsilon", "1.5"],
        ["synthesize", "--fixture", "campus", "--secret", "s4", "--epsilon", "nan"],
        ["synthesize", "--fixture", "campus", "--secret", "6", "--epsilon", "0.2"],
        ["simulate", "--fixture", "campus", "--result", "{result}", "--horizon", "-1"],
        ["baselines", "--fixture", "campus", "--horizon", "-2"],
        ["baselines", "--fixture", "campus", "--horizon", "1", "--eps-dp", "0"],
        ["baselines", "--fixture", "campus", "--horizon", "0"],
        ["simulate", "--fixture", "campus", "--result", "{result}", "--belief", "unsafe",
         "--belief-mass", "1.5"],
        ["build", "--traces", "{traces}", "--min-speed", "-1"],
        ["build", "--traces", "{traces}", "--k", "99"],
        ["build", "--traces", "{traces}", "--start-state", "99"],
        ["verify", "--fixture", "campus", "--result", "{result}", "--epsilon", "0.2"],
        ["synthesize", "--fixture", "campus", "--mode", "asymptotic", "--secret", "s4",
         "--epsilon", "0.0005"],
    ], ids=["epsilon_above_one", "epsilon_nan", "secret_out_of_range",
            "simulate_negative_horizon", "baselines_negative_horizon", "eps_dp_zero",
            "baselines_horizon_zero", "belief_mass_above_one", "negative_min_speed",
            "k_above_poi_count", "start_state_out_of_range", "verify_without_secret",
            "asymptotic_epsilon_within_margin"])
    def test_one_error_line_exit_1(self, tmp_path, capsys, trace_path, argv):
        result = tmp_path / "result.json"
        rc, _, _ = run(capsys, "synthesize", "--fixture", "campus", "--mode",
                       "unconstrained", "--out", str(tmp_path))
        assert rc == 0
        argv = [{"{result}": str(result), "{traces}": str(trace_path)}.get(a, a) for a in argv]
        rc, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert rc == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err

    @pytest.mark.parametrize("command", ["baselines", "simulate"])
    def test_belief_vector_off_the_simplex(self, tmp_path, capsys, command):
        # sums to 1 + 5e-10: off the simplex by more than the belief update allows
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"belief_vector": [0.5, 0.5 + 5e-10, 0.0, 0.0, 0.0, 0.0]}))
        assert run(capsys, "synthesize", "--fixture", "campus", "--mode", "unconstrained",
                   "--out", str(tmp_path))[0] == 0
        result = ["--result", str(tmp_path / "result.json")] if command == "simulate" else []
        rc, _, err = run(capsys, command, "--fixture", "campus", *result, "--horizon", "2",
                         "--belief", "explicit", "--config", str(cfg),
                         "--out", str(tmp_path / "out"))
        assert (rc, err) == (1, "error: belief_vector is not a distribution over the states\n")

    @pytest.mark.parametrize("command", ["baselines", "simulate"])
    @pytest.mark.parametrize("belief", ["uniform", "uniform_excluding_secret", "unsafe"])
    def test_one_state_model_default_secret(self, tmp_path, capsys, command, belief):
        # the default secret state 0 leaves a one-state model no public state
        save_mdp(make_mdp(np.ones((2, 1, 1)), np.array([[1.0, 2.0]]), ((0, 1),),
                          np.array([1.0])), tmp_path / "mdp.json")
        model = ("--model", str(tmp_path / "mdp.json"))
        assert run(capsys, "synthesize", *model, "--mode", "unconstrained",
                   "--out", str(tmp_path))[0] == 0
        extra = {"baselines": ("--kind", "max_entropy"),
                 "simulate": ("--result", str(tmp_path / "result.json"))}[command]
        rc, out, err = run(capsys, command, *model, *extra, "--horizon", "2",
                           "--belief", belief, "--out", str(tmp_path / "out"))
        if belief == "uniform":
            assert (rc, err) == (0, "")
        else:
            assert (rc, out) == (1, "")
            assert err == f"error: belief '{belief}' needs a public state, but every state " \
                          f"is secret\n"
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,config", [
        (["synthesize", "--mode", "unconstrained"], {"model": 0}),
        (["verify", "--fixture", "campus"], {"result": 0}),
        (["build"], {"traces": 5}),
        (["build", "--traces", "{traces}"], {"format": 7}),
        (["synthesize", "--fixture", "campus"], {"mode": None}),
    ], ids=["model", "result", "traces", "format", "mode"])
    def test_config_value_not_a_string(self, tmp_path, capsys, trace_path, argv, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [str(trace_path) if a == "{traces}" else a for a in argv]
        rc, out, err = run(capsys, *argv, "--config", str(cfg), "--out", str(tmp_path / "out"))
        (key, value), = config.items()
        assert (rc, out) == (1, "")
        assert err == f"error: config file {cfg}: {key} must be a string, got {value!r}\n"

    def test_unknown_trace_format_in_config(self, tmp_path, capsys, trace_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "gpx"}))
        rc, out, err = run(capsys, "build", "--traces", str(trace_path), "--config", str(cfg),
                           "--out", str(tmp_path / "out"))
        assert (rc, out, err) == (1, "", "error: unknown trace format 'gpx'\n")

    @pytest.mark.parametrize("kind", ["model", "result"])
    def test_overlarge_integer_is_malformed(self, tmp_path, capsys, campus, kind):
        model, result = tmp_path / "mdp.json", tmp_path / "result.json"
        save_mdp(campus, model)
        assert run(capsys, "synthesize", "--model", str(model), "--mode", "unconstrained",
                   "--out", str(tmp_path))[0] == 0
        path, key = (model, "p0") if kind == "model" else (result, "p_inf")
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, key: [10 ** 400, *doc[key][1:]]}))
        command = ("synthesize", "--mode", "unconstrained") if kind == "model" else \
            ("verify", "--result", str(result), "--secret", "s4", "--epsilon", "0.2")
        rc, out, err = run(capsys, *command, "--model", str(model), "--out", str(tmp_path / "out"))
        assert (rc, out) == (1, "")
        assert err == f"error: {kind} file {path} is malformed: int too large to convert to float\n"

    @pytest.mark.parametrize("content", [None, b"lat,lon,timestamp\n40.0,-74.0,1\xff\n"],
                             ids=["directory", "not_utf8"])
    def test_unreadable_trace_file_exit_1(self, tmp_path, capsys, content):
        path = tmp_path / "traces.csv"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        rc, out, err = run(capsys, "build", "--traces", str(path), "--out", str(tmp_path / "out"))
        assert (rc, out) == (1, "")
        lines = err.strip().splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith(f"error: cannot read trace file {path}: "), err


class TestMalformedFile:
    @staticmethod
    def without(doc, key):
        return json.dumps({k: v for k, v in doc.items() if k != key})

    @pytest.mark.parametrize("kind,base,edit,expect", [
        ("model", "v2", lambda doc: json.dumps(doc)[:-5], "Expecting"),
        ("model", "v2", lambda doc: "[1, 2]", "not hold a JSON object"),
        ("model", "v1", lambda doc: TestMalformedFile.without(doc, "transition"),
         "lacks the key 'transition'"),
        ("model", "v1", lambda doc: json.dumps(
            {**doc, "transition": np.add(doc["transition"], 0.1).tolist()}),
         "every transition row must sum to one"),
        ("model", "v2", lambda doc: json.dumps({**doc, "rows": doc["rows"][:-1]}),
         "rows must hold 15 rows of 6 entries"),
        ("model", "v2", lambda doc: json.dumps(
            {**doc, "rows": [row[:-1] for row in doc["rows"]]}),
         "rows must hold 15 rows of 6 entries"),
        ("model", "v2", lambda doc: json.dumps({**doc, "available": doc["available"][:-1]}),
         "available lists 5 states, n_states is 6"),
        ("model", "v2", lambda doc: json.dumps(
            {**doc, "available": [[*doc["available"][0], 6], *doc["available"][1:]]}),
         "outside 0..5"),
        ("model", "v3", lambda doc: json.dumps({**doc, "schema": 4}), "unknown model schema 4"),
        ("model", "v2", lambda doc: json.dumps({**doc, "n_states": 7}),
         "utility must have shape (n_states, n_actions) = (7, 6)"),
        ("model", "v2", lambda doc: json.dumps(
            {**doc, "available": [[0.5, *doc["available"][0][1:]], *doc["available"][1:]]}),
         "state 0 lists a non-integer action 0.5"),
        ("model", "v2", lambda doc: json.dumps({**doc, "state_meta": doc["state_meta"][:1]}),
         "state_meta lists 1 states, n_states is 6"),
        ("model", "v2", lambda doc: json.dumps({**doc, "action_meta": doc["action_meta"][:-1]}),
         "action_meta lists 5 actions, n_actions is 6"),
        ("model", "v1", lambda doc: json.dumps(  # action 1 is unavailable at state 0
            {**doc, "transition": [[[0.0, 1.0, 0.0, 0.0, 0.0, 0.0], *doc["transition"][1][1:]]
                                   if a == 1 else t for a, t in enumerate(doc["transition"])]}),
         "action 1: unavailable rows must be self-loop completion rows"),
        ("model", "v1", lambda doc: json.dumps(
            {**doc, "transition": [*doc["transition"], doc["transition"][0]]}),
         "transition must have shape (n_actions, n_states, n_states)"),
        ("model", "v1", lambda doc: json.dumps(
            {**doc, "available": [[*doc["available"][0], 6], *doc["available"][1:]]}),
         "outside 0..5"),
        ("model", "v1", lambda doc: json.dumps({**doc, "available": [*doc["available"], [0]]}),
         "available lists 7 states, n_states is 6"),
        ("model", "v3", lambda doc: json.dumps(
            {**doc, "successors": [[0, 1, 6], *doc["successors"][1:]]}),
         "successors list a state outside 0..5"),
        ("model", "v3", lambda doc: json.dumps(
            {**doc, "successors": [[0, 1, 1], *doc["successors"][1:]]}),
         "the successors of state 0, action 0 are not strictly ascending"),
        ("model", "v3", lambda doc: json.dumps(
            {**doc, "probabilities": [*doc["probabilities"][:2], doc["probabilities"][2][:-1],
                                      *doc["probabilities"][3:]]}),
         "the row of state 1, action 1 lists 4 successors and 3 probabilities"),
        ("model", "v3", lambda doc: json.dumps({**doc, "successors": doc["successors"][:-1]}),
         "successors and probabilities must hold 15 rows, one per available pair; got 14 and 15"),
        ("model", "v3", lambda doc: json.dumps({**doc, "utility": doc["utility"][:-1]}),
         "utility must hold 15 losses, one per available pair; got shape (14,)"),
        ("model", "v3", lambda doc: json.dumps({**doc, "sentinel": None}),
         "sentinel must be null exactly when every pair is available"),
        ("model", "v3", lambda doc: json.dumps({**doc, "n_states": 6.5}),
         "n_states and n_actions must be integers; got 6.5 and 6"),
        ("model", "v3", lambda doc: json.dumps(
            {**doc, "successors": [[0, True, 2], *doc["successors"][1:]]}),
         "successors list a non-integer state True"),
        ("model", "v3", lambda doc: json.dumps(
            {**doc, "available": [[True, 4], *doc["available"][1:]]}),
         "state 0 lists a non-integer action True"),
        ("model", "v2", lambda doc: json.dumps(
            {**doc, "available": [[True, 4], *doc["available"][1:]]}),
         "state 0 lists a non-integer action True"),
        ("model", "v2", lambda doc: json.dumps({**doc, "n_states": 6.5}),
         "n_states and n_actions must be integers; got 6.5 and 6"),
        ("model", "v1", lambda doc: json.dumps({**doc, "n_states": 6.5}),
         "n_states and n_actions must be integers; got 6.5 and 6"),
        ("model", "v1", lambda doc: json.dumps({**doc, "n_states": 9}),
         "utility must have shape (n_states, n_actions) = (9, 6); got (6, 6)"),
        ("model", "v3", lambda doc: json.dumps({**doc, "schema": True}),
         "unknown model schema True"),
        ("model", "v3", lambda doc: json.dumps({**doc, "schema": 3.0}),
         "unknown model schema 3.0"),
        ("model", "v3", lambda doc: json.dumps(
            {**doc, "state_meta": [{**doc["state_meta"][0], "lat": "x"},
                                   *doc["state_meta"][1:]]}),
         "state_meta[0] must hold a string label and finite numbers lat, lon and area_m2"),
        ("model", "v3", lambda doc: json.dumps(
            {**doc, "state_meta": [{**doc["state_meta"][0], "lat": None},
                                   *doc["state_meta"][1:]]}),
         "state_meta[0] must hold a string label and finite numbers lat, lon and area_m2"),
        ("model", "v2", lambda doc: json.dumps(
            {**doc, "action_meta": [*doc["action_meta"][:-1],
                                    {**doc["action_meta"][-1], "label": 5}]}),
         "action_meta[5] must hold a string label and finite numbers lat, lon and radius_m"),
        ("result", None, lambda doc: json.dumps(doc)[:-5], "Expecting"),
        ("result", None, lambda doc: TestMalformedFile.without(doc, "theta"),
         "lacks the key 'theta'"),
        ("result", None, lambda doc: json.dumps({**doc, "secret_states": list(range(6))}),
         "secret set must leave at least one state public"),
        ("result", "eps_private", lambda doc: json.dumps({**doc, "secret_states": [True]}),
         "secret_states must be null or a list of integer states; got [True]"),
        ("result", "eps_private", lambda doc: json.dumps({**doc, "secret_states": [3.5]}),
         "secret_states must be null or a list of integer states; got [3.5]"),
        ("result", "eps_private", lambda doc: json.dumps({**doc, "secret_states": "3"}),
         "secret_states must be null or a list of integer states; got '3'"),
        ("result", "eps_private", lambda doc: json.dumps({**doc, "epsilon": True}),
         "epsilon must be a number or null; got True"),
        ("result", "eps_private", lambda doc: json.dumps({**doc, "mode": "bogus"}),
         "mode must be one of unconstrained, eps_private, asymptotic; got 'bogus'"),
        ("result", "eps_private", lambda doc: json.dumps({**doc, "mode": 5}),
         "mode must be one of unconstrained, eps_private, asymptotic; got 5"),
    ], ids=["model_not_json", "model_not_an_object", "model_v1_no_transition",
            "model_v1_row_sums", "model_rows_missing_a_pair", "model_rows_too_short",
            "model_state_count", "model_action_range", "model_unknown_schema",
            "model_n_states_disagrees", "model_non_integer_action", "model_state_meta_length",
            "model_action_meta_length", "model_v1_unavailable_row_not_self_loop",
            "model_v1_extra_action", "model_v1_action_range", "model_v1_state_count",
            "model_v3_successor_out_of_range", "model_v3_repeated_successor",
            "model_v3_row_lengths_differ", "model_v3_rows_missing_a_pair",
            "model_v3_utility_count", "model_v3_null_sentinel", "model_v3_fractional_n_states",
            "model_v3_bool_successor",
            "model_v3_bool_action", "model_bool_action",
            "model_v2_fractional_n_states", "model_v1_fractional_n_states",
            "model_v1_n_states_disagrees", "model_bool_schema", "model_float_schema",
            "model_meta_text_lat", "model_meta_null_lat", "model_meta_number_label",
            "result_not_json", "result_no_theta", "result_every_state_secret",
            "result_bool_secret", "result_fractional_secret", "result_text_secret",
            "result_bool_epsilon", "result_unknown_mode", "result_number_mode"])
    def test_one_error_line_exit_1(self, tmp_path, capsys, campus, kind, base, edit, expect):
        mode = (("--mode", "eps_private", "--epsilon", "0.2", "--secret", "s4")
                if base == "eps_private" else ("--mode", "unconstrained"))
        rc, _, _ = run(capsys, "synthesize", "--fixture", "campus", *mode, "--out", str(tmp_path))
        assert rc == 0
        good = {"model": tmp_path / "mdp.json", "result": tmp_path / "result.json"}
        {"v1": save_mdp_v1, "v2": save_mdp_v2}.get(base, save_mdp)(
            campus, good["model"])
        bad = tmp_path / f"bad_{kind}.json"
        bad.write_text(edit(json.loads(good[kind].read_text())))
        good[kind] = bad
        rc, out, err = run(capsys, "verify", "--model", str(good["model"]),
                           "--result", str(good["result"]), "--out", str(tmp_path / "out"))
        assert (rc, out) == (1, "")
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {kind} file {bad} "), err
        assert expect in lines[0]


class TestModelCore:
    def test_session_never_builds_the_dense_view(self, tmp_path, capsys, monkeypatch):
        """The commands contract T one action at a time: no loaded model ever
        holds the dense (m, n, n) tensor."""
        mdp = action_independent_mdp(11, 16)
        spec = binding_spec(mdp)
        model, secret = tmp_path / "mdp.json", str(spec.secret_states[0])
        save_mdp(mdp, model)
        loaded = []

        def recording_load(path):
            loaded.append(load_mdp(path))
            return loaded[-1]

        monkeypatch.setattr(serialize, "load_mdp", recording_load)
        model_args = ("--model", str(model))
        for mode, extra in [("unconstrained", ()),
                            ("eps_private", ("--epsilon", repr(spec.epsilon), "--secret", secret))]:
            out = tmp_path / mode
            assert run(capsys, "synthesize", *model_args, "--mode", mode, *extra,
                       "--out", str(out))[0] == 0
            assert run(capsys, "simulate", *model_args, "--result", str(out / "result.json"),
                       "--horizon", "50", "--secret", secret, "--out", str(out))[0] == 0
        assert run(capsys, "verify", *model_args, "--result",
                   str(tmp_path / "eps_private" / "result.json"), "--out", str(tmp_path))[0] == 0
        rc, out, _ = run(capsys, "baselines", *model_args, "--horizon", "1", "--secret", secret,
                         "--out", str(tmp_path / "baselines"))
        assert rc == 0 and out.count(": avg quality loss") == 3
        assert len(loaded) == 6
        assert all("transition" not in m.__dict__ for m in loaded)


class TestChainBuilds:
    def test_each_command_builds_the_user_and_observer_chain_once(self, tmp_path, capsys,
                                                                  monkeypatch):
        """synthesize stores, verify checks and simulate replays one deployed_chain:
        one user chain (policy weights) and one observer chain (action frequencies)."""
        built = record_chain_builds(monkeypatch)
        assert run(capsys, "synthesize", "--mode", "unconstrained", "--fixture", "campus",
                   "--out", str(tmp_path / "unconstrained"))[0] == 0
        assert [w.ndim for w in built] == [2, 1]
        for mode, epsilon in [("eps_private", "0.2"), ("asymptotic", "0.16")]:
            out = str(tmp_path / mode)
            for argv in [("synthesize", "--mode", mode, "--epsilon", epsilon, "--secret", "s4"),
                         ("verify", "--result", out + "/result.json"),
                         ("simulate", "--result", out + "/result.json", "--horizon", "20")]:
                built.clear()
                assert run(capsys, *argv, "--fixture", "campus", "--out", out)[0] == 0, argv
                assert [w.ndim for w in built] == [2, 1], argv


class TestOracleWriters:
    """Every file the commands write has the bytes of the reference writers in
    tests/support.py: csv.writer rows of the one-belief metrics and one
    format() call per JSON value."""

    @staticmethod
    def use_oracles(monkeypatch):
        monkeypatch.setattr(serialize, "dumps_canonical", recursive_dumps_canonical)
        monkeypatch.setattr("lppm.cli.write_belief_csv",
                            lambda path, beliefs, secret:
                            csv_write_belief_csv(path, beliefs, secret))
        monkeypatch.setattr("lppm.cli.write_metric_series",
                            lambda path, beliefs, spec, distance:
                            csv_write_metric_series(path, beliefs, spec, distance))

    @staticmethod
    def session(capsys, out, model_args, secret, epsilon):
        secret_args = ("--secret", secret)
        # a prior without the secret puts zeros into the first beliefs
        for mode, extra, belief in [("unconstrained", (), "uniform_excluding_secret"),
                                    ("eps_private", ("--epsilon", epsilon, *secret_args),
                                     "uniform")]:
            assert run(capsys, "synthesize", *model_args, "--mode", mode, *extra,
                       "--out", str(out / mode))[0] == 0
            assert run(capsys, "simulate", *model_args, "--result", str(out / mode / "result.json"),
                       "--horizon", "200", *secret_args, "--belief", belief,
                       "--out", str(out / mode))[0] == 0
        for belief, kinds in [("unsafe", "max_entropy,max_inference_error,dp"),
                              ("uniform_excluding_secret", "max_entropy,max_inference_error")]:
            assert run(capsys, "baselines", *model_args, "--horizon", "2", *secret_args,
                       "--belief", belief, "--kind", kinds,
                       "--out", str(out / f"baselines_{belief}"))[0] == 0

    @staticmethod
    def assert_same_files(got, want):
        names = sorted(p.relative_to(got) for p in got.rglob("*") if p.is_file())
        assert names == sorted(p.relative_to(want) for p in want.rglob("*") if p.is_file())
        assert {p.name for p in names} >= {"mdp.json", "result.json", "belief.csv", "metrics.csv",
                                           "quality.csv", "baseline_dp.csv",
                                           "baseline_max_entropy.csv",
                                           "baseline_max_inference_error.csv"}
        for name in names:
            assert (got / name).read_bytes() == (want / name).read_bytes(), name

    def test_campus_fixture(self, tmp_path, capsys, monkeypatch):
        for side in ("got", "want"):
            if side == "want":
                self.use_oracles(monkeypatch)
            out = tmp_path / side
            assert run(capsys, "build", "--fixture", "campus", "--out", str(out))[0] == 0
            self.session(capsys, out, ("--model", str(out / "mdp.json")), "s4", "0.2")
        self.assert_same_files(tmp_path / "got", tmp_path / "want")

    def test_generated_model_with_state_geometry(self, tmp_path, capsys, monkeypatch):
        mdp = action_independent_mdp(5, 14, geometry=True)
        spec = binding_spec(mdp)
        for side in ("got", "want"):
            if side == "want":
                self.use_oracles(monkeypatch)
            out = tmp_path / side
            out.mkdir()
            save_mdp(mdp, out / "mdp.json")
            self.session(capsys, out, ("--model", str(tmp_path / "got" / "mdp.json")),
                         f"s{spec.secret_states[0] + 1}", repr(spec.epsilon))
        self.assert_same_files(tmp_path / "got", tmp_path / "want")


class TestResultModelMismatch:
    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_campus_result_on_trace_model_exit_1(self, tmp_path, capsys, trace_path, command):
        assert run(capsys, "build", "--traces", str(trace_path),
                   "--out", str(tmp_path / "model"))[0] == 0
        assert run(capsys, "synthesize", "--fixture", "campus", "--mode", "eps_private",
                   "--epsilon", "0.2", "--secret", "s4", "--out", str(tmp_path))[0] == 0
        rc, _, err = run(capsys, command, "--model", str(tmp_path / "model" / "mdp.json"),
                         "--result", str(tmp_path / "result.json"),
                         "--out", str(tmp_path / "out"))
        assert rc == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_policy_off_the_model_exit_1(self, tmp_path, capsys, command):
        assert run(capsys, "synthesize", "--fixture", "campus", "--mode", "eps_private",
                   "--epsilon", "0.2", "--secret", "s4", "--out", str(tmp_path))[0] == 0
        result = load_result(tmp_path / "result.json")
        result.policy[0] = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]  # state 0 cannot report a2
        save_result(result, tmp_path / "result.json")
        rc, _, err = run(capsys, command, "--fixture", "campus",
                         "--result", str(tmp_path / "result.json"),
                         "--out", str(tmp_path / "out"))
        assert rc == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert "unavailable" in lines[0]


class TestConfigMerge:
    @pytest.mark.parametrize("argv,config", [
        (["synthesize", "--fixture", "campus", "--secret", "s4"], {"epsilon": "abc"}),
        (["build", "--traces", "{traces}"], {"k": 1.5}),
        (["baselines", "--fixture", "campus"], {"eps_dp": "high"}),
        (["baselines", "--fixture", "campus"], {"horizon": "ten"}),
        (["build", "--traces", "{traces}"], {"min_stay": [1]}),
    ], ids=["epsilon", "k", "eps_dp", "horizon", "min_stay"])
    def test_config_value_not_a_number_exit_1(self, tmp_path, capsys, trace_path, argv, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [str(trace_path) if a == "{traces}" else a for a in argv]
        rc, _, err = run(capsys, *argv, "--config", str(cfg), "--out", str(tmp_path))
        assert rc == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err

    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fixture": "campus", "mode": "eps_private",
                                   "epsilon": 0.2, "secret": "s4"}))
        rc, _, _ = run(capsys, "synthesize", "--config", str(cfg),
                       "--out", str(tmp_path))
        assert rc == 0
        assert load_result(tmp_path / "result.json").epsilon == 0.2

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fixture": "campus", "mode": "eps_private",
                                   "epsilon": 0.05, "secret": "s4"}))
        rc, _, _ = run(capsys, "synthesize", "--config", str(cfg),
                       "--epsilon", "0.2", "--out", str(tmp_path))
        assert rc == 0
        assert load_result(tmp_path / "result.json").epsilon == 0.2

    def test_bad_config_is_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        rc, _, _ = run(capsys, "synthesize", "--config", str(cfg),
                       "--out", str(tmp_path))
        assert rc == 1
