import math

import numpy as np
import pytest

from lppm import baselines as bl
from lppm.baselines import (BaselineRollout, MechanismInfeasibleError,
                            _posterior_map, _row_constraints,
                            dp_mechanism, max_entropy_mechanism,
                            max_inference_error_mechanism, run_baseline,
                            step_user)
from lppm.mdp import make_mdp, uniform_policy
from lppm.metrics import entropy, max_dp_ratio, validate_distance_matrix
from lppm.optim import FW_GAP_TOL
from support import bisection_frank_wolfe, random_sparse_mdp


def forcing_mdp(n=3, utility=None):
    # action a sends every state to state a; posteriors equal the action
    # marginal, which makes the optima easy to reason about
    t = np.zeros((n, n, n))
    for a in range(n):
        t[a, :, a] = 1.0
    u = np.ones((n, n)) if utility is None else np.asarray(utility, float)
    avail = tuple(tuple(range(n)) for _ in range(n))
    return make_mdp(t, u, avail, np.full(n, 1.0 / n))


class TestStepUser:
    def test_point_mass_deterministic_mechanism(self, campus):
        p = np.zeros(6)
        p[0] = 1.0
        f = np.zeros((6, 6))
        f[:, 0] = 1.0   # action a everywhere mass sits
        p_next, action_dist = step_user(campus, p, f)
        np.testing.assert_allclose(p_next, campus.transition[0, 0], atol=1e-12)
        np.testing.assert_allclose(action_dist, np.eye(6)[0], atol=1e-12)

    def test_identity_transitions_fix_user(self, rng):
        t = np.eye(3)[None].repeat(2, axis=0)
        mdp = make_mdp(t, np.ones((3, 2)), ((0, 1),) * 3, np.full(3, 1 / 3))
        p = rng.dirichlet(np.ones(3))
        f = uniform_policy(mdp)
        p_next, _ = step_user(mdp, p, f)
        np.testing.assert_allclose(p_next, p, atol=1e-12)

    def test_campus_action_marginal_by_hand(self, campus):
        p = np.full(6, 1 / 6)
        f = uniform_policy(campus)
        _, action_dist = step_user(campus, p, f)
        expect = np.zeros(6)
        for s, acts in enumerate(campus.available):
            for a in acts:
                expect[a] += p[s] / len(acts)
        np.testing.assert_allclose(action_dist, expect, atol=1e-12)
        assert action_dist.sum() == pytest.approx(1.0, abs=1e-12)


class TestUniformMechanism:
    def test_rows_match_availability(self, campus):
        f = uniform_policy(campus)
        for s, acts in enumerate(campus.available):
            np.testing.assert_allclose(f[s, list(acts)], 1.0 / len(acts))
            assert f[s].sum() == pytest.approx(1.0, abs=1e-12)
            off = [a for a in range(campus.n_actions) if a not in acts]
            assert np.all(f[s, off] == 0.0)


class TestPairBlocks:
    def test_posterior_map_and_rows_match_pair_loop(self, rng):
        mdp, available = random_sparse_mdp(rng)
        pairs = [(s, a) for s, acts in enumerate(available) for a in sorted(acts)]
        b = rng.dirichlet(np.ones(mdp.n_states))
        p = rng.dirichlet(np.ones(mdp.n_states))
        w = np.einsum("aqr,q->ar", mdp.transition, b)
        phi = np.zeros((len(pairs), mdp.n_states))
        rows = np.zeros((mdp.n_states, len(pairs)))
        for k, (s, a) in enumerate(pairs):
            phi[k] = p[s] * w[a]
            rows[s, k] = 1.0
        np.testing.assert_array_equal(_posterior_map(mdp, b, p), phi)
        np.testing.assert_array_equal(_row_constraints(mdp)[0], rows)


class TestMaxEntropyMechanism:
    def test_single_available_action_is_forced(self):
        t = np.zeros((2, 2, 2))
        t[0] = [[0.5, 0.5], [0.5, 0.5]]
        t[1] = np.eye(2)
        mdp = make_mdp(t, np.ones((2, 2)), ((0,), (1,)), np.array([0.5, 0.5]))
        f, _ = max_entropy_mechanism(mdp, np.array([0.3, 0.7]),
                                     np.array([0.5, 0.5]))
        np.testing.assert_allclose(f, [[1.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_reaches_full_entropy_when_attainable(self, rng):
        mdp = forcing_mdp(4)
        b = rng.dirichlet(np.ones(4))
        p = rng.dirichlet(np.ones(4))
        f, fw = max_entropy_mechanism(mdp, b, p)
        assert fw.value == pytest.approx(math.log(4), abs=1e-4)
        _, action_dist = step_user(mdp, p, f)
        np.testing.assert_allclose(action_dist, 0.25, atol=1e-3)

    def test_never_below_uniform_mechanism(self, rng, campus):
        b = rng.dirichlet(np.ones(6))
        p = rng.dirichlet(np.ones(6))
        _, fw = max_entropy_mechanism(campus, b, p)
        from lppm.adversary import belief_update
        _, action_dist = step_user(campus, p, uniform_policy(campus))
        h_uniform = entropy(belief_update(campus, b, action_dist))
        assert fw.value >= h_uniform - 1e-9

    def test_campus_short_rollout_bounded(self, campus):
        roll = run_baseline(campus, "max_entropy", np.full(6, 1 / 6),
                            np.full(6, 1 / 6), 10)
        for b in roll.beliefs:
            assert entropy(b) <= math.log(6) + 1e-9
            assert b.sum() == pytest.approx(1.0, abs=1e-9)
        assert roll.diagnostics["fw_gaps"]

    @pytest.mark.parametrize("secret_mass", [1 / 6, 0.3])
    def test_campus_rollout_converges(self, campus, secret_mass):
        b0 = np.full(6, (1.0 - secret_mass) / 5)
        b0[3] = secret_mass
        roll = run_baseline(campus, "max_entropy", b0, b0, 50)
        assert len(roll.diagnostics["fw_gaps"]) == 50
        assert max(roll.diagnostics["fw_gaps"]) <= FW_GAP_TOL

    @staticmethod
    def random_steps(rng, campus):
        """Steps from random beliefs: 50 on campus, then 200 on random sparse models."""
        for k in range(250):
            mdp = campus if k < 50 else random_sparse_mdp(
                rng, int(rng.integers(2, 9)), int(rng.integers(2, 7)))[0]
            yield mdp, rng.dirichlet(np.ones(mdp.n_states)), rng.dirichlet(np.ones(mdp.n_states))

    def test_random_steps_converge_past_the_bisection_oracle(self, rng, campus, monkeypatch):
        for k, (mdp, b, p) in enumerate(self.random_steps(rng, campus)):
            _, fw = max_entropy_mechanism(mdp, b, p)
            assert fw.gap <= FW_GAP_TOL and fw.iterations < 500, k
            if k % 10 == 0:  # the oracle runs up to 500 rounds of 42 gradients each
                with monkeypatch.context() as patch:
                    patch.setattr(bl, "maximize_concave", bisection_frank_wolfe)
                    _, ref = max_entropy_mechanism(mdp, b, p)
                assert fw.value >= ref.value - 1e-9, k


class TestMaxInferenceErrorMechanism:
    def test_zero_distance_gives_zero_error(self, campus, rng):
        d = np.zeros((6, 6))
        _, tau = max_inference_error_mechanism(
            campus, rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6)), d)
        assert tau == pytest.approx(0.0, abs=1e-9)

    def test_forced_mechanism_value_by_hand(self):
        # one action per state; unavailable rows complete to self loops, so
        # T_a^T b and the posterior are fixed by hand arithmetic:
        # post = 0.3 (0.1, 0.9) + 0.7 (0.95, 0.05) = (0.695, 0.305)
        t = np.zeros((2, 2, 2))
        t[0, 0] = [0.2, 0.8]
        t[0, 1] = [0.0, 1.0]
        t[1, 1] = [0.9, 0.1]
        t[1, 0] = [1.0, 0.0]
        mdp = make_mdp(t, np.ones((2, 2)), ((0,), (1,)), np.array([0.5, 0.5]))
        b = np.array([0.5, 0.5])
        p = np.array([0.3, 0.7])
        d = validate_distance_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        f, tau = max_inference_error_mechanism(mdp, b, p, d)
        np.testing.assert_allclose(f, np.eye(2), atol=1e-12)
        assert tau == pytest.approx(2.0 * 0.305, abs=1e-9)

    def test_matches_grid_search_two_state(self, rng):
        t = np.zeros((2, 2, 2))
        t[0] = [[0.7, 0.3], [0.4, 0.6]]
        t[1] = [[0.2, 0.8], [0.9, 0.1]]
        mdp = make_mdp(t, np.ones((2, 2)), ((0, 1), (0, 1)),
                       np.array([0.5, 0.5]))
        b = rng.dirichlet(np.ones(2))
        p = rng.dirichlet(np.ones(2))
        d = validate_distance_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        _, tau = max_inference_error_mechanism(mdp, b, p, d)
        w = np.einsum("aqr,q->ar", mdp.transition, b)
        best = -1.0
        for f00 in np.arange(0.0, 1.0 + 1e-9, 0.01):
            for f10 in np.arange(0.0, 1.0 + 1e-9, 0.01):
                f = np.array([[f00, 1 - f00], [f10, 1 - f10]])
                post = p[0] * (f[0] @ w) + p[1] * (f[1] @ w)
                post /= post.sum()
                best = max(best, float((d @ post).min()))
        assert tau >= best - 1e-9
        assert tau - best <= 0.02

    def test_dominates_random_feasible_mechanisms(self, rng, campus):
        b = rng.dirichlet(np.ones(6))
        p = rng.dirichlet(np.ones(6))
        d = validate_distance_matrix(1.0 - np.eye(6))
        _, tau = max_inference_error_mechanism(campus, b, p, d)
        w = np.einsum("aqr,q->ar", campus.transition, b)
        for _ in range(100):
            f = np.zeros((6, 6))
            for s, acts in enumerate(campus.available):
                f[s, list(acts)] = rng.dirichlet(np.ones(len(acts)))
            post = np.einsum("s,sa,aj->j", p, f, w)
            post /= post.sum()
            assert float((d @ post).min()) <= tau + 1e-9


class TestDpMechanism:
    def test_loose_budget_matches_cheapest_mechanism(self):
        # the per-state cheapest actions form a permutation, so the cheapest
        # mechanism keeps a full-support uniform posterior and stays feasible
        u = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 3.0, 1.0]])
        mdp = forcing_mdp(3, utility=u)
        uni = np.full(3, 1 / 3)
        f = dp_mechanism(mdp, uni, uni, eps_dp=5.0)
        cost = float(np.einsum("s,sa,sa->", uni, f, mdp.utility))
        assert cost == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(f, np.eye(3), atol=1e-8)

    def test_symmetric_fixture_feasible_at_tight_budget(self):
        mdp = forcing_mdp(3)
        f = dp_mechanism(mdp, np.full(3, 1 / 3), np.full(3, 1 / 3),
                         eps_dp=0.05)
        np.testing.assert_allclose(f.sum(axis=1), 1.0, atol=1e-10)

    def test_point_mass_belief_infeasible_on_campus(self, campus):
        b0 = np.zeros(6)
        b0[0] = 1.0
        with pytest.raises(MechanismInfeasibleError):
            dp_mechanism(campus, b0, b0, eps_dp=0.7)

    def test_nonpositive_budget_rejected(self, campus):
        with pytest.raises(ValueError):
            dp_mechanism(campus, np.full(6, 1 / 6), np.full(6, 1 / 6), 0.0)

    def test_rollout_respects_ratio_bound(self, campus):
        roll = run_baseline(campus, "dp", np.full(6, 1 / 6), np.full(6, 1 / 6),
                            10, eps_dp=0.7)
        for t in range(10):
            assert max_dp_ratio(roll.beliefs[t], roll.beliefs[t + 1]) \
                <= math.exp(0.7) + 1e-6


class TestRunBaseline:
    def test_shapes_and_row_stochastic_mechanisms(self, campus):
        roll = run_baseline(campus, "max_inference_error", np.full(6, 1 / 6),
                            np.full(6, 1 / 6), 5,
                            distance=validate_distance_matrix(1.0 - np.eye(6)))
        assert isinstance(roll, BaselineRollout)
        assert roll.beliefs.shape == (6, 6)
        assert roll.user.shape == (6, 6)
        assert roll.losses.shape == (5,)
        assert len(roll.mechanisms) == 5
        for f in roll.mechanisms:
            np.testing.assert_allclose(f.sum(axis=1), 1.0, atol=1e-10)
            assert f.min() >= 0.0
            for s, acts in enumerate(campus.available):
                off = [a for a in range(6) if a not in acts]
                assert np.all(f[s, off] == 0.0)

    def test_losses_within_utility_range(self, campus):
        roll = run_baseline(campus, "dp", np.full(6, 1 / 6), np.full(6, 1 / 6),
                            5, eps_dp=0.7)
        avail_u = [campus.utility[s, a] for s in range(6)
                   for a in campus.available[s]]
        assert roll.losses.min() >= min(avail_u) - 1e-9
        assert roll.losses.max() <= max(avail_u) + 1e-9

    def test_identical_runs_identical_output(self, campus):
        kw = dict(b0=np.full(6, 1 / 6), p0=np.full(6, 1 / 6), horizon=8,
                  eps_dp=0.7)
        r1 = run_baseline(campus, "dp", **kw)
        r2 = run_baseline(campus, "dp", **kw)
        np.testing.assert_array_equal(r1.beliefs, r2.beliefs)
        np.testing.assert_array_equal(r1.losses, r2.losses)

    def test_argument_validation(self, campus):
        u = np.full(6, 1 / 6)
        with pytest.raises(ValueError):
            run_baseline(campus, "no_such_kind", u, u, 3)
        with pytest.raises(ValueError):
            run_baseline(campus, "max_inference_error", u, u, 3)
        with pytest.raises(ValueError):
            run_baseline(campus, "dp", u, u, 3)
