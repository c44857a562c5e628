import numpy as np
import pytest

from lppm.adversary import adversary_matrix, belief_update
from lppm.baselines import _posterior_map, step_user
from lppm.fixtures import campus as campus_fixture
from lppm.mdp import (Mdp, NonErgodicError, action_independent_rows, average_cost,
                      check_ergodic, check_unichain_exhaustive, induce_chain, make_mdp,
                      occupancy_from_policy, policy_from_theta, pushforward, simulate,
                      stationary_distribution, uniform_policy, validate_policy)
from lppm.synthesis import _certificate_inflow
from support import (action_independent_mdp, bfs_check_ergodic, completed_tensor,
                     dense_adversary_matrix, dense_belief_update, dense_certificate_inflow,
                     dense_induce_chain, dense_posterior_map, dense_pushforward,
                     dense_simulate, dense_step_user, enumerate_unichain,
                     power_iteration_stationary, random_dense_mdp, random_shared_row_mdp,
                     random_sparse_mdp, squaring_check_ergodic)
from test_mobility import ROOT, load_module

# campus stationary distribution under any policy (shared successor rows)
CAMPUS_P_INF = np.array([3, 8, 15, 21, 18, 9]) / 74.0


def two_state_mdp(p_loop=0.5):
    t = np.array([[[p_loop, 1 - p_loop], [1 - p_loop, p_loop]]])
    u = np.array([[1.0], [2.0]])
    return make_mdp(t, u, ((0,), (0,)), np.array([1.0, 0.0]))


class TestMdpValidation:
    def test_row_sums_checked(self):
        t = np.array([[[0.5, 0.4], [0.0, 1.0]]])
        with pytest.raises(ValueError):
            make_mdp(t, np.ones((2, 1)), ((0,), (0,)), np.array([0.5, 0.5]))

    def test_negative_entry_rejected(self):
        t = np.array([[[1.2, -0.2], [0.0, 1.0]]])
        with pytest.raises(ValueError):
            make_mdp(t, np.ones((2, 1)), ((0,), (0,)), np.array([0.5, 0.5]))

    def test_p0_must_be_simplex(self):
        t = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        with pytest.raises(ValueError):
            make_mdp(t, np.ones((2, 1)), ((0,), (0,)), np.array([0.5, 0.4]))

    @pytest.mark.parametrize("action", [True, np.True_, 0.0])
    def test_non_integer_action_rejected(self, action):
        """A JSON true is no action index, though Python's bool is an int."""
        rows, utility = np.full((3, 2), 0.5), np.array([[1.0, 1.0], [1.0, 5.0]])
        with pytest.raises(ValueError) as err:
            Mdp(rows, ((action, 1), (0,)), utility, np.array([0.5, 0.5]))
        assert str(err.value) == f"state 0 lists a non-integer action {action!r}"
        assert Mdp(rows, ((np.int64(0), 1), (0,)), utility,
                   np.array([0.5, 0.5])).available == ((0, 1), (0,))

    def test_unavailable_rows_become_self_loops(self, campus):
        for s in range(campus.n_states):
            for a in range(campus.n_actions):
                if a not in campus.available[s]:
                    expected = np.zeros(campus.n_states)
                    expected[s] = 1.0
                    np.testing.assert_array_equal(campus.transition[a, s], expected)

    def test_unavailable_utility_exceeds_available(self, campus):
        mask = campus.availability_mask()
        u_bar = campus.utility[~mask]
        assert np.all(u_bar > campus.utility[mask].max())
        # one common sentinel value
        assert np.unique(u_bar).size == 1

    def test_u_bar_default_scale(self, campus):
        mask = campus.availability_mask()
        assert campus.utility[~mask][0] == pytest.approx(
            1e3 * campus.utility[mask].max())


class TestPairRows:
    def test_rows_are_the_dense_input_at_the_pairs(self, rng):
        transition = rng.dirichlet(np.ones(4), size=(3, 4))
        mdp = make_mdp(transition, np.ones((4, 3)), ((2, 0), (1,), (0, 1, 2), (2,)),
                       np.full(4, 0.25))
        expected = transition[[0, 2, 1, 0, 1, 2, 2], [0, 0, 1, 2, 2, 2, 3]]
        assert mdp.rows.tobytes() == expected.tobytes()

    def test_transition_is_a_cached_read_only_view(self):
        mdp = campus_fixture()
        assert "transition" not in mdp.__dict__
        dense = mdp.transition
        assert mdp.transition is dense and not dense.flags.writeable
        assert dense.tobytes() == completed_tensor(mdp).tobytes()


def availability_mdp(rng, available, n_actions):
    """Random dense rows and losses under the given availability sets."""
    n = len(available)
    return make_mdp(rng.dirichlet(np.ones(n), size=(n_actions, n)),
                    rng.uniform(1.0, 5.0, size=(n, n_actions)), available,
                    rng.dirichlet(np.ones(n)))


ORACLE_MODELS = {
    "campus": lambda rng: campus_fixture(),
    "random_dense": lambda rng: random_dense_mdp(rng, n_states=7, n_actions=5),
    "random_sparse": lambda rng: random_sparse_mdp(rng)[0],
    # dense rows and self-loop entries share nearly every bin
    "random_sparse_wide": lambda rng: random_sparse_mdp(rng, 40, 12)[0],
    "random_shared_row": lambda rng: random_shared_row_mdp(rng, shared=True),
    "action_independent": lambda rng: action_independent_mdp(3, 40),
    # action 3 is available at no state
    "unused_action": lambda rng: availability_mdp(
        rng, [(0, 2), (1,), (0, 1, 2), (2,), (1, 2)], 4),
    # state 2 has all 24 actions: a sum over its pairs is longer than numpy's
    # 8-way unrolled block, so a grouped reduction would add in another order
    "wide_state": lambda rng: availability_mdp(
        rng, [(0, 5), (3,), tuple(range(24)), (7, 23), (1, 2, 11)], 24),
}


@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_entries_list_the_completed_tensor_in_dense_order(rng, name):
    mdp = ORACLE_MODELS[name](rng)
    n, m, pairs = mdp.n_states, mdp.n_actions, len(mdp.rows)
    a, q, r, v = mdp.entries
    assert mdp.entries is mdp.entries and not any(x.flags.writeable for x in mdp.entries)
    assert len(v) == np.count_nonzero(mdp.rows) + (m * n - pairs)  # no zero entry
    assert np.all(np.diff((a * n + q) * n + r) > 0)  # sorted by (a, q, r), no repeats
    assert mdp.transition.tobytes() == completed_tensor(mdp).tobytes()


@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_contractions_equal_dense_einsums_bit_for_bit(rng, name):
    """Every contraction of T over `Mdp.entries` gives the dense einsum's bits."""
    mdp = ORACLE_MODELS[name](rng)
    n, m = mdp.n_states, mdp.n_actions
    mask = mdp.availability_mask()
    for trial in range(8):
        policy = rng.random((n, m)) * mask
        policy /= policy.sum(axis=1, keepdims=True)
        if trial % 2:  # dust on unavailable pairs, within validate_policy's tolerance
            policy += 1e-14 * ~mask
        f = rng.dirichlet(np.ones(m), size=n)  # a mechanism that also uses unavailable pairs
        theta = rng.dirichlet(np.ones(n * m)).reshape(n, m)
        b, p = rng.dirichlet(np.ones(n), size=2)
        action_dist = rng.dirichlet(np.ones(m))
        sel = np.zeros(n)
        sel[rng.permutation(n)[:max(1, n // 4)]] = 1.0
        for got, want in [
            (induce_chain(mdp, policy), dense_induce_chain(mdp, policy)),
            (adversary_matrix(mdp, theta), dense_adversary_matrix(mdp, theta)),
            (belief_update(mdp, b, action_dist), dense_belief_update(mdp, b, action_dist)),
            (step_user(mdp, p, f)[0], dense_step_user(mdp, p, f)),
            (pushforward(mdp, b), dense_pushforward(mdp, b)),
            (_posterior_map(mdp, b, p), dense_posterior_map(mdp, b, p)),
            (_certificate_inflow(mdp, sel), dense_certificate_inflow(mdp, sel)),
        ]:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestPairIndex:
    def test_state_major_sorted_available_pairs(self, rng):
        mdp, available = random_sparse_mdp(rng)
        assert any(list(acts) != sorted(acts) for acts in available)
        states, actions = mdp.pair_index()
        expected = [(s, a) for s, acts in enumerate(available) for a in sorted(acts)]
        assert list(zip(states.tolist(), actions.tolist())) == expected
        assert states.dtype.kind == actions.dtype.kind == "i"

    def test_mask_is_scatter_of_pairs(self, rng):
        mdp, _ = random_sparse_mdp(rng)
        scattered = np.zeros((mdp.n_states, mdp.n_actions), dtype=bool)
        scattered[mdp.pair_index()] = True
        np.testing.assert_array_equal(mdp.availability_mask(), scattered)


class TestInduceChain:
    def test_deterministic_policy_selects_action_rows(self, campus):
        policy = np.zeros((6, 6))
        for s, acts in enumerate(campus.available):
            policy[s, acts[0]] = 1.0
        chain = induce_chain(campus, policy)
        for s, acts in enumerate(campus.available):
            np.testing.assert_allclose(chain[s], campus.transition[acts[0], s],
                                       atol=1e-15)

    def test_uniform_policy_row_is_mean_of_available(self, campus):
        chain = induce_chain(campus, uniform_policy(campus))
        # state s1: available actions share the successor-uniform row
        np.testing.assert_allclose(chain[0], [1/3, 1/3, 1/3, 0, 0, 0], atol=1e-12)
        for s, acts in enumerate(campus.available):
            mean_row = campus.transition[list(acts), s].mean(axis=0)
            np.testing.assert_allclose(chain[s], mean_row, atol=1e-12)

    def test_rows_sum_to_one_property(self, rng):
        for _ in range(25):
            mdp = random_dense_mdp(rng, n_states=int(rng.integers(2, 7)),
                                   n_actions=int(rng.integers(1, 5)))
            policy = rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)
            chain = induce_chain(mdp, policy)
            np.testing.assert_allclose(chain.sum(axis=1), 1.0, atol=1e-12)

    def test_policy_outside_availability_rejected(self, campus):
        policy = np.full((6, 6), 1.0 / 6.0)
        with pytest.raises(ValueError):
            validate_policy(campus, policy)


class TestStationaryDistribution:
    def test_periodic_chain_rejected(self):
        chain = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NonErgodicError):
            stationary_distribution(chain)

    def test_symmetric_chain(self):
        chain = np.array([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(stationary_distribution(chain), [0.5, 0.5],
                                   atol=1e-12)

    def test_campus_solve_vs_power_iteration(self, campus):
        chain = induce_chain(campus, uniform_policy(campus))
        direct = stationary_distribution(chain)
        power = power_iteration_stationary(chain)
        np.testing.assert_allclose(direct, power, atol=1e-9)
        np.testing.assert_allclose(direct, CAMPUS_P_INF, atol=1e-12)

    def test_residual_bound_property(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 8))
            chain = rng.dirichlet(np.ones(n), size=n)
            p = stationary_distribution(chain)
            assert np.abs(chain.T @ p - p).sum() <= 1e-10


class TestCheckErgodic:
    def test_two_cycle_is_periodic(self):
        assert not check_ergodic(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_self_loop_strongly_connected(self):
        chain = np.array([[0.5, 0.5], [1.0, 0.0]])
        assert check_ergodic(chain)

    def test_reducible_chain(self):
        chain = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert not check_ergodic(chain)

    def test_campus_uniform_chain(self, campus):
        assert check_ergodic(induce_chain(campus, uniform_policy(campus)))

    def test_matches_graph_search(self, rng):
        # sparse supports make reducible and periodic chains common
        verdicts = []
        for _ in range(2000):
            n = int(rng.integers(1, 9))
            chain = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.1, 0.5))
            chain[np.arange(n), rng.integers(n, size=n)] += 1.0
            chain /= chain.sum(axis=1, keepdims=True)
            verdicts.append(check_ergodic(chain))
            assert verdicts[-1] == bfs_check_ergodic(chain)
        assert 0 < sum(verdicts) < len(verdicts)

    @staticmethod
    def chain_on(support, rng):
        chain = support * rng.uniform(0.1, 1.0, size=support.shape)
        return chain / chain.sum(axis=1, keepdims=True)

    def assert_matches_squaring(self, chain):
        verdict = check_ergodic(chain)
        assert verdict == squaring_check_ergodic(chain)
        return verdict

    def test_periodic_chains_match_squaring(self, rng):
        for n in (2, 3, 5, 12, 40):
            cycle = np.roll(np.eye(n), 1, axis=1)
            assert not self.assert_matches_squaring(cycle)
            # the edge n - 1 -> 1 adds a cycle of length n - 1, coprime to n
            cycle[n - 1, 1] = 1.0
            assert self.assert_matches_squaring(self.chain_on(cycle, rng))
        for left, right in [(1, 1), (2, 3), (4, 4), (7, 2)]:
            # every edge crosses between the two sides: period 2 at least
            n = left + right
            support = np.zeros((n, n))
            support[:left, left:] = rng.random((left, right)) < 0.6
            support[left:, :left] = rng.random((right, left)) < 0.6
            support[np.arange(left), left + rng.integers(right, size=left)] = 1.0
            support[left + np.arange(right), rng.integers(left, size=right)] = 1.0
            assert not self.assert_matches_squaring(self.chain_on(support, rng))

    def test_reducible_chains_match_squaring(self, rng):
        for n in (2, 4, 9, 25):
            # upper block triangular: the lower block never reaches the upper
            support = (rng.random((n, n)) < 0.5) | np.eye(n, dtype=bool)
            support[n // 2:, :n // 2] = False
            assert not self.assert_matches_squaring(self.chain_on(support, rng))

    def test_single_state_matches_squaring(self):
        assert self.assert_matches_squaring(np.ones((1, 1)))

    def test_random_sparse_chains_match_squaring(self, rng):
        verdicts = []
        for _ in range(300):
            n = int(rng.integers(1, 30))
            support = rng.random((n, n)) < rng.uniform(0.02, 0.3)
            support[np.arange(n), rng.permutation(n)] = True  # no empty row
            verdicts.append(self.assert_matches_squaring(self.chain_on(support, rng)))
        assert 0 < sum(verdicts) < len(verdicts)

    def test_cycle_and_wielandt_chain(self):
        for n in (2, 3, 7, 30):
            cycle = np.roll(np.eye(n), 1, axis=1)  # i -> i + 1 mod n, period n
            assert not check_ergodic(cycle)
            # adding n-1 -> 1 gives Wielandt's chain, whose first positive
            # power is exactly (n - 1)^2 + 1
            cycle[n - 1] = 0.0
            cycle[n - 1, [0, 1]] = 0.5
            assert check_ergodic(cycle)


class TestCheckUnichain:
    def test_single_action_ergodic(self):
        assert check_unichain_exhaustive(two_state_mdp()).status == "unichain"

    def test_two_absorbing_states_flagged(self):
        # action 0 mixes; action 1 freezes both states
        t = np.array([[[0.5, 0.5], [0.5, 0.5]],
                      [[1.0, 0.0], [0.0, 1.0]]])
        u = np.ones((2, 2))
        mdp = make_mdp(t, u, ((0, 1), (0, 1)), np.array([1.0, 0.0]))
        report = check_unichain_exhaustive(mdp)
        assert report.status == "not_unichain"
        chain = np.stack([mdp.transition[a][s]
                          for s, a in enumerate(report.witness)])
        assert not check_ergodic(chain)

    def test_campus_is_unichain(self, campus):
        # every available action shares its state's successor row: one chain
        report = check_unichain_exhaustive(campus, budget=1)
        assert report.status == "unichain"
        assert report.n_checked == 1
        assert enumerate_unichain(campus).n_checked == 2 * 3 * 3 * 3 * 2 * 2

    def test_budget_exceeded(self, rng):
        mdp = random_dense_mdp(rng, n_states=4, n_actions=3)  # 81 distinct chains
        assert check_unichain_exhaustive(mdp, budget=80).status == "budget_exceeded"
        assert check_unichain_exhaustive(mdp, budget=81).n_checked == 81

    @pytest.mark.parametrize("shared", [True, False])
    def test_matches_full_enumeration(self, rng, shared):
        statuses = set()
        for _ in range(300):
            mdp = random_shared_row_mdp(rng, shared)
            report, full = check_unichain_exhaustive(mdp), enumerate_unichain(mdp)
            assert (report.status, report.witness) == (full.status, full.witness)
            assert report.n_checked <= full.n_checked
            statuses.add(report.status)
        assert statuses == {"unichain", "not_unichain"}


class TestActionIndependentRows:
    def assert_rows_ignore_the_action(self, mdp):
        p = action_independent_rows(mdp)
        assert p is not None and p.shape == (mdp.n_states, mdp.n_states)
        for s, acts in enumerate(mdp.available):
            for a in acts:
                assert mdp.transition[a, s].tobytes() == p[s].tobytes()

    def test_campus(self, campus):
        self.assert_rows_ignore_the_action(campus)

    def test_trace_models(self, tmp_path, trace_path):
        from lppm.mobility import ClusterParams, build_model_from_traces

        gen = load_module("perfbench_gen", ROOT / "perfbench" / "gen.py")
        gen.write_csv(gen.make_trace(5, 0, 4, 4_000), tmp_path / "user0.csv")
        for path in (trace_path, tmp_path / "user0.csv"):
            mdp, _, _, _ = build_model_from_traces(path, ClusterParams())
            self.assert_rows_ignore_the_action(mdp)
        assert max(len(acts) for acts in mdp.available) == 2

    def test_generated_model(self):
        self.assert_rows_ignore_the_action(action_independent_mdp(3, 40))

    def test_random_sparse_model(self, rng):
        mdp, _ = random_sparse_mdp(rng)
        assert action_independent_rows(mdp) is None

    def test_one_bit_breaks_it(self, campus):
        rows = campus.rows.copy()
        k = 4  # the last of state 1's three pairs
        assert campus.pair_index()[0][k - 2:k + 1].tolist() == [1, 1, 1]
        rows[k, 1] = np.nextafter(rows[k, 1], 1.0)
        mdp = Mdp(rows, campus.available, campus.utility, campus.p0)
        assert action_independent_rows(mdp) is None


class TestAverageCost:
    def test_point_mass_theta(self, campus):
        theta = np.zeros((6, 6))
        theta[0, 0] = 1.0
        assert average_cost(campus, theta) == pytest.approx(campus.utility[0, 0])

    def test_uniform_theta_over_pairs(self, campus):
        pairs = [(s, a) for s in range(6) for a in campus.available[s]]
        theta = np.zeros((6, 6))
        for s, a in pairs:
            theta[s, a] = 1.0 / len(pairs)
        expected = np.mean([campus.utility[s, a] for s, a in pairs])
        assert average_cost(campus, theta) == pytest.approx(expected)

    def test_matches_monte_carlo(self, campus):
        policy = uniform_policy(campus)
        theta = occupancy_from_policy(campus, policy)
        v = average_cost(campus, theta)
        traj = simulate(campus, policy, horizon=100_000, seed=7)
        empirical = campus.utility[traj[:, 0], traj[:, 1]].mean()
        assert abs(empirical - v) / v < 0.01


class TestPolicyFromTheta:
    def test_equal_mass_two_actions(self):
        theta = np.array([[0.3, 0.3], [0.4, 0.0]])
        policy, p_inf = policy_from_theta(theta, ((0, 1), (0, 1)))
        np.testing.assert_allclose(policy[0], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(p_inf, [0.6, 0.4], atol=1e-12)

    def test_zero_mass_state_gets_uniform_row(self):
        theta = np.array([[1.0, 0.0], [0.0, 0.0]])
        policy, _ = policy_from_theta(theta, ((0, 1), (0, 1)))
        np.testing.assert_allclose(policy[1], [0.5, 0.5], atol=1e-12)

    def test_zero_mass_row_respects_availability(self):
        theta = np.array([[1.0, 0.0], [0.0, 0.0]])
        policy, _ = policy_from_theta(theta, ((0, 1), (1,)))
        np.testing.assert_allclose(policy[1], [0.0, 1.0], atol=1e-12)

    def test_round_trip_identity(self, campus):
        policy = uniform_policy(campus)
        theta = occupancy_from_policy(campus, policy)
        back, p_inf = policy_from_theta(theta, campus.available)
        np.testing.assert_allclose(back, policy, atol=1e-10)
        np.testing.assert_allclose(p_inf[:, None] * back, theta, atol=1e-10)


class TestSimulate:
    def test_deterministic_mdp_unique_trajectory(self):
        mdp = two_state_mdp(p_loop=0.0)  # strict alternation
        policy = np.ones((2, 1))
        traj = simulate(mdp, policy, horizon=6, seed=0)
        np.testing.assert_array_equal(traj[:, 0], [0, 1, 0, 1, 0, 1])
        np.testing.assert_array_equal(traj[:, 1], 0)

    def test_same_seed_same_trajectory(self, campus):
        policy = uniform_policy(campus)
        a = simulate(campus, policy, horizon=500, seed=123)
        b = simulate(campus, policy, horizon=500, seed=123)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self, campus):
        policy = uniform_policy(campus)
        a = simulate(campus, policy, horizon=500, seed=1)
        b = simulate(campus, policy, horizon=500, seed=2)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("name", ["campus", "random_sparse", "action_independent"])
    def test_matches_dense_sampler(self, rng, name):
        mdp = ORACLE_MODELS[name](rng)
        policy = rng.random((mdp.n_states, mdp.n_actions)) * mdp.availability_mask()
        policy /= policy.sum(axis=1, keepdims=True)
        for seed in range(3):
            np.testing.assert_array_equal(simulate(mdp, policy, 2000, seed),
                                          dense_simulate(mdp, policy, 2000, seed))

    def test_unavailable_draw_stays_put(self, campus, monkeypatch):
        class Draws:  # scripted stand-in for the generator simulate seeds
            def __init__(self, seed):
                pass

            def random(self, size=None):
                return 0.0 if size is None else np.array([[1.0 - 1e-13, 0.99]] * size[0])

        # action 5 is unavailable at state 0 and gets dust that the first draw hits
        policy = uniform_policy(campus)
        policy[0] = [0.5 - 1e-12, 0.0, 0.0, 0.0, 0.5, 1e-12]
        monkeypatch.setattr(np.random, "default_rng", Draws)
        traj = simulate(campus, policy, horizon=3, seed=0)
        np.testing.assert_array_equal(traj, dense_simulate(campus, policy, 3, 0))
        assert traj.tolist() == [[0, 5]] * 3

    def test_frequencies_approach_stationary(self, campus):
        policy = uniform_policy(campus)
        traj = simulate(campus, policy, horizon=100_000, seed=11)
        freq = np.bincount(traj[:, 0], minlength=6) / traj.shape[0]
        assert np.abs(freq - CAMPUS_P_INF).sum() < 0.02
