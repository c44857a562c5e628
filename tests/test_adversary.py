import tracemalloc

import numpy as np
import pytest

from lppm.adversary import (action_frequencies, adversary_matrix,
                            belief_trajectory, belief_update,
                            stationary_belief, write_belief_csv)
from lppm.mdp import induce_chain, occupancy_from_policy, stationary_distribution
from lppm.metrics import secret_mass_series
from support import csv_write_belief_csv, random_chain, random_dense_mdp
from test_mdp import CAMPUS_P_INF


class TestAdversaryMatrix:
    def test_point_mass_on_action_recovers_that_kernel(self, campus):
        # occupancy that plays action a everywhere a is available
        n, m = campus.n_states, campus.n_actions
        theta = np.zeros((n, m))
        for s, acts in enumerate(campus.available):
            theta[s, acts[0]] = 1.0 / n
        chain = adversary_matrix(campus, theta)
        freq = action_frequencies(theta)
        expected = np.einsum("a,aij->ij", freq, campus.transition)
        np.testing.assert_allclose(chain, expected, atol=1e-12)

    def test_equal_mass_two_actions_averages_kernels(self):
        t = np.zeros((2, 2, 2))
        t[0] = [[1.0, 0.0], [1.0, 0.0]]
        t[1] = [[0.0, 1.0], [0.0, 1.0]]
        from lppm.mdp import make_mdp
        mdp = make_mdp(t, np.ones((2, 2)), ((0, 1), (0, 1)),
                       np.array([0.5, 0.5]))
        theta = np.full((2, 2), 0.25)
        chain = adversary_matrix(mdp, theta)
        np.testing.assert_allclose(chain, 0.5, atol=1e-12)

    def test_rows_are_distributions(self, rng):
        mdp = random_dense_mdp(rng)
        theta = rng.dirichlet(np.ones(mdp.n_states * mdp.n_actions)).reshape(
            mdp.n_states, mdp.n_actions)
        chain = adversary_matrix(mdp, theta)
        np.testing.assert_allclose(chain.sum(axis=1), 1.0, atol=1e-10)
        assert chain.min() >= 0.0

    def test_action_frequencies_marginalize_states(self):
        theta = np.array([[0.1, 0.2], [0.3, 0.4]])
        np.testing.assert_allclose(action_frequencies(theta), [0.4, 0.6])


class TestBeliefUpdate:
    def test_identity_chain_fixes_everything(self, rng):
        from lppm.mdp import make_mdp
        t = np.eye(3)[None].repeat(2, axis=0)
        mdp = make_mdp(t, np.ones((3, 2)), ((0, 1),) * 3, np.full(3, 1 / 3))
        b = rng.dirichlet(np.ones(3))
        out = belief_update(mdp, b, np.array([0.5, 0.5]))
        np.testing.assert_allclose(out, b, atol=1e-12)

    def test_matches_transpose_product(self, rng, campus):
        freq = rng.dirichlet(np.ones(campus.n_actions))
        b = rng.dirichlet(np.ones(campus.n_states))
        chain = np.einsum("a,aij->ij", freq, campus.transition)
        out = belief_update(campus, b, freq)
        np.testing.assert_allclose(out, chain.T @ b, atol=1e-12)

    def test_preserves_simplex(self, rng, campus):
        freq = rng.dirichlet(np.ones(campus.n_actions))
        b = rng.dirichlet(np.ones(campus.n_states))
        out = belief_update(campus, b, freq)
        assert out.sum() == pytest.approx(1.0, abs=1e-10)
        assert out.min() >= 0.0


class TestBeliefTrajectory:
    def test_horizon_zero_returns_initial_only(self, rng):
        chain = random_chain(rng, 4)
        b0 = rng.dirichlet(np.ones(4))
        traj = belief_trajectory(chain, b0, 0)
        assert traj.shape == (1, 4)
        np.testing.assert_allclose(traj[0], b0)

    def test_stationary_start_stays_constant(self, rng):
        chain = random_chain(rng, 5)
        p = stationary_distribution(chain)
        traj = belief_trajectory(chain, p, 40)
        np.testing.assert_allclose(traj, np.broadcast_to(p, traj.shape),
                                   atol=1e-9)

    def test_agrees_with_stepwise_update(self, rng, campus):
        from lppm.mdp import uniform_policy
        theta = occupancy_from_policy(campus, uniform_policy(campus))
        chain = adversary_matrix(campus, theta)
        freq = action_frequencies(theta)
        b = campus.p0.copy()
        traj = belief_trajectory(chain, campus.p0, 12)
        for t in range(12):
            b = belief_update(campus, b, freq)
            np.testing.assert_allclose(traj[t + 1], b, atol=1e-10)

    def test_two_starts_converge_on_ergodic_chain(self, rng):
        chain = random_chain(rng, 6)
        b1 = belief_trajectory(chain, rng.dirichlet(np.ones(6)), 200)[-1]
        b2 = belief_trajectory(chain, rng.dirichlet(np.ones(6)), 200)[-1]
        assert np.abs(b1 - b2).sum() < 1e-6

    def test_l1_distance_to_fixed_point_never_increases(self, rng):
        chain = random_chain(rng, 5)
        p = stationary_belief(chain)
        traj = belief_trajectory(chain, rng.dirichlet(np.ones(5)), 60)
        dists = np.abs(traj - p).sum(axis=1)
        assert np.all(np.diff(dists) <= 1e-12)


class TestStationaryBelief:
    def test_symmetric_two_state(self):
        chain = np.array([[0.2, 0.8], [0.8, 0.2]])
        np.testing.assert_allclose(stationary_belief(chain), [0.5, 0.5],
                                   atol=1e-12)

    def test_matches_chain_stationary_distribution(self, rng):
        chain = random_chain(rng, 6)
        np.testing.assert_allclose(stationary_belief(chain),
                                   stationary_distribution(chain), atol=1e-12)

    def test_trajectory_limit(self, rng):
        chain = random_chain(rng, 5)
        p = stationary_belief(chain)
        tail = belief_trajectory(chain, rng.dirichlet(np.ones(5)), 1000)[-1]
        np.testing.assert_allclose(tail, p, atol=1e-8)

    def test_campus_observer_row_mixes_completion_loops(self, campus):
        # under the uniform policy, actions a and e carry combined frequency
        # w = 6.5/74 + 3/148 + 8/222 + 5/74 = 47/222 (weighting each state's
        # visit share by 1/|A(s)|); at s1 the remaining actions contribute
        # self loops, so row 1 is w*(1/3,1/3,1/3,0,0,0) + (1-w)*e_1
        from lppm.mdp import uniform_policy
        theta = occupancy_from_policy(campus, uniform_policy(campus))
        chain = adversary_matrix(campus, theta)
        w = 47.0 / 222.0
        expected = np.array([1.0 - 2.0 * w / 3.0, w / 3.0, w / 3.0, 0, 0, 0])
        np.testing.assert_allclose(chain[0], expected, atol=1e-12)
        # completion rows make the observer chain differ from the state chain
        induced = induce_chain(campus, uniform_policy(campus))
        assert np.abs(chain - induced).max() > 0.1

    def test_campus_observer_belief_differs_from_visit_frequency(self, campus):
        from lppm.mdp import uniform_policy
        theta = occupancy_from_policy(campus, uniform_policy(campus))
        b_inf = stationary_belief(adversary_matrix(campus, theta))
        assert b_inf.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.abs(b_inf - CAMPUS_P_INF).max() > 1e-3


class TestWriteBeliefCsv:
    def test_layout_and_mass_column(self, tmp_path, rng):
        chain = random_chain(rng, 3)
        traj = belief_trajectory(chain, np.array([1.0, 0.0, 0.0]), 4)
        path = tmp_path / "belief.csv"
        write_belief_csv(path, traj, [2])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,b1,b2,b3,secret_mass"
        assert len(lines) == 6
        row = lines[1].split(",")
        assert row[0] == "0"
        assert float(row[1]) == 1.0
        assert float(row[-1]) == float(row[3])

    @pytest.mark.parametrize("n,secret", [(3, [2]), (4, []), (121, list(range(0, 121, 3))),
                                          (300, list(range(200)))])
    def test_bytes_equal_csv_writer(self, tmp_path, rng, n, secret):
        beliefs = rng.dirichlet(np.ones(n), size=40)
        beliefs[0] = 0.0
        beliefs[1] = -0.0
        beliefs[2] = np.eye(n)[n - 1]               # one-hot
        beliefs[3, ::2] = -0.0
        beliefs[4] = np.nextafter(0.0, 1.0)         # subnormal
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        mass = write_belief_csv(got, beliefs, secret)
        csv_write_belief_csv(want, beliefs, secret)
        assert got.read_bytes() == want.read_bytes()
        # the column it wrote, returned for metrics.csv and the bound check
        assert mass.tobytes() == secret_mass_series(beliefs, secret).tobytes()

    def test_peak_memory_below_the_template_writer(self, tmp_path, rng):
        """A 1000-step trajectory over 120 states, the largest `simulate`
        writes in the benchmark. The writer the vectorized one replaced,
        which formatted one Python float per value through a %-template,
        peaked at 3.96 MB under tracemalloc (CPython 3.11, numpy 2.4)."""
        beliefs = rng.dirichlet(np.ones(120), size=1001)
        tracemalloc.start()
        try:
            write_belief_csv(tmp_path / "belief.csv", beliefs, [0, 3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.96e6

    def test_single_row_bytes_equal_csv_writer(self, tmp_path):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_belief_csv(got, [0.25, -0.0, 0.75], (0, 1))
        csv_write_belief_csv(want, [0.25, -0.0, 0.75], (0, 1))
        assert got.read_bytes() == want.read_bytes() == \
            b"t,b1,b2,b3,secret_mass\r\n0,0.25,-0,0.75,0.25\r\n"

