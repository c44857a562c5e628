import math

import numpy as np
import pytest

from lppm.metrics import (RATIO_FLOOR, EpsPrivacyResult, PrivacySpec, _entropy_series,
                          _max_dp_ratio_series, distance_matrix_from_meta, dp_ratio,
                          entropy, eps_privacy_check, expected_inference_error,
                          mass_bound_check, max_dp_ratio, secret_mass, secret_mass_series,
                          validate_distance_matrix, write_metric_series)
from lppm.geo import haversine_m
from lppm.mdp import StateMeta
from support import csv_write_metric_series


class TestEntropy:
    def test_point_mass_is_zero(self):
        assert entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_uniform_six(self):
        assert entropy(np.full(6, 1 / 6)) == pytest.approx(math.log(6), abs=1e-12)

    def test_fair_coin(self):
        assert entropy(np.array([0.5, 0.5])) == pytest.approx(math.log(2),
                                                              abs=1e-12)

    def test_bounds_on_random_beliefs(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            h = entropy(rng.dirichlet(np.ones(n)))
            assert -1e-12 <= h <= math.log(n) + 1e-12


class TestExpectedInferenceError:
    def test_point_mass_guessed_exactly(self):
        d = 1.0 - np.eye(4)
        err, guess = expected_inference_error(np.eye(4)[2], d)
        assert err == 0.0
        assert guess == 2

    def test_two_state_tie_takes_lowest_index(self):
        err, guess = expected_inference_error(np.array([0.5, 0.5]),
                                              1.0 - np.eye(2))
        assert err == pytest.approx(0.5, abs=1e-12)
        assert guess == 0

    def test_matches_exhaustive_minimum(self, rng):
        for _ in range(30):
            b = rng.dirichlet(np.ones(5))
            pts = rng.random((5, 2)) * 100.0
            d = np.hypot(pts[:, 0, None] - pts[None, :, 0],
                         pts[:, 1, None] - pts[None, :, 1])
            err, guess = expected_inference_error(b, d)
            costs = d @ b
            assert err == pytest.approx(float(costs.min()), abs=1e-12)
            assert guess == int(costs.argmin())

    def test_homogeneous_in_distance(self, rng):
        b = rng.dirichlet(np.ones(4))
        d = validate_distance_matrix((1.0 - np.eye(4)) * 3.0)
        err1, _ = expected_inference_error(b, d)
        err2, _ = expected_inference_error(b, 2.0 * d)
        assert err2 == pytest.approx(2.0 * err1, abs=1e-12)


class TestDpRatio:
    def test_unchanged_belief_is_all_ones(self, rng):
        b = rng.dirichlet(np.ones(5))
        np.testing.assert_allclose(dp_ratio(b, b), 1.0, atol=1e-12)

    def test_known_two_state_value(self):
        d = dp_ratio(np.array([0.5, 0.5]), np.array([0.6, 0.4]))
        assert d[0, 1] == pytest.approx(1.5, abs=1e-12)
        assert d[1, 0] == pytest.approx(2 / 3, abs=1e-12)

    def test_reciprocal_pairs_and_unit_diagonal(self, rng):
        bp = rng.dirichlet(np.ones(4)) + 0.01
        bp /= bp.sum()
        bn = rng.dirichlet(np.ones(4)) + 0.01
        bn /= bn.sum()
        d = dp_ratio(bp, bn)
        np.testing.assert_allclose(d * d.T, 1.0, atol=1e-10)
        np.testing.assert_allclose(np.diag(d), 1.0, atol=0)

    def test_zero_denominator_marks_inf(self):
        d = dp_ratio(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert d[0, 1] == np.inf
        assert d[1, 0] == 0.0

    def test_max_ignores_inf_markers(self):
        assert max_dp_ratio(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == 1.0
        assert max_dp_ratio(np.array([0.4, 0.6]), np.array([0.6, 0.4])) == \
            pytest.approx((0.6 / 0.4) / (0.4 / 0.6), abs=1e-12)


class TestSecretMass:
    def test_uniform_single_secret(self):
        spec = PrivacySpec((3,), 0.2)
        assert secret_mass(np.full(6, 1 / 6), spec) == pytest.approx(1 / 6)

    def test_accepts_plain_indices(self):
        assert secret_mass(np.array([0.1, 0.2, 0.7]), [1, 2]) == \
            pytest.approx(0.9, abs=1e-12)

    def test_zero_when_belief_avoids_secret(self):
        assert secret_mass(np.array([0.5, 0.5, 0.0]), PrivacySpec((2,), 0.5)) \
            == 0.0


class TestEpsPrivacyCheck:
    def traj(self, masses):
        # 2-state trajectories with the given secret-state masses
        return np.array([[1.0 - m, m] for m in masses])

    def test_holds_below_budget(self):
        res = eps_privacy_check(self.traj([0.1, 0.15, 0.19]),
                                PrivacySpec((1,), 0.2))
        assert res == EpsPrivacyResult(True, None, pytest.approx(0.19))

    def test_boundary_is_inclusive(self):
        res = eps_privacy_check(self.traj([0.2]), PrivacySpec((1,), 0.2))
        assert res.holds

    def test_first_violation_reported(self):
        res = eps_privacy_check(self.traj([0.1, 0.25, 0.3, 0.05]),
                                PrivacySpec((1,), 0.2))
        assert not res.holds
        assert res.first_violation == 1
        assert res.max_mass == pytest.approx(0.3)

    def test_monotone_in_epsilon(self):
        traj = self.traj([0.1, 0.22, 0.28])
        tight = eps_privacy_check(traj, PrivacySpec((1,), 0.2))
        loose = eps_privacy_check(traj, PrivacySpec((1,), 0.3))
        assert not tight.holds
        assert loose.holds


class TestPrivacySpec:
    def test_empty_secret_rejected(self):
        with pytest.raises(ValueError):
            PrivacySpec((), 0.2)

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            PrivacySpec((0,), 0.0)
        with pytest.raises(ValueError):
            PrivacySpec((0,), 1.5)
        PrivacySpec((0,), 1.0)

    def test_selector_rejects_full_secret_set(self):
        with pytest.raises(ValueError):
            PrivacySpec((0, 1), 0.5).selector(2)

    def test_selector_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PrivacySpec((5,), 0.5).selector(3)

    def test_secret_states_sorted_and_deduplicated(self):
        spec = PrivacySpec((4, 1, 4), 0.5)
        assert spec.secret_states == (1, 4)

    def test_selector_vector(self):
        np.testing.assert_array_equal(PrivacySpec((1, 3), 0.5).selector(5),
                                      [0.0, 1.0, 0.0, 1.0, 0.0])


class TestDistanceMatrices:
    def test_validation_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            validate_distance_matrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            validate_distance_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError):
            validate_distance_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            validate_distance_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_haversine_mode_matches_direct_call(self):
        meta = [StateMeta("s1", 40.0, -74.0, 50.0),
                StateMeta("s2", 40.01, -74.02, 50.0)]
        d = distance_matrix_from_meta(meta)
        expect = haversine_m(40.0, -74.0, 40.01, -74.02)
        assert d[0, 1] == pytest.approx(expect, abs=1e-9)
        assert d[1, 0] == d[0, 1]
        assert d[0, 0] == 0.0



class TestWriteMetricSeries:
    def test_schema_and_final_ratio_blank(self, tmp_path, rng):
        beliefs = np.array([rng.dirichlet(np.ones(3)) for _ in range(4)])
        d = validate_distance_matrix(1.0 - np.eye(3))
        path = tmp_path / "metrics.csv"
        write_metric_series(path, beliefs, PrivacySpec((2,), 0.5), d)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,entropy,exp_err,max_dp_ratio,secret_mass"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(entropy(beliefs[0]), abs=1e-12)
        assert float(first[3]) == pytest.approx(
            max_dp_ratio(beliefs[0], beliefs[1]), abs=1e-12)
        last = lines[-1].split(",")
        assert last[3] == ""
        assert float(last[4]) == pytest.approx(beliefs[-1][2], abs=1e-12)

    def test_accepts_plain_secret_indices(self, tmp_path):
        beliefs = np.array([[0.2, 0.8], [0.6, 0.4]])
        write_metric_series(tmp_path / "m.csv", beliefs, [0],
                            validate_distance_matrix(1.0 - np.eye(2)))
        rows = (tmp_path / "m.csv").read_text().strip().splitlines()
        assert float(rows[1].split(",")[4]) == pytest.approx(0.2)


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def pairwise_ratios(beliefs):
    return [max_dp_ratio(beliefs[t], beliefs[t + 1]) for t in range(len(beliefs) - 1)]


def scaled_steps(rng, n, steps):
    """Each belief is its predecessor scaled by factors from {1/2, 1, 2}, then
    normalized: several states share max r up to rounding."""
    out = [rng.dirichlet(np.ones(n))]
    for _ in range(steps):
        nxt = out[-1] * rng.choice([0.5, 1.0, 2.0], size=n)
        out.append(nxt / nxt.sum())
    return np.array(out)


class TestMaxDpRatioSeries:
    """The O(n)-per-step screen returns max_dp_ratio's bits on every step."""

    def test_random_trajectories(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 40))
            beliefs = rng.dirichlet(np.full(n, rng.choice([0.1, 1.0, 10.0])),
                                    size=int(rng.integers(2, 12)))
            assert bits(_max_dp_ratio_series(beliefs)) == bits(pairwise_ratios(beliefs))

    def test_zero_entries_and_equal_consecutive_rows(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 12))
            beliefs = rng.dirichlet(np.ones(n), size=8)
            beliefs[rng.random(beliefs.shape) < 0.2] = 0.0
            beliefs[3] = beliefs[2]                    # r = 1 on the support
            beliefs[6] = beliefs[5] = beliefs[4]
            assert bits(_max_dp_ratio_series(beliefs)) == bits(pairwise_ratios(beliefs))

    def test_states_tied_at_max_ratio(self, rng):
        exact = np.array([[1.0, 1.0, 2.0, 4.0], [2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1.0, 5.0]]) / 8
        assert bits(_max_dp_ratio_series(exact)) == bits(pairwise_ratios(exact))
        for _ in range(300):
            beliefs = scaled_steps(rng, int(rng.integers(2, 12)), 4)
            assert bits(_max_dp_ratio_series(beliefs)) == bits(pairwise_ratios(beliefs))

    @pytest.mark.filterwarnings("ignore:overflow encountered in divide")  # dp_ratio's own
    def test_entries_below_the_underflow_guard(self, rng):
        for tiny in (5e-324, 1e-300, 1e-160, RATIO_FLOOR, np.nextafter(RATIO_FLOOR, 1.0)):
            beliefs = rng.dirichlet(np.ones(6), size=5)
            beliefs[1, 2] = beliefs[2, 0] = beliefs[4, 5] = tiny
            beliefs[3, 4] = -0.0
            assert bits(_max_dp_ratio_series(beliefs)) == bits(pairwise_ratios(beliefs))

    def test_two_states(self, rng):
        beliefs = np.vstack([rng.dirichlet(np.ones(2), size=50), [[0.5, 0.5]] * 2,
                             [[1.0, 0.0], [0.0, 1.0], [0.25, 0.75]]])
        assert bits(_max_dp_ratio_series(beliefs)) == bits(pairwise_ratios(beliefs))

    @pytest.mark.parametrize("steps", [0, 1])
    def test_short_trajectories(self, rng, steps):
        beliefs = rng.dirichlet(np.ones(5), size=steps + 1)
        assert bits(_max_dp_ratio_series(beliefs)) == bits(pairwise_ratios(beliefs))
        assert _max_dp_ratio_series(np.empty((0, 5))) == []

    def test_converged_trajectory_settles_in_blocks(self, rng):
        # every state is near max r on every step: the settle runs in several chunks
        b = rng.dirichlet(np.ones(300))
        beliefs = np.array([b * (1.0 + rng.integers(-3, 4, size=300) * 2.0 ** -52)
                            for _ in range(6)])
        assert bits(_max_dp_ratio_series(beliefs)) == bits(pairwise_ratios(beliefs))


class TestEntropySeries:
    def test_bits_equal_entropy(self, rng):
        beliefs = rng.dirichlet(np.ones(9), size=60)
        beliefs[rng.random(beliefs.shape) < 0.15] = 0.0
        beliefs[0] = 0.0
        beliefs[1, ::2] = -0.0
        beliefs[2, 3] = 5e-324
        assert bits(_entropy_series(beliefs)) == bits([entropy(b) for b in beliefs])


class TestSecretMassSeries:
    def test_bits_equal_secret_mass(self, rng):
        # 14 secret states: sum(axis=1) disagrees with the 1-D sums on some rows
        beliefs = rng.dirichlet(np.ones(30), size=2000)
        secret = [int(s) for s in rng.choice(30, size=14, replace=False)]
        spec = PrivacySpec(secret, 0.5)
        masses = secret_mass_series(beliefs, spec)
        assert bits(masses) == bits([secret_mass(b, spec) for b in beliefs])
        assert bits(secret_mass_series(beliefs, secret)) == \
            bits([secret_mass(b, secret) for b in beliefs])
        assert (beliefs[:, list(spec.secret_states)].sum(axis=1) != masses).any()

    def test_bound_check_reads_the_same_column(self, rng):
        beliefs = rng.dirichlet(np.ones(30), size=2000)
        spec = PrivacySpec(range(0, 28, 2), 0.47)
        masses = secret_mass_series(beliefs, spec)
        check = eps_privacy_check(beliefs, spec, slack=0.0)
        assert check == mass_bound_check(masses, spec.epsilon, slack=0.0)
        assert check.max_mass == masses.max()
        assert check.first_violation == int(np.argmax(masses > spec.epsilon))


class TestMetricSeriesBytes:
    """write_metric_series writes the bytes of the csv.writer reference."""

    @staticmethod
    def assert_same_bytes(tmp_path, beliefs, spec, distance):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_metric_series(got, beliefs, spec, distance)
        csv_write_metric_series(want, beliefs, spec, distance)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_random_trajectory_with_edge_rows(self, tmp_path, rng, n):
        beliefs = rng.dirichlet(np.ones(n), size=30)
        beliefs[3] = beliefs[2]
        beliefs[5, 0] = 0.0
        beliefs[7] = np.eye(n)[n - 1]
        beliefs[9, 1] = 1e-200
        beliefs[10:14] = scaled_steps(rng, n, 3)
        beliefs[20] = 0.0
        distance = rng.random((n, n)) * 1000.0
        distance = validate_distance_matrix(np.triu(distance, 1) + np.triu(distance, 1).T)
        for spec in (PrivacySpec((n - 1, 0), 0.5), [n - 1, 0], []):
            self.assert_same_bytes(tmp_path, beliefs, spec, distance)

    @pytest.mark.parametrize("rows", [0, 1, 2])
    def test_header_only_and_short(self, tmp_path, rng, rows):
        beliefs = rng.dirichlet(np.ones(4), size=rows).reshape(rows, 4)
        self.assert_same_bytes(tmp_path, beliefs, [1], 1.0 - np.eye(4))

    def test_single_belief_vector(self, tmp_path):
        self.assert_same_bytes(tmp_path, np.array([0.25, 0.0, 0.75]), [0], 1.0 - np.eye(3))
