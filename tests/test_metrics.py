import math

import numpy as np
import pytest

from lppm.metrics import (EpsPrivacyResult, PrivacySpec, distance_matrix_from_meta,
                          dp_ratio, entropy, eps_privacy_check,
                          expected_inference_error, max_dp_ratio, secret_mass,
                          validate_distance_matrix, write_metric_series)
from lppm.geo import haversine_m
from lppm.mdp import StateMeta


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
