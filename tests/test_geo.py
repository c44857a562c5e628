import numpy as np
import pytest

from lppm.geo import (EARTH_RADIUS_M, SCREEN_TOL_M, chord2, chord2_at_m, chord2_to_m,
                      haversine_m, haversine_many_m, max_haversine_m, offset_latlon,
                      step_distances_m, unit_vectors)
from support import local_xy_m


class TestHaversine:
    def test_zero_for_identical_points(self):
        assert haversine_m(40.0, -74.0, 40.0, -74.0) == 0.0

    def test_one_degree_latitude(self):
        # one degree of latitude is about 111.2 km on the sphere
        d = haversine_m(40.0, -74.0, 41.0, -74.0)
        assert d == pytest.approx(111195.0, rel=1e-3)

    def test_symmetric(self):
        a = haversine_m(40.0, -74.0, 40.7, -73.9)
        b = haversine_m(40.7, -73.9, 40.0, -74.0)
        assert a == pytest.approx(b, abs=1e-9)

    def test_vectorized_matches_scalar(self, rng):
        lat = 40.0 + rng.random(10) * 0.1
        lon = -74.0 + rng.random(10) * 0.1
        many = haversine_many_m(lat, lon, 40.05, -73.95)
        for i in range(10):
            assert many[i] == pytest.approx(
                haversine_m(lat[i], lon[i], 40.05, -73.95), abs=1e-9)


def random_pairs(rng, count):
    """Pairs a few hundred meters apart, as POI work sees them, and pairs
    anywhere on the globe."""
    lat1 = rng.uniform(-85.0, 85.0, count)
    lon1 = rng.uniform(-180.0, 180.0, count)
    lat2 = lat1 + rng.normal(0.0, 0.003, count)
    lon2 = lon1 + rng.normal(0.0, 0.003, count)
    far = rng.random(count) < 0.2
    lat2[far] = rng.uniform(-90.0, 90.0, far.sum())
    lon2[far] = rng.uniform(-180.0, 180.0, far.sum())
    return lat1, lon1, lat2, lon2


class TestScreen:
    def test_screen_within_band_and_settled_max_exact(self, rng):
        lat1, lon1, lat2, lon2 = random_pairs(rng, 100_000)
        exact = np.array([haversine_m(*pair) for pair in
                          zip(lat1.tolist(), lon1.tolist(), lat2.tolist(), lon2.tolist())])
        screen = haversine_many_m(lat1, lon1, lat2, lon2)
        below = exact < 1.9e7
        assert np.abs(screen - exact)[below].max() < SCREEN_TOL_M / 10.0
        # the settled distance is haversine_m's bit for bit, also where the
        # screen is off by an ulp
        for i in np.nonzero((screen != exact) & below)[0].tolist() + list(range(500)):
            one = slice(i, i + 1)
            assert max_haversine_m(lat1[one], lon1[one], lat2[i], lon2[i]) == exact[i]

    def test_broadcast_matches_elementwise(self, rng):
        lat1, lon1, lat2, lon2 = random_pairs(rng, 12)
        grid = haversine_many_m(lat1[:, None], lon1[:, None], lat2, lon2)
        for i in range(12):
            np.testing.assert_array_equal(grid[i], haversine_many_m(lat1[i], lon1[i], lat2, lon2))

    def test_max_bit_for_bit(self, rng):
        # 100 clusters of 1000 points within a few hundred meters of their reference
        lat0, lon0, _, _ = random_pairs(rng, 100)
        for la0, lo0 in zip(lat0.tolist(), lon0.tolist()):
            lat = la0 + rng.normal(0.0, 0.003, 1000)
            lon = lo0 + rng.normal(0.0, 0.003, 1000)
            exact = max(haversine_m(la, lo, la0, lo0) for la, lo in zip(lat.tolist(), lon.tolist()))
            assert max_haversine_m(lat, lon, la0, lo0) == exact

    def test_max_of_repeated_points_and_of_none(self):
        lat = np.full(50, 40.0005)
        lon = np.full(50, -74.0003)
        assert max_haversine_m(lat, lon, 40.0, -74.0) == haversine_m(40.0005, -74.0003, 40.0, -74.0)
        assert max_haversine_m(lat[:0], lon[:0], 40.0, -74.0) == 0.0


def exact_distances(lat1, lon1, lat2, lon2):
    return np.array([haversine_m(*pair) for pair in
                     zip(lat1.tolist(), lon1.tolist(), lat2.tolist(), lon2.tolist())])


class TestChordScreen:
    def test_within_band_and_settled_max_exact(self, rng):
        lat1, lon1, lat2, lon2 = random_pairs(rng, 100_000)
        exact = exact_distances(lat1, lon1, lat2, lon2)
        c2 = chord2(unit_vectors(lat1, lon1), unit_vectors(lat2, lon2))
        below = exact < 1.9e7
        assert np.abs(chord2_to_m(c2) - exact)[below].max() < SCREEN_TOL_M / 10.0
        # the band's edges around each exact distance hold its squared chord
        assert (chord2_at_m(exact - SCREEN_TOL_M) < c2)[below].all()
        assert (c2 < chord2_at_m(exact + SCREEN_TOL_M))[below].all()
        # the settled distance is haversine_m's bit for bit where the screen differs
        differs = np.nonzero((c2 != chord2_at_m(exact)) & below)[0]
        assert differs.size > 1000
        for i in differs[:500].tolist():
            one = slice(i, i + 1)
            assert max_haversine_m(lat1[one], lon1[one], lat2[i], lon2[i]) == exact[i]

    def test_sub_metre_pairs(self, rng):
        lat1 = rng.uniform(-85.0, 85.0, 20_000)
        lon1 = rng.uniform(-180.0, 180.0, 20_000)
        lat2 = lat1 + rng.normal(0.0, 3e-6, 20_000)     # ~0.3 m
        lon2 = lon1 + rng.normal(0.0, 3e-6, 20_000)
        lat2[:100], lon2[:100] = lat1[:100], lon1[:100]
        exact = exact_distances(lat1, lon1, lat2, lon2)
        assert np.median(exact) < 1.0
        c2 = chord2(unit_vectors(lat1, lon1), unit_vectors(lat2, lon2))
        assert (c2[:100] == 0.0).all()
        assert np.abs(chord2_to_m(c2) - exact).max() < SCREEN_TOL_M / 10.0

    def test_threshold_monotone(self, rng):
        half = np.pi * EARTH_RADIUS_M
        d = np.concatenate([rng.uniform(-10.0, 2.1e7, 10_000), rng.uniform(0.0, 1e-3, 1000),
                            [0.0, -0.0, -1e-300, 5e-324, SCREEN_TOL_M, half, -half, np.inf]])
        # runs of consecutive floats, where rounding could step backwards
        for start in (1e-6, 1.0, 100.0, 1.9e7):
            run = [start]
            for _ in range(200):
                run.append(np.nextafter(run[-1], np.inf))
            d = np.concatenate([d, run])
        d.sort()
        c2 = chord2_at_m(d)
        assert (c2[1:] >= c2[:-1]).all()
        assert (c2[d < 0] == -np.inf).all() and (c2[d >= half] == np.inf).all()
        assert (c2[(d >= 0) & (d < half)] <= 4.0).all()
        ok = (d >= 0) & (d < 1.9e7)
        assert np.abs(chord2_to_m(c2[ok]) - d[ok]).max() < SCREEN_TOL_M / 10.0

    def test_broadcast_matches_elementwise(self, rng):
        lat1, lon1, lat2, lon2 = random_pairs(rng, 12)
        u, v = unit_vectors(lat1, lon1), unit_vectors(lat2, lon2)
        grid = chord2(u[:, :, None], v[:, None, :])
        for i in range(12):
            np.testing.assert_array_equal(grid[i], chord2(u[:, i, None], v))
        np.testing.assert_array_equal(unit_vectors(lat1[3], lon1[3]), u[:, 3])


class TestOffsetRoundTrip:
    def test_offset_then_project_back(self, rng):
        for _ in range(20):
            dx, dy = rng.uniform(-5000, 5000, size=2)
            lat, lon = offset_latlon(40.0, -74.0, dx, dy)
            x, y = local_xy_m(np.array([lat]), np.array([lon]), 40.0, -74.0)
            assert x[0] == pytest.approx(dx, abs=1.0)
            assert y[0] == pytest.approx(dy, abs=1.0)

    def test_offset_distance_consistent(self):
        lat, lon = offset_latlon(40.0, -74.0, 3000.0, 4000.0)
        assert haversine_m(40.0, -74.0, lat, lon) == pytest.approx(5000.0,
                                                                   rel=1e-3)


class TestStepDistances:
    def test_consecutive_pairs(self):
        lat = np.array([40.0, 40.0, 40.01])
        lon = np.array([-74.0, -74.0, -74.0])
        d = step_distances_m(lat, lon)
        assert d.shape == (2,)
        assert d[0] == 0.0
        assert d[1] == pytest.approx(haversine_m(40.0, -74.0, 40.01, -74.0),
                                     abs=1e-9)

    def test_empty_for_single_point(self):
        assert step_distances_m(np.array([40.0]), np.array([-74.0])).size == 0
