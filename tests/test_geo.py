import numpy as np
import pytest

from lppm.geo import haversine_m, haversine_many_m, offset_latlon, step_distances_m
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
