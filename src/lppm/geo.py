"""Small geographic helpers shared by the mobility pipeline and the fixtures."""
from __future__ import annotations

import math

import numpy as np

EARTH_RADIUS_M = 6371000.0
# Width of the band around a threshold inside which a haversine_many_m screen
# is settled with haversine_m. The two differ by a few ulps of the distance
# (numpy squares by x * x where a float's ** 2 calls libm pow, which differs
# in the last bit on about 0.1 % of inputs, and np.arcsin may differ from
# math.asin by one ulp): at most 1.2e-8 m over 3e5 random pairs up to
# 19 000 km apart, far below the band. Near-antipodal distances amplify the
# gap, so the screen is exact while the thresholds compared (radii, join and
# merge distances) stay below ~19 000 km.
SCREEN_TOL_M = 1e-6


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters between two (lat, lon) points in degrees.

    This is the definition every distance that reaches an output follows.
    """
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def haversine_many_m(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Vectorized great-circle distance; the arguments broadcast against each other.

    Agrees with haversine_m to a few ulps, not bit for bit: screen with it and
    settle every decision within SCREEN_TOL_M of its threshold with
    haversine_m.
    """
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(np.subtract(lon2, lon1))
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def max_haversine_m(lat: np.ndarray, lon: np.ndarray, lat0: float, lon0: float) -> float:
    """max(haversine_m(lat[i], lon[i], lat0, lon0)) bit for bit; 0.0 for no points.

    One vectorized screen keeps the points within two bands of the largest
    screened distance; haversine_m settles those, once per distinct point.
    """
    if lat.size == 0:
        return 0.0
    d = haversine_many_m(lat, lon, lat0, lon0)
    near = d >= d.max() - 2.0 * SCREEN_TOL_M
    return max(haversine_m(la, lo, lat0, lon0)
               for la, lo in set(zip(lat[near].tolist(), lon[near].tolist())))


def step_distances_m(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Distances between consecutive samples of a trace; length len(lat) - 1."""
    return haversine_many_m(lat[:-1], lon[:-1], lat[1:], lon[1:])


def offset_latlon(lat_ref: float, lon_ref: float, dx_m: float, dy_m: float) -> tuple[float, float]:
    """Point dx_m meters east and dy_m meters north of the reference point.

    Equirectangular approximation, adequate for the sub-kilometer layouts
    used by the synthetic fixtures.
    """
    lat = lat_ref + math.degrees(dy_m / EARTH_RADIUS_M)
    lon = lon_ref + math.degrees(dx_m / (EARTH_RADIUS_M * math.cos(math.radians(lat_ref))))
    return lat, lon
