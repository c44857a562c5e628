"""Small geographic helpers shared by the mobility pipeline and the fixtures."""
from __future__ import annotations

import math

import numpy as np

EARTH_RADIUS_M = 6371000.0
# Width of the band around a threshold inside which a chord screen (chord2 of
# unit_vectors, compared with chord2_at_m of the threshold) is settled with
# haversine_m. The distance a squared chord stands for, chord2_to_m, differs
# from haversine_m's by rounding only: each unit-vector component is off by a
# few ulps of 1, so the chord is off by ~5e-16 and the distance by about
# R * 5e-16 / cos(d / 2R). Measured: at most 3.4e-9 m over 2.4e5 pairs under
# 1 km (sub-metre pairs included) and 3.7e-8 m over 5e5 random pairs below
# 19 000 km, far below the band. The 1 / cos(d / 2R) factor grows toward the
# antipode: 7e-8 m below 19 500 km, 3.2e-7 m below 19 900 km, and past the
# band within ~100 km of the antipode. So the screen is exact while the
# thresholds compared (radii, join and merge distances, a few km at most)
# stay below ~19 000 km.
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

    Agrees with haversine_m to a few ulps, not bit for bit. It defines the
    step distances (step_distances_m); pair screens use the chord kernel below.
    """
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(np.subtract(lon2, lon1))
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def unit_vectors(lat, lon) -> np.ndarray:
    """(3, ...) unit vectors (cos phi cos lambda, cos phi sin lambda, sin phi)
    of points given in degrees."""
    phi, lam = np.radians(lat), np.radians(lon)
    cos_phi = np.cos(phi)
    return np.array([cos_phi * np.cos(lam), cos_phi * np.sin(lam), np.sin(phi)])


def chord2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Squared chord lengths |u - v|^2 between unit vectors; the (3, ...)
    arguments broadcast against each other past their first axis.

    No trigonometry: 3 subtractions, 3 squares and 2 additions per pair.
    Compare the result with chord2_at_m of a threshold, never with a
    distance; chord2_to_m gives the distance where one is needed.
    """
    diff = np.subtract(u[0], v[0])
    c2 = np.multiply(diff, diff)
    for axis in (1, 2):
        np.subtract(u[axis], v[axis], out=diff)
        c2 += np.multiply(diff, diff, out=diff)
    return c2


def chord2_at_m(dist_m):
    """Squared chord 4 sin^2(d / 2R) of a great-circle distance d in meters.

    Non-decreasing in d: -inf below 0 m, where no pair lies, and inf from
    half the circumference on, where every pair lies.
    """
    d = np.asarray(dist_m, dtype=float)
    c2 = 4.0 * np.sin(np.clip(d, 0.0, math.pi * EARTH_RADIUS_M) / (2.0 * EARTH_RADIUS_M)) ** 2
    return np.where(d < 0.0, -np.inf, np.where(d >= math.pi * EARTH_RADIUS_M, np.inf, c2))


def chord2_to_m(c2) -> np.ndarray:
    """Great-circle distance in meters of a squared chord, 2R asin(sqrt(c2) / 2)."""
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(c2) / 2.0))


def max_haversine_m(lat: np.ndarray, lon: np.ndarray, lat0: float, lon0: float) -> float:
    """max(haversine_m(lat[i], lon[i], lat0, lon0)) bit for bit; 0.0 for no points.

    One chord screen keeps the points within two bands of the largest
    screened distance; haversine_m settles those, once per distinct point.
    """
    if lat.size == 0:
        return 0.0
    c2 = chord2(unit_vectors(lat, lon), unit_vectors(lat0, lon0)[:, None])
    near = c2 >= chord2_at_m(chord2_to_m(c2.max()) - 2.0 * SCREEN_TOL_M)
    return max(haversine_m(la, lo, lat0, lon0)
               for la, lo in set(zip(lat[near].tolist(), lon[near].tolist())))


def step_distances_m(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Distances between consecutive samples of a trace; length len(lat) - 1.

    haversine_many_m's values define the stationarity speeds, bit for bit.
    """
    return haversine_many_m(lat[:-1], lon[:-1], lat[1:], lon[1:])


def offset_latlon(lat_ref: float, lon_ref: float, dx_m: float, dy_m: float) -> tuple[float, float]:
    """Point dx_m meters east and dy_m meters north of the reference point.

    Equirectangular approximation, adequate for the sub-kilometer layouts
    used by the synthetic fixtures.
    """
    lat = lat_ref + math.degrees(dy_m / EARTH_RADIUS_M)
    lon = lon_ref + math.degrees(dx_m / (EARTH_RADIUS_M * math.cos(math.radians(lat_ref))))
    return lat, lon
