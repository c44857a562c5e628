"""Small geographic helpers shared by the mobility pipeline and the fixtures."""
from __future__ import annotations

import math

import numpy as np

EARTH_RADIUS_M = 6371000.0


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters between two (lat, lon) points in degrees."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def haversine_many_m(lat: np.ndarray, lon: np.ndarray, lat0: float, lon0: float) -> np.ndarray:
    """Vectorized great-circle distance from each (lat[i], lon[i]) to (lat0, lon0)."""
    phi = np.radians(lat)
    phi0 = math.radians(lat0)
    dphi = phi - phi0
    dlam = np.radians(lon - lon0)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi) * math.cos(phi0) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def step_distances_m(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Distances between consecutive samples of a trace; length len(lat) - 1."""
    phi = np.radians(lat)
    dphi = np.diff(phi)
    dlam = np.radians(np.diff(lon))
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi[:-1]) * np.cos(phi[1:]) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def offset_latlon(lat_ref: float, lon_ref: float, dx_m: float, dy_m: float) -> tuple[float, float]:
    """Point dx_m meters east and dy_m meters north of the reference point.

    Equirectangular approximation, adequate for the sub-kilometer layouts
    used by the synthetic fixtures.
    """
    lat = lat_ref + math.degrees(dy_m / EARTH_RADIUS_M)
    lon = lon_ref + math.degrees(dx_m / (EARTH_RADIUS_M * math.cos(math.radians(lat_ref))))
    return lat, lon
