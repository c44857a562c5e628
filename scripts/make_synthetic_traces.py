#!/usr/bin/env python3
"""Regenerate tests/data/synthetic_traces.csv.

A two-place commute with a short cafe detour, built so the pipeline ground
truth is checkable by hand: dwell blocks H and W accumulate 36 h and 34 h,
the cafe C only 40 min (dropped by a 1 h dwell filter), and the visit
sequence H W H [C] H W H [C] W H W H W H gives transition counts
n_HH = 1, n_HW = 5, n_WH = 5, hence p = [[1/6, 5/6], [1, 0]].

Deterministic: fixed seed, fixed formatting. Run from the repo root:

    python3 scripts/make_synthetic_traces.py

`write_traces(path, seed)` writes the same itinerary with another seed's
jitter (the tests use it for seeded traces).
"""
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
from lppm.geo import offset_latlon  # noqa: E402

REF_LAT, REF_LON = 40.0, -74.0
PLACES = {"H": (0.0, 0.0), "W": (8000.0, 0.0), "C": (3000.0, 500.0)}
# (place, dwell hours); travel between consecutive entries
ITINERARY = [
    ("H", 4.0), ("W", 8.0), ("H", 3.0), ("C", 1.0 / 3.0), ("H", 5.0),
    ("W", 6.0), ("H", 4.0), ("C", 1.0 / 3.0), ("W", 5.0), ("H", 6.0),
    ("W", 7.0), ("H", 8.0), ("W", 8.0), ("H", 6.0),
]
DWELL_STEP_S = 30.0
TRAVEL_STEP_S = 5.0
TRAVEL_SPEED_MPS = 12.0
JITTER_M = 3.0
T0 = 1_600_000_000.0
SEED = 20260822


def make_rows(seed=SEED):
    """(x, y, timestamp) samples of the itinerary in meters around the reference;
    the seed draws the dwell jitter."""
    rng = np.random.default_rng(seed)
    rows = []
    t = T0
    prev = None
    for place, hours in ITINERARY:
        x0, y0 = PLACES[place]
        if prev is not None:
            px, py = PLACES[prev]
            dist = float(np.hypot(x0 - px, y0 - py))
            steps = int(dist / (TRAVEL_SPEED_MPS * TRAVEL_STEP_S))
            for i in range(1, steps + 1):
                frac = i * TRAVEL_SPEED_MPS * TRAVEL_STEP_S / dist
                t += TRAVEL_STEP_S
                rows.append((px + frac * (x0 - px), py + frac * (y0 - py), t))
        n = int(hours * 3600.0 / DWELL_STEP_S)
        for _ in range(n):
            jx, jy = rng.uniform(-JITTER_M, JITTER_M, size=2)
            t += DWELL_STEP_S
            rows.append((x0 + jx, y0 + jy, t))
        prev = place
    return rows


def write_traces(path, seed=SEED):
    """Write the trace for `seed` as lat,lon,timestamp csv; returns the sample count."""
    rows = make_rows(seed)
    with open(path, "w") as fh:
        fh.write("lat,lon,timestamp\n")
        for x, y, ts in rows:
            lat, lon = offset_latlon(REF_LAT, REF_LON, x, y)
            fh.write(f"{lat:.8f},{lon:.8f},{ts:.1f}\n")
    return len(rows)


def main():
    out = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data" / "synthetic_traces.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    print(f"wrote {write_traces(out)} samples to {out}")


if __name__ == "__main__":
    main()
