"""Seeded input generators for the benchmark.

Two kinds of input, both a pure function of (seed, size):

* multi-place GPS traces in the style of scripts/make_synthetic_traces.py,
  written as csv (``lat,lon,timestamp``) or as a Geolife ``.plt`` file. The
  generator also returns the ground truth the output checks need: the place
  of every sample.
* mobility-like models in the shape trace-built models have: action-independent
  dynamics ``T(s, a, .) = p(s, .)``, three cloaks per state and area-ratio
  losses, built with ``lppm.mdp.make_mdp``.

Work per input is held fixed across seeds (exact sample counts, fixed place
and state counts, balanced dwell per place), so that the seed changes the data
but not how much work the program does on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

EARTH_RADIUS_M = 6371000.0
DWELL_STEP_S = 30.0
TRAVEL_STEP_S = 5.0
TRAVEL_SPEED_MPS = 12.0
JITTER_M = 4.0
GRID_M = 1500.0          # places sit on grid cells this far apart (merge distance is 500 m)
CELL_JITTER_M = 250.0
T0 = 1_600_000_000.0


@dataclass
class Trace:
    lat: np.ndarray
    lon: np.ndarray
    t: np.ndarray
    place: np.ndarray    # place index per sample, -1 while travelling


def make_trace(seed: int, user: int, n_places: int, n_samples: int) -> Trace:
    """One user's trace: rounds visiting every place once in a seeded order.

    Place positions depend on (user, n_places); the seed sets the visiting
    order, dwell times, jitter and where on the map the user lives. Dwell
    blocks (30 s samples, a few meters of jitter) alternate with straight
    travel at 12 m/s (5 s samples); the trace is cut at exactly n_samples.
    Every place gets about the same dwell, so clustering work per sample does
    not depend on the seed.
    """
    # the layout depends on the user only: cloak coverage, and with it the
    # number of deterministic policies the unichain check enumerates, is the
    # same for every seed
    layout = np.random.default_rng([user, n_places])
    side = math.ceil(math.sqrt(n_places * 1.5))
    cells = layout.choice(side * side, size=n_places, replace=False)
    xy = np.column_stack([(cells % side) * GRID_M, (cells // side) * GRID_M])
    xy = xy + layout.uniform(-CELL_JITTER_M, CELL_JITTER_M, size=xy.shape)
    rng = np.random.default_rng([seed, user, 1])
    lat0 = 39.9 + rng.uniform(-0.2, 0.2)
    lon0 = 116.4 + rng.uniform(-0.2, 0.2)
    xs, ys, ts, places = [], [], [], []
    total = 0
    t = T0
    prev = -1
    while total < n_samples:
        order = rng.permutation(n_places)
        if order[0] == prev:
            order = np.roll(order, -1)
        for place in order:
            x0, y0 = xy[place]
            if prev >= 0:
                px, py = xy[prev]
                dist = float(np.hypot(x0 - px, y0 - py))
                steps = int(dist / (TRAVEL_SPEED_MPS * TRAVEL_STEP_S))
                frac = np.arange(1, steps + 1) * (TRAVEL_SPEED_MPS * TRAVEL_STEP_S / dist)
                xs.append(px + frac * (x0 - px))
                ys.append(py + frac * (y0 - py))
                ts.append(t + TRAVEL_STEP_S * np.arange(1, steps + 1))
                places.append(np.full(steps, -1))
                t += TRAVEL_STEP_S * steps
                total += steps
            dwell = int(rng.uniform(1.5, 3.0) * 3600.0 / DWELL_STEP_S)
            jit = rng.uniform(-JITTER_M, JITTER_M, size=(dwell, 2))
            xs.append(x0 + jit[:, 0])
            ys.append(y0 + jit[:, 1])
            ts.append(t + DWELL_STEP_S * np.arange(1, dwell + 1))
            places.append(np.full(dwell, place))
            t += DWELL_STEP_S * dwell
            total += dwell
            prev = place
            if total >= n_samples:
                break
    x = np.concatenate(xs)[:n_samples]
    y = np.concatenate(ys)[:n_samples]
    lat = lat0 + np.degrees(y / EARTH_RADIUS_M)
    lon = lon0 + np.degrees(x / (EARTH_RADIUS_M * math.cos(math.radians(lat0))))
    # whole seconds, so the csv and plt encodings describe the same samples
    stamps = np.round(np.concatenate(ts)[:n_samples])
    return Trace(np.round(lat, 7), np.round(lon, 7), stamps,
                 np.concatenate(places)[:n_samples])


def write_csv(trace: Trace, path) -> None:
    with open(path, "w") as fh:
        fh.write("lat,lon,timestamp\n")
        fh.writelines(f"{la:.7f},{lo:.7f},{ts:.1f}\n"
                      for la, lo, ts in zip(trace.lat.tolist(), trace.lon.tolist(),
                                            trace.t.tolist()))


def write_plt(trace: Trace, path) -> None:
    """Geolife layout: six header lines, then lat,lon,0,alt,days,date,time."""
    header = ("Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n"
              "0,2,255,My Track,0,0,2,8421376\n0\n")
    with open(path, "w") as fh:
        fh.write(header)
        for la, lo, ts in zip(trace.lat.tolist(), trace.lon.tolist(), trace.t.tolist()):
            stamp = datetime.fromtimestamp(ts, tz=timezone.utc)
            days = ts / 86400.0 + 25569.0
            fh.write(f"{la:.7f},{lo:.7f},0,100,{days:.10f},"
                     f"{stamp:%Y-%m-%d},{stamp:%H:%M:%S}\n")


def make_model(seed: int, index: int, n: int):
    """A mobility-like model with n states and n cloaks, three cloaks per state.

    States are places in a 10 km square; cloak a is a disk around a jittered
    copy of state a's position, and each state may report its three nearest
    cloaks. Moving is action independent: each state keeps a self-loop, moves
    to a few of its nearest neighbours with Dirichlet weights and to the next
    state of a seeded tour, so every policy induces the same ergodic user
    chain. Returns the Mdp.
    """
    from lppm.mdp import ActionMeta, StateMeta, make_mdp

    rng = np.random.default_rng([seed, index, 2])
    xy = rng.uniform(0.0, 10_000.0, size=(n, 2))
    cxy = xy + rng.normal(0.0, 150.0, size=(n, 2))
    d_sc = np.hypot(xy[:, None, 0] - cxy[None, :, 0], xy[:, None, 1] - cxy[None, :, 1])
    available = [tuple(sorted(int(a) for a in np.argsort(d_sc[s], kind="stable")[:3]))
                 for s in range(n)]
    state_r = rng.uniform(20.0, 60.0, size=n)
    cloak_r = np.zeros(n)
    for s, acts in enumerate(available):
        for a in acts:
            cloak_r[a] = max(cloak_r[a], d_sc[s, a] + state_r[s])
    utility = np.zeros((n, n))
    for s, acts in enumerate(available):
        for a in acts:
            utility[s, a] = (cloak_r[a] / state_r[s]) ** 2
    d_ss = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])
    p = np.zeros((n, n))
    for s in range(n):
        succ = np.argsort(d_ss[s], kind="stable")[:6]       # self first, then 5 neighbours
        p[s, succ] = rng.dirichlet(np.full(succ.size, 2.0))
    # a seeded tour through all states keeps the user chain irreducible
    tour = rng.permutation(n)
    p[tour, np.roll(tour, -1)] += 0.05
    p /= p.sum(axis=1, keepdims=True)
    transition = np.broadcast_to(p, (n, n, n)).copy()
    p0 = np.full(n, 1.0 / n)
    ref = (40.0 + rng.uniform(-1, 1), -75.0 + rng.uniform(-1, 1))
    coslat = math.cos(math.radians(ref[0]))

    def latlon(x, y):
        return (ref[0] + math.degrees(y / EARTH_RADIUS_M),
                ref[1] + math.degrees(x / (EARTH_RADIUS_M * coslat)))

    state_meta = [StateMeta(f"s{s + 1}", *latlon(*xy[s]), math.pi * state_r[s] ** 2)
                  for s in range(n)]
    action_meta = [ActionMeta(f"a{a + 1}", *latlon(*cxy[a]), float(cloak_r[a]))
                   for a in range(n)]
    return make_mdp(transition, utility, available, p0,
                    state_meta=state_meta, action_meta=action_meta)
