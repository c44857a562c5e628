"""Shared helpers: brute-force oracles and random-instance factories."""
import math
from itertools import combinations, islice, product

import numpy as np

from lppm.geo import EARTH_RADIUS_M, haversine_m
from lppm.mdp import NonErgodicError, UnichainReport, make_mdp
from lppm.mobility import COVER_TOL_M, PoiCluster, stationary_flags


def brute_force_lp(c, a_ub, b_ub):
    """Exhaustive vertex enumeration for min c.x, a_ub x <= b_ub, x >= 0.

    Enumerates basic solutions of the slack-extended system [A | I] y = b in
    batches. The caller must supply a bounded feasible region (add an
    explicit sum bound row if needed).
    """
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    m, n = a_ub.shape
    full = np.hstack([a_ub, np.eye(m)])
    cost = np.concatenate([c, np.zeros(m)])
    best = np.inf
    combos = combinations(range(n + m), m)
    while True:
        block = np.array(list(islice(combos, 100_000)))
        if block.size == 0:
            break
        mats = full[:, block].transpose(1, 0, 2)     # (n_block, m, m)
        ok = np.abs(np.linalg.det(mats)) > 1e-10
        if not ok.any():
            continue
        rhs = np.broadcast_to(b_ub, (int(ok.sum()), m))[..., None]
        sols = np.linalg.solve(mats[ok], rhs)[..., 0]
        feas = np.all(sols >= -1e-9, axis=1)
        if feas.any():
            vals = np.einsum("ij,ij->i", sols[feas], cost[block[ok][feas]])
            best = min(best, float(vals.min()))
    return None if best == np.inf else best


def random_bounded_lp(rng, max_vars=30, max_rows=5):
    """Feasible bounded LP with a known interior point; returns (c, a_ub, b_ub)."""
    n = int(rng.integers(2, max_vars + 1))
    m = int(rng.integers(2, max_rows + 1))
    a = rng.normal(size=(m, n))
    x0 = rng.random(n)
    b = a @ x0 + rng.random(m) * 0.5
    a = np.vstack([a, np.ones(n)])
    b = np.concatenate([b, [x0.sum() + 5.0]])
    c = rng.normal(size=n)
    return c, a, b


def random_dense_mdp(rng, n_states=4, n_actions=3, meta=False):
    """Fully-available MDP with Dirichlet rows; ergodic under every policy."""
    transition = rng.dirichlet(np.ones(n_states), size=(n_actions, n_states))
    utility = rng.uniform(1.0, 5.0, size=(n_states, n_actions))
    available = tuple(tuple(range(n_actions)) for _ in range(n_states))
    p0 = rng.dirichlet(np.ones(n_states))
    return make_mdp(transition, utility, available, p0)


def power_iteration_stationary(chain, tol=1e-12, max_iter=1_000_000):
    """Stationary distribution by repeated application of P^T."""
    chain = np.asarray(chain, dtype=float)
    p = np.full(chain.shape[0], 1.0 / chain.shape[0])
    for _ in range(max_iter):
        nxt = chain.T @ p
        if np.abs(nxt - p).sum() < tol:
            return nxt / nxt.sum()
        p = nxt
    raise NonErgodicError("power iteration did not converge")


def bfs_check_ergodic(chain, tol=1e-12):
    """Reference for mdp.check_ergodic: strong connectivity by graph search,
    period as the gcd over support edges (u, v) of level(u) + 1 - level(v)
    with BFS levels from state 0."""
    chain = np.asarray(chain, dtype=float)
    n = chain.shape[0]
    succ = [np.nonzero(row > tol)[0] for row in chain]
    pred = [np.nonzero(col > tol)[0] for col in chain.T]

    def reaches_all(graph):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        stack = [0]
        while stack:
            for v in graph[stack.pop()]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        return bool(seen.all())

    if not (reaches_all(succ) and reaches_all(pred)):
        return False
    level = np.full(n, -1, dtype=int)
    level[0] = 0
    queue = [0]
    while queue:
        u = queue.pop(0)
        for v in succ[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(int(v))
    g = 0
    for u in range(n):
        for v in succ[u]:
            g = math.gcd(g, int(level[u] + 1 - level[v]))
    return abs(g) == 1


def enumerate_unichain(mdp):
    """Reference for mdp.check_unichain_exhaustive: every action tuple of
    the full product of availability sets, in lexicographic order."""
    checked = 0
    for choice in product(*mdp.available):
        chain = np.stack([mdp.transition[a][s] for s, a in enumerate(choice)])
        checked += 1
        if not bfs_check_ergodic(chain):
            return UnichainReport("not_unichain", tuple(choice), checked)
    return UnichainReport("unichain", None, checked)


def local_xy_m(lat, lon, lat_ref, lon_ref):
    """Equirectangular projection to planar meters (x east, y north) around a reference."""
    x = np.radians(np.asarray(lon) - lon_ref) * EARTH_RADIUS_M * math.cos(math.radians(lat_ref))
    y = np.radians(np.asarray(lat) - lat_ref) * EARTH_RADIUS_M
    return x, y


def random_sparse_mdp(rng, n_states=7, n_actions=5):
    """MDP with random availability sets, each listed in shuffled order."""
    transition = rng.dirichlet(np.ones(n_states), size=(n_actions, n_states))
    utility = rng.uniform(1.0, 5.0, size=(n_states, n_actions))
    available = [tuple(int(a) for a in rng.permutation(n_actions)[:rng.integers(1, n_actions)])
                 for _ in range(n_states)]
    p0 = rng.dirichlet(np.ones(n_states))
    return make_mdp(transition, utility, available, p0), available


def random_shared_row_mdp(rng, shared):
    """Small MDP with sparse rows, so that many policies are not ergodic.

    With `shared`, each state draws its action rows from a pool of one or
    two rows, so several actions share a row bit for bit; otherwise every
    available row is drawn on its own.
    """
    n, m = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    transition = np.zeros((m, n, n))
    available = []
    for s in range(n):
        acts = tuple(int(a) for a in rng.permutation(m)[:rng.integers(1, m + 1)])
        available.append(acts)
        pool = int(rng.integers(1, 3)) if shared else len(acts)
        rows = np.zeros((pool, n))
        for row in rows:
            support = rng.permutation(n)[:rng.integers(1, 3)]
            row[support] = rng.dirichlet(np.ones(len(support)))
        for a in acts:
            transition[a, s] = rows[rng.integers(pool)] if shared else rows[acts.index(a)]
    utility = rng.uniform(1.0, 5.0, size=(n, m))
    return make_mdp(transition, utility, available, np.full(n, 1.0 / n))


def random_chain(rng, n):
    return rng.dirichlet(np.ones(n), size=n)


def sample_safe_beliefs(rng, n, secret, epsilon, count):
    """Random beliefs with secret mass <= epsilon (over-mass draws rescaled).

    Rescaled rows land exactly on the secret-mass boundary, which is the
    interesting place for invariance checks.
    """
    secret = list(secret)
    rest = [s for s in range(n) if s not in secret]
    b = rng.dirichlet(np.ones(n), size=count)
    mass = b[:, secret].sum(axis=1)
    over = np.nonzero(mass > epsilon)[0]
    b[np.ix_(over, secret)] *= (epsilon / mass[over])[:, None]
    rest_mass = b[np.ix_(over, rest)].sum(axis=1)
    b[np.ix_(over, rest)] *= ((1.0 - epsilon) / rest_mass)[:, None]
    return b


def scalar_extract_pois(traces, params):
    """Reference for mobility.extract_pois: one haversine_m call per test.

    Greedy join of each stationary sample to the first cluster whose running
    centroid lies within max_radius_m, pairwise merges below min_dist_m,
    dwell filter; returns (pois, assignment).
    """
    flags = stationary_flags(traces, params)
    idxs = np.nonzero(flags)[0]
    sums = []        # [lat_sum, lon_sum, count]
    members = []     # sample indices per cluster
    label = np.full(len(traces), -1, dtype=int)
    for i in idxs:
        la, lo = float(traces.lat[i]), float(traces.lon[i])
        target = -1
        for c, (sla, slo, cnt) in enumerate(sums):
            if haversine_m(la, lo, sla / cnt, slo / cnt) <= params.max_radius_m:
                target = c
                break
        if target < 0:
            sums.append([la, lo, 1.0])
            members.append([int(i)])
            target = len(sums) - 1
        else:
            sums[target][0] += la
            sums[target][1] += lo
            sums[target][2] += 1.0
            members[target].append(int(i))
        label[i] = target
    merged = True
    while merged and len(sums) > 1:
        merged = False
        for i in range(len(sums)):
            for j in range(i + 1, len(sums)):
                ci = (sums[i][0] / sums[i][2], sums[i][1] / sums[i][2])
                cj = (sums[j][0] / sums[j][2], sums[j][1] / sums[j][2])
                if haversine_m(*ci, *cj) < params.min_dist_m:
                    sums[i] = [sums[i][0] + sums[j][0], sums[i][1] + sums[j][1],
                               sums[i][2] + sums[j][2]]
                    members[i].extend(members[j])
                    del sums[j], members[j]
                    label[label == j] = i
                    label[label > j] -= 1
                    merged = True
                    break
            if merged:
                break
    stay_s = np.zeros(len(sums))
    for i in idxs:
        if i + 1 < len(traces) and flags[i + 1] and label[i] >= 0:
            stay_s[label[i]] += traces.t[i + 1] - traces.t[i]
    keep = [c for c in range(len(sums)) if stay_s[c] / 3600.0 >= params.min_stay_h]
    pois = []
    assignment = np.full(len(traces), -1, dtype=int)
    for new_c, c in enumerate(keep):
        cla = sums[c][0] / sums[c][2]
        clo = sums[c][1] / sums[c][2]
        radius = max((haversine_m(traces.lat[i], traces.lon[i], cla, clo)
                      for i in members[c]), default=0.0)
        pois.append(PoiCluster(cla, clo, radius, stay_s[c] / 3600.0,
                               tuple(members[c])))
        assignment[members[c]] = new_c
    return pois, assignment


def scalar_nearest_disk(traces, pois, params):
    """Reference POI per stationary sample: the nearest POI whose disk holds
    it (first index on ties), else -1, by one haversine_m call per pair."""
    seq = []
    for i in np.nonzero(stationary_flags(traces, params))[0]:
        best = None
        for j, poi in enumerate(pois):
            d = haversine_m(traces.lat[i], traces.lon[i], poi.lat, poi.lon)
            if d <= poi.radius_m + COVER_TOL_M and (best is None or d < best[0]):
                best = (d, j)
        seq.append(-1 if best is None else best[1])
    return np.array(seq, dtype=int)


def scalar_estimate_transitions(traces, pois, params):
    """Reference for mobility.estimate_transitions with Python loops."""
    n = len(pois)
    visits = []
    prev = -1
    for s in scalar_nearest_disk(traces, pois, params):
        if s < 0:
            prev = -1
            continue
        if s != prev:
            visits.append(s)
        prev = s
    counts = np.zeros((n, n))
    for a, b in zip(visits[:-1], visits[1:]):
        counts[a, b] += 1.0
    p = np.zeros((n, n))
    for i in range(n):
        total = counts[i].sum()
        if total > 0:
            p[i] = counts[i] / total
        else:
            p[i, i] = 1.0
    return counts, p
