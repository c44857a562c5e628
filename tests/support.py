"""Shared helpers: brute-force oracles and random-instance factories."""
import csv
import json
import math
import warnings
from datetime import datetime, timezone
from itertools import combinations, islice, product
from pathlib import Path

import numpy as np

from lppm.baselines import _posterior_map, _row_constraints
from lppm.geo import EARTH_RADIUS_M, haversine_m
from lppm.mdp import ActionMeta, NonErgodicError, StateMeta, UnichainReport, make_mdp
from lppm.metrics import entropy, expected_inference_error, max_dp_ratio, secret_mass
from lppm.mobility import COVER_TOL_M, PoiCluster, TraceDataset, stationary_flags
from lppm.optim import (FW_GAP_TOL, OPT_TOL, FwResult, LinearProgram, LpSolution,
                        argmax_vertex, constraint_violation)
from lppm.serialize import dumps_canonical


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


def _meta_docs(mdp):
    """The state_meta and action_meta entries every model schema writes."""
    state_meta = action_meta = None
    if mdp.state_meta is not None:
        state_meta = [{"label": s.label, "lat": s.lat, "lon": s.lon,
                       "area_m2": s.area_m2} for s in mdp.state_meta]
    if mdp.action_meta is not None:
        action_meta = [{"label": a.label, "lat": a.lat, "lon": a.lon,
                        "radius_m": a.radius_m} for a in mdp.action_meta]
    return {"state_meta": state_meta, "action_meta": action_meta}


def mdp_to_dict_v1(mdp):
    """Version-1 model document: the dense (m, n, n) tensor under "transition".

    One of the writers `serialize.mdp_to_dict` replaced, kept to produce the
    old files that must still load.
    """
    return {
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "available": [list(acts) for acts in mdp.available],
        "transition": mdp.transition.tolist(),
        "p0": mdp.p0.tolist(),
        "utility": mdp.utility.tolist(),
        **_meta_docs(mdp),
    }


def mdp_to_dict_v2(mdp):
    """Schema-2 model document: every stored row, n entries wide, under "rows"
    and the whole (n, m) loss matrix.

    One of the writers `serialize.mdp_to_dict` replaced, kept to produce the
    old files that must still load.
    """
    return {
        "schema": 2,
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "available": [list(acts) for acts in mdp.available],
        "rows": mdp.rows.tolist(),
        "p0": mdp.p0.tolist(),
        "utility": mdp.utility.tolist(),
        **_meta_docs(mdp),
    }


def save_mdp_v1(mdp, path):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(mdp_to_dict_v1(mdp)) + "\n")


def save_mdp_v2(mdp, path):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(mdp_to_dict_v2(mdp)) + "\n")


# The contractions of the dense (m, n, n) tensor that the pair-row model core
# replaced, kept as oracles: the library must match them bit for bit.

def completed_tensor(mdp):
    """Dense (m, n, n) T built apart from the library: each T[a] is the identity
    (the self-loop completion rows) with the stored rows of the pairs (s, a)
    scattered in."""
    states, actions = mdp.pair_index()
    dense = np.stack([np.eye(mdp.n_states)] * mdp.n_actions)
    dense[actions, states] = mdp.rows
    return dense


def dense_induce_chain(mdp, policy):
    return np.einsum("sa,asn->sn", policy, completed_tensor(mdp))


def dense_adversary_matrix(mdp, theta):
    return np.einsum("a,aqr->qr", np.asarray(theta).sum(axis=0), completed_tensor(mdp))


def dense_belief_update(mdp, belief, action_dist):
    post = np.einsum("a,aqr,q->r", action_dist, completed_tensor(mdp), belief)
    return post / post.sum()


def dense_step_user(mdp, p, f):
    return np.einsum("s,sa,asn->n", p, f, completed_tensor(mdp))


def dense_pushforward(mdp, belief):
    """w[a] = T[a]^T belief; the per-step baselines' posterior rows."""
    return np.einsum("aqr,q->ar", completed_tensor(mdp), belief)


def dense_posterior_map(mdp, belief, p_user):
    states, actions = mdp.pair_index()
    return p_user[states, None] * dense_pushforward(mdp, belief)[actions]


def dense_certificate_inflow(mdp, sel):
    """g[a, j] = T[a](j, secret); synthesize_eps_private's certificate rows."""
    return np.einsum("aqr,r->aq", completed_tensor(mdp), sel)


def dense_simulate(mdp, policy, horizon, seed):
    """Reference for mdp.simulate: next states drawn from the dense tensor's cumsum."""
    rng = np.random.default_rng(seed)
    cum_policy = np.cumsum(policy, axis=1)
    cum_trans = np.cumsum(completed_tensor(mdp), axis=2)
    draws = rng.random((horizon, 2))
    out = np.empty((horizon, 2), dtype=np.int64)
    n, m = mdp.n_states, mdp.n_actions
    s = min(int(np.searchsorted(np.cumsum(mdp.p0), rng.random(), side="right")), n - 1)
    for t in range(horizon):
        a = min(int(np.searchsorted(cum_policy[s], draws[t, 0], side="right")), m - 1)
        out[t] = s, a
        s = min(int(np.searchsorted(cum_trans[a, s], draws[t, 1], side="right")), n - 1)
    return out


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
    dense = completed_tensor(mdp)
    checked = 0
    for choice in product(*mdp.available):
        chain = np.stack([dense[a][s] for s, a in enumerate(choice)])
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


def bisection_frank_wolfe(fun, grad, groups, x0, gap_tol=FW_GAP_TOL, max_iter=500):
    """Vanilla Frank-Wolfe with a 40-step bisection line search.

    The loop `optim.maximize_concave` ran before it moved to pairwise
    steps, kept as an oracle: each round moves from x toward the
    argmax_vertex of grad(x).
    """
    x = np.asarray(x0, dtype=float).copy()
    gap = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        g = np.asarray(grad(x), dtype=float)
        d = argmax_vertex(g, groups) - x
        gap = float(g @ d)
        if gap <= gap_tol:
            break
        # concave line search: bisect on the directional derivative
        lo, hi = 0.0, 1.0
        if float(np.asarray(grad(x + d)) @ d) >= 0.0:
            step = 1.0
        else:
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if float(np.asarray(grad(x + mid * d)) @ d) >= 0.0:
                    lo = mid
                else:
                    hi = mid
            step = 0.5 * (lo + hi)
        if step <= 0.0:
            break
        x = x + step * d
    return FwResult(x, float(fun(x)), gap, it)


def random_entropy_problem(rng):
    """Entropy of w = mix^T x / (number of groups) over a random product of simplices.

    Up to six groups of one to four coordinates; every row of `mix` is a
    distribution over two to seven outcomes with about a third of its
    entries zero, so w is a distribution and the objective is concave.
    Returns (fun, grad, groups, x0), x0 uniform in every group.
    """
    sizes = rng.integers(1, 5, size=rng.integers(1, 7))
    groups = np.repeat(np.arange(len(sizes)), sizes)
    k, n_out = len(groups), int(rng.integers(2, 8))
    mix = rng.random((k, n_out)) * (rng.random((k, n_out)) < 2 / 3)
    mix[np.arange(k), rng.integers(0, n_out, size=k)] += rng.random(k)
    mix /= mix.sum(axis=1, keepdims=True) * len(sizes)

    def fun(x):
        w = x @ mix
        return float(-np.sum(w * np.log(np.maximum(w, 1e-300))))

    def grad(x):
        return mix @ -(np.log(np.maximum(x @ mix, 1e-300)) + 1.0)
    return fun, grad, groups, 1.0 / sizes[groups]


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


def strptime_parse_traces(path, fmt=None, user=None):
    """Reference for mobility.parse_traces: datetime.strptime on every plt row,
    the file read whole."""
    path = Path(path)
    if fmt is None:
        fmt = "plt" if path.suffix.lower() == ".plt" else "csv"
    if fmt not in ("csv", "plt"):
        raise ValueError(f"unknown trace format {fmt!r}")
    lat, lon, t = [], [], []
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    start = 6 if fmt == "plt" else 1
    for line in lines[start:]:
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        try:
            if fmt == "plt":
                la, lo = float(parts[0]), float(parts[1])
                stamp = datetime.strptime(parts[5] + " " + parts[6], "%Y-%m-%d %H:%M:%S")
                ts = stamp.replace(tzinfo=timezone.utc).timestamp()
            else:
                la, lo, ts = float(parts[0]), float(parts[1]), float(parts[2])
        except (ValueError, IndexError):
            skipped += 1
            continue
        if not (math.isfinite(la) and math.isfinite(lo) and math.isfinite(ts)) \
                or abs(la) > 90.0 or abs(lo) > 180.0 or (t and ts <= t[-1]):
            skipped += 1
            continue
        lat.append(la)
        lon.append(lo)
        t.append(ts)
    if not lat:
        warnings.warn(f"no valid samples in {path} ({skipped} rows skipped)")
    return TraceDataset(np.array(lat), np.array(lon), np.array(t),
                        user=user or path.stem, n_skipped=skipped)


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
    members = [np.array(m, dtype=int) for m in members]
    restart_merge_close(sums, members, label, params.min_dist_m)
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
                               tuple(members[c].tolist())))
        assignment[members[c]] = new_c
    return pois, assignment


def restart_merge_close(sums, members, label, min_dist_m):
    """Reference for mobility._merge_close: after every merge the pairwise scan
    restarts from (0, 1), O(k^3) haversine_m calls for k clusters."""
    merged = True
    while merged and len(sums) > 1:
        merged = False
        for i in range(len(sums)):
            for j in range(i + 1, len(sums)):
                ci = (sums[i][0] / sums[i][2], sums[i][1] / sums[i][2])
                cj = (sums[j][0] / sums[j][2], sums[j][1] / sums[j][2])
                if haversine_m(*ci, *cj) < min_dist_m:
                    sums[i] = [sums[i][0] + sums[j][0], sums[i][1] + sums[j][1],
                               sums[i][2] + sums[j][2]]
                    members[i] = np.concatenate([members[i], members[j]])
                    del sums[j], members[j]
                    label[label == j] = i
                    label[label > j] -= 1
                    merged = True
                    break
            if merged:
                break


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


def loop_to_standard_form(lp):
    """Reference for optim._to_standard_form, built row by row: [A_ub I; A_eq 0]."""
    d = lp.n_vars
    n_ub = 0 if lp.a_ub is None else lp.a_ub.shape[0]
    rows_a, rows_b = [], []
    for a, b, slack in ((lp.a_ub, lp.b_ub, True), (lp.a_eq, lp.b_eq, False)):
        for i in range(0 if a is None else a.shape[0]):
            row = np.zeros(d + n_ub)
            for j in range(d):
                row[j] += a[i, j]  # zeros come out unsigned
            if slack:
                row[d + i] = 1.0
            rows_a.append(row)
            rows_b.append(b[i])
    a_std = np.array(rows_a) if rows_a else np.zeros((0, d + n_ub))
    return np.concatenate([lp.c, np.zeros(n_ub)]), a_std, np.array(rows_b, dtype=float)


def refactorizing_simplex_phase(a, b, c, basis, max_iter, tol):
    """Reference for optim._simplex_phase: three dense solves per pivot and
    Python scans for Bland's rule; mutates `basis`."""
    m, n = a.shape
    it = 0
    while it < max_iter:
        it += 1
        bmat = a[:, basis]
        xb = np.linalg.solve(bmat, b)
        lam = np.linalg.solve(bmat.T, c[basis])
        reduced = c - lam @ a
        reduced[basis] = 0.0
        entering = -1
        for j in range(n):
            if reduced[j] < -tol:
                entering = j
                break
        if entering < 0:
            return "optimal", xb, it
        d = np.linalg.solve(bmat, a[:, entering])
        ratios = np.full(m, np.inf)
        pos = d > tol
        ratios[pos] = np.maximum(xb[pos], 0.0) / d[pos]
        if not np.any(pos):
            return "unbounded", xb, it
        best = np.min(ratios)
        # Bland tie-break: among minimal ratios leave the smallest variable index
        tie = best + 1e-12 * (1.0 + abs(best))
        leave = min((basis[i], i) for i in range(m) if ratios[i] <= tie)[1]
        basis[leave] = entering
    return "stalled", None, it


def refactorizing_solve_lp(lp, tol=OPT_TOL, max_iter=None):
    """Reference for optim.solve_lp on the per-pivot refactorizing phases:
    same two phases, same artificial drive-out, one solve per artificial."""
    c, a, b = loop_to_standard_form(lp)
    m, n = a.shape
    if max_iter is None:
        max_iter = 50 * (lp.n_vars + lp.n_rows + m + 2)
    if m == 0:
        if np.any(c < -tol):
            return LpSolution("unbounded", None, None, 0)
        x = np.zeros(n)
        return LpSolution("optimal", x, float(lp.c @ x), 0, constraint_violation(lp, x))

    flip = b < 0
    a = a.copy()
    a[flip] *= -1.0
    b = b.copy()
    b[flip] *= -1.0

    a1 = np.hstack([a, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    status, xb, it1 = refactorizing_simplex_phase(a1, b, c1, basis, max_iter, tol)
    if status == "stalled":
        return LpSolution("stalled", None, None, it1)
    phase1_obj = sum(max(float(xb[i]), 0.0) for i in range(m) if basis[i] >= n)
    if phase1_obj > 10.0 * tol:
        return LpSolution("infeasible", None, None, it1)

    redundant = set()
    for r in range(m):
        if basis[r] < n:
            continue
        bmat = a1[:, basis]
        binv_row = np.linalg.solve(bmat.T, np.eye(m)[r])
        row_vals = binv_row @ a1[:, :n]
        basis_set = set(basis)
        pivot_j = next((j for j in range(n)
                        if j not in basis_set and abs(row_vals[j]) > 1e-7), -1)
        if pivot_j >= 0:
            basis[r] = pivot_j
        else:
            redundant.add(r)
    rows = [r for r in range(m) if r not in redundant]
    a2 = a[rows, :]
    b2 = b[rows]
    basis2 = [basis[r] for r in rows]

    status, xb, it2 = refactorizing_simplex_phase(a2, b2, c, basis2, max_iter, tol)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, it1 + it2)
    if status == "stalled":
        return LpSolution("stalled", None, None, it1 + it2)
    y = np.zeros(n)
    y[basis2] = np.maximum(xb, 0.0)
    x = np.zeros(lp.n_vars)
    for j in range(lp.n_vars):
        x[j] += y[j]
    return LpSolution("optimal", x, float(lp.c @ x), it1 + it2,
                      constraint_violation(lp, x))


def random_simplex_lp(rng, degenerate):
    """Small LP over x >= 0 with mixed rows, usually feasible and bounded.

    Degenerate instances take small integer data and an integer start point
    with many zeros, so right-hand sides hit 0, ratios tie exactly and
    equality rows can repeat (the phase-1 drive-out meets them). About one
    LP in ten lacks the row that bounds every variable and may be unbounded;
    about one in ten gets an unreachable row and is infeasible.
    """
    from lppm.optim import LinearProgram

    n = int(rng.integers(2, 14))
    m_ub, m_eq = int(rng.integers(0, 7)), int(rng.integers(0, 4))
    if degenerate:
        draw = lambda rows: rng.integers(-2, 3, size=(rows, n)).astype(float)
        x0 = (rng.integers(0, 3, size=n) * (rng.random(n) < 0.5)).astype(float)
        c = rng.integers(-3, 4, size=n).astype(float)
        slack = rng.integers(0, 2, size=m_ub) * (rng.random(m_ub) < 0.3)
    else:
        draw = lambda rows: rng.normal(size=(rows, n))
        x0 = rng.random(n)
        c = rng.normal(size=n)
        slack = rng.random(m_ub)
    a_ub = draw(m_ub)
    b_ub = a_ub @ x0 + slack
    if rng.random() < 0.9:
        # a row that x0 satisfies and that bounds every variable
        a_ub = np.vstack([a_ub, np.ones(n)])
        b_ub = np.append(b_ub, x0.sum() + 5.0)
    a_eq = draw(m_eq)
    if m_eq > 1 and rng.random() < 0.5:
        a_eq[-1] = 2.0 * a_eq[0]  # a dependent row
    b_eq = a_eq @ x0
    if rng.random() < 0.1:
        # the variables summing to at most -1
        a_ub = np.vstack([a_ub, np.ones(n)])
        b_ub = np.append(b_ub, -1.0)
    return LinearProgram(c, a_ub=a_ub if len(a_ub) else None, b_ub=b_ub if len(a_ub) else None,
                         a_eq=a_eq if m_eq else None, b_eq=b_eq if m_eq else None)


def record_synthesis_lps(monkeypatch):
    """Route lppm.synthesis's solve_lp through a recorder; returns the list of
    (lp, solution) pairs it fills in call order."""
    from lppm.optim import solve_lp

    solved = []

    def recording(lp, *args, **kwargs):
        solved.append((lp, solve_lp(lp, *args, **kwargs)))
        return solved[-1][1]

    monkeypatch.setattr("lppm.synthesis.solve_lp", recording)
    return solved


def record_chain_builds(monkeypatch):
    """Route mix_actions, as lppm.mdp (induce_chain, a user chain) and
    lppm.adversary (adversary_matrix, an observer chain) call it, through a
    recorder; returns the list of weight arrays it fills in call order."""
    from lppm.mdp import mix_actions

    built = []

    def recording(mdp, weights):
        built.append(np.asarray(weights))
        return mix_actions(mdp, weights)

    for module in ("lppm.mdp", "lppm.adversary"):
        monkeypatch.setattr(f"{module}.mix_actions", recording)
    return built


def action_independent_mdp(seed, n, geometry=False):
    """Mobility-like model: moving ignores the action, T(s, a, .) = p(s, .).

    States are random points in the unit square; cloak a sits near state a,
    and each state reports one of its three nearest cloaks at a loss that
    grows with the distance. Each state keeps a self-loop and moves to five
    nearest neighbours and to the next state of a seeded tour, so every
    policy induces the same ergodic user chain. With `geometry` the model
    also carries state and cloak places: the unit square becomes a 5 km
    square near 40 N, 75 W.
    """
    rng = np.random.default_rng([seed, n])
    xy = rng.random((n, 2))
    cloak_xy = xy + rng.normal(0.0, 0.02, size=(n, 2))
    to_cloak = np.hypot(*(xy[:, None, :] - cloak_xy[None, :, :]).transpose(2, 0, 1))
    available = [tuple(sorted(int(a) for a in np.argsort(row, kind="stable")[:3]))
                 for row in to_cloak]
    utility = (1.0 + 30.0 * to_cloak) ** 2
    between = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
    p = np.zeros((n, n))
    for s in range(n):
        succ = np.argsort(between[s], kind="stable")[:6]
        p[s, succ] = rng.dirichlet(np.full(6, 2.0))
    tour = rng.permutation(n)
    p[tour, np.roll(tour, -1)] += 0.05
    p /= p.sum(axis=1, keepdims=True)
    transition = np.broadcast_to(p, (n, n, n)).copy()
    meta = {}
    if geometry:
        def latlon(x, y):
            return (40.0 + math.degrees(5000.0 * y / EARTH_RADIUS_M),
                    -75.0 + math.degrees(5000.0 * x / (EARTH_RADIUS_M * math.cos(math.radians(40.0)))))

        meta = {"state_meta": [StateMeta(f"s{s + 1}", *latlon(*xy[s]), 2000.0) for s in range(n)],
                "action_meta": [ActionMeta(f"a{a + 1}", *latlon(*cloak_xy[a]), 300.0)
                                for a in range(n)]}
    return make_mdp(transition, utility, available, np.full(n, 1.0 / n), **meta)


def required_budget(chain, secret):
    """Smallest epsilon at which a chain keeps {b : b(secret) <= epsilon} invariant.

    The worst next secret mass from that set is epsilon * inflow(secret) +
    (1 - epsilon) * rest when the secret state feeds itself more than any
    other state (rest) does, and rest otherwise; it stays at most epsilon
    exactly when epsilon >= rest / (1 - lift), lift = max(0, inflow(secret) - rest).
    """
    inflow = chain[:, secret]
    rest = float(np.delete(inflow, secret).max())
    lift = max(0.0, float(inflow[secret]) - rest)
    return math.inf if lift >= 1.0 else rest / (1.0 - lift)


def lp_verify_invariance(chain, spec):
    """Reference for synthesis.verify_invariance: the invariance LP,
    max inflow . b over {b >= 0, sum(b) = 1, b(secret) <= epsilon}."""
    from lppm.optim import LinearProgram, solve_lp
    from lppm.synthesis import VERIFY_SLACK, InvarianceVerdict, secret_inflow

    n = np.asarray(chain).shape[0]
    sel = spec.selector(n)
    sol = solve_lp(LinearProgram(-secret_inflow(chain, spec), a_ub=sel[None, :],
                                 b_ub=[spec.epsilon], a_eq=np.ones((1, n)), b_eq=[1.0]))
    if sol.status != "optimal":
        raise RuntimeError(f"invariance LP unexpectedly {sol.status}")
    worst = -sol.objective
    invariant = worst <= spec.epsilon + VERIFY_SLACK
    return InvarianceVerdict(invariant, worst, None if invariant else sol.x)


def lp_theorem1_certificate(chain, spec):
    """Reference for synthesis.theorem1_certificate: the certificate LP,
    max t s.t. t + (epsilon - sel_j) z <= epsilon - inflow_j, z >= 0, with
    the free t written as t+ - t-."""
    from lppm.optim import LinearProgram, solve_lp
    from lppm.synthesis import VERIFY_SLACK, Certificate, secret_inflow

    n = np.asarray(chain).shape[0]
    sel = spec.selector(n)
    eps = spec.epsilon
    inflow = secret_inflow(chain, spec)
    rows = np.column_stack([eps - sel, np.ones(n), -np.ones(n)])
    sol = solve_lp(LinearProgram(np.array([0.0, -1.0, 1.0]), a_ub=rows, b_ub=eps - inflow))
    if sol.status != "optimal":
        raise RuntimeError(f"certificate LP unexpectedly {sol.status}")
    z, t = float(sol.x[0]), float(sol.x[1] - sol.x[2])
    if t < -VERIFY_SLACK:
        return None
    beta = np.maximum(eps - eps * z + z * sel - inflow, 0.0)
    return Certificate(z, beta, t)


def certificate_margin(chain, spec, cert):
    """Smallest slack of the certificate rows with beta included,
    epsilon - epsilon z + z sel_j - inflow_j - beta_j; nonnegative means valid."""
    from lppm.synthesis import secret_inflow

    sel = spec.selector(np.asarray(chain).shape[0])
    rows = -spec.epsilon * cert.z + cert.z * sel - secret_inflow(chain, spec) \
        - cert.beta + spec.epsilon
    return float(rows.min())


def full_eps_private_lp(mdp, spec):
    """synthesize_eps_private's LP with all n certificate rows, one per state
    in state order, over [theta pairs | z]: row j is
    sum_(s, a) T[a](j, secret) theta(s, a) + (eps - sel_j) z <= eps."""
    from lppm.synthesis import _base_constraints

    sel, eps = spec.selector(mdp.n_states), spec.epsilon
    states, actions = mdp.pair_index()
    a_eq, b_eq = _base_constraints(mdp, 1)
    a_ub = np.column_stack([dense_certificate_inflow(mdp, sel)[actions].T, eps - sel])
    return LinearProgram(np.append(mdp.utility[states, actions], 0.0), a_ub=a_ub,
                         b_ub=np.full(mdp.n_states, eps), a_eq=a_eq, b_eq=b_eq)


def elastic_violations(lp):
    """Row violations at the optimum of lp's elastic LP: min sum_j v_j over
    a_ub x - v <= b_ub, a_eq x = b_eq, x, v >= 0 (None unless optimal)."""
    from lppm.optim import solve_lp

    r, nv = lp.a_ub.shape
    sol = solve_lp(LinearProgram(np.concatenate([np.zeros(nv), np.ones(r)]),
                                 a_ub=np.hstack([lp.a_ub, -np.eye(r)]), b_ub=lp.b_ub,
                                 a_eq=np.hstack([lp.a_eq, np.zeros((len(lp.b_eq), r))]),
                                 b_eq=lp.b_eq))
    return sol.x[nv:] if sol.status == "optimal" else None


def binding_spec(mdp):
    """PrivacySpec on one of the five most visited states, with a budget
    halfway between what the uniform policy and the unconstrained optimum
    need, so that the certificate rows bind at the eps_private optimum."""
    from lppm.adversary import adversary_matrix
    from lppm.mdp import occupancy_from_policy, uniform_policy
    from lppm.metrics import PrivacySpec
    from lppm.synthesis import synthesize_unconstrained

    uniform_theta = occupancy_from_policy(mdp, uniform_policy(mdp))
    chains = [adversary_matrix(mdp, theta)
              for theta in (uniform_theta, synthesize_unconstrained(mdp).theta)]
    visits = uniform_theta.sum(axis=1)
    for secret in np.argsort(-visits, kind="stable")[:5]:
        uniform, cheapest = (required_budget(chain, secret) for chain in chains)
        if uniform < 0.97 * cheapest and cheapest <= 1.0:
            return PrivacySpec((int(secret),), 0.5 * (uniform + cheapest))
    raise ValueError("no binding budget among the five most visited states")


def csv_write_belief_csv(path, beliefs, secret_states):
    """Reference for adversary.write_belief_csv: csv.writer, one format() per value."""
    beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
    n = beliefs.shape[1]
    secret = list(secret_states)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"b{i + 1}" for i in range(n)] + ["secret_mass"])
        for t, b in enumerate(beliefs):
            writer.writerow([t] + [format(x, ".17g") for x in b]
                            + [format(float(b[secret].sum()), ".17g")])


def csv_write_metric_series(path, beliefs, spec, distance):
    """Reference for metrics.write_metric_series: csv.writer and the one-belief
    metrics, with a dense dp_ratio matrix per step."""
    beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "entropy", "exp_err", "max_dp_ratio", "secret_mass"])
        for t, b in enumerate(beliefs):
            err, _ = expected_inference_error(b, distance)
            ratio = ""
            if t + 1 < beliefs.shape[0]:
                ratio = format(max_dp_ratio(b, beliefs[t + 1]), ".17g")
            writer.writerow([t, format(entropy(b), ".17g"), format(err, ".17g"),
                             ratio, format(secret_mass(b, spec), ".17g")])


def recursive_dumps_canonical(obj, indent=0):
    """Reference for serialize.dumps_canonical: one format() call per value."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad} "{k}": {recursive_dumps_canonical(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(recursive_dumps_canonical(v, indent) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return recursive_dumps_canonical(obj.tolist(), indent)
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {x!r} cannot be serialized")
        return format(0.0 if x == 0.0 else x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def ratio_dp_lp(mdp, belief, p_user, eps_dp):
    """The dp baseline's LP in ratio form, over (mechanism pairs, U, L).

    For a belief with no zero entry, r_i = (Phi^T f)_i / b_i; rows
    r_i - U <= 0, L - r_i <= 0 and U - e^eps L <= 0 (2n + 1 rows), the
    mechanism's row sums as equalities, and the dp baseline's cost with 0, 0
    for U and L.
    """
    states, actions = mdp.pair_index()
    phi = _posterior_map(mdp, belief, p_user)
    ratio = (phi / belief).T
    n, k = ratio.shape
    one, zero = np.ones((n, 1)), np.zeros((n, 1))
    bound_row = np.concatenate([np.zeros(k), [1.0, -math.exp(eps_dp)]])
    a_ub = np.vstack([np.hstack([ratio, -one, zero]), np.hstack([-ratio, zero, one]),
                      bound_row[None, :]])
    a_eq, b_eq = _row_constraints(mdp)
    c = np.concatenate([p_user[states] * mdp.utility[states, actions], [0.0, 0.0]])
    return LinearProgram(c, a_ub=a_ub, b_ub=np.zeros(2 * n + 1),
                         a_eq=np.hstack([a_eq, np.zeros((n, 2))]), b_eq=b_eq)
