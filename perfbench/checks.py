"""Output checks for benchmark jobs, and the references they compare against.

Every check returns a list of problems; an empty list means the job's output
is correct. The checks are properties of the output (distributions sum to one,
a verified policy is invariant, a certificate margin is non-negative) or
comparisons against references the benchmark computes itself:

* the model a trace should build, from the generator's ground truth and a
  vectorized re-implementation of the trace pipeline;
* closed forms that hold for action-independent dynamics: the unconstrained
  optimum, the worst one-step secret mass of a policy, a feasible budget;
* the eps_private optimum from HiGHS, when scipy imports.

Comparisons are one-sided or tolerance based, so a faster implementation that
returns the same answers (a versioned model schema, a converged Frank-Wolfe)
still passes.
"""
from __future__ import annotations

import csv
import math
import re

import numpy as np

EARTH_RADIUS_M = 6371000.0
COVER_TOL_M = 1e-6
MIN_STATE_RADIUS_M = 10.0

COST_RTOL = 1e-7
MASS_TOL = 1e-7


# ---------------------------------------------------------------- geometry

def haversine(lat1, lon1, lat2, lon2):
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dlam = np.radians(np.asarray(lon2) - np.asarray(lon1))
    a = np.sin((phi2 - phi1) / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(a)))


# ------------------------------------------------------- reference models

class RefModel:
    """What `lppm build` should produce, in plain arrays."""

    def __init__(self, lat, lon, radius, cloaks, p, visits):
        self.lat, self.lon, self.radius = lat, lon, radius
        self.cloaks = cloaks          # list of (lat, lon, radius, covered)
        self.p = p                    # (n, n) visit transition matrix
        self.visits = visits          # visit count per POI
        n = lat.size
        self.available = tuple(tuple(a for a, c in enumerate(cloaks) if s in c[3])
                               for s in range(n))
        self.utility = np.zeros((n, len(cloaks)))
        for a, c in enumerate(cloaks):
            for s in c[3]:
                self.utility[s, a] = (c[2] / max(radius[s], MIN_STATE_RADIUS_M)) ** 2


def reference_trace_model(trace, min_speed=1.0, min_stay_h=1.0, k=2) -> RefModel:
    """The model lppm's default build parameters give for a generated trace.

    Clusters come from the generator's ground truth (places sit 1 km or more
    apart, far outside the 100 m join radius and the 500 m merge distance);
    stationarity, dwell filtering, centroids, cloaks and visit transitions are
    recomputed here with vectorized numpy.
    """
    lat, lon, t = trace.lat, trace.lon, trace.t
    flags = np.zeros(lat.size, dtype=bool)
    speed = haversine(lat[:-1], lon[:-1], lat[1:], lon[1:]) / np.diff(t)
    flags[1:] = speed <= min_speed
    place = np.where(flags, trace.place, -1)
    if np.any(flags & (trace.place < 0)):
        raise ValueError("generator produced a stationary travel sample")
    stat = np.nonzero(flags)[0]
    _, first = np.unique(place[stat], return_index=True)
    order = place[stat][np.sort(first)]            # places by first stationary sample
    # dwell: gaps between consecutive stationary samples, to the earlier one's place
    both = stat[(stat + 1 < lat.size)]
    both = both[flags[both + 1]]
    stay = {c: float(np.sum(t[both + 1][place[both] == c] - t[both][place[both] == c]))
            for c in order}
    kept = [c for c in order if stay[c] / 3600.0 >= min_stay_h]
    n = len(kept)
    clat, clon, rad = np.zeros(n), np.zeros(n), np.zeros(n)
    for i, c in enumerate(kept):
        members = stat[place[stat] == c]
        # sequential sums, as a running centroid accumulates them
        clat[i] = np.cumsum(lat[members])[-1] / members.size
        clon[i] = np.cumsum(lon[members])[-1] / members.size
        rad[i] = float(haversine(lat[members], lon[members], clat[i], clon[i]).max())
    cloaks, seen = [], set()
    for i in range(n):
        d = haversine(clat[i], clon[i], clat, clon)
        others = sorted((float(d[j]), j) for j in range(n) if j != i)
        seeds = [i] + [j for _, j in others[:k - 1]]
        cla = sum(clat[j] for j in seeds) / len(seeds)
        clo = sum(clon[j] for j in seeds) / len(seeds)
        dc = haversine(cla, clo, clat, clon)
        r = max(float(dc[j]) + rad[j] for j in seeds)
        covered = tuple(int(j) for j in np.nonzero(dc + rad <= r + COVER_TOL_M)[0])
        if covered not in seen:
            seen.add(covered)
            cloaks.append((cla, clo, r, covered))
    poi_of = {c: i for i, c in enumerate(kept)}
    seq = np.array([poi_of.get(int(c), -1) for c in place[stat]], dtype=int)
    # visits: maximal runs of one POI, broken by unassigned stationary samples
    starts = np.ones(seq.size, dtype=bool)
    starts[1:] = seq[1:] != seq[:-1]
    visits = seq[starts & (seq >= 0)]
    counts = np.zeros((n, n))
    np.add.at(counts, (visits[:-1], visits[1:]), 1.0)
    p = np.zeros((n, n))
    for s in range(n):
        total = counts[s].sum()
        if total > 0:
            p[s] = counts[s] / total
        else:
            p[s, s] = 1.0
    return RefModel(clat, clon, rad, cloaks, p, np.bincount(visits, minlength=n))


def compare_models(mdp, ref: RefModel) -> list[str]:
    """Semantic equality of a built model with the reference."""
    n, m = ref.lat.size, len(ref.cloaks)
    if (mdp.n_states, mdp.n_actions) != (n, m):
        return [f"model has {mdp.n_states} states / {mdp.n_actions} actions, "
                f"expected {n} / {m}"]
    problems = []
    if tuple(tuple(acts) for acts in mdp.available) != ref.available:
        problems.append("availability differs from the reference")
        return problems
    for s, acts in enumerate(ref.available):
        for a in acts:
            if not math.isclose(mdp.utility[s, a], ref.utility[s, a], rel_tol=1e-6):
                problems.append(f"utility ({s},{a}) {mdp.utility[s, a]!r} != {ref.utility[s, a]!r}")
            if np.max(np.abs(mdp.transition[a, s] - ref.p[s])) > 1e-12:
                problems.append(f"transition row ({a},{s}) differs from the visit counts")
    if mdp.state_meta is not None:
        lat = np.array([sm.lat for sm in mdp.state_meta])
        lon = np.array([sm.lon for sm in mdp.state_meta])
        if np.max(np.abs(lat - ref.lat)) > 1e-9 or np.max(np.abs(lon - ref.lon)) > 1e-9:
            problems.append("POI centroids differ from the reference")
    return problems[:5]


# ------------------------------------- closed forms for action-independent models

def user_chain(mdp) -> np.ndarray:
    """p(s, .) of a model whose dynamics do not depend on the action."""
    return np.stack([mdp.transition[acts[0], s] for s, acts in enumerate(mdp.available)])


def stationary(chain: np.ndarray) -> np.ndarray:
    n = chain.shape[0]
    a = chain.T - np.eye(n)
    a[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(a, rhs)


def observer_chain(p: np.ndarray, available, freq: np.ndarray) -> np.ndarray:
    """sum_a f_a T[a]: row j mixes p(j, .) with its self-loop completion."""
    big_f = np.array([freq[list(acts)].sum() for acts in available])
    return big_f[:, None] * p + (1.0 - big_f)[:, None] * np.eye(p.shape[0])


def worst_secret_mass(chain: np.ndarray, secret: int, eps: float) -> float:
    """max over beliefs with secret mass <= eps of the next step's secret mass."""
    inflow = chain[:, secret]
    rest = float(np.delete(inflow, secret).max())
    return rest + eps * max(0.0, float(inflow[secret]) - rest)


def required_budget(chain: np.ndarray, secret: int) -> float:
    """Smallest epsilon at which this observer chain keeps the safe set invariant."""
    inflow = chain[:, secret]
    rest = float(np.delete(inflow, secret).max())
    lift = max(0.0, float(inflow[secret]) - rest)
    return math.inf if lift >= 1.0 else rest / (1.0 - lift)


def greedy_policy_freq(mdp, pi: np.ndarray) -> np.ndarray:
    freq = np.zeros(mdp.n_actions)
    for s, acts in enumerate(mdp.available):
        freq[min(acts, key=lambda a: (mdp.utility[s, a], a))] += pi[s]
    return freq


def uniform_policy_freq(mdp, pi: np.ndarray) -> np.ndarray:
    freq = np.zeros(mdp.n_actions)
    for s, acts in enumerate(mdp.available):
        freq[list(acts)] += pi[s] / len(acts)
    return freq


def unconstrained_cost(mdp) -> float:
    """With action-independent dynamics the optimum reports the cheapest cloak."""
    pi = stationary(user_chain(mdp))
    return float(sum(pi[s] * min(mdp.utility[s, a] for a in acts)
                     for s, acts in enumerate(mdp.available)))


def private_spec(mdp, candidates) -> tuple[int, float]:
    """A secret state and a budget at which eps_private is feasible and binding.

    The uniform policy is feasible at its own required budget; the cheapest
    (unconstrained) policy is cut off below its required budget. Between the
    two the certificate rows bind at the optimum. The first candidate secret
    with such a gap is used; failing that, the first candidate with a budget
    just above the uniform policy's.
    """
    p = user_chain(mdp)
    pi = stationary(p)
    chain_u = observer_chain(p, mdp.available, uniform_policy_freq(mdp, pi))
    chain_g = observer_chain(p, mdp.available, greedy_policy_freq(mdp, pi))
    for secret in candidates:
        eps_u, eps_g = required_budget(chain_u, secret), required_budget(chain_g, secret)
        if eps_u < 0.97 * eps_g and eps_g <= 1.0:
            return secret, _round_up(0.5 * (eps_u + eps_g))
    secret = candidates[0]
    return secret, _round_up(min(1.0, required_budget(chain_u, secret) * 1.001))


def _round_up(eps: float) -> float:
    return math.ceil(eps * 1e6) / 1e6


# ------------------------------------------------------------ job checks

def _policy_chain(mdp, theta: np.ndarray) -> np.ndarray:
    return np.einsum("a,aqr->qr", theta.sum(axis=0), mdp.transition)


def check_unconstrained(mdp, result) -> list[str]:
    want = unconstrained_cost(mdp)
    if not math.isclose(result.average_cost, want, rel_tol=COST_RTOL):
        return [f"unconstrained cost {result.average_cost!r} != optimum {want!r}"]
    return []


def check_private(mdp, result, secret: int, eps: float) -> list[str]:
    """A feasible all-time private policy whose cost is plausible.

    Feasibility is re-derived from the stored policy; the cost must sit
    between the unconstrained optimum and the uniform policy's cost (both
    closed form). Optimality is checked against HiGHS after the measurement.
    """
    problems = []
    theta = np.asarray(result.theta)
    if abs(theta.sum() - 1.0) > 1e-9 or theta.min() < -1e-12:
        problems.append("theta is not a distribution")
    cost = float(np.sum(theta * mdp.utility))
    if not math.isclose(cost, result.average_cost, rel_tol=COST_RTOL):
        problems.append(f"stored cost {result.average_cost!r} != theta cost {cost!r}")
    worst = worst_secret_mass(_policy_chain(mdp, theta), secret, eps)
    if worst > eps + MASS_TOL:
        problems.append(f"policy is not invariant: worst mass {worst:.9g} > {eps}")
    if result.certificate is None or result.certificate.margin < -1e-9:
        problems.append("missing or negative certificate")
    low = unconstrained_cost(mdp)
    if cost < low * (1 - COST_RTOL):
        problems.append(f"cost {cost!r} below the unconstrained optimum {low!r}")
    p = user_chain(mdp)
    pi = stationary(p)
    uniform = float(sum(pi[s] * np.mean(mdp.utility[s, list(acts)])
                        for s, acts in enumerate(mdp.available)))
    chain_u = observer_chain(p, mdp.available, uniform_policy_freq(mdp, pi))
    if required_budget(chain_u, secret) <= eps and cost > uniform * (1 + COST_RTOL):
        problems.append(f"cost {cost!r} above the feasible uniform policy's {uniform!r}")
    return problems


_DIRECT = re.compile(r"safe set = ([-+0-9.eE]+)")
_CERT = re.compile(r"certificate: z=([-+0-9.eE]+), margin=([-+0-9.eE]+)")


def check_verify(mdp, result, secret: int, eps: float, stdout: str) -> list[str]:
    problems = []
    if "invariant: True" not in stdout:
        problems.append("verify did not report invariance")
    cert = _CERT.search(stdout)
    if cert is None or float(cert.group(2)) < -1e-9:
        problems.append("verify reported no certificate or a negative margin")
    direct = _DIRECT.search(stdout)
    want = worst_secret_mass(_policy_chain(mdp, np.asarray(result.theta)), secret, eps)
    if direct is None or abs(float(direct.group(1)) - want) > 1e-7:
        problems.append(f"direct check value differs from the closed form {want:.9f}")
    return problems


def _read_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_simulate(mdp, result, out_dir, horizon: int, b0: np.ndarray, secret: int,
                   bound: float | None) -> list[str]:
    """Beliefs are distributions that follow the observer chain from b0.

    `bound` is checked on every step (all-time guarantee) when given.
    """
    rows = _read_rows(out_dir / "belief.csv")
    if len(rows) != horizon + 2 or len(_read_rows(out_dir / "metrics.csv")) != horizon + 2:
        return [f"belief/metrics csv row count != {horizon + 2}"]
    beliefs = np.array(rows[1:], dtype=float)[:, 1:-1]
    problems = []
    if np.any(beliefs < -1e-12) or np.max(np.abs(beliefs.sum(axis=1) - 1.0)) > 1e-9:
        problems.append("a belief is not a distribution")
    chain = _policy_chain(mdp, np.asarray(result.theta))
    b = b0.copy()
    for _ in range(horizon):
        b = chain.T @ b
        b /= b.sum()
    if np.max(np.abs(beliefs[-1] - b)) > 1e-8:
        problems.append("final belief differs from the observer chain's")
    if bound is not None and beliefs[:, secret].max() > bound + MASS_TOL:
        problems.append(f"secret mass {beliefs[:, secret].max():.9g} exceeds {bound}")
    return problems


def check_baseline(out_dir, kind: str, horizon: int, n_states: int,
                   eps_dp: float) -> list[str]:
    rows = _read_rows(out_dir / f"baseline_{kind}.csv")
    if len(rows) != horizon + 2:
        return [f"baseline_{kind}.csv has {len(rows)} rows, expected {horizon + 2}"]
    body = rows[1:]
    ent = np.array([float(r[1]) for r in body])
    mass = np.array([float(r[4]) for r in body])
    problems = []
    if np.any(ent < -1e-12) or np.any(ent > math.log(n_states) + 1e-9) \
            or np.any(mass < -1e-12) or np.any(mass > 1 + 1e-12):
        problems.append(f"{kind}: a belief is not a distribution")
    if kind == "dp":
        ratios = np.array([float(r[3]) for r in body[:-1]])
        if ratios.max() > math.exp(eps_dp) * (1 + 1e-7):
            problems.append(f"dp ratio {ratios.max():.9g} exceeds e^{eps_dp}")
    return problems


# ----------------------------------------------------------- HiGHS oracle

def highs_private_cost(mdp, secret: int, eps: float):
    """Optimum of the all-time private occupancy LP by HiGHS, or None without scipy."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    n = mdp.n_states
    pairs = [(s, a) for s in range(n) for a in mdp.available[s]]
    src = np.array([s for s, _ in pairs])
    act = np.array([a for _, a in pairs])
    k = len(pairs)
    a_eq = np.zeros((n + 1, k + 1))
    a_eq[:n, :k] = -mdp.transition[act, src].T
    a_eq[src, np.arange(k)] += 1.0
    a_eq[n, :k] = 1.0
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    sel = np.zeros(n)
    sel[secret] = 1.0
    g = mdp.transition @ sel                        # g[a, j] = T[a](j, secret)
    a_ub = np.zeros((n, k + 1))
    a_ub[:, :k] = g[act].T
    a_ub[:, k] = eps - sel
    c = np.concatenate([mdp.utility[src, act], [0.0]])
    sol = linprog(c, A_ub=a_ub, b_ub=np.full(n, eps), A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    return float(sol.fun) if sol.status == 0 else None
