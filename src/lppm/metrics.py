"""Location-privacy metrics evaluated on adversary beliefs.

Four views of the same belief trajectory: Shannon entropy (uncertainty),
expected inference error under a distortion matrix, the pairwise
differential-privacy style ratio between consecutive beliefs, and the
probability mass the adversary assigns to a designated secret set.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .floattext import format_rows
from .geo import EARTH_RADIUS_M

# the fast max_dp_ratio path takes step pairs whose entries lie in (RATIO_FLOOR, 1]:
# every product and quotient of two of them is then a normal number
RATIO_FLOOR = 1e-150
# rows within this many ulps of max r are settled exactly; three roundings move
# a computed ratio by a few ulps at most, so a row further down cannot hold the max
SCREEN_ULPS = 16
SETTLE_CHUNK = 1 << 16    # entries per settle block, so no (T, n, n) array is built
DISTANCE_ATOL = 1e-9      # asymmetry and diagonal a distance matrix may carry
VERIFY_SLACK = 1e-9       # a secret mass this far above epsilon still keeps the bound


@dataclass(frozen=True)
class PrivacySpec:
    """Secret state indices plus the privacy budget epsilon in (0, 1]."""

    secret_states: tuple[int, ...]
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "secret_states", tuple(sorted(set(int(s) for s in self.secret_states))))
        if not self.secret_states:
            raise ValueError("secret set must be nonempty")
        if min(self.secret_states) < 0:
            raise ValueError("secret state indices must be nonnegative")
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")

    def selector(self, n_states: int) -> np.ndarray:
        """0/1 row vector picking out the secret states."""
        if max(self.secret_states) >= n_states:
            raise ValueError("secret state index out of range")
        if len(self.secret_states) >= n_states:
            raise ValueError("secret set must be a strict subset of the states")
        sel = np.zeros(n_states)
        sel[list(self.secret_states)] = 1.0
        return sel


def entropy(belief: np.ndarray) -> float:
    """Shannon entropy in nats; zero-probability states contribute nothing."""
    b = np.asarray(belief, dtype=float)
    pos = b > 0.0
    return float(-np.sum(b[pos] * np.log(b[pos])))


def expected_inference_error(belief: np.ndarray, distance: np.ndarray):
    """Adversary's best-estimate expected distortion.

    Returns (error, estimate): the minimizing estimate index (ties broken
    toward the lowest index) and the attained expectation
    min_shat sum_s b(s) d(s, shat).
    """
    b = np.asarray(belief, dtype=float)
    costs = b @ np.asarray(distance, dtype=float)
    shat = int(np.argmin(costs))
    return float(costs[shat]), shat


def dp_ratio(b_prev: np.ndarray, b_next: np.ndarray) -> np.ndarray:
    """Pairwise belief-ratio matrix D[s, s'] between consecutive beliefs.

    D[s, s'] = (b_next(s) b_prev(s')) / (b_next(s') b_prev(s)); entries with a
    zero denominator become +inf markers and the diagonal is exactly one.
    """
    bp = np.asarray(b_prev, dtype=float)
    bn = np.asarray(b_next, dtype=float)
    num = np.outer(bn, bp)
    den = np.outer(bp, bn)
    d = np.full_like(num, np.inf)
    np.divide(num, den, out=d, where=den > 0.0)
    np.fill_diagonal(d, 1.0)
    return d


def max_dp_ratio(b_prev: np.ndarray, b_next: np.ndarray) -> float:
    """Largest finite pairwise ratio; +inf when only infinite entries move."""
    d = dp_ratio(b_prev, b_next)
    finite = d[np.isfinite(d)]
    return float(finite.max()) if finite.size else float("inf")


def _secret_indices(spec) -> list[int]:
    if isinstance(spec, PrivacySpec):
        return list(spec.secret_states)
    return [int(s) for s in spec]


def secret_mass(belief: np.ndarray, spec) -> float:
    """Belief mass on the secret set (a PrivacySpec or plain indices)."""
    b = np.asarray(belief, dtype=float)
    return float(b[_secret_indices(spec)].sum())


@dataclass
class EpsPrivacyResult:
    holds: bool
    first_violation: int | None
    max_mass: float


def secret_mass_series(beliefs: np.ndarray, spec) -> np.ndarray:
    """Secret mass of every belief row, as `secret_mass` computes it.

    One 1-D sum per row, over the secret indices in their given order (sorted
    for a PrivacySpec): sum(axis=1) adds 8 or more entries in another order,
    so its last bit can differ.
    """
    beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
    return np.array([row.sum() for row in beliefs[:, _secret_indices(spec)]], dtype=float)


def eps_privacy_check(beliefs: np.ndarray, spec: PrivacySpec,
                      slack: float = VERIFY_SLACK) -> EpsPrivacyResult:
    """Check secret mass <= epsilon along a whole belief trajectory."""
    return mass_bound_check(secret_mass_series(beliefs, spec), spec.epsilon, slack)


def mass_bound_check(masses, epsilon: float, slack: float = VERIFY_SLACK) -> EpsPrivacyResult:
    """`eps_privacy_check` on a secret-mass column computed beforehand."""
    masses = np.asarray(masses, dtype=float)
    bad = np.nonzero(masses > epsilon + slack)[0]
    first = int(bad[0]) if bad.size else None
    return EpsPrivacyResult(first is None, first, float(masses.max()))


def validate_distance_matrix(distance: np.ndarray) -> np.ndarray:
    d = np.asarray(distance, dtype=float)
    atol = DISTANCE_ATOL
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    if np.any(d < 0.0) or np.any(np.abs(np.diag(d)) > atol):
        raise ValueError("distances must be nonnegative with a zero diagonal")
    if np.max(np.abs(d - d.T)) > atol:
        raise ValueError("distance matrix must be symmetric")
    return d


def distance_matrix_from_meta(state_meta) -> np.ndarray:
    """Pairwise haversine distances in meters between state centroids.

    Bit for bit geo.haversine_m(a.lat, a.lon, b.lat, b.lon) for i < j: its
    expression in its order, with each state's radians(lat) and cos(phi)
    taken once instead of once per pair.
    """
    n = len(state_meta)
    phi = [math.radians(m.lat) for m in state_meta]
    cos_phi = [math.cos(p) for p in phi]
    lon = [m.lon for m in state_meta]
    sin, asin, sqrt, radians = math.sin, math.asin, math.sqrt, math.radians
    d = np.zeros((n, n))
    for i in range(n - 1):
        phi1, cos1, lon1 = phi[i], cos_phi[i], lon[i]
        d[i, i + 1:] = [
            2.0 * EARTH_RADIUS_M * asin(min(1.0, sqrt(
                sin((phi2 - phi1) / 2.0) ** 2
                + cos1 * cos2 * sin(radians(lon2 - lon1) / 2.0) ** 2)))
            for phi2, cos2, lon2 in zip(phi[i + 1:], cos_phi[i + 1:], lon[i + 1:])]
    # the lower triangle holds zeros, so the sum copies the upper one exactly
    return d + d.T


def _entropy_series(beliefs: np.ndarray) -> list[float]:
    """`entropy` of every row: the terms b log b in one array pass, then one
    1-D sum per row over the positive entries, the sum `entropy` takes."""
    pos = beliefs > 0.0
    terms = np.where(pos, beliefs, 1.0)
    np.log(terms, out=terms)
    terms *= beliefs
    return [float(-(row.sum() if whole else row[keep].sum()))
            for row, keep, whole in zip(terms, pos, pos.all(axis=1).tolist())]


def _max_dp_ratio_series(beliefs: np.ndarray) -> list[float]:
    """`max_dp_ratio(b_t, b_{t+1})` for every t, bit for bit, in O(n k) per
    step, k the number of states near max r. k is 1 on every step of a
    1000-step run from the uniform prior on the generated n = 48-120 models,
    whose chains mix slowly; a trajectory converged to within SCREEN_ULPS
    settles all n rows, in blocks.

    With r = b_{t+1} / b_t, D[s, s'] is r_s / r_{s'} up to a few roundings.
    A row s whose r_s is more than SCREEN_ULPS below max r is beaten, in every
    column, by the row of argmax r: strictly off its diagonal, and by that
    row's diagonal 1 in the argmax column. So the exact pairwise formula is
    settled on the rows near max r only. Step pairs whose entries leave
    (RATIO_FLOOR, 1] (zeros, negative entries, underflow) go through
    `max_dp_ratio` itself.
    """
    bp, bn = beliefs[:-1], beliefs[1:]
    ratios = np.full(bp.shape[0], -np.inf)
    inside = ((bp > RATIO_FLOOR) & (bp <= 1.0) & (bn > RATIO_FLOOR) & (bn <= 1.0)).all(axis=1)
    for t in np.flatnonzero(~inside):
        ratios[t] = max_dp_ratio(bp[t], bn[t])
    with np.errstate(all="ignore"):  # the steps outside are not read
        r = bn / bp
        near = r >= r.max(axis=1, keepdims=True) * (1.0 - SCREEN_ULPS * np.finfo(float).eps)
    near[~inside] = False
    steps, states = np.nonzero(near)
    chunk = max(1, SETTLE_CHUNK // max(1, beliefs.shape[1]))
    for lo in range(0, steps.size, chunk):
        t, s = steps[lo:lo + chunk], states[lo:lo + chunk]
        # dp_ratio's row s, (b_next(s) b_prev(s')) / (b_prev(s) b_next(s')); its
        # diagonal entry divides a product by itself, so it is exactly 1
        d = (bn[t, s][:, None] * bp[t]) / (bp[t, s][:, None] * bn[t])
        np.maximum.at(ratios, t, d.max(axis=1))
    return ratios.tolist()


def write_metric_series(path, beliefs: np.ndarray, spec,
                        distance: np.ndarray, mass=None) -> None:
    """Metric table: t, entropy, exp_err, max_dp_ratio, secret_mass.

    The ratio column at row t compares b_t with b_{t+1}; the final row has
    no successor and leaves the field empty. The bytes csv.writer would
    write, every float as its `'%.17g'` text, each value equal bit for bit
    to its one-belief function (`entropy`, `expected_inference_error`,
    `max_dp_ratio`, `secret_mass`). `mass` is the caller's
    `secret_mass_series(beliefs, spec)`, computed here when None.
    """
    beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
    distance = np.asarray(distance, dtype=float)
    if mass is None:
        mass = secret_mass_series(beliefs, spec)
    # one b @ distance per row: a single B @ distance adds in another order
    costs = np.empty((beliefs.shape[0], distance.shape[1]))
    for b, out in zip(beliefs, costs):
        np.matmul(b, distance, out=out)
    entropy_err = np.column_stack([_entropy_series(beliefs), costs.min(axis=1)])
    ratios = np.array(_max_dp_ratio_series(beliefs)).reshape(-1, 1)
    rows = zip(format_rows(entropy_err), itertools.chain(format_rows(ratios), [""]),
               format_rows(mass[:, None]))
    with open(path, "w", newline="") as fh:
        fh.write("t,entropy,exp_err,max_dp_ratio,secret_mass\r\n")
        fh.writelines(f"{t},{e},{r},{m}\r\n" for t, (e, r, m) in enumerate(rows))
