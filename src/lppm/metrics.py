"""Location-privacy metrics evaluated on adversary beliefs.

Four views of the same belief trajectory: Shannon entropy (uncertainty),
expected inference error under a distortion matrix, the pairwise
differential-privacy style ratio between consecutive beliefs, and the
probability mass the adversary assigns to a designated secret set.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .geo import haversine_m


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


def eps_privacy_check(beliefs: np.ndarray, spec: PrivacySpec, slack: float = 1e-9) -> EpsPrivacyResult:
    """Check secret mass <= epsilon along a whole belief trajectory."""
    beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
    masses = beliefs[:, list(spec.secret_states)].sum(axis=1)
    bad = np.nonzero(masses > spec.epsilon + slack)[0]
    first = int(bad[0]) if bad.size else None
    return EpsPrivacyResult(first is None, first, float(masses.max()))


def validate_distance_matrix(distance: np.ndarray, atol: float = 1e-9) -> np.ndarray:
    d = np.asarray(distance, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    if np.any(d < 0.0) or np.any(np.abs(np.diag(d)) > atol):
        raise ValueError("distances must be nonnegative with a zero diagonal")
    if np.max(np.abs(d - d.T)) > atol:
        raise ValueError("distance matrix must be symmetric")
    return d


def distance_matrix_from_meta(state_meta) -> np.ndarray:
    """Pairwise haversine distances in meters between state centroids."""
    n = len(state_meta)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            a, b = state_meta[i], state_meta[j]
            d[i, j] = d[j, i] = haversine_m(a.lat, a.lon, b.lat, b.lon)
    return d


def write_metric_series(path, beliefs: np.ndarray, spec,
                        distance: np.ndarray) -> None:
    """Metric table: t, entropy, exp_err, max_dp_ratio, secret_mass.

    The ratio column at row t compares b_t with b_{t+1}; the final row has
    no successor and leaves the field empty.
    """
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
