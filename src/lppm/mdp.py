"""Finite MDP mobility models and the induced-chain machinery.

A model is a finite state set (points of interest), a finite action set
(cloaking regions), per-action transition matrices, a per-state action
availability relation, a quality-loss matrix and an initial distribution.
Stationary policies induce Markov chains; occupancy measures summarize the
long-run behavior and carry the average quality loss.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

CONSTRUCTION_ATOL = 1e-12
COMPUTATION_ATOL = 1e-10
UNICHAIN_BUDGET = 20_000  # distinct deterministic chains the unichain check enumerates


class NonErgodicError(RuntimeError):
    """Raised when a chain has no unique attracting stationary distribution."""


class NotUnichainError(RuntimeError):
    """Raised when a model admits a deterministic policy with a reducible chain."""


@dataclass
class StateMeta:
    label: str
    lat: float
    lon: float
    area_m2: float


@dataclass
class ActionMeta:
    label: str
    lat: float
    lon: float
    radius_m: float


@dataclass(eq=False)
class Mdp:
    """Mobility MDP with explicit action availability.

    Attributes
    ----------
    transition : (m, n, n) array, transition[a][s, s'] = T(s, a, s'). Every
        slice is row-stochastic; rows of actions unavailable at s are the
        self-loop completion row (probability one on s).
    available : tuple of sorted tuples, available[s] lists the actions usable
        at state s.
    utility : (n, m) quality-loss matrix; unavailable pairs all carry one
        common sentinel loss strictly above every available loss.
    p0 : initial state distribution.
    """

    transition: np.ndarray
    available: tuple[tuple[int, ...], ...]
    utility: np.ndarray
    p0: np.ndarray
    state_meta: list[StateMeta] | None = None
    action_meta: list[ActionMeta] | None = None

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=float)
        self.utility = np.asarray(self.utility, dtype=float)
        self.p0 = np.asarray(self.p0, dtype=float)
        if self.transition.ndim != 3 or self.transition.shape[1] != self.transition.shape[2]:
            raise ValueError("transition must have shape (n_actions, n_states, n_states)")
        m, n, _ = self.transition.shape
        if self.utility.shape != (n, m):
            raise ValueError("utility must have shape (n_states, n_actions)")
        if self.p0.shape != (n,):
            raise ValueError("p0 must have shape (n_states,)")
        if len(self.available) != n:
            raise ValueError("available needs one action tuple per state")
        self.available = tuple(tuple(sorted(acts)) for acts in self.available)
        for s, acts in enumerate(self.available):
            if not acts:
                raise ValueError(f"state {s} has no available action")
            if acts[0] < 0 or acts[-1] >= m:
                raise ValueError(f"state {s} lists an action outside 0..{m - 1}")
            if len(set(acts)) != len(acts):
                raise ValueError(f"state {s} repeats an action")
        self._pairs = _pair_index(self.available)
        if not np.all(np.isfinite(self.transition)) or np.any(self.transition < -CONSTRUCTION_ATOL):
            raise ValueError("transition entries must be finite and nonnegative")
        row_sums = self.transition.sum(axis=2)
        if not np.allclose(row_sums, 1.0, atol=CONSTRUCTION_ATOL, rtol=0.0):
            raise ValueError("every transition row must sum to one")
        mask = self.availability_mask()
        eye = np.eye(n)
        for a in range(m):
            off = ~mask[:, a]
            if np.any(off) and not np.allclose(self.transition[a][off], eye[off],
                                               atol=CONSTRUCTION_ATOL, rtol=0.0):
                raise ValueError(f"action {a}: unavailable rows must be self-loop completion rows")
        if not np.all(np.isfinite(self.utility)):
            raise ValueError("utility entries must be finite")
        if np.any(~mask):
            off_u = self.utility[~mask]
            u_bar = off_u[0]
            if not np.allclose(off_u, u_bar, atol=CONSTRUCTION_ATOL, rtol=0.0):
                raise ValueError("all unavailable pairs must share one sentinel loss")
            if u_bar <= self.utility[mask].max():
                raise ValueError("sentinel loss must exceed every available loss")
        if np.any(self.p0 < -CONSTRUCTION_ATOL) or abs(self.p0.sum() - 1.0) > CONSTRUCTION_ATOL:
            raise ValueError("p0 must be a probability distribution")

    @property
    def n_states(self) -> int:
        return self.transition.shape[1]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[0]

    def pair_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only int arrays (pair_states, pair_actions) of the available pairs.

        Pair k is (pair_states[k], pair_actions[k]). The order is state-major
        with the actions of a state ascending; it is the column order of every
        occupancy and mechanism LP, and the simplex's Bland rule pivots by
        column index, so changing it changes the pivot sequence.
        """
        return self._pairs

    def availability_mask(self) -> np.ndarray:
        """Boolean (n, m) mask of available (state, action) pairs."""
        return _pair_mask(self._pairs, self.n_states, self.n_actions)


def _pair_index(available) -> tuple[np.ndarray, np.ndarray]:
    """Pair arrays of Mdp.pair_index; `available` must list sorted actions."""
    states = np.repeat(np.arange(len(available)), [len(acts) for acts in available])
    actions = np.array([a for acts in available for a in acts], dtype=np.intp)
    states.flags.writeable = False
    actions.flags.writeable = False
    return states, actions


def _pair_mask(pairs, n: int, m: int) -> np.ndarray:
    mask = np.zeros((n, m), dtype=bool)
    mask[pairs] = True
    return mask


def scatter_pairs(mdp: Mdp, x: np.ndarray) -> np.ndarray:
    """(n, m) matrix with max(x[k], 0) at pair k and zero elsewhere.

    Reads the first len(pairs) entries of x, the pair columns of an LP
    solution; trailing variables are ignored. Callers normalize the result.
    """
    states, actions = mdp.pair_index()
    vals = np.asarray(x, dtype=float)[:len(states)]
    out = np.zeros((mdp.n_states, mdp.n_actions))
    out[states, actions] = np.where(vals < 0.0, 0.0, vals)
    return out


def make_mdp(transition, utility, available, p0,
             state_meta=None, action_meta=None) -> Mdp:
    """Build an Mdp, overwriting unavailable rows with the completion discipline.

    Only the available rows of `transition` and entries of `utility` are read;
    unavailable rows become self-loops and unavailable losses all become the
    sentinel 1e3 times the largest available loss.
    """
    transition = np.array(transition, dtype=float)
    utility = np.array(utility, dtype=float)
    m, n, _ = transition.shape
    available = tuple(tuple(sorted(acts)) for acts in available)
    mask = _pair_mask(_pair_index(available), n, m)
    u_bar = 1e3 * float(np.max(np.abs(utility[mask])))
    eye = np.eye(n)
    for a in range(m):
        off = ~mask[:, a]
        transition[a][off] = eye[off]
    utility[~mask] = u_bar
    return Mdp(transition, available, utility, p0, state_meta, action_meta)


def uniform_policy(mdp: Mdp) -> np.ndarray:
    """Policy putting equal probability on every available action."""
    states, actions = mdp.pair_index()
    policy = np.zeros((mdp.n_states, mdp.n_actions))
    policy[states, actions] = 1.0 / np.bincount(states, minlength=mdp.n_states)[states]
    return policy


def validate_policy(mdp: Mdp, policy: np.ndarray, atol: float = CONSTRUCTION_ATOL):
    policy = np.asarray(policy, dtype=float)
    if policy.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError("policy must have shape (n_states, n_actions)")
    if np.any(policy < -atol) or not np.allclose(policy.sum(axis=1), 1.0, atol=atol, rtol=0.0):
        raise ValueError("every policy row must be a distribution")
    if np.any(policy[~mdp.availability_mask()] > atol):
        raise ValueError("policy puts mass on an unavailable action")
    return policy


def induce_chain(mdp: Mdp, policy: np.ndarray) -> np.ndarray:
    """Markov chain of the closed loop, M(s, s') = sum_a policy(s, a) T(s, a, s')."""
    policy = validate_policy(mdp, policy)
    return np.einsum("sa,asn->sn", policy, mdp.transition)


def check_ergodic(chain: np.ndarray, tol: float = 1e-12) -> bool:
    """True when the chain is irreducible and aperiodic.

    That holds exactly when its support matrix (entries above tol) is
    primitive, and by Wielandt's bound an n x n matrix is primitive exactly
    when its power (n - 1)^2 + 1, and so every higher power, is positive.
    Repeated boolean squaring reaches such a power.
    """
    support = (np.asarray(chain, dtype=float) > tol).astype(float)
    power = 1
    while power < (support.shape[0] - 1) ** 2 + 1:
        support = (support @ support > 0.0).astype(float)
        power *= 2
    return bool(support.all())


def stationary_distribution(chain: np.ndarray, atol: float = COMPUTATION_ATOL) -> np.ndarray:
    """Unique stationary distribution of an ergodic chain via a dense solve.

    Solves (P^T - I) p = 0 with one row replaced by the normalization
    sum(p) = 1 and verifies the residual. Raises NonErgodicError when the
    chain is reducible or periodic.
    """
    chain = np.asarray(chain, dtype=float)
    if not check_ergodic(chain):
        raise NonErgodicError("chain is not ergodic")
    n = chain.shape[0]
    a = chain.T - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    p = np.linalg.solve(a, rhs)
    p = np.where(np.abs(p) < CONSTRUCTION_ATOL, 0.0, p)
    if np.any(p < 0.0):
        raise NonErgodicError("stationary solve produced negative mass")
    p = p / p.sum()
    if np.max(np.abs(chain.T @ p - p)) > atol:
        raise NonErgodicError("stationary solve residual too large")
    return p


@dataclass
class UnichainReport:
    status: str  # "unichain" | "not_unichain" | "budget_exceeded"
    witness: tuple[int, ...] | None = None
    n_checked: int = 0


def check_unichain_exhaustive(mdp: Mdp, budget: int = UNICHAIN_BUDGET) -> UnichainReport:
    """Check every deterministic policy for an ergodic induced chain.

    A deterministic policy's chain depends only on the row it picks at each
    state, so only the actions whose row at s differs bit for bit from the
    row of every lower available action are enumerated: each distinct chain
    once. Beyond `budget` distinct chains the check gives up and reports
    that. The witness is the lexicographically first failing action tuple,
    which always picks first-of-class actions.
    """
    choices = []
    for s, acts in enumerate(mdp.available):
        first: dict[bytes, int] = {}
        for a in acts:
            first.setdefault(mdp.transition[a, s].tobytes(), a)
        choices.append(tuple(first.values()))
    if math.prod(len(c) for c in choices) > budget:
        return UnichainReport("budget_exceeded", None, 0)
    states = np.arange(mdp.n_states)
    checked = 0
    for choice in itertools.product(*choices):
        checked += 1
        if not check_ergodic(mdp.transition[list(choice), states]):
            return UnichainReport("not_unichain", choice, checked)
    return UnichainReport("unichain", None, checked)


def average_cost(mdp: Mdp, theta: np.ndarray) -> float:
    """Expected quality loss per step under an occupancy measure."""
    return float(np.sum(np.asarray(theta) * mdp.utility))


def occupancy_from_policy(mdp: Mdp, policy: np.ndarray) -> np.ndarray:
    """Occupancy measure theta(s, a) = p_inf(s) policy(s, a)."""
    p_inf = stationary_distribution(induce_chain(mdp, policy))
    return p_inf[:, None] * policy


def policy_from_theta(theta: np.ndarray, available, tol: float = CONSTRUCTION_ATOL):
    """Extract (policy, p_inf) from an occupancy measure.

    States carrying mass at most `tol` get the uniform distribution over
    their available actions.
    """
    theta = np.asarray(theta, dtype=float)
    n, m = theta.shape
    p_inf = theta.sum(axis=1)
    policy = np.zeros((n, m))
    for s in range(n):
        if p_inf[s] > tol:
            policy[s] = np.clip(theta[s], 0.0, None) / p_inf[s]
            policy[s] /= policy[s].sum()
        else:
            policy[s, list(available[s])] = 1.0 / len(available[s])
    return policy, p_inf


def simulate(mdp: Mdp, policy: np.ndarray, horizon: int, seed: int) -> np.ndarray:
    """Sample a (state, action) trajectory of length `horizon`; returns (horizon, 2)."""
    policy = validate_policy(mdp, policy)
    rng = np.random.default_rng(seed)
    cum_policy = np.cumsum(policy, axis=1)
    cum_trans = np.cumsum(mdp.transition, axis=2)
    draws = rng.random((horizon, 2))
    out = np.empty((horizon, 2), dtype=np.int64)
    n, m = mdp.n_states, mdp.n_actions
    s = min(int(np.searchsorted(np.cumsum(mdp.p0), rng.random(), side="right")), n - 1)
    for t in range(horizon):
        a = min(int(np.searchsorted(cum_policy[s], draws[t, 0], side="right")), m - 1)
        out[t, 0] = s
        out[t, 1] = a
        s = min(int(np.searchsorted(cum_trans[a, s], draws[t, 1], side="right")), n - 1)
    return out
