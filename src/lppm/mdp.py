"""Finite MDP mobility models and the induced-chain machinery.

A model is a finite state set (points of interest), a finite action set
(cloaking regions), a per-state action availability relation, one
transition row per available (state, action) pair, a quality-loss matrix and
an initial distribution. At an unavailable pair the user stays put (the
self-loop completion rule). Every contraction of the per-action matrices
T[a] weighs and bins the entries of `Mdp.entries`; no T[a] is built.
Stationary policies induce Markov chains; occupancy measures summarize the
long-run behavior and carry the average quality loss.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

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

    Only the available (state, action) pairs have dynamics, so only their
    rows are stored. Every other pair follows the self-loop completion rule:
    T(s, a, .) is the point mass on s. `entries` is the one place that
    applies the rule; every contraction of T sums its entries.

    Attributes
    ----------
    rows : (pairs, n) array, rows[k] = T(s_k, a_k, .) for the k-th pair
        (s_k, a_k) of `pair_index()`. Every row is a distribution.
    available : tuple of sorted tuples, available[s] lists the actions usable
        at state s.
    utility : (n, m) quality-loss matrix; unavailable pairs all carry one
        common sentinel loss strictly above every available loss. It fixes
        n_states and n_actions.
    p0 : initial state distribution.
    state_meta, action_meta : optional labels and places, one per state and
        one per action.
    """

    rows: np.ndarray
    available: tuple[tuple[int, ...], ...]
    utility: np.ndarray
    p0: np.ndarray
    state_meta: list[StateMeta] | None = None
    action_meta: list[ActionMeta] | None = None

    def __post_init__(self):
        self._validate(None)

    def _validate(self, pairs):
        """Normalize and check the fields; `pairs` is the `_pair_index` of an
        `available` that already went through `check_available`, or None to
        run both here."""
        self.rows = np.asarray(self.rows, dtype=float)
        self.utility = np.asarray(self.utility, dtype=float)
        self.p0 = np.asarray(self.p0, dtype=float)
        if self.utility.ndim != 2:
            raise ValueError("utility must have shape (n_states, n_actions)")
        n, m = self.utility.shape
        if self.p0.shape != (n,):
            raise ValueError("p0 must have shape (n_states,)")
        if pairs is None:
            self.available = check_available(self.available, n, m)
            pairs = _pair_index(self.available)
        self._pairs = pairs
        states, actions = pairs
        if self.rows.shape != (len(states), n):
            raise ValueError(f"rows must hold {len(states)} rows of {n} entries, one per "
                             f"available pair; got shape {self.rows.shape}")
        if not np.all(np.isfinite(self.rows)) or np.any(self.rows < -CONSTRUCTION_ATOL):
            raise ValueError("transition entries must be finite and nonnegative")
        if not np.allclose(self.rows.sum(axis=1), 1.0, atol=CONSTRUCTION_ATOL, rtol=0.0):
            raise ValueError("every transition row must sum to one")
        if not np.all(np.isfinite(self.utility)):
            raise ValueError("utility entries must be finite")
        mask = self.availability_mask()
        if np.any(~mask):
            off_u = self.utility[~mask]
            u_bar = off_u[0]
            if not np.allclose(off_u, u_bar, atol=CONSTRUCTION_ATOL, rtol=0.0):
                raise ValueError("all unavailable pairs must share one sentinel loss")
            if u_bar <= self.utility[mask].max():
                raise ValueError("sentinel loss must exceed every available loss")
        if np.any(self.p0 < -CONSTRUCTION_ATOL) or abs(self.p0.sum() - 1.0) > CONSTRUCTION_ATOL:
            raise ValueError("p0 must be a probability distribution")
        if self.state_meta is not None and len(self.state_meta) != n:
            raise ValueError(f"state_meta lists {len(self.state_meta)} states, n_states is {n}")
        if self.action_meta is not None and len(self.action_meta) != m:
            raise ValueError(f"action_meta lists {len(self.action_meta)} actions, "
                             f"n_actions is {m}")

    @property
    def n_states(self) -> int:
        return self.utility.shape[0]

    @property
    def n_actions(self) -> int:
        return self.utility.shape[1]

    def pair_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only int arrays (pair_states, pair_actions) of the available pairs.

        Pair k is (pair_states[k], pair_actions[k]). The order is state-major
        with the actions of a state ascending; it is the row order of `rows`
        and the column order of every occupancy and mechanism LP, and the
        simplex's Bland rule pivots by column index, so changing it changes
        the pivot sequence.
        """
        return self._pairs

    def availability_mask(self) -> np.ndarray:
        """Boolean (n, m) mask of available (state, action) pairs."""
        return _pair_mask(self._pairs, self.n_states, self.n_actions)

    @cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only arrays (a, q, r, v), T(q, a, r) = v, of every nonzero entry
        of the completed tensor, sorted by (a, q, r) as in the dense tensor:
        the nonzero entries of each stored row, and the 1.0 of each self-loop
        row. A kernel that np.bincount-s weighted entries, adding in this
        order from 0.0, gives the bits of the dense contraction: a zero entry
        would only add a signed zero."""
        n = self.n_states
        states, actions = self._pairs
        pair, col = np.nonzero(self.rows)
        idle_q, idle_a = np.nonzero(~self.availability_mask())  # the self-loop rows
        a = np.concatenate([actions[pair], idle_a])
        q = np.concatenate([states[pair], idle_q])
        r = np.concatenate([col, idle_q])
        v = np.concatenate([self.rows[pair, col], np.ones(idle_q.size)])
        order = np.argsort((a * n + q) * n + r)
        out = a[order], q[order], r[order], v[order]
        for x in out:
            x.flags.writeable = False
        return out

    @cached_property
    def transition(self) -> np.ndarray:
        """Read-only dense (m, n, n) tensor of every T[a], scattered from
        `entries` on first use, for callers that want the dense form."""
        a, q, r, v = self.entries
        dense = np.zeros((self.n_actions, self.n_states, self.n_states))
        dense[a, q, r] = v
        dense.flags.writeable = False
        return dense


def non_integers(values) -> list:
    """The values that are not integers; a bool (JSON true or false) is not one."""
    if set(map(type, values)) <= {int}:  # JSON integers, the usual case, tested at C speed
        return []
    return [x for x in values if isinstance(x, bool) or not isinstance(x, (int, np.integer))]


def check_available(available, n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """`available` as sorted tuples, once it lists, for each of n states, a
    nonempty set of distinct integer actions in 0..m-1; ValueError otherwise."""
    if len(available) != n:
        raise ValueError(f"available lists {len(available)} states, n_states is {n}")
    available = tuple(tuple(sorted(acts)) for acts in available)
    flat = list(itertools.chain.from_iterable(available))
    if (all(available) and not non_integers(flat) and min(flat, default=0) >= 0
            and max(flat, default=0) < m and sum(map(len, map(set, available))) == len(flat)):
        return available
    for s, acts in enumerate(available):  # the first state at fault, and how
        if not acts:
            raise ValueError(f"state {s} has no available action")
        bad = non_integers(acts)
        if bad:
            raise ValueError(f"state {s} lists a non-integer action {bad[0]!r}")
        if acts[0] < 0 or acts[-1] >= m:
            raise ValueError(f"state {s} lists an action outside 0..{m - 1}")
        if len(set(acts)) != len(acts):
            raise ValueError(f"state {s} repeats an action")
    return available


def _pair_index(available) -> tuple[np.ndarray, np.ndarray]:
    """Pair arrays of Mdp.pair_index; `available` must list sorted actions."""
    states = np.repeat(np.arange(len(available)), [len(acts) for acts in available])
    actions = np.array([a for acts in available for a in acts], dtype=np.intp)
    states.flags.writeable = False
    actions.flags.writeable = False
    return states, actions


def _mdp_on_pairs(pairs, rows, available, utility, p0, state_meta=None,
                  action_meta=None) -> Mdp:
    """`Mdp(rows, available, ...)` for a file reader that has already run
    `check_available` (giving `available`) and `_pair_index` (giving
    `pairs`) to lay out its rows, so neither runs twice."""
    mdp = object.__new__(Mdp)
    mdp.rows, mdp.available, mdp.utility, mdp.p0 = rows, available, utility, p0
    mdp.state_meta, mdp.action_meta = state_meta, action_meta
    mdp._validate(pairs)
    return mdp


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
    """Build an Mdp from a dense (m, n, n) array of T, keeping its available rows.

    Only the available rows of `transition` and entries of `utility` are read;
    unavailable losses all become the sentinel 1e3 times the largest
    available loss.
    """
    utility = np.array(utility, dtype=float)
    available = tuple(tuple(sorted(acts)) for acts in available)
    states, actions = _pair_index(available)
    mask = _pair_mask((states, actions), *utility.shape)
    utility[~mask] = 1e3 * float(np.max(np.abs(utility[mask])))
    rows = np.asarray(transition, dtype=float)[actions, states]
    return Mdp(rows, available, utility, p0, state_meta, action_meta)


def mix_actions(mdp: Mdp, weights: np.ndarray) -> np.ndarray:
    """sum_a w_a T[a], with w_a = weights[a] or the column weights[:, a]."""
    a, q, r, v = mdp.entries
    n = mdp.n_states
    w = np.broadcast_to(np.asarray(weights, dtype=float), (n, mdp.n_actions))
    return np.bincount(q * n + r, w[q, a] * v, minlength=n * n).reshape(n, n)


def pushforward(mdp: Mdp, belief: np.ndarray) -> np.ndarray:
    """(m, n) array w with w[a] = T[a]^T belief."""
    a, q, r, v = mdp.entries
    n, m = mdp.n_states, mdp.n_actions
    return np.bincount(a * n + r, v * belief[q], minlength=m * n).reshape(m, n)


def uniform_policy(mdp: Mdp) -> np.ndarray:
    """Policy putting equal probability on every available action."""
    states, actions = mdp.pair_index()
    policy = np.zeros((mdp.n_states, mdp.n_actions))
    policy[states, actions] = 1.0 / np.bincount(states, minlength=mdp.n_states)[states]
    return policy


def validate_policy(mdp: Mdp, policy: np.ndarray):
    policy = np.asarray(policy, dtype=float)
    atol = CONSTRUCTION_ATOL
    if policy.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError("policy must have shape (n_states, n_actions)")
    if np.any(policy < -atol) or not np.allclose(policy.sum(axis=1), 1.0, atol=atol, rtol=0.0):
        raise ValueError("every policy row must be a distribution")
    if np.any(policy[~mdp.availability_mask()] > atol):
        raise ValueError("policy puts mass on an unavailable action")
    return policy


def induce_chain(mdp: Mdp, policy: np.ndarray) -> np.ndarray:
    """Markov chain of the closed loop, M(s, s') = sum_a policy(s, a) T(s, a, s')."""
    return mix_actions(mdp, validate_policy(mdp, policy))


def _bfs_levels(support: np.ndarray) -> np.ndarray:
    """Breadth-first distance from state 0 along the boolean support graph,
    -1 at the states it cannot reach."""
    level = np.full(support.shape[0], -1)
    level[0] = 0
    frontier, depth = level == 0, 0
    while frontier.any():
        depth += 1
        frontier = support[frontier].any(axis=0) & (level < 0)
        level[frontier] = depth
    return level


def check_ergodic(chain: np.ndarray) -> bool:
    """True when the chain is irreducible and aperiodic.

    Both are properties of the support graph (entries above
    CONSTRUCTION_ATOL). It is strongly connected when a forward and a
    backward breadth-first search from state 0 reach every state; its period
    is then the gcd, over its edges (u, v), of level(u) + 1 - level(v), with
    level the forward search's distance from state 0.
    """
    support = np.asarray(chain, dtype=float) > CONSTRUCTION_ATOL
    level = _bfs_levels(support)
    if level.min() < 0 or _bfs_levels(support.T).min() < 0:
        return False
    u, v = np.nonzero(support)
    return int(np.gcd.reduce(level[u] + 1 - level[v])) == 1


def stationary_distribution(chain: np.ndarray) -> np.ndarray:
    """Unique stationary distribution of an ergodic chain via a dense solve.

    Solves (P^T - I) p = 0 with one row replaced by the normalization
    sum(p) = 1 and verifies the residual to COMPUTATION_ATOL. Raises
    NonErgodicError when the chain is reducible or periodic.
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
    if np.max(np.abs(chain.T @ p - p)) > COMPUTATION_ATOL:
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
    states, actions = mdp.pair_index()
    choices: list[dict[bytes, int]] = [{} for _ in range(mdp.n_states)]
    for k, s in enumerate(states):  # pair k's row, keyed by its bytes
        choices[s].setdefault(mdp.rows[k].tobytes(), k)
    if math.prod(len(c) for c in choices) > budget:
        return UnichainReport("budget_exceeded", None, 0)
    checked = 0
    for choice in itertools.product(*(c.values() for c in choices)):
        checked += 1
        if not check_ergodic(mdp.rows[list(choice)]):
            return UnichainReport("not_unichain", tuple(int(actions[k]) for k in choice),
                                  checked)
    return UnichainReport("unichain", None, checked)


def action_independent_rows(mdp: Mdp) -> np.ndarray | None:
    """The user chain p, p[s] = T(s, a, .) for every a in A(s), when each state's
    available rows equal its first bit for bit (as the unichain check compares
    them); None when moving depends on the action."""
    states, _ = mdp.pair_index()
    first = np.searchsorted(states, np.arange(mdp.n_states))
    bits = np.ascontiguousarray(mdp.rows).view(np.uint64)
    return mdp.rows[first] if np.array_equal(bits, bits[first[states]]) else None


def average_cost(mdp: Mdp, theta: np.ndarray) -> float:
    """Expected quality loss per step under an occupancy measure."""
    return float(np.sum(np.asarray(theta) * mdp.utility))


def occupancy_from_policy(mdp: Mdp, policy: np.ndarray) -> np.ndarray:
    """Occupancy measure theta(s, a) = p_inf(s) policy(s, a)."""
    p_inf = stationary_distribution(induce_chain(mdp, policy))
    return p_inf[:, None] * policy


def policy_from_theta(theta: np.ndarray, available):
    """Extract (policy, p_inf) from an occupancy measure.

    States carrying mass at most CONSTRUCTION_ATOL get the uniform
    distribution over their available actions.
    """
    theta = np.asarray(theta, dtype=float)
    n, m = theta.shape
    p_inf = theta.sum(axis=1)
    policy = np.zeros((n, m))
    for s in range(n):
        if p_inf[s] > CONSTRUCTION_ATOL:
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
    cum_rows = np.cumsum(mdp.rows, axis=1)
    n, m = mdp.n_states, mdp.n_actions
    pair_of = np.full((n, m), -1)
    pair_of[mdp.pair_index()] = np.arange(len(cum_rows))
    draws = rng.random((horizon, 2))
    out = np.empty((horizon, 2), dtype=np.int64)
    s = min(int(np.searchsorted(np.cumsum(mdp.p0), rng.random(), side="right")), n - 1)
    for t in range(horizon):
        a = min(int(np.searchsorted(cum_policy[s], draws[t, 0], side="right")), m - 1)
        out[t, 0] = s
        out[t, 1] = a
        k = pair_of[s, a]
        # an unavailable action, drawn only through policy dust or the clamp, keeps s
        if k >= 0:
            s = min(int(np.searchsorted(cum_rows[k], draws[t, 1], side="right")), n - 1)
    return out
