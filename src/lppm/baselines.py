"""Per-step obfuscation mechanisms and their closed-loop demonstrations.

Each mechanism designs one step's conditional distribution over cloaking
actions given the true state, against the adversary's current belief. The
demonstrations propagate both the true user distribution and the adversary
belief under the designed mechanisms and log the privacy metrics.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adversary import belief_update
from .mdp import Mdp, pushforward, scatter_pairs, uniform_policy
from .metrics import validate_distance_matrix
from .optim import LinearProgram, maximize_concave, solve_lp

LOG_FLOOR = 1e-300


class MechanismInfeasibleError(RuntimeError):
    """No per-step mechanism satisfies the requested constraints."""


class LpStalledError(RuntimeError):
    """A mechanism's LP stopped without an answer: feasibility is unknown."""


def _stalled(what: str, sol) -> LpStalledError:
    return LpStalledError(f"the {what} LP stalled after {sol.iterations} pivots; "
                          "feasibility unknown")


def step_user(mdp: Mdp, p: np.ndarray, f: np.ndarray):
    """Advance the true state distribution one step under mechanism f.

    Returns (p_next, action_dist); the action marginal is what the adversary
    observes in expectation.
    """
    p = np.asarray(p, dtype=float)
    f = np.asarray(f, dtype=float)
    action_dist = f.T @ p
    a, q, r, v = mdp.entries
    p_next = np.bincount(r, (p[q] * f[q, a]) * v, minlength=mdp.n_states)
    return p_next, action_dist


def _row_constraints(mdp: Mdp):
    """Row-stochasticity of the mechanism over its available pairs."""
    states, _ = mdp.pair_index()
    a_eq = np.zeros((mdp.n_states, len(states)))
    a_eq[states, np.arange(len(states))] = 1.0
    return a_eq, np.ones(mdp.n_states)


def _posterior_map(mdp: Mdp, belief: np.ndarray, p_user: np.ndarray) -> np.ndarray:
    """Matrix Phi with posterior = Phi^T f_vec for the flattened mechanism."""
    states, actions = mdp.pair_index()
    w = pushforward(mdp, belief)  # w[a, j] = (T_a^T b)(j)
    return p_user[states, None] * w[actions]


def _mechanism(mdp: Mdp, f_vec: np.ndarray) -> np.ndarray:
    f = scatter_pairs(mdp, f_vec)
    # exact row normalization against solver dust
    f /= f.sum(axis=1, keepdims=True)
    return f


def max_entropy_mechanism(mdp: Mdp, belief: np.ndarray, p_user: np.ndarray):
    """Mechanism maximizing the Shannon entropy of the next adversary belief.

    The posterior is affine in the mechanism, so this is concave; solved by
    the conditional-gradient loop over the product of the mechanism's row
    simplices, seeded at the uniform mechanism. Returns (f, FwResult).
    """
    phi = _posterior_map(mdp, belief, np.asarray(p_user, dtype=float))

    def posterior(f_vec):
        post = phi.T @ f_vec
        return post / post.sum()

    def fun(f_vec):
        b = posterior(f_vec)
        pos = b > 0.0
        return float(-np.sum(b[pos] * np.log(b[pos])))

    def grad(f_vec):
        b = np.maximum(phi.T @ f_vec, LOG_FLOOR)
        return phi @ (-(1.0 + np.log(b)))

    pairs = mdp.pair_index()
    fw = maximize_concave(fun, grad, pairs[0], uniform_policy(mdp)[pairs])
    return _mechanism(mdp, fw.x), fw


def max_inference_error_mechanism(mdp: Mdp, belief: np.ndarray, p_user: np.ndarray,
                                  distance: np.ndarray):
    """Mechanism maximizing the adversary's next-step expected inference error.

    The inner minimum over estimates makes the objective piecewise linear and
    concave; solved exactly as an epigraph LP over (mechanism, tau). Raises
    LpStalledError when the LP stops without an answer.
    """
    distance = validate_distance_matrix(distance)
    phi = _posterior_map(mdp, belief, np.asarray(p_user, dtype=float))
    a_eq, b_eq = _row_constraints(mdp)
    np_, n = phi.shape
    # tau <= sum_j post(j) d(j, shat) for every estimate shat
    cols = phi @ distance  # cols[k, shat]
    a_ub = np.hstack([-cols.T, np.ones((n, 1))])
    a_eq_full = np.hstack([a_eq, np.zeros((n, 1))])
    c = np.zeros(np_ + 1)
    c[-1] = -1.0
    sol = solve_lp(LinearProgram(c, a_ub=a_ub, b_ub=np.zeros(n),
                                 a_eq=a_eq_full, b_eq=b_eq))
    if sol.status == "stalled":
        raise _stalled("inference-error", sol)
    if sol.status != "optimal":
        raise RuntimeError(f"inference-error LP unexpectedly {sol.status}")
    return _mechanism(mdp, sol.x), float(sol.x[-1])


def dp_mechanism(mdp: Mdp, belief: np.ndarray, p_user: np.ndarray, eps_dp: float):
    """Cheapest mechanism keeping all pairwise belief ratios within e^eps_dp.

    Minimizes the expected quality loss subject to
    post(i) b(j) <= e^eps post(j) b(i) for every ordered state pair; raises
    MechanismInfeasibleError when no mechanism satisfies the constraints and
    LpStalledError when the LP stops without an answer.
    """
    if eps_dp <= 0.0:
        raise ValueError("eps_dp must be positive")
    belief = np.asarray(belief, dtype=float)
    p_user = np.asarray(p_user, dtype=float)
    states, actions = mdp.pair_index()
    phi = _posterior_map(mdp, belief, p_user)
    a_eq, b_eq = _row_constraints(mdp)
    bound = float(np.exp(eps_dp))
    # one row per ordered pair i != j, i-major
    i, j = np.nonzero(~np.eye(mdp.n_states, dtype=bool))
    a_ub = phi[:, i].T * belief[j, None] - bound * phi[:, j].T * belief[i, None]
    c = p_user[states] * mdp.utility[states, actions]
    sol = solve_lp(LinearProgram(c, a_ub=a_ub, b_ub=np.zeros(len(i)),
                                 a_eq=a_eq, b_eq=b_eq))
    if sol.status == "stalled":
        raise _stalled("dp", sol)
    if sol.status != "optimal":
        raise MechanismInfeasibleError(
            f"no mechanism keeps belief ratios within e^{eps_dp:g} ({sol.status})")
    return _mechanism(mdp, sol.x)


@dataclass
class BaselineRollout:
    kind: str
    beliefs: np.ndarray         # (horizon + 1, n)
    user: np.ndarray            # (horizon + 1, n)
    mechanisms: list[np.ndarray]
    losses: np.ndarray          # (horizon,) expected quality loss per step
    diagnostics: dict = field(default_factory=dict)


def run_baseline(mdp: Mdp, kind: str, b0: np.ndarray, p0: np.ndarray, horizon: int,
                 distance: np.ndarray | None = None,
                 eps_dp: float | None = None) -> BaselineRollout:
    """Closed-loop demonstration of one per-step mechanism family.

    kind is "max_entropy", "max_inference_error" or "dp"; the latter two need
    `distance` and `eps_dp` respectively.
    """
    n = mdp.n_states
    beliefs = np.empty((horizon + 1, n))
    user = np.empty((horizon + 1, n))
    beliefs[0] = np.asarray(b0, dtype=float)
    user[0] = np.asarray(p0, dtype=float)
    mechanisms: list[np.ndarray] = []
    losses = np.empty(horizon)
    gaps = []
    for t in range(horizon):
        b, p = beliefs[t], user[t]
        if kind == "max_entropy":
            f, fw = max_entropy_mechanism(mdp, b, p)
            gaps.append(fw.gap)
        elif kind == "max_inference_error":
            if distance is None:
                raise ValueError("max_inference_error needs a distance matrix")
            f, _ = max_inference_error_mechanism(mdp, b, p, distance)
        elif kind == "dp":
            if eps_dp is None:
                raise ValueError("dp needs eps_dp")
            f = dp_mechanism(mdp, b, p, eps_dp)
        else:
            raise ValueError(f"unknown baseline kind {kind!r}")
        mechanisms.append(f)
        p_next, action_dist = step_user(mdp, p, f)
        losses[t] = float(np.einsum("s,sa,sa->", p, f, mdp.utility))
        beliefs[t + 1] = belief_update(mdp, b, action_dist)
        user[t + 1] = p_next / p_next.sum()
    diag = {"fw_gaps": gaps} if gaps else {}
    return BaselineRollout(kind, beliefs, user, mechanisms, losses, diag)
