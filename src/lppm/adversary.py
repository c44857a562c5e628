"""Bayesian localization adversary: belief propagation against observed actions.

The adversary watches the cloaked actions, knows the mobility model and the
long-run action frequencies of the policy, and tracks a belief over the
user's true state. With a stationary policy the expected belief dynamics are
linear: one chain built from the action-frequency mixture of the per-action
transition matrices.
"""
from __future__ import annotations

import numpy as np

from .floattext import format_rows
from .mdp import COMPUTATION_ATOL, Mdp, mix_actions, stationary_distribution
from .metrics import secret_mass_series


def check_simplex(v: np.ndarray, what: str) -> np.ndarray:
    """v as a float array; ValueError unless it is a distribution to COMPUTATION_ATOL."""
    v = np.asarray(v, dtype=float)
    if not (np.all(v >= -COMPUTATION_ATOL) and abs(v.sum() - 1.0) <= COMPUTATION_ATOL):
        raise ValueError(f"{what} must be a probability distribution")
    return v


def belief_update(mdp: Mdp, belief: np.ndarray, action_dist: np.ndarray) -> np.ndarray:
    """One Bayes propagation step given the action marginal actually emitted.

    b'(q') = sum_a p_a sum_q T(q, a, q') b(q); the action marginal weighs the
    per-action pushforwards of the current belief.
    """
    belief = check_simplex(belief, "belief")
    action_dist = check_simplex(action_dist, "action distribution")
    a, q, r, v = mdp.entries
    post = np.bincount(r, (action_dist[a] * v) * belief[q], minlength=mdp.n_states)
    return post / post.sum()


def action_frequencies(theta: np.ndarray) -> np.ndarray:
    """Long-run action marginal of an occupancy measure."""
    theta = np.asarray(theta, dtype=float)
    freq = theta.sum(axis=0)
    return check_simplex(freq, "occupancy action marginal")


def adversary_matrix(mdp: Mdp, theta: np.ndarray) -> np.ndarray:
    """Expected belief-transition chain sum_a theta_a T[a] of a stationary policy."""
    freq = action_frequencies(theta)
    return mix_actions(mdp, freq)


def belief_trajectory(chain: np.ndarray, b0: np.ndarray, horizon: int) -> np.ndarray:
    """Beliefs b_0 .. b_horizon under b_{t+1} = chain^T b_t; shape (horizon+1, n)."""
    chain = np.asarray(chain, dtype=float)
    out = np.empty((horizon + 1, chain.shape[0]))
    out[0] = check_simplex(b0, "b0")
    for t in range(horizon):
        nxt = chain.T @ out[t]
        out[t + 1] = nxt / nxt.sum()
    return out


def stationary_belief(chain: np.ndarray) -> np.ndarray:
    """Limit belief of an ergodic adversary chain (fixed point of chain^T)."""
    return stationary_distribution(chain)


def write_belief_csv(path, beliefs: np.ndarray, secret_states) -> np.ndarray:
    """Belief trajectory table: t, one column per state, secret mass.

    The bytes csv.writer would write (comma separated, \\r\\n line ends, no
    field needs quoting), every float as its `'%.17g'` text. Returns the
    secret-mass column it wrote, `secret_mass_series(beliefs, secret_states)`.
    """
    beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
    n = beliefs.shape[1]
    mass = secret_mass_series(beliefs, secret_states)
    rows = zip(format_rows(beliefs), format_rows(mass[:, None]))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t"] + [f"b{i + 1}" for i in range(n)] + ["secret_mass"]) + "\r\n")
        fh.writelines(f"{t},{b},{m}\r\n" for t, (b, m) in enumerate(rows))
    return mass
