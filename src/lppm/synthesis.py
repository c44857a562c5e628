"""Policy synthesis with privacy guarantees.

The verification side asks whether the safe belief region (secret mass at
most epsilon) is invariant under the adversary's belief chain. That check
and the equivalent one-row linear certificate are closed forms in the
chain's largest secret and non-secret inflows, and the certificate rows are
linear in the occupancy measure, so optimal all-time private policies come
out of a single LP. The asymptotic variant only pins the limit belief. When
moving ignores the reported action, as in every model the package builds,
that limit has a closed form whose constraint splits into convex and concave
terms, and a deterministic convex-concave descent over a few LPs solves it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adversary import adversary_matrix, stationary_belief
from .mdp import (Mdp, NonErgodicError, NotUnichainError, action_independent_rows,
                  average_cost, check_unichain_exhaustive, induce_chain, policy_from_theta,
                  scatter_pairs, stationary_distribution, uniform_policy)
from .metrics import VERIFY_SLACK, PrivacySpec, secret_mass
from .optim import LinearProgram, LpSolution, solve_lp

MODES = ("unconstrained", "eps_private", "asymptotic")
THETA_TOL = 1e-9  # largest max abs |theta - occupancy of its policy| a result may carry
ASYMPTOTIC_MARGIN = 1e-3  # the asymptotic mode keeps limit beliefs this far inside epsilon
CUT_TOL = 1e-8  # relative fit of the asymptotic secret cuts; above solve_lp's FEAS_TOL
DESCENT_TOL = 1e-12  # an asymptotic descent step must gain more than this share


class InfeasibleSynthesisError(RuntimeError):
    """No policy attains the requested privacy level."""

    def __init__(self, message: str, diagnosis: dict | None = None):
        super().__init__(message)
        self.diagnosis = diagnosis or {}


class SelfCheckError(RuntimeError):
    """A result's policy fails the check `verify` makes."""


class ActionDependentModelError(ValueError):
    """The model's moves depend on the reported action; the asymptotic mode needs them not to."""


@dataclass
class InvarianceVerdict:
    invariant: bool
    optimum: float                 # worst one-step secret mass reachable from the safe set
    witness: np.ndarray | None     # safe belief escaping the set when not invariant


@dataclass
class Certificate:
    z: float
    beta: np.ndarray
    margin: float                  # smallest row slack of the linear condition


@dataclass
class SynthesisResult:
    mode: str
    theta: np.ndarray
    policy: np.ndarray
    p_inf: np.ndarray
    average_cost: float
    epsilon: float | None = None
    secret_states: tuple[int, ...] | None = None
    certificate: Certificate | None = None
    b_inf: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def secret_inflow(chain: np.ndarray, spec: PrivacySpec) -> np.ndarray:
    """Per-state one-step probability of landing in the secret set."""
    chain = np.asarray(chain, dtype=float)
    sel = spec.selector(chain.shape[0])
    return chain @ sel


def _largest_inflows(chain: np.ndarray, spec: PrivacySpec):
    """(sel, inflow, i_s, i_n, lift): the secret selector, the per-state
    secret inflow, the secret and the non-secret state of largest inflow
    (R_S and R_N, lowest index on ties) and lift = max(0, R_S - R_N)."""
    sel = spec.selector(np.shape(chain)[0])
    inflow = secret_inflow(chain, spec)
    secret, public = np.flatnonzero(sel), np.flatnonzero(sel == 0.0)
    i_s = int(secret[np.argmax(inflow[secret])])
    i_n = int(public[np.argmax(inflow[public])])
    return sel, inflow, i_s, i_n, max(0.0, float(inflow[i_s] - inflow[i_n]))


def verify_invariance(chain: np.ndarray, spec: PrivacySpec) -> InvarianceVerdict:
    """Exact worst-case check of safe-set invariance.

    Maximizes the next-step secret mass inflow . b over the safe beliefs
    {b in the simplex : b(secret) <= epsilon}, a fractional knapsack. With
    R_S and R_N the largest secret and non-secret inflows, the optimum puts
    epsilon on the secret argmax and the rest on the non-secret argmax when
    R_S > R_N, and everything on the non-secret argmax otherwise, so it is
    R_N + epsilon * max(0, R_S - R_N). The set is invariant exactly when
    that optimum stays at or below epsilon.
    """
    sel, inflow, i_s, i_n, lift = _largest_inflows(chain, spec)
    eps = spec.epsilon
    worst = float(inflow[i_n]) + eps * lift
    invariant = worst <= eps + VERIFY_SLACK
    witness = None
    if not invariant:
        witness = np.zeros(sel.size)
        if lift > 0.0:
            witness[i_s], witness[i_n] = eps, 1.0 - eps
        else:
            witness[i_n] = 1.0
    return InvarianceVerdict(invariant, worst, witness)


def theorem1_certificate(chain: np.ndarray, spec: PrivacySpec) -> Certificate | None:
    """Linear invariance certificate (z, beta), or None when none exists.

    Takes the scalar multiplier z >= 0 that maximizes the smallest slack
    epsilon - inflow_j - z (epsilon - sel_j) of the row condition. The secret
    rows rise and the others fall with z, so the best z is where the tightest
    of each meet, max(0, R_S - R_N); by LP duality that slack is epsilon
    minus verify_invariance's optimum, so existence coincides with it.
    """
    sel, inflow, _, _, z = _largest_inflows(chain, spec)
    eps = spec.epsilon
    margin = float(np.min(eps - inflow - z * (eps - sel)))
    if margin < -VERIFY_SLACK:
        return None
    beta = np.maximum(eps - eps * z + z * sel - inflow, 0.0)
    return Certificate(z, beta, margin)


def _base_constraints(mdp: Mdp, n_extra: int):
    """Stationarity and normalization rows over [theta pairs | extras].

    Row s' holds sum_{(s, a)} theta(s, a) (delta_{s s'} - T(s, a, s')); row n
    sums theta to one.
    """
    states, _ = mdp.pair_index()
    n, k = mdp.n_states, len(states)
    a_eq = np.zeros((n + 1, k + n_extra))
    a_eq[:n, :k] -= mdp.rows.T
    a_eq[states, np.arange(k)] += 1.0
    a_eq[n, :k] = 1.0
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    return a_eq, b_eq


def _theta(mdp: Mdp, x: np.ndarray) -> np.ndarray:
    theta = scatter_pairs(mdp, x)
    return theta / theta.sum()


def _require_unichain(mdp: Mdp, diagnostics: dict):
    report = check_unichain_exhaustive(mdp)
    diagnostics["unichain"] = report.status
    if report.status == "not_unichain":
        raise NotUnichainError(f"deterministic policy {report.witness} induces a reducible chain")


def _finish(mdp: Mdp, mode: str, theta: np.ndarray, diagnostics: dict,
            spec: PrivacySpec | None = None) -> SynthesisResult:
    """The result of theta, once `verify` would accept it. Every mode builds the
    deployed_chain. eps_private stores the certificate `verify` computes and the
    chain's limit belief (null when it has none), and needs the safe set to be
    invariant; asymptotic stores the limit belief, its residual and secret mass,
    and needs that limit to be safe. SelfCheckError otherwise."""
    policy, p_inf = policy_from_theta(theta, mdp.available)
    result = SynthesisResult(mode=mode, theta=theta, policy=policy, p_inf=p_inf,
                             average_cost=average_cost(mdp, theta), diagnostics=diagnostics)
    if spec is not None:
        result.epsilon, result.secret_states = spec.epsilon, spec.secret_states
    try:
        chain = deployed_chain(mdp, result)[1]
        if mode == "eps_private":
            verdict = verify_invariance(chain, spec)
            diagnostics["post_verify_optimum"] = verdict.optimum
            result.certificate = theorem1_certificate(chain, spec)
            if not verdict.invariant or result.certificate is None:
                raise SelfCheckError(f"worst one-step secret mass {verdict.optimum:.12g} "
                                     f"(epsilon {spec.epsilon:g})")
            try:
                result.b_inf = stationary_belief(chain)
            except NonErgodicError:
                pass  # a chain with no limit belief leaves b_inf null
        elif mode == "asymptotic":
            b_inf = result.b_inf = stationary_belief(chain)
            mass, gap, holds = limit_check(chain, spec, b_inf)
            if not holds:
                raise SelfCheckError(f"limit secret mass {mass:.12g}, stored b_inf off by "
                                     f"{gap:.3g} (epsilon {spec.epsilon:g})")
            diagnostics.update(residual=float(np.abs(chain.T @ b_inf - b_inf).sum()),
                               secret_mass_inf=mass)
    except (NonErgodicError, SelfCheckError) as exc:
        raise SelfCheckError(f"the synthesized {mode} policy failed its self-check: "
                             f"{exc}") from None
    return result


def synthesize_unconstrained(mdp: Mdp, check_unichain: bool = True) -> SynthesisResult:
    """Minimum average quality loss with no privacy constraint.

    check_unichain=False skips the unichain check and records "skipped". The
    returned policy passes deployed_chain's check, or SelfCheckError is raised.
    """
    diagnostics: dict = {}
    if check_unichain:
        _require_unichain(mdp, diagnostics)
    else:
        diagnostics["unichain"] = "skipped"
    a_eq, b_eq = _base_constraints(mdp, 0)
    sol = solve_lp(LinearProgram(mdp.utility[mdp.pair_index()], a_eq=a_eq, b_eq=b_eq))
    if sol.status == "infeasible":
        raise InfeasibleSynthesisError("occupancy LP infeasible")
    if sol.status != "optimal":
        raise _unproven(sol, "occupancy LP")
    diagnostics.update(lp_status=sol.status, lp_iterations=sol.iterations)
    theta = _theta(mdp, sol.x)
    return _finish(mdp, "unconstrained", theta, diagnostics)


def synthesize_eps_private(mdp: Mdp, spec: PrivacySpec) -> SynthesisResult:
    """Minimum-loss policy whose safe belief set is invariant at all times.

    One LP over the occupancy measure and the certificate multiplier z; the
    belief chain is linear in the occupancy action marginals, so the
    certificate rows stay linear. Infeasibility is reported with the
    tightest violated row to guide relaxing epsilon. The returned policy
    passes the self-check `verify` makes, or SelfCheckError is raised.
    """
    diagnostics: dict = {}
    _require_unichain(mdp, diagnostics)
    eps = spec.epsilon
    lp, group, sol = _solve_private_lp(mdp, spec.selector(mdp.n_states), eps)
    if sol.status == "infeasible":
        diagnosis = _diagnose_infeasible(lp, group)
        raise InfeasibleSynthesisError(
            f"no policy makes the safe belief set invariant at epsilon={eps:g} "
            f"(tightest row: state {diagnosis['worst_row']}, "
            f"violation {diagnosis['worst_violation']:.3g})", diagnosis)
    if sol.status != "optimal":
        raise _unproven(sol, f"eps_private LP at epsilon={eps:g}")
    diagnostics.update(lp_status=sol.status, lp_iterations=sol.iterations,
                       certificate_rows=len(lp.b_ub))
    return _finish(mdp, "eps_private", _theta(mdp, sol.x), diagnostics, spec)


def _solve_private_lp(mdp: Mdp, sel: np.ndarray, eps: float):
    """(lp, group, solution) of the eps_private LP over [theta pairs | z].

    State j's certificate row is sum_(s, a) T[a](j, secret) theta(s, a) +
    (eps - sel_j) z <= eps. Every state with no edge into the secret set
    gives the same row, eps z <= eps, so the LP keeps each distinct row once,
    at its lowest state, in state order; group[j] is the LP row of state j.
    """
    states, actions = mdp.pair_index()
    a_ub = np.column_stack([_certificate_inflow(mdp, sel)[actions].T, eps - sel])
    first: dict = {}
    group = np.array([first.setdefault(row.tobytes(), len(first)) for row in a_ub])
    keep = np.unique(group, return_index=True)[1]
    a_eq, b_eq = _base_constraints(mdp, 1)
    lp = LinearProgram(np.append(mdp.utility[states, actions], 0.0), a_ub=a_ub[keep],
                       b_ub=np.full(keep.size, eps), a_eq=a_eq, b_eq=b_eq)
    return lp, group, solve_lp(lp)


def _certificate_inflow(mdp: Mdp, sel: np.ndarray) -> np.ndarray:
    """g[a, j] = T[a](j, secret), the coefficient of every pair (s, a) on certificate
    row j; sel_j at a self-loop row. einsum, not matmul or bincount, sums a stored row
    in the dense-tensor contraction's order, so g matches it bit for bit."""
    g = np.tile(sel, (mdp.n_actions, 1))
    g[mdp.pair_index()[::-1]] = np.einsum("kr,r->k", mdp.rows, sel)
    return g


def deployed_chain(mdp: Mdp, result: SynthesisResult) -> tuple[np.ndarray, np.ndarray]:
    """(user, chain): the user chain of the result's policy, the object that gets
    deployed, and the observer chain of its occupancy, which a result is stored
    from, checked on and replayed on. SelfCheckError when the user chain is not
    ergodic or the occupancy is off the stored theta by more than THETA_TOL."""
    user = induce_chain(mdp, result.policy)
    try:
        theta = stationary_distribution(user)[:, None] * result.policy
    except NonErgodicError:
        raise SelfCheckError("its chain is not ergodic") from None
    drift = float(np.max(np.abs(theta - result.theta)))
    if not drift <= THETA_TOL:
        raise SelfCheckError(f"its own occupancy differs from theta by {drift:.3g} > "
                             f"{THETA_TOL:g} (max abs)")
    return user, adversary_matrix(mdp, theta)


def limit_check(chain: np.ndarray, spec: PrivacySpec, b_inf: np.ndarray | None):
    """(mass, gap, holds): the secret mass of the chain's limit belief, its max
    abs gap to the stored b_inf (inf when that is missing or misshapen), and
    whether mass - epsilon and gap are both at most VERIFY_SLACK. Raises
    NonErgodicError when the chain has no limit belief."""
    limit = stationary_belief(chain)
    mass = secret_mass(limit, spec)
    gap = float(np.max(np.abs(limit - b_inf))) if np.shape(b_inf) == limit.shape else np.inf
    return mass, gap, mass <= spec.epsilon + VERIFY_SLACK and gap <= VERIFY_SLACK


def _unproven(sol: LpSolution, what: str) -> InfeasibleSynthesisError:
    """Error for an LP that ended neither optimal nor infeasible: nothing was proven."""
    return InfeasibleSynthesisError(
        f"{what} ended {sol.status} after {sol.iterations} pivots; feasibility unknown",
        {"lp_status": sol.status, "lp_iterations": sol.iterations, "feasibility": "unknown"})


def _diagnose_infeasible(lp: LinearProgram, group: np.ndarray) -> dict:
    """Re-solve with elastic certificate rows to find the tightest violation.

    Each row's elastic variable costs the number of states the row stands
    for, so this is the elastic LP of all n state rows with the copies
    merged. worst_row is a state, the lowest of its row's states, and
    violations has one entry per state.
    """
    r, nv = lp.a_ub.shape
    a_ub_el = np.hstack([lp.a_ub, -np.eye(r)])
    a_eq_el = np.hstack([lp.a_eq, np.zeros((lp.a_eq.shape[0], r))])
    c = np.concatenate([np.zeros(nv), np.bincount(group, minlength=r).astype(float)])
    sol = solve_lp(LinearProgram(c, a_ub=a_ub_el, b_ub=lp.b_ub, a_eq=a_eq_el, b_eq=lp.b_eq))
    if sol.status != "optimal":
        return {"worst_row": -1, "worst_violation": float("nan"), "elastic_status": sol.status}
    v = sol.x[nv:][group]
    worst = int(np.argmax(v))
    return {"worst_row": worst, "worst_violation": float(v[worst]),
            "violations": v, "elastic_status": "optimal"}


def synthesize_asymptotic(mdp: Mdp, spec: PrivacySpec) -> SynthesisResult:
    """Minimum-loss policy whose limit belief keeps the secret mass below epsilon.

    Needs moves that ignore the action, T(s, a, .) = p(s, .). Then theta(s, .)
    sums to pi(s), the stationary law of p, and the limit belief is
    proportional to pi / F, where F_s >= pi(s), the frequency of the actions
    usable at s, is linear in theta. _LimitDescent runs from two fixed starts,
    the uniform policy and the all-time private policy at epsilon minus the
    margin, and the cheaper end point is kept, the first on a tie. The limit
    belief of the returned policy's own chain is checked as `verify` checks
    it, and SelfCheckError is raised when it fails.
    """
    p = action_independent_rows(mdp)
    if p is None:
        states, _ = mdp.pair_index()
        first = np.searchsorted(states, states)
        bad = next(s for k, s in enumerate(states)
                   if mdp.rows[k].tobytes() != mdp.rows[first[k]].tobytes())
        raise ActionDependentModelError(f"asymptotic mode needs moves that ignore the reported "
                                        f"action, but the rows of state {bad} differ")
    diagnostics: dict = {"margin": ASYMPTOTIC_MARGIN}
    _require_unichain(mdp, diagnostics)
    eps_eff = spec.epsilon - ASYMPTOTIC_MARGIN
    if eps_eff <= 0.0:
        raise ValueError("margin leaves no feasible belief region")
    sel, pi = spec.selector(mdp.n_states), stationary_distribution(p)
    starts = {"uniform": pi[:, None] * uniform_policy(mdp)}
    sol = _solve_private_lp(mdp, sel, eps_eff)[2]
    if sol.status == "optimal":
        starts["eps_private"] = _theta(mdp, sol.x)
    descent = _LimitDescent(mdp, sel, eps_eff, pi)
    ends = {name: descent.run(theta) for name, theta in starts.items()}
    ends = {name: theta for name, theta in ends.items() if theta is not None}
    if not ends:
        raise InfeasibleSynthesisError(
            f"no start reached a safe limit belief at epsilon={spec.epsilon:g}; the smallest "
            f"limit secret mass reached was {descent.lowest_mass:.6f} (asymptotic feasibility "
            f"unknown)", {"lowest_secret_mass_inf": descent.lowest_mass,
                          "lp_solves": descent.lp_solves, "feasibility": "unknown"})
    start = min(ends, key=lambda name: average_cost(mdp, ends[name]))
    result = _finish(mdp, "asymptotic", ends[start], diagnostics, spec)
    diagnostics.update(lp_solves=descent.lp_solves, start=start)
    return result


class _LimitDescent:
    """Convex-concave descent on the limit constraint sum_s (sel_s - eps') pi_s/F_s <= 0.

    An LP's variables are the pair occupancies theta, whose balance rows
    sum_a theta(s, a) = pi(s) make theta stationary, and one t_j per secret
    state above tangent cuts of its convex term pi/F. The constraint row
    takes each concave public term at its tangent at the last iterate and
    each secret term as t (1 + CUT_TOL). Both under-estimate, so an iterate
    whose secret terms the cuts fit that closely is exactly safe.
    """

    def __init__(self, mdp: Mdp, sel: np.ndarray, eps_eff: float, pi: np.ndarray):
        states, actions = mdp.pair_index()
        self.mdp, self.sel, self.eps_eff, self.pi = mdp, sel, eps_eff, pi
        self.secret, self.k, n = np.flatnonzero(sel), len(states), len(pi)
        self.mask = mdp.availability_mask().astype(float)
        self.cover = self.mask[:, actions]  # F = cover @ theta pairs
        self.a_eq = np.hstack([np.eye(n)[:, states], np.zeros((n, len(self.secret)))])
        self.cost = np.append(mdp.utility[states, actions], np.zeros(len(self.secret)))
        self.unit, self.t_unit = np.eye(n)[self.secret], -np.eye(len(self.secret))
        self.lp_solves, self.lowest_mass = 0, np.inf

    def freq(self, theta: np.ndarray) -> np.ndarray:
        return self.mask @ theta.sum(axis=0)

    def excess(self, theta: np.ndarray) -> float:
        """The constraint's exact left side; tracks the lowest limit secret mass."""
        terms = self.pi / self.freq(theta)
        self.lowest_mass = min(self.lowest_mass, float(self.sel @ terms / terms.sum()))
        return float((self.sel - self.eps_eff) @ terms)

    def tangent(self, theta: np.ndarray, weight: np.ndarray, t_coef: np.ndarray):
        """(row, rhs) over [theta pairs | t] of sum_s weight_s tan_s + t_coef . t <= 0,
        with tan_s the tangent of pi_s/F_s at theta's F."""
        f = self.freq(theta)
        w = weight * self.pi / f
        return np.append(-(w / f) @ self.cover, t_coef), -2.0 * float(w.sum())

    def add_cuts(self, theta: np.ndarray, t: np.ndarray) -> bool:
        """Cut at theta's F below each secret term above t (1 + CUT_TOL); True
        when a cut is new (the same cut again cannot help)."""
        f = self.freq(theta)[self.secret]
        loose = self.pi[self.secret] / f > t * (1.0 + CUT_TOL)
        new = [j for j in np.flatnonzero(loose) if (j, f[j]) not in self.points]
        for j in new:
            self.points.add((j, f[j]))
            self.cuts.append(self.tangent(theta, self.unit[j], self.t_unit[j]))
        return bool(new)

    def solve(self, c: np.ndarray, main=()) -> np.ndarray | None:
        """theta of the LP min c.x under the cuts and main rows, solved again
        while that adds cuts; None when an LP ends other than optimal."""
        while True:
            rows, rhs = zip(*self.cuts, *main)
            sol = solve_lp(LinearProgram(c, np.array(rows), np.array(rhs), self.a_eq, self.pi))
            self.lp_solves += 1
            if sol.status != "optimal":
                return None
            theta = _theta(self.mdp, sol.x)
            if not self.add_cuts(theta, sol.x[self.k:]):
                return theta

    def run(self, theta: np.ndarray) -> np.ndarray | None:
        """End point of the descent from the occupancy theta, or None when it
        never gets safe. Phase 1 lowers the constraint row's left side until
        the exact excess is gone, then phase 2 lowers the cost."""
        self.cuts, self.points = [], set()
        self.add_cuts(theta, np.zeros(len(self.secret)))
        excess, cost = self.excess(theta), average_cost(self.mdp, theta)
        while True:
            main = self.tangent(theta, -self.eps_eff * (1.0 - self.sel), np.full(
                len(self.secret), (1.0 - self.eps_eff) * (1.0 + CUT_TOL)))
            nxt = self.solve(self.cost, [main]) if excess <= 0.0 else self.solve(main[0])
            if nxt is None:
                break
            nxt_excess, nxt_cost = self.excess(nxt), average_cost(self.mdp, nxt)
            if excess > 0.0:
                gain = nxt_excess < excess - DESCENT_TOL * abs(excess)
            else:  # from a safe point the cost only falls
                gain = nxt_excess <= 0.0 and nxt_cost < cost - DESCENT_TOL * abs(cost)
            if not gain:
                break
            theta, excess, cost = nxt, nxt_excess, nxt_cost
        return theta if excess <= 0.0 else None
