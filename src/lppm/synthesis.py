"""Policy synthesis with privacy guarantees.

The verification side asks whether the safe belief region (secret mass at
most epsilon) is invariant under the adversary's belief chain. That check
and the equivalent one-row linear certificate are closed forms in the
chain's largest secret and non-secret inflows, and the certificate rows are
linear in the occupancy measure, so optimal all-time private policies come
out of a single LP. The asymptotic variant only pins the limit belief and is
bilinear, so it runs a seeded multi-start alternation between the policy LP
and the exact stationary belief.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adversary import adversary_matrix, stationary_belief
from .mdp import (Mdp, NonErgodicError, NotUnichainError, average_cost,
                  check_unichain_exhaustive, occupancy_from_policy, policy_from_theta,
                  pushforward, scatter_pairs)
from .metrics import PrivacySpec
from .optim import LinearProgram, LpSolution, solve_lp

VERIFY_SLACK = 1e-9
ASYMPTOTIC_MARGIN = 1e-3  # the asymptotic mode keeps limit beliefs this far inside epsilon


class InfeasibleSynthesisError(RuntimeError):
    """No policy attains the requested privacy level."""

    def __init__(self, message: str, diagnosis: dict | None = None):
        super().__init__(message)
        self.diagnosis = diagnosis or {}


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


def certificate_margin(chain: np.ndarray, spec: PrivacySpec, cert: Certificate) -> float:
    """Smallest slack of the certificate rows; nonnegative means valid."""
    sel = spec.selector(np.asarray(chain).shape[0])
    rows = -spec.epsilon * cert.z + cert.z * sel - secret_inflow(chain, spec) \
        - cert.beta + spec.epsilon
    return float(rows.min())


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


def _finish(mdp: Mdp, mode: str, theta: np.ndarray, diagnostics: dict, **kw) -> SynthesisResult:
    policy, p_inf = policy_from_theta(theta, mdp.available)
    return SynthesisResult(mode=mode, theta=theta, policy=policy, p_inf=p_inf,
                           average_cost=average_cost(mdp, theta),
                           diagnostics=diagnostics, **kw)


def synthesize_unconstrained(mdp: Mdp, check_unichain: bool = True) -> SynthesisResult:
    """Minimum average quality loss with no privacy constraint.

    check_unichain=False skips the unichain check and records "skipped".
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

    One LP over the occupancy measure, the certificate multiplier z and the
    row slacks; the belief chain is linear in the occupancy action marginals,
    so the certificate rows stay linear. Infeasibility is reported with the
    tightest violated row to guide relaxing epsilon.
    """
    diagnostics: dict = {}
    _require_unichain(mdp, diagnostics)
    n = mdp.n_states
    sel = spec.selector(n)
    eps = spec.epsilon
    a_eq, b_eq = _base_constraints(mdp, 1)  # theta pairs then z
    _, actions = mdp.pair_index()
    a_ub = np.column_stack([_certificate_inflow(mdp, sel)[actions].T, eps - sel])
    b_ub = np.full(n, eps)
    c = np.append(mdp.utility[mdp.pair_index()], 0.0)
    sol = solve_lp(LinearProgram(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq))
    if sol.status == "infeasible":
        diagnosis = _diagnose_infeasible(a_eq, b_eq, a_ub, b_ub)
        raise InfeasibleSynthesisError(
            f"no policy makes the safe belief set invariant at epsilon={eps:g} "
            f"(tightest row: state {diagnosis['worst_row']}, "
            f"violation {diagnosis['worst_violation']:.3g})", diagnosis)
    if sol.status != "optimal":
        raise _unproven(sol, f"eps_private LP at epsilon={eps:g}")
    diagnostics.update(lp_status=sol.status, lp_iterations=sol.iterations)
    theta = _theta(mdp, sol.x)
    z = float(sol.x[-1])
    chain = adversary_matrix(mdp, theta)
    beta = np.maximum(eps - eps * z + z * sel - secret_inflow(chain, spec), 0.0)
    cert = Certificate(z, beta, certificate_margin(chain, spec, Certificate(z, beta, 0.0)))
    result = _finish(mdp, "eps_private", theta, diagnostics, epsilon=eps,
                     secret_states=spec.secret_states, certificate=cert,
                     b_inf=_try_stationary(chain))
    _post_verify(mdp, result, spec, diagnostics)
    return result


def _certificate_inflow(mdp: Mdp, sel: np.ndarray) -> np.ndarray:
    """g[a, j] = T[a](j, secret), the coefficient of every pair (s, a) on
    certificate row j. einsum, not matmul, sums each row in the order of the
    dense-tensor contraction, so every coefficient matches it bit for bit."""
    return np.stack([np.einsum("qr,r->q", mdp.action_matrix(a), sel)
                     for a in range(mdp.n_actions)])


def _try_stationary(chain: np.ndarray) -> np.ndarray | None:
    try:
        return stationary_belief(chain)
    except NonErgodicError:
        return None


def _post_verify(mdp: Mdp, result: SynthesisResult, spec: PrivacySpec, diagnostics: dict):
    """The returned policy's own belief chain must pass the exact check."""
    try:
        theta = occupancy_from_policy(mdp, result.policy)
    except NonErgodicError:
        theta = result.theta
    verdict = verify_invariance(adversary_matrix(mdp, theta), spec)
    diagnostics["post_verify_optimum"] = verdict.optimum
    if verdict.optimum > spec.epsilon + 1e-7:
        raise RuntimeError("synthesized policy failed the invariance re-check; "
                           f"worst mass {verdict.optimum:.12g} vs epsilon {spec.epsilon:g}")


def _unproven(sol: LpSolution, what: str) -> InfeasibleSynthesisError:
    """Error for an LP that ended neither optimal nor infeasible: nothing was proven."""
    return InfeasibleSynthesisError(
        f"{what} ended {sol.status} after {sol.iterations} pivots; feasibility unknown",
        {"lp_status": sol.status, "lp_iterations": sol.iterations, "feasibility": "unknown"})


def _diagnose_infeasible(a_eq, b_eq, a_ub, b_ub) -> dict:
    """Re-solve with elastic certificate rows to find the tightest violation."""
    n, nv = a_ub.shape
    a_ub_el = np.hstack([a_ub, -np.eye(n)])
    a_eq_el = np.hstack([a_eq, np.zeros((a_eq.shape[0], n))])
    c = np.concatenate([np.zeros(nv), np.ones(n)])
    sol = solve_lp(LinearProgram(c, a_ub=a_ub_el, b_ub=b_ub, a_eq=a_eq_el, b_eq=b_eq))
    if sol.status != "optimal":
        return {"worst_row": -1, "worst_violation": float("nan"), "elastic_status": sol.status}
    v = sol.x[nv:]
    worst = int(np.argmax(v))
    return {"worst_row": worst, "worst_violation": float(v[worst]),
            "violations": v.copy(), "elastic_status": "optimal"}


def synthesize_asymptotic(mdp: Mdp, spec: PrivacySpec, n_starts: int = 16, seed: int = 0,
                          max_rounds: int = 200,
                          margin: float = ASYMPTOTIC_MARGIN) -> SynthesisResult:
    """Minimum-loss policy whose limit belief keeps the secret mass below epsilon.

    The limit-belief constraint couples the policy and its stationary belief
    bilinearly, so each start alternates (i) an LP in the occupancy measure
    and a safe belief variable, with the belief chain applied to the previous
    belief iterate and an L1 penalty tying the two, and (ii) the exact
    stationary belief of the freshly synthesized chain. The small margin
    keeps successful limits strictly inside the safe region.
    """
    diagnostics: dict = {"starts": [], "margin": margin}
    _require_unichain(mdp, diagnostics)
    n = mdp.n_states
    sel = spec.selector(n)
    eps_eff = spec.epsilon - margin
    if eps_eff <= 0.0:
        raise ValueError("margin leaves no feasible belief region")
    _, actions = mdp.pair_index()
    np_ = len(actions)
    nv = np_ + 2 * n  # theta pairs, belief b, residual slack r
    a_eq_base, b_eq_base = _base_constraints(mdp, 2 * n)
    # belief simplex and safety rows
    b_simplex = np.zeros((1, nv))
    b_simplex[0, np_:np_ + n] = 1.0
    a_eq = np.vstack([a_eq_base, b_simplex])
    b_eq = np.concatenate([b_eq_base, [1.0]])
    safety = np.zeros((1, nv))
    safety[0, np_:np_ + n] = sel
    u_pairs = mdp.utility[mdp.pair_index()]
    lam = 100.0 * (1.0 + float(np.abs(u_pairs).max()))
    c = np.concatenate([u_pairs, np.zeros(n), lam * np.ones(n)])
    rng = np.random.default_rng(seed)
    best: SynthesisResult | None = None
    for start in range(n_starts):
        if start == 0:
            b_hat = np.full(n, 1.0 / n)
        else:
            b_hat = rng.dirichlet(np.ones(n))
        b_hat = _project_safe(b_hat, sel, eps_eff)
        info = {"rounds": 0, "status": "running"}
        theta = None
        for rounds in range(1, max_rounds + 1):
            info["rounds"] = rounds
            # (T[a]^T b_hat)(j): coefficient of theta(s, a) on belief row j
            w = pushforward(mdp, b_hat)  # w[a, j]
            fix = w[actions].T
            resid_up = np.hstack([fix, -np.eye(n), -np.eye(n)])
            resid_dn = np.hstack([-fix, np.eye(n), -np.eye(n)])
            a_ub = np.vstack([safety, resid_up, resid_dn])
            b_ub = np.concatenate([[eps_eff], np.zeros(2 * n)])
            sol = solve_lp(LinearProgram(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq))
            if sol.status != "optimal":
                info["status"] = f"lp_{sol.status}"
                break
            theta = _theta(mdp, sol.x)
            try:
                b_next = stationary_belief(adversary_matrix(mdp, theta))
            except NonErgodicError:
                info["status"] = "non_ergodic"
                break
            delta = float(np.abs(b_next - b_hat).sum())
            b_hat = b_next
            if delta <= 1e-9:
                info["status"] = "converged"
                break
        else:
            info["status"] = "round_cap"
        if theta is None:
            diagnostics["starts"].append(info)
            continue
        chain = adversary_matrix(mdp, theta)
        b_inf = _try_stationary(chain)
        if b_inf is None:
            diagnostics["starts"].append(info)
            continue
        residual = float(np.abs(chain.T @ b_inf - b_inf).sum())
        mass = float(sel @ b_inf)
        v = average_cost(mdp, theta)
        info.update(residual=residual, secret_mass=mass, cost=v)
        diagnostics["starts"].append(info)
        feasible = residual <= 1e-7 and mass <= eps_eff + 1e-6
        if feasible and (best is None or v < best.average_cost):
            best = _finish(mdp, "asymptotic", theta, dict(diagnostics),
                           epsilon=spec.epsilon, secret_states=spec.secret_states,
                           b_inf=b_inf)
            best.diagnostics["residual"] = residual
            best.diagnostics["secret_mass_inf"] = mass
    if best is None:
        raise InfeasibleSynthesisError(
            f"no start reached a safe limit belief at epsilon={spec.epsilon:g} "
            "(asymptotic feasibility unknown)", {"starts": diagnostics["starts"]})
    best.diagnostics["starts"] = diagnostics["starts"]
    return best


def _project_safe(b: np.ndarray, sel: np.ndarray, eps_eff: float) -> np.ndarray:
    """Scale secret mass down to half the budget when a draw starts unsafe."""
    mass = float(sel @ b)
    if mass <= eps_eff:
        return b
    target = 0.5 * eps_eff
    secret = sel > 0.0
    out = b.copy()
    out[secret] *= target / mass
    rest = out[~secret].sum()
    if rest > 0.0:
        out[~secret] *= (1.0 - target) / rest
    else:
        out[~secret] = (1.0 - target) / (~secret).sum()
    return out
