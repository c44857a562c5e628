"""Dense linear programming and Frank-Wolfe over a product of simplices.

Policy synthesis and two of the per-step mechanism baselines reduce to
small dense LPs over nonnegative variables, so the solver favors robustness
and determinism over speed: a two-phase revised primal simplex on
[A_ub I; A_eq 0] with Bland's anti-cycling rule, whose basis inverse is
kept current by rank-one eta updates and refactorized every REFACTOR_EVERY
pivots; optimal and unbounded verdicts are confirmed by dense solves on the
final basis. The
max-entropy baseline runs over a product of simplices (one per mechanism
row), where Frank-Wolfe's linear oracle is a closed-form argmax.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
REFACTOR_EVERY = 64  # pivots between fresh factorizations of the basis inverse
FW_GAP_TOL = 1e-6


@dataclass
class LinearProgram:
    """min c.x  s.t.  a_ub x <= b_ub,  a_eq x = b_eq,  x >= 0."""

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float))
        d = self.c.size
        if (self.a_ub is None) != (self.b_ub is None):
            raise ValueError("a_ub and b_ub must be given together")
        if (self.a_eq is None) != (self.b_eq is None):
            raise ValueError("a_eq and b_eq must be given together")
        if self.a_ub is not None:
            self.a_ub = np.atleast_2d(np.asarray(self.a_ub, dtype=float))
            self.b_ub = np.atleast_1d(np.asarray(self.b_ub, dtype=float))
            if self.a_ub.shape != (self.b_ub.size, d):
                raise ValueError("a_ub/b_ub shapes do not match c")
        if self.a_eq is not None:
            self.a_eq = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
            self.b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
            if self.a_eq.shape != (self.b_eq.size, d):
                raise ValueError("a_eq/b_eq shapes do not match c")

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_rows(self) -> int:
        rows = 0
        if self.a_ub is not None:
            rows += self.a_ub.shape[0]
        if self.a_eq is not None:
            rows += self.a_eq.shape[0]
        return rows


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded" | "stalled"
    x: np.ndarray | None
    objective: float | None
    iterations: int
    max_violation: float = 0.0


def constraint_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest amount by which x breaks any constraint of lp, x >= 0 included."""
    worst = 0.0
    if lp.a_ub is not None:
        worst = max(worst, float(np.max(lp.a_ub @ x - lp.b_ub, initial=0.0)))
    if lp.a_eq is not None:
        worst = max(worst, float(np.max(np.abs(lp.a_eq @ x - lp.b_eq), initial=0.0)))
    return max(worst, float(np.max(-x, initial=0.0)))


def _to_standard_form(lp: LinearProgram):
    """Rewrite as min c.y, A y = b, y >= 0 with A = [A_ub I; A_eq 0]; returns (c, A, b).

    Columns are the variables in index order, then one slack per inequality
    row; rows are the inequalities, then the equalities. Bland's rule pivots
    by this order.
    """
    none = (np.zeros((0, lp.n_vars)), np.zeros(0))
    a_ub, b_ub = none if lp.a_ub is None else (lp.a_ub, lp.b_ub)
    a_eq, b_eq = none if lp.a_eq is None else (lp.a_eq, lp.b_eq)
    n_ub, n_eq = len(a_ub), len(a_eq)
    # 0.0 + keeps zeros unsigned
    a_std = 0.0 + np.block([[a_ub, np.eye(n_ub)], [a_eq, np.zeros((n_eq, n_ub))]])
    return np.concatenate([lp.c, np.zeros(n_ub)]), a_std, np.concatenate([b_ub, b_eq])


def _eta_update(binv: np.ndarray, row: int, d: np.ndarray):
    """Turn binv into the inverse of the basis whose column `row` was replaced
    by a column that binv maps to d (a rank-one update, O(m^2))."""
    pivot = binv[row] / d[row]
    binv -= np.outer(d, pivot)
    binv[row] = pivot


def _bland_prices(a, b, c, basis, tol, solve, solve_t):
    """Bland's entering column at one basis; solve(v) = B^-1 v, solve_t(v) = v B^-1.

    Returns (x_basic, entering, d) with entering = -1 at optimality and d the
    entering column in basis terms (no entry above tol when unbounded).
    """
    xb = solve(b)
    reduced = c - solve_t(c[basis]) @ a
    reduced[basis] = 0.0
    negative = np.flatnonzero(reduced < -tol)
    if negative.size == 0:
        return xb, -1, None
    entering = int(negative[0])
    return xb, entering, solve(a[:, entering])


def _simplex_phase(a, b, c, basis, max_iter, tol):
    """Revised primal simplex from a feasible basis, Bland's rule; mutates `basis`.

    The basis inverse is kept current by eta updates and refactorized every
    REFACTOR_EVERY pivots. An optimal or unbounded verdict is confirmed by
    dense solves on the final basis, and x_basic comes from those solves.
    Returns (status, x_basic, iterations, basis_inverse) with status in
    {"optimal", "unbounded", "stalled"}.
    """
    m = a.shape[0]
    it = 0
    age = REFACTOR_EVERY
    while it < max_iter:
        it += 1
        if age >= REFACTOR_EVERY:
            binv = np.linalg.inv(a[:, basis])
            age = 0
        xb, entering, d = _bland_prices(a, b, c, basis, tol,
                                        lambda v: binv @ v, lambda v: v @ binv)
        if entering < 0 or not np.any(d > tol):
            bmat = a[:, basis]
            xb, entering, d = _bland_prices(a, b, c, basis, tol,
                                            lambda v: np.linalg.solve(bmat, v),
                                            lambda v: np.linalg.solve(bmat.T, v))
            if entering < 0:
                return "optimal", xb, it, binv
            if not np.any(d > tol):
                return "unbounded", xb, it, binv
            age = REFACTOR_EVERY  # the updated inverse drifted: refactorize next pivot
        pos = d > tol
        ratios = np.full(m, np.inf)
        ratios[pos] = np.maximum(xb[pos], 0.0) / d[pos]
        best = np.min(ratios)
        # Bland tie-break: among minimal ratios leave the smallest variable index
        tie = best + 1e-12 * (1.0 + abs(best))
        ties = np.flatnonzero(ratios <= tie)
        leave = ties[np.argmin(basis[ties])]
        basis[leave] = entering
        _eta_update(binv, leave, d)
        age += 1
    return "stalled", None, it, None


def solve_lp(lp: LinearProgram, tol: float = OPT_TOL, max_iter: int | None = None) -> LpSolution:
    """Two-phase dense simplex. Deterministic for identical input.

    The iteration budget defaults to 50 * (n_vars + 2 n_rows + 2); exceeding
    it yields status "stalled" rather than a wrong answer.
    """
    c, a, b = _to_standard_form(lp)
    m, n = a.shape
    if max_iter is None:
        max_iter = 50 * (lp.n_vars + lp.n_rows + m + 2)
    if m == 0:
        # only nonnegativity left: unbounded exactly when some cost is negative
        if np.any(c < -tol):
            return LpSolution("unbounded", None, None, 0)
        x = np.zeros(n)
        return LpSolution("optimal", x, float(lp.c @ x), 0, constraint_violation(lp, x))

    flip = b < 0
    a = a.copy()
    a[flip] *= -1.0
    b = b.copy()
    b[flip] *= -1.0

    # phase 1: artificial basis
    a1 = np.hstack([a, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = np.arange(n, n + m)
    status, xb, it1, binv = _simplex_phase(a1, b, c1, basis, max_iter, tol)
    if status == "stalled":
        return LpSolution("stalled", None, None, it1)
    phase1_obj = sum(max(float(xb[i]), 0.0) for i in range(m) if basis[i] >= n)
    if phase1_obj > 10.0 * tol:
        return LpSolution("infeasible", None, None, it1)

    # drive leftover zero-level artificials out of the basis; drop dependent rows
    redundant = []
    for r in np.flatnonzero(basis >= n):
        movable = np.abs(binv[r] @ a) > 1e-7
        movable[basis[basis < n]] = False
        if movable.any():
            j = int(np.argmax(movable))
            _eta_update(binv, r, binv @ a[:, j])
            basis[r] = j
        else:
            redundant.append(r)
    rows = np.ones(m, dtype=bool)
    rows[redundant] = False
    a2 = a[rows, :]
    b2 = b[rows]
    basis2 = basis[rows]

    status, xb, it2, _ = _simplex_phase(a2, b2, c, basis2, max_iter, tol)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, it1 + it2)
    if status == "stalled":
        return LpSolution("stalled", None, None, it1 + it2)
    y = np.zeros(n)
    y[basis2] = np.maximum(xb, 0.0)
    x = y[:lp.n_vars] + 0.0  # drops the slacks and the sign of zeros
    return LpSolution("optimal", x, float(lp.c @ x), it1 + it2,
                      constraint_violation(lp, x))


@dataclass
class FwResult:
    x: np.ndarray
    value: float
    gap: float
    iterations: int


def argmax_vertex(g: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Vertex of the product of simplices that maximizes g . s.

    Coordinate k belongs to simplex groups[k]; each group puts all of its
    mass on its largest entry of g, ties going to the lower coordinate.
    """
    g = np.asarray(g, dtype=float)
    groups = np.asarray(groups)
    order = np.lexsort((-g, groups))  # stable: equal entries keep index order
    head = np.ones(len(order), dtype=bool)
    head[1:] = groups[order[1:]] != groups[order[:-1]]
    vertex = np.zeros(len(g))
    vertex[order[head]] = 1.0
    return vertex


def maximize_concave(fun, grad, groups: np.ndarray, x0: np.ndarray,
                     gap_tol: float = FW_GAP_TOL, max_iter: int = 500) -> FwResult:
    """Conditional-gradient maximization of a concave function over a product of simplices.

    Coordinate k belongs to simplex groups[k] (the entries of each group sum
    to one); x0 must lie in that set. Each round moves from x toward the
    argmax_vertex of grad(x) with a bisection line search. Stops at duality
    gap <= gap_tol or after max_iter rounds; the reached gap is reported
    either way.
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
