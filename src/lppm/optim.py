"""Dense linear programming and Frank-Wolfe over a product of simplices.

Policy synthesis and two of the per-step mechanism baselines reduce to
small dense LPs over nonnegative variables, so the solver favors robustness
and determinism over speed: a two-phase revised primal simplex on
[A_ub I; A_eq 0] with Bland's anti-cycling rule, whose basis inverse is
kept current by rank-one eta updates and refactorized every REFACTOR_EVERY
pivots; optimal and unbounded verdicts are confirmed by dense solves on the
final basis. The
max-entropy baseline runs over a product of simplices (one per mechanism
row) by pairwise Frank-Wolfe, whose linear oracle and away vertex are
closed-form argmaxes; once the support stops changing, damped Newton steps
on its face take over, and a secant search on the directional derivative
sets every step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
REFACTOR_EVERY = 64  # pivots between fresh factorizations of the basis inverse
FW_GAP_TOL = 1e-6
LINE_SEARCH_TOL = 0.1  # the secant stops at |slope| <= this share of the slope at step 0
LINE_SEARCH_MAX_ITER = 60  # a safety bound: seeded test problems need at most 11 trials
HESSIAN_STEP = 1e-7  # forward-difference step of the face Hessian
CURVATURE_FLOOR = 1e-6  # Newton's damping, as a share of the largest face curvature


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
    # y = c_B B^-1 at an optimum: one price per input row, the inequality rows
    # first, 0 on a row dropped as redundant
    row_prices: np.ndarray | None = None


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

    Returns (x_basic, entering, d, y) with entering = -1 at optimality, d the
    entering column in basis terms (no entry above tol when unbounded) and y
    the row prices c_B B^-1.
    """
    xb = solve(b)
    y = solve_t(c[basis])
    reduced = c - y @ a
    reduced[basis] = 0.0
    negative = np.flatnonzero(reduced < -tol)
    if negative.size == 0:
        return xb, -1, None, y
    entering = int(negative[0])
    return xb, entering, solve(a[:, entering]), y


def _simplex_phase(a, b, c, basis, max_iter, tol):
    """Revised primal simplex from a feasible basis, Bland's rule; mutates `basis`.

    The basis inverse is kept current by eta updates and refactorized every
    REFACTOR_EVERY pivots. An optimal or unbounded verdict is confirmed by
    dense solves on the final basis, and x_basic comes from those solves.
    Returns (status, x_basic, iterations, basis_inverse, row_prices) with
    status in {"optimal", "unbounded", "stalled"} and the row prices of the
    confirming solve; a basis found singular by the refactorization or a
    confirming solve ends the phase as "stalled".
    """
    m = a.shape[0]
    it = 0
    age = REFACTOR_EVERY
    while it < max_iter:
        it += 1
        if age >= REFACTOR_EVERY:
            try:
                binv = np.linalg.inv(a[:, basis])
            except np.linalg.LinAlgError:   # the pivots reached a singular basis
                return "stalled", None, it, None, None
            age = 0
        xb, entering, d, _ = _bland_prices(a, b, c, basis, tol,
                                           lambda v: binv @ v, lambda v: v @ binv)
        if entering < 0 or not np.any(d > tol):
            bmat = a[:, basis]
            try:
                xb, entering, d, y = _bland_prices(a, b, c, basis, tol,
                                                   lambda v: np.linalg.solve(bmat, v),
                                                   lambda v: np.linalg.solve(bmat.T, v))
            except np.linalg.LinAlgError:
                return "stalled", None, it, None, None
            if entering < 0:
                return "optimal", xb, it, binv, y
            if not np.any(d > tol):
                return "unbounded", xb, it, binv, None
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
    return "stalled", None, it, None, None


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Two-phase dense simplex at tolerance OPT_TOL. Deterministic for identical input.

    The iteration budget is 50 * (n_vars + 2 n_rows + 2); exceeding it, or
    pivoting onto a singular basis, yields status "stalled" rather than a
    wrong answer or an exception. An optimal solution carries the row prices
    of its final basis, the dual solution (nonpositive on inequality rows).
    """
    c, a, b = _to_standard_form(lp)
    m, n = a.shape
    tol, max_iter = OPT_TOL, 50 * (lp.n_vars + lp.n_rows + m + 2)
    if m == 0:
        # only nonnegativity left: unbounded exactly when some cost is negative
        if np.any(c < -tol):
            return LpSolution("unbounded", None, None, 0)
        x = np.zeros(n)
        return LpSolution("optimal", x, float(lp.c @ x), 0, constraint_violation(lp, x),
                          np.zeros(0))

    flip = b < 0
    a = a.copy()
    a[flip] *= -1.0
    b = b.copy()
    b[flip] *= -1.0

    # phase 1: artificial basis
    a1 = np.hstack([a, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = np.arange(n, n + m)
    status, xb, it1, binv, _ = _simplex_phase(a1, b, c1, basis, max_iter, tol)
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

    status, xb, it2, _, y2 = _simplex_phase(a2, b2, c, basis2, max_iter, tol)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, it1 + it2)
    if status == "stalled":
        return LpSolution("stalled", None, None, it1 + it2)
    y = np.zeros(n)
    y[basis2] = np.maximum(xb, 0.0)
    x = y[:lp.n_vars] + 0.0  # drops the slacks and the sign of zeros
    prices = np.zeros(m)
    prices[rows] = y2
    prices[flip] *= -1.0
    return LpSolution("optimal", x, float(lp.c @ x), it1 + it2,
                      constraint_violation(lp, x), prices + 0.0)


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


def _line_search(grad, x, d, slope):
    """Point x + t d near the maximum of a concave f along d, with x + t d >= 0.

    slope = grad(x) . d must be positive. The bracket is [0, t_max], t_max
    the largest step that keeps every coordinate nonnegative; a full step
    sets the coordinates it empties to exactly 0.0. Inside the bracket, a
    safeguarded secant (Illinois) search looks for the root of the
    decreasing directional derivative grad(x + t d) . d: every trial lies
    strictly inside the current bracket, and the search stops once the
    derivative is within LINE_SEARCH_TOL * slope of zero.
    Returns (x + t d, grad there).
    """
    shrinking = np.flatnonzero(d < 0.0)
    room = x[shrinking] / -d[shrinking]
    lo, s_lo, hi = 0.0, slope, float(room.min())
    point = x + hi * d
    point[shrinking[room == hi]] = 0.0
    g = np.asarray(grad(point), dtype=float)
    s_hi = float(g @ d)
    if s_hi >= 0.0:
        return point, g
    kept = 0  # +1 / -1: the last trial replaced lo / hi
    for _ in range(LINE_SEARCH_MAX_ITER):
        trial = lo + (hi - lo) * (s_lo / (s_lo - s_hi))
        if not lo < trial < hi:
            break  # the bracket is down to adjacent floats
        point = x + trial * d
        g = np.asarray(grad(point), dtype=float)
        s_t = float(g @ d)
        if abs(s_t) <= LINE_SEARCH_TOL * slope:
            break
        # Illinois: halve the slope kept at an end that survives twice running
        if s_t > 0.0:
            lo, s_lo = trial, s_t
            if kept == 1:
                s_hi *= 0.5
            kept = 1
        else:
            hi, s_hi = trial, s_t
            if kept == -1:
                s_lo *= 0.5
            kept = -1
    return point, g


def _face_newton(grad, x, g, groups):
    """Levenberg-damped Newton direction for a concave f on the face of x's support.

    The face is spanned by e_k - e_base for every supported k of a group,
    base being the group's largest coordinate (ties to the lower index).
    The Hessian on the face comes from forward differences of grad along
    those directions, steps of HESSIAN_STEP that stay on the face. Every
    curvature is floored at CURVATURE_FLOOR times the largest one, so a
    direction along which f is (nearly) linear gets a long step that the
    line search cuts where a coordinate runs out.
    """
    base = argmax_vertex(x, groups)  # every group holds mass, so its largest is supported
    base_of = np.zeros(groups.max() + 1, dtype=int)
    base_of[groups[base > 0.0]] = np.flatnonzero(base)
    free = np.flatnonzero((x > 0.0) & (base == 0.0))
    face = np.zeros((len(x), len(free)))
    cols = np.arange(len(free))
    face[free, cols] = 1.0
    face[base_of[groups[free]], cols] = -1.0
    hess = face.T @ np.column_stack(
        [(np.asarray(grad(x + HESSIAN_STEP * col), dtype=float) - g) / HESSIAN_STEP
         for col in face.T])
    curv, vecs = np.linalg.eigh(-0.5 * (hess + hess.T))
    floor = CURVATURE_FLOOR * float(np.abs(curv).max()) or 1.0
    return face @ (vecs @ ((vecs.T @ (face.T @ g)) / np.maximum(curv, floor)))


def maximize_concave(fun, grad, groups: np.ndarray, x0: np.ndarray,
                     gap_tol: float = FW_GAP_TOL, max_iter: int = 500) -> FwResult:
    """Pairwise Frank-Wolfe maximization of a concave function over a product of simplices.

    Coordinate k belongs to simplex groups[k] (the entries of each group sum
    to one); x0 must lie in that set. Each round takes s = argmax_vertex(g),
    g = grad(x), and the away vertex v, which puts all the mass of every
    group on its supported (x > 0) coordinate with the smallest gradient,
    ties going to the lower coordinate. The round moves along s - v, unless
    the last round left the support unchanged and s lies on its face: then
    it takes a damped Newton step on that face (_face_newton), which ends
    the zig-zag of first-order steps along ill-conditioned faces. Either
    way a secant line search (_line_search) sets the step, at most up to
    where the first coordinate runs out of mass; a full step leaves that
    coordinate at exactly 0.0. Stops at Frank-Wolfe gap g . (s - x) <=
    gap_tol or after max_iter rounds; the reached gap is reported either
    way.
    """
    groups = np.asarray(groups)
    x = np.asarray(x0, dtype=float).copy()
    g = np.asarray(grad(x), dtype=float)
    gap = np.inf
    it = 0
    settled = False
    for it in range(1, max_iter + 1):
        toward = argmax_vertex(g, groups)
        gap = float(g @ (toward - x))
        if gap <= gap_tol:
            break
        if settled and np.all(x[toward > 0.0] > 0.0):
            d = _face_newton(grad, x, g, groups)
        else:
            d = toward - argmax_vertex(np.where(x > 0.0, -g, -np.inf), groups)
        support = x > 0.0
        x, g = _line_search(grad, x, d, float(g @ d))
        settled = np.array_equal(support, x > 0.0)
    return FwResult(x, float(fun(x)), gap, it)
