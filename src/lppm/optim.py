"""Dense linear programming and Frank-Wolfe over a product of simplices.

Invariance certificates, policy synthesis and two of the per-step
mechanism baselines reduce to small dense LPs, so the solver favors
robustness and determinism over speed: two-phase primal simplex with
Bland's anti-cycling rule, refactorizing the basis every iteration. The
max-entropy baseline runs over a product of simplices (one per mechanism
row), where Frank-Wolfe's linear oracle is a closed-form argmax.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
OPT_TOL = 1e-9


@dataclass
class LinearProgram:
    """min c.x  s.t.  a_ub x <= b_ub,  a_eq x = b_eq,  lb <= x <= ub.

    Bounds default to [0, +inf); pass -inf/+inf entries to free a variable.
    """

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

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
        self.lb = np.zeros(d) if self.lb is None else np.asarray(self.lb, dtype=float)
        self.ub = np.full(d, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float)
        if self.lb.shape != (d,) or self.ub.shape != (d,):
            raise ValueError("lb/ub must match c in length")
        if np.any(self.lb > self.ub):
            raise ValueError("lb exceeds ub for some variable")

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
    """Largest amount by which x breaks any constraint or bound of lp."""
    worst = 0.0
    if lp.a_ub is not None:
        worst = max(worst, float(np.max(lp.a_ub @ x - lp.b_ub, initial=0.0)))
    if lp.a_eq is not None:
        worst = max(worst, float(np.max(np.abs(lp.a_eq @ x - lp.b_eq), initial=0.0)))
    worst = max(worst, float(np.max(lp.lb - x, initial=0.0)))
    worst = max(worst, float(np.max(x - lp.ub, initial=0.0)))
    return worst


def _to_standard_form(lp: LinearProgram):
    """Rewrite as min c.y, A y = b, y >= 0; returns (c, A, b, recover)."""
    d = lp.n_vars
    cols = []       # one (coeffs over original vars expressed later) per standard var
    shift = np.zeros(d)
    col_of = []     # (orig_index, sign) per standard column, None for slacks
    c_std = []
    extra_ub_rows = []  # (std_col, value) for finite ranges

    for j in range(d):
        lo, hi = lp.lb[j], lp.ub[j]
        if np.isfinite(lo):
            shift[j] = lo
            col_of.append([(j, 1.0)])
            c_std.append(lp.c[j])
            if np.isfinite(hi):
                extra_ub_rows.append((len(col_of) - 1, hi - lo))
        elif np.isfinite(hi):
            shift[j] = hi
            col_of.append([(j, -1.0)])
            c_std.append(-lp.c[j])
        else:
            col_of.append([(j, 1.0)])
            c_std.append(lp.c[j])
            col_of.append([(j, -1.0)])
            c_std.append(-lp.c[j])

    n_std = len(col_of)
    # map original constraint matrices onto the standard columns
    def remap(a):
        out = np.zeros((a.shape[0], n_std))
        for k, parts in enumerate(col_of):
            for j, sign in parts:
                out[:, k] += sign * a[:, j]
        return out

    rows_a = []
    rows_b = []
    n_slack = (0 if lp.a_ub is None else lp.a_ub.shape[0]) + len(extra_ub_rows)
    slack_base = n_std
    si = 0
    if lp.a_ub is not None:
        a = remap(lp.a_ub)
        b = lp.b_ub - lp.a_ub @ shift
        for i in range(a.shape[0]):
            row = np.zeros(n_std + n_slack)
            row[:n_std] = a[i]
            row[slack_base + si] = 1.0
            si += 1
            rows_a.append(row)
            rows_b.append(b[i])
    for k, cap in extra_ub_rows:
        row = np.zeros(n_std + n_slack)
        row[k] = 1.0
        row[slack_base + si] = 1.0
        si += 1
        rows_a.append(row)
        rows_b.append(cap)
    if lp.a_eq is not None:
        a = remap(lp.a_eq)
        b = lp.b_eq - lp.a_eq @ shift
        for i in range(a.shape[0]):
            row = np.zeros(n_std + n_slack)
            row[:n_std] = a[i]
            rows_a.append(row)
            rows_b.append(b[i])

    a_std = np.array(rows_a) if rows_a else np.zeros((0, n_std + n_slack))
    b_std = np.array(rows_b)
    c_full = np.concatenate([np.array(c_std), np.zeros(n_slack)])
    offset = float(lp.c @ shift)

    def recover(y):
        x = shift.copy()
        for k, parts in enumerate(col_of):
            for j, sign in parts:
                x[j] += sign * y[k]
        return x

    return c_full, a_std, b_std, recover, offset


def _simplex_phase(a, b, c, basis, max_iter, tol):
    """Primal simplex from a feasible basis, Bland's rule; mutates `basis`.

    Returns (status, x_basic, iterations) with status in
    {"optimal", "unbounded", "stalled"}.
    """
    m, n = a.shape
    it = 0
    while it < max_iter:
        it += 1
        bmat = a[:, basis]
        xb = np.linalg.solve(bmat, b)
        lam = np.linalg.solve(bmat.T, c[basis])
        reduced = c - lam @ a
        reduced[basis] = 0.0
        entering = -1
        for j in range(n):
            if reduced[j] < -tol:
                entering = j
                break
        if entering < 0:
            return "optimal", xb, it
        d = np.linalg.solve(bmat, a[:, entering])
        ratios = np.full(m, np.inf)
        pos = d > tol
        ratios[pos] = np.maximum(xb[pos], 0.0) / d[pos]
        if not np.any(pos):
            return "unbounded", xb, it
        best = np.min(ratios)
        # Bland tie-break: among minimal ratios leave the smallest variable index
        tie = best + 1e-12 * (1.0 + abs(best))
        leave = min((basis[i], i) for i in range(m) if ratios[i] <= tie)[1]
        basis[leave] = entering
    return "stalled", None, it


def solve_lp(lp: LinearProgram, tol: float = OPT_TOL, max_iter: int | None = None) -> LpSolution:
    """Two-phase dense simplex. Deterministic for identical input.

    The iteration budget defaults to 50 * (n_vars + n_rows); exceeding it
    yields status "stalled" rather than a wrong answer.
    """
    c, a, b, recover, offset = _to_standard_form(lp)
    m, n = a.shape
    if max_iter is None:
        max_iter = 50 * (lp.n_vars + lp.n_rows + m + 2)
    if m == 0:
        # only nonnegativity left: unbounded exactly when some cost is negative
        if np.any(c < -tol):
            return LpSolution("unbounded", None, None, 0)
        x = recover(np.zeros(n))
        return LpSolution("optimal", x, float(lp.c @ x), 0, constraint_violation(lp, x))

    flip = b < 0
    a = a.copy()
    a[flip] *= -1.0
    b = b.copy()
    b[flip] *= -1.0

    # phase 1: artificial basis
    a1 = np.hstack([a, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    status, xb, it1 = _simplex_phase(a1, b, c1, basis, max_iter, tol)
    if status == "stalled":
        return LpSolution("stalled", None, None, it1)
    phase1_obj = sum(max(float(xb[i]), 0.0) for i in range(m) if basis[i] >= n)
    if phase1_obj > 10.0 * tol:
        return LpSolution("infeasible", None, None, it1)

    # drive leftover zero-level artificials out of the basis; drop dependent rows
    redundant = set()
    for r in range(m):
        if basis[r] < n:
            continue
        bmat = a1[:, basis]
        binv_row = np.linalg.solve(bmat.T, np.eye(m)[r])
        row_vals = binv_row @ a1[:, :n]
        basis_set = set(basis)
        pivot_j = next((j for j in range(n)
                        if j not in basis_set and abs(row_vals[j]) > 1e-7), -1)
        if pivot_j >= 0:
            basis[r] = pivot_j
        else:
            redundant.add(r)
    rows = [r for r in range(m) if r not in redundant]
    a2 = a[rows, :]
    b2 = b[rows]
    basis2 = [basis[r] for r in rows]

    status, xb, it2 = _simplex_phase(a2, b2, c, basis2, max_iter, tol)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, it1 + it2)
    if status == "stalled":
        return LpSolution("stalled", None, None, it1 + it2)
    y = np.zeros(n)
    y[basis2] = np.maximum(xb, 0.0)
    x = recover(y)
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
                     gap_tol: float = 1e-6, max_iter: int = 500) -> FwResult:
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
