from collections import Counter

import numpy as np
import pytest

from lppm.optim import (FEAS_TOL, FW_GAP_TOL, REFACTOR_EVERY, FwResult, LinearProgram,
                        _to_standard_form, argmax_vertex, constraint_violation,
                        maximize_concave, solve_lp)
from lppm.synthesis import synthesize_eps_private
from support import (action_independent_mdp, binding_spec, bisection_frank_wolfe,
                     brute_force_lp, loop_to_standard_form, random_bounded_lp,
                     random_entropy_problem, random_simplex_lp, random_sparse_mdp,
                     ratio_dp_lp, record_synthesis_lps, refactorizing_solve_lp)
from test_mobility import ROOT, load_module


class TestSolveLp:
    def test_singular_basis_returns_a_status(self):
        # the ratio-form dp LP of the uniform prior on a generated n=48 model:
        # the pivots reach a basis the refactorization finds singular
        gen = load_module("perfbench_gen", ROOT / "perfbench" / "gen.py")
        mdp = gen.make_model(501, 0, 48)
        uniform = np.full(mdp.n_states, 1.0 / mdp.n_states)
        lp = ratio_dp_lp(mdp, uniform, uniform, 3.0)
        sol = solve_lp(lp)
        assert sol.status in ("optimal", "stalled")
        if sol.status == "optimal":
            assert sol.objective == pytest.approx(1159.869, rel=1e-6)
        linprog = pytest.importorskip("scipy.optimize").linprog
        highs = linprog(lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
                        method="highs")
        assert highs.status == 0 and highs.fun == pytest.approx(1159.869, abs=1e-3)

    def test_singular_confirming_solve_returns_stalled(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        lp = LinearProgram(c=np.array([1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([-3.0]))
        assert solve_lp(lp).status == "optimal"
        monkeypatch.setattr(np.linalg, "solve", singular)
        assert solve_lp(lp).status == "stalled"

    def test_min_x_above_three(self):
        # min x s.t. x >= 3, via -x <= -3
        lp = LinearProgram(c=np.array([1.0]), a_ub=np.array([[-1.0]]),
                           b_ub=np.array([-3.0]))
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert sol.x[0] == pytest.approx(3.0, abs=1e-9)

    def test_constant_image_belief_lp(self):
        # max secret inflow over {b on the simplex, b_1 <= eps} for a chain
        # whose columns are flat: every feasible b maps to secret mass 0.5
        chain = np.array([[0.5, 0.5], [0.5, 0.5]])
        sel = np.array([1.0, 0.0])
        inflow = chain @ sel
        lp = LinearProgram(c=-inflow,
                           a_ub=sel[None, :], b_ub=np.array([0.4]),
                           a_eq=np.ones((1, 2)), b_eq=np.array([1.0]))
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert -sol.objective == pytest.approx(0.5, abs=1e-9)

    def test_infeasible_reported(self):
        lp = LinearProgram(c=np.array([1.0, 1.0]),
                           a_ub=np.array([[1.0, 1.0], [-1.0, -1.0]]),
                           b_ub=np.array([1.0, -3.0]))
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded_reported(self):
        lp = LinearProgram(c=np.array([-1.0]))
        assert solve_lp(lp).status == "unbounded"

    def test_equality_only_system(self):
        lp = LinearProgram(c=np.array([2.0, 1.0]),
                           a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-9)

    def test_redundant_equality_rows_handled(self):
        a_eq = np.array([[1.0, 1.0], [2.0, 2.0]])
        lp = LinearProgram(c=np.array([1.0, 2.0]), a_eq=a_eq,
                           b_eq=np.array([1.0, 2.0]))
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_matches_vertex_enumeration(self, rng):
        for _ in range(60):
            c, a, b = random_bounded_lp(rng, max_vars=8, max_rows=4)
            sol = solve_lp(LinearProgram(c=c, a_ub=a, b_ub=b))
            ref = brute_force_lp(c, a, b)
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(ref, abs=1e-8)

    def test_deterministic_given_identical_input(self, rng):
        c, a, b = random_bounded_lp(rng, max_vars=10, max_rows=4)
        lp = LinearProgram(c=c, a_ub=a, b_ub=b)
        s1, s2 = solve_lp(lp), solve_lp(lp)
        assert s1.iterations == s2.iterations
        np.testing.assert_array_equal(s1.x, s2.x)

    def test_optimal_solution_feasible(self, rng):
        for _ in range(30):
            c, a, b = random_bounded_lp(rng, max_vars=8, max_rows=4)
            lp = LinearProgram(c=c, a_ub=a, b_ub=b)
            sol = solve_lp(lp)
            assert sol.max_violation <= FEAS_TOL
            assert constraint_violation(lp, sol.x) == sol.max_violation
            assert sol.objective == pytest.approx(float(c @ sol.x), abs=1e-9)

    def test_weak_duality_spot_check(self, rng):
        # for min c.x, Ax <= b, x >= 0 with c >= 0: any y <= 0 with
        # A^T y <= c satisfies y.b <= optimum
        for _ in range(20):
            c, a, b = random_bounded_lp(rng, max_vars=6, max_rows=3)
            c = np.abs(c)
            sol = solve_lp(LinearProgram(c=c, a_ub=a, b_ub=b))
            y0 = -rng.random(a.shape[0])
            # largest t in [0, 1] keeping A^T (t y0) <= c elementwise
            aty = a.T @ y0
            pos = aty > 1e-12
            t = min(1.0, float((c[pos] / aty[pos]).min())) if pos.any() else 1.0
            assert float(b @ (t * y0)) <= sol.objective + 1e-8


def assert_oracle_path(lp):
    """solve_lp and the per-pivot refactorizing oracle: same status, same
    pivot count, bit-identical x. Returns the oracle's solution."""
    new, old = solve_lp(lp), refactorizing_solve_lp(lp)
    assert (new.status, new.iterations) == (old.status, old.iterations)
    if old.x is None:
        assert new.x is None
    else:
        assert new.x.tobytes() == old.x.tobytes()
        assert (new.objective, new.max_violation) == (old.objective, old.max_violation)
    return old


class TestRevisedSimplex:
    @pytest.mark.parametrize("degenerate", [False, True], ids=["generic", "degenerate"])
    def test_random_lps_follow_the_oracle_path(self, degenerate):
        rng = np.random.default_rng(2020 + degenerate)
        statuses, zero_rhs = Counter(), 0
        for _ in range(200):
            lp = random_simplex_lp(rng, degenerate)
            statuses[assert_oracle_path(lp).status] += 1
            zero_rhs += lp.b_ub is not None and bool(np.any(lp.b_ub == 0.0))
        assert set(statuses) == {"optimal", "infeasible", "unbounded"}
        assert statuses["optimal"] >= 150
        assert zero_rhs >= (50 if degenerate else 0)

    def test_beale_cycling_example(self):
        # cycles under the most-negative-cost rule; Bland's rule must finish
        lp = LinearProgram(c=[-0.75, 150.0, -0.02, 6.0],
                           a_ub=[[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0],
                                 [0.0, 0.0, 1.0, 0.0]],
                           b_ub=[0.0, 0.0, 1.0])
        sol = assert_oracle_path(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-0.05, abs=1e-12)

    def test_long_lp_crosses_several_refactorizations(self, monkeypatch):
        mdp = action_independent_mdp(3, 160)
        spec = binding_spec(mdp)
        solved = record_synthesis_lps(monkeypatch)
        synthesize_eps_private(mdp, spec)
        sol = assert_oracle_path(solved[0][0])
        assert sol.status == "optimal"
        assert sol.iterations > 4 * REFACTOR_EVERY


class TestStandardForm:
    def test_blocks_bit_identical_to_row_loop(self):
        rng = np.random.default_rng(7)
        for k in range(300):
            lp = random_simplex_lp(rng, degenerate=bool(k % 2))
            if k % 3 == 0:  # signed zeros in costs and rows
                lp.c[rng.random(lp.n_vars) < 0.3] = -0.0
                for a in (lp.a_ub, lp.a_eq):
                    if a is not None:
                        a[a == 0.0] = -0.0
            for got, want in zip(_to_standard_form(lp), loop_to_standard_form(lp)):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


def entropy(x):
    pos = x[x > 1e-300]
    return -float(np.sum(pos * np.log(pos)))


def entropy_grad(x):
    return -(np.log(np.maximum(x, 1e-300)) + 1.0)


class TestMaximizeConcave:
    def simplex(self, n):
        """One group and the uniform start."""
        return np.zeros(n, dtype=int), np.full(n, 1.0 / n)

    # the next two start at a vertex: the uniform start is already optimal

    def test_quadratic_interior_maximizer(self):
        x0 = np.array([0.5, 0.3, 0.2])
        fun = lambda x: -float(np.sum((x - x0) ** 2))
        grad = lambda x: -2.0 * (x - x0)
        res = maximize_concave(fun, grad, *self.simplex(3))
        np.testing.assert_allclose(res.x, x0, atol=1e-4)

    def test_entropy_over_simplex_is_uniform(self):
        res = maximize_concave(entropy, entropy_grad, *self.simplex(4))
        np.testing.assert_allclose(res.x, 0.25, atol=1e-4)
        assert res.gap <= 1e-4

    def test_product_of_two_simplices_matches_grid(self):
        # maximize the entropy of w / sum(w), w = (x_0 + y_0, x_1, x_2 + y_1),
        # over x in a 3-simplex and y in a 2-simplex; every row of mix sums to
        # 1, so sum(w) = 2 and the objective is concave; the uniform start is
        # not optimal
        mix = np.array([[1.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0],
                        [0.0, 0.0, 1.0],
                        [1.0, 0.0, 0.0],
                        [0.0, 0.0, 1.0]])

        def values(v):
            w = v @ mix
            b = w / w.sum(axis=-1, keepdims=True)
            return -np.sum(b * np.log(np.maximum(b, 1e-300)), axis=-1)

        def grad(v):
            w = v @ mix
            total = w.sum()
            dw = -(np.log(np.maximum(w / total, 1e-300)) + 1.0) / total
            return mix @ (dw - (dw @ w) / total)

        groups = np.array([0, 0, 0, 1, 1])
        x0 = np.array([1 / 3, 1 / 3, 1 / 3, 0.5, 0.5])
        res = maximize_concave(lambda v: float(values(v)), grad, groups, x0)
        i, j, k = np.meshgrid(*[np.linspace(0.0, 1.0, 101)] * 3, indexing="ij")
        keep = i + j <= 1.0 + 1e-12
        grid = np.stack([i[keep], j[keep], np.maximum(1.0 - i[keep] - j[keep], 0.0),
                         k[keep], 1.0 - k[keep]], axis=1)
        best = float(values(grid).max())
        assert res.value == pytest.approx(best, abs=1e-3)
        assert res.value >= best - 1e-9
        assert res.x[:3].sum() == pytest.approx(1.0, abs=1e-12)
        assert res.x[3:].sum() == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def recording(fun, grad):
        """fun and grad that also record every point they are called at."""
        seen = []

        def rec_fun(x):
            seen.append(x.copy())
            return fun(x)

        def rec_grad(x):
            seen.append(x.copy())
            return grad(x)
        return rec_fun, rec_grad, seen

    def test_iterates_stay_inside_polytope(self):
        fun, grad, seen = self.recording(lambda x: -float(np.sum(x ** 2)), lambda x: -2.0 * x)
        res = maximize_concave(fun, grad, np.zeros(5, dtype=int),
                               np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        assert len(seen) > 2
        for x in seen + [res.x]:
            assert abs(x.sum() - 1.0) <= 1e-9
            assert x.min() >= -1e-12
        np.testing.assert_allclose(res.x, 0.2, atol=1e-6)

    def test_drop_step_leaves_an_exact_zero(self):
        # maximize -|x - c|^2: the optimum (0.6, 0.4, 0) drops the mass of x_2,
        # which the first pairwise step (toward x_0, away from x_2) removes in full
        c = np.array([0.7, 0.5, -0.2])
        fun, grad, seen = self.recording(lambda x: -float(np.sum((x - c) ** 2)),
                                         lambda x: -2.0 * (x - c))
        res = maximize_concave(fun, grad, np.zeros(3, dtype=int), np.full(3, 1 / 3))
        assert res.x[2] == 0.0 and not np.signbit(res.x[2])
        assert all(x.min() >= 0.0 for x in seen)
        np.testing.assert_allclose(res.x, [0.6, 0.4, 0.0], atol=1e-6)
        assert res.gap <= FW_GAP_TOL

    def test_random_entropy_problems_converge_past_the_bisection_oracle(self, rng):
        for k in range(200):
            fun, grad, groups, x0 = random_entropy_problem(rng)
            res = maximize_concave(fun, grad, groups, x0)
            assert res.gap <= FW_GAP_TOL and res.iterations < 500, k
            if k % 10 == 0:  # the oracle runs up to 500 rounds of 42 gradients each
                assert res.value >= bisection_frank_wolfe(fun, grad, groups, x0).value - 1e-9, k

    def test_result_reports_gap(self):
        res = maximize_concave(lambda x: -float(x @ x), lambda x: -2.0 * x,
                               np.zeros(3, dtype=int), np.array([1.0, 0.0, 0.0]), max_iter=3)
        assert isinstance(res, FwResult)
        assert res.gap >= 0.0
        assert res.iterations <= 3


class TestArgmaxVertex:
    def pair_structures(self, campus, rng):
        yield campus.pair_index()[0]
        for _ in range(20):
            yield random_sparse_mdp(rng)[0].pair_index()[0]

    def test_reaches_simplex_lp_optimum(self, campus, rng):
        for groups in self.pair_structures(campus, rng):
            a_eq = (groups[None, :] == np.arange(groups.max() + 1)[:, None]).astype(float)
            for tied in (False, True):
                g = rng.normal(size=len(groups))
                if tied:
                    g = np.round(g)  # exact ties within groups
                vertex = argmax_vertex(g, groups)
                sol = solve_lp(LinearProgram(-g, a_eq=a_eq, b_eq=np.ones(len(a_eq))))
                assert sol.status == "optimal"
                assert g @ vertex >= -sol.objective - 1e-12
                np.testing.assert_array_equal(a_eq @ vertex, 1.0)

    def test_ties_go_to_the_lower_index(self, campus, rng):
        for groups in self.pair_structures(campus, rng):
            g = np.zeros(len(groups))
            first = np.r_[True, groups[1:] != groups[:-1]]
            np.testing.assert_array_equal(argmax_vertex(g, groups), first.astype(float))
            g = rng.integers(0, 2, size=len(groups)).astype(float)
            vertex = argmax_vertex(g, groups)
            for grp in np.unique(groups):
                idx = np.nonzero(groups == grp)[0]
                best = idx[np.argmax(g[idx])]  # argmax returns the first maximum
                assert vertex[best] == 1.0 and vertex[idx].sum() == 1.0

    def test_groups_need_not_be_contiguous(self):
        vertex = argmax_vertex(np.array([1.0, 5.0, 2.0, 5.0, 0.0]),
                               np.array([1, 0, 1, 0, 2]))
        np.testing.assert_array_equal(vertex, [0.0, 1.0, 1.0, 0.0, 1.0])
