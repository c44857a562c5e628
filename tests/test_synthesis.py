from collections import Counter

import numpy as np
import pytest

from lppm.adversary import adversary_matrix, belief_trajectory, stationary_belief
from lppm.cli import main as cli_main
from lppm.mdp import (Mdp, NotUnichainError, action_independent_rows, average_cost,
                      check_unichain_exhaustive, induce_chain, make_mdp, occupancy_from_policy,
                      stationary_distribution, uniform_policy)
from lppm.metrics import PrivacySpec, eps_privacy_check, secret_mass
from lppm.optim import LinearProgram, LpSolution, solve_lp
from lppm.serialize import load_mdp, save_mdp, save_result
from lppm.synthesis import (ASYMPTOTIC_MARGIN, THETA_TOL, ActionDependentModelError,
                            InfeasibleSynthesisError, SelfCheckError, SynthesisResult,
                            _base_constraints, _solve_private_lp, deployed_chain, limit_check,
                            secret_inflow,
                            synthesize_asymptotic, synthesize_eps_private,
                            synthesize_unconstrained, theorem1_certificate, verify_invariance)
from support import (action_independent_mdp, binding_spec, certificate_margin,
                     elastic_violations, full_eps_private_lp, lp_theorem1_certificate, lp_verify_invariance,
                     random_chain, random_dense_mdp, random_sparse_mdp, record_synthesis_lps,
                     sample_safe_beliefs)
from test_mobility import ROOT, load_module

CAMPUS_SECRET = (3,)
CAMPUS_V_UNCONSTRAINED = 3.526652
CAMPUS_V_017 = 5.597767
# campus asymptotic costs of the seeded 16-start alternation the descent replaced
ALTERNATION_COST = {0.1: 6.059685, 0.12: 6.356982, 0.16: 4.706679, 0.2: 4.195560,
                    0.3: 3.934413}
# branch-and-bound optima of the same problems, rounded up
GLOBAL_OPTIMUM = {0.1: 5.732389, 0.12: 5.187497}


def pumping_chain():
    # both states feed the secret state harder than any 0.3 budget allows
    return np.array([[0.2, 0.8], [0.1, 0.9]])


class TestVerifyInvariance:
    def test_identity_chain_invariant_for_any_budget(self):
        for eps in (0.05, 0.3, 1.0):
            verdict = verify_invariance(np.eye(3), PrivacySpec((1,), eps))
            assert verdict.invariant
            assert verdict.optimum <= eps + 1e-9

    def test_pumping_chain_escapes(self):
        spec = PrivacySpec((1,), 0.3)
        verdict = verify_invariance(pumping_chain(), spec)
        assert not verdict.invariant
        # the witness is a feasible belief whose one-step image violates
        w = verdict.witness
        assert abs(w.sum() - 1.0) <= 1e-9
        assert secret_mass(w, spec) <= 0.3 + 1e-9
        image = pumping_chain().T @ w
        assert secret_mass(image, spec) > 0.3
        assert verdict.optimum == pytest.approx(secret_mass(image, spec),
                                                abs=1e-9)

    def test_optimum_is_worst_one_step_mass(self, rng):
        # Monte Carlo lower bound never beats the LP optimum
        for _ in range(10):
            chain = random_chain(rng, 5)
            spec = PrivacySpec((2,), 0.25)
            verdict = verify_invariance(chain, spec)
            worst = 0.0
            for b in sample_safe_beliefs(rng, 5, (2,), 0.25, 200):
                worst = max(worst, secret_mass(chain.T @ b, spec))
            assert worst <= verdict.optimum + 1e-9

    def test_boundary_beliefs_attain_optimum(self, rng):
        # the maximizer sits at a vertex; the whole-simplex scan over
        # point masses mixed with the secret budget reproduces it
        chain = random_chain(rng, 4)
        spec = PrivacySpec((0,), 0.2)
        verdict = verify_invariance(chain, spec)
        inflow = secret_inflow(chain, spec)
        best = 0.0
        for j in range(1, 4):
            pure = np.zeros(4)
            pure[j] = 1.0
            mixed = np.zeros(4)
            mixed[0], mixed[j] = 0.2, 0.8
            best = max(best, float(inflow @ pure), float(inflow @ mixed))
        assert verdict.optimum == pytest.approx(best, abs=1e-9)


class TestTheorem1Certificate:
    def test_full_budget_always_certifiable(self, rng):
        chain = random_chain(rng, 4)
        cert = theorem1_certificate(chain, PrivacySpec((1,), 1.0))
        assert cert is not None
        assert cert.margin >= -1e-9

    def test_escapable_chain_has_no_certificate(self):
        assert theorem1_certificate(pumping_chain(),
                                    PrivacySpec((1,), 0.3)) is None

    def test_agreement_with_direct_verification(self, rng):
        hits = 0
        for _ in range(120):
            n = int(rng.integers(2, 7))
            secret = (int(rng.integers(0, n)),)
            eps = float(rng.uniform(0.05, 0.95))
            chain = random_chain(rng, n)
            spec = PrivacySpec(secret, eps)
            cert = theorem1_certificate(chain, spec)
            verdict = verify_invariance(chain, spec)
            assert (cert is not None) == verdict.invariant
            hits += cert is not None
        assert 0 < hits < 120   # both outcomes exercised

    def test_certificate_rows_bound_inflow(self, rng):
        # row form: inflow_j + z (eps - sel_j) <= eps for every state j
        for _ in range(20):
            chain = random_chain(rng, 5)
            spec = PrivacySpec((0, 2), 0.6)
            cert = theorem1_certificate(chain, spec)
            if cert is None:
                continue
            sel = spec.selector(5)
            inflow = secret_inflow(chain, spec)
            rows = inflow + cert.z * (spec.epsilon - sel)
            assert rows.max() <= spec.epsilon + 1e-9
            assert cert.z >= -1e-12
            assert certificate_margin(chain, spec, cert) >= -1e-9

    def test_margin_matches_row_slack(self):
        # rows: t <= 0.3 - 0.4 z and t <= 0.2 + 0.6 z meet at z = 0.1
        chain = np.array([[0.9, 0.1], [0.8, 0.2]])
        spec = PrivacySpec((1,), 0.4)
        cert = theorem1_certificate(chain, spec)
        assert cert is not None
        assert cert.margin == pytest.approx(0.26, abs=1e-9)
        sel = spec.selector(2)
        inflow = secret_inflow(chain, spec)
        slack = spec.epsilon - (inflow + cert.z * (spec.epsilon - sel))
        assert cert.margin == pytest.approx(float(slack.min()), abs=1e-9)
        # beta absorbs every row's slack, so the residual margin is zero
        assert certificate_margin(chain, spec, cert) == pytest.approx(0.0,
                                                                      abs=1e-12)


class TestClosedFormsAgainstLpOracles:
    @staticmethod
    def instances(count=5000):
        """Random chains with 1..n-1 secret states; every third chain has
        entries on a 0.1 grid so that inflows tie, every tenth budget is 1."""
        rng = np.random.default_rng(20261018)
        for k in range(count):
            n = int(rng.integers(2, 9))
            if k % 3 == 2:
                chain = rng.multinomial(10, np.full(n, 1.0 / n), size=n) / 10.0
            else:
                chain = rng.dirichlet(np.ones(n), size=n)
            secret = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            eps = 1.0 if k % 10 == 0 else float(rng.uniform(0.02, 0.98))
            yield chain, PrivacySpec(tuple(secret), eps)

    @staticmethod
    def clear_argmaxes(chain, spec):
        """Both largest inflows are unique and differ, each by more than the
        LP oracle's optimality tolerance, so its optimal vertex is unique."""
        inflow = secret_inflow(chain, spec)
        secret = spec.selector(chain.shape[0]) > 0.0
        tops = [np.sort(inflow[part])[::-1] for part in (secret, ~secret)]
        gaps = [top[0] - top[1] for top in tops if top.size > 1]
        return min(gaps + [abs(tops[0][0] - tops[1][0])]) > 1e-9

    def test_verdicts_certificates_and_witnesses_match(self):
        seen = Counter()
        for chain, spec in self.instances():
            clear = self.clear_argmaxes(chain, spec)
            verdict, ref = verify_invariance(chain, spec), lp_verify_invariance(chain, spec)
            assert verdict.invariant == ref.invariant
            assert verdict.optimum == pytest.approx(ref.optimum, abs=1e-12)
            cert, ref_cert = theorem1_certificate(chain, spec), lp_theorem1_certificate(chain, spec)
            assert (cert is None) == (ref_cert is None) == (not verdict.invariant)
            if cert is not None:
                assert cert.z == pytest.approx(ref_cert.z, abs=1e-12)
                assert cert.margin == pytest.approx(ref_cert.margin, abs=1e-12)
                np.testing.assert_allclose(cert.beta, ref_cert.beta, rtol=0.0, atol=1e-12)
            elif clear:
                np.testing.assert_array_equal(verdict.witness, ref.witness)
                seen["witness"] += 1
            seen["certified"] += cert is not None
            seen["full_budget"] += spec.epsilon == 1.0
            seen["several_secret"] += len(spec.secret_states) > 1
            seen["tied"] += not clear
        assert min(seen.values()) >= 400, seen

    def test_ties_go_to_the_lowest_index(self):
        # states 0 and 2 tie as secret argmax, 1 and 3 as non-secret argmax
        chain = np.array([[0.5, 0.0, 0.5, 0.0],
                          [0.1, 0.8, 0.1, 0.0],
                          [0.5, 0.0, 0.5, 0.0],
                          [0.1, 0.0, 0.1, 0.8]])
        verdict = verify_invariance(chain, PrivacySpec((0, 2), 0.3))
        assert verdict.optimum == pytest.approx(0.2 + 0.3 * 0.8, abs=1e-15)
        np.testing.assert_array_equal(verdict.witness, [0.3, 0.7, 0.0, 0.0])
        # R_S = R_N: all mass on the first non-secret state
        flat = np.full((4, 4), 0.25)
        for secret, witness in [((1,), [1.0, 0.0, 0.0, 0.0]), ((0,), [0.0, 1.0, 0.0, 0.0])]:
            verdict = verify_invariance(flat, PrivacySpec(secret, 0.1))
            assert verdict.optimum == 0.25
            np.testing.assert_array_equal(verdict.witness, witness)


class TestBaseConstraints:
    def test_stationarity_rows_entry_by_entry(self, rng):
        mdp, available = random_sparse_mdp(rng)
        n, n_extra = mdp.n_states, 3
        pairs = [(s, a) for s, acts in enumerate(available) for a in sorted(acts)]
        a_eq, b_eq = _base_constraints(mdp, n_extra)
        expected = np.zeros((n + 1, len(pairs) + n_extra))
        for k, (s, a) in enumerate(pairs):
            for sp in range(n):
                expected[sp, k] = (1.0 if sp == s else 0.0) - mdp.transition[a, s, sp]
            expected[n, k] = 1.0
        np.testing.assert_array_equal(a_eq, expected)
        np.testing.assert_array_equal(b_eq, np.eye(n + 1)[n])
        theta = occupancy_from_policy(mdp, uniform_policy(mdp))
        states, actions = mdp.pair_index()
        np.testing.assert_allclose(a_eq[:, :len(pairs)] @ theta[states, actions], b_eq,
                                   atol=1e-12)


def action_dependent(mdp):
    """mdp with the last pair of state 1 moved by one ulp, so that its moves
    depend on the action and synthesis takes the full occupancy LP."""
    rows = mdp.rows.copy()
    rows[4, 1] = np.nextafter(rows[4, 1], 1.0)
    return Mdp(rows, mdp.available, mdp.utility, mdp.p0)


class TestStalledLp:
    # the unconstrained LP of an action-independent model is a closed form
    @pytest.mark.parametrize("synthesize", [
        lambda mdp: synthesize_unconstrained(action_dependent(mdp)),
        lambda mdp: synthesize_eps_private(mdp, PrivacySpec(CAMPUS_SECRET, 0.2)),
    ], ids=["unconstrained", "eps_private"])
    def test_reported_as_unknown_not_infeasible(self, campus, monkeypatch, synthesize):
        calls = []

        def stalled(lp, *args, **kwargs):
            calls.append(lp)
            return LpSolution("stalled", None, None, 17)

        monkeypatch.setattr("lppm.synthesis.solve_lp", stalled)
        with pytest.raises(InfeasibleSynthesisError) as exc:
            synthesize(campus)
        assert "stalled" in str(exc.value)
        assert "feasibility unknown" in str(exc.value)
        assert "invariant" not in str(exc.value)
        assert exc.value.diagnosis["lp_status"] == "stalled"
        assert exc.value.diagnosis["feasibility"] == "unknown"
        assert len(calls) == 1   # no elastic re-solve


class TestHighsCrossCheck:
    @staticmethod
    def highs_objective(lp):
        linprog = pytest.importorskip("scipy.optimize").linprog
        res = linprog(lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
                      bounds=(0, None), method="highs")
        assert res.status == 0, res.message
        return float(res.fun)

    @pytest.mark.parametrize("n", [96, 160])
    def test_occupancy_lps_match_highs(self, n, monkeypatch):
        pytest.importorskip("scipy.optimize")
        mdp = action_independent_mdp(11, n)
        spec = binding_spec(mdp)
        solved = record_synthesis_lps(monkeypatch)
        free = synthesize_unconstrained(mdp)
        assert not solved  # a closed form
        private = synthesize_eps_private(mdp, spec)
        assert private.average_cost > free.average_cost + 1e-6  # the budget binds
        # the master LPs; the post-verify check solves none
        assert len(solved) == private.diagnostics["master_rounds"]
        for lp, sol in solved:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(self.highs_objective(lp), abs=1e-9)
        full = full_eps_private_lp(mdp, spec)
        assert private.average_cost == pytest.approx(self.highs_objective(full), abs=1e-9)
        a_eq, b_eq = _base_constraints(mdp, 0)
        unconstrained = LinearProgram(full.c[:-1], a_eq=a_eq, b_eq=b_eq)
        assert free.average_cost == pytest.approx(self.highs_objective(unconstrained),
                                                  abs=1e-9)


class TestSynthesizeUnconstrained:
    def test_single_action_recovers_chain_statistics(self, rng):
        chain = random_chain(rng, 4)
        u = rng.uniform(1.0, 3.0, size=(4, 1))
        mdp = make_mdp(chain[None], u, ((0,),) * 4, np.full(4, 0.25))
        res = synthesize_unconstrained(mdp)
        p = stationary_distribution(chain)
        np.testing.assert_allclose(res.p_inf, p, atol=1e-8)
        assert res.average_cost == pytest.approx(float(p @ u[:, 0]), abs=1e-8)

    def test_constant_utility_gives_constant_cost(self, rng):
        t = np.stack([random_chain(rng, 3), random_chain(rng, 3)])
        mdp = make_mdp(t, np.full((3, 2), 2.5), ((0, 1),) * 3,
                       np.full(3, 1 / 3))
        res = synthesize_unconstrained(mdp)
        assert res.average_cost == pytest.approx(2.5, abs=1e-8)

    def test_campus_optimum_and_dominance(self, campus):
        res = synthesize_unconstrained(campus)
        assert res.mode == "unconstrained"
        assert res.average_cost == pytest.approx(CAMPUS_V_UNCONSTRAINED,
                                                 abs=1e-5)
        v_uniform = average_cost(
            campus, occupancy_from_policy(campus, uniform_policy(campus)))
        assert res.average_cost <= v_uniform + 1e-9

    def test_occupancy_internally_consistent(self, campus):
        res = synthesize_unconstrained(campus)
        np.testing.assert_allclose(res.theta.sum(), 1.0, atol=1e-8)
        np.testing.assert_allclose(res.theta.sum(axis=1), res.p_inf, atol=1e-8)
        chain = induce_chain(campus, res.policy)
        np.testing.assert_allclose(res.p_inf @ chain, res.p_inf, atol=1e-7)
        assert res.epsilon is None
        assert res.certificate is None

    def test_unavailable_pairs_carry_no_mass(self, campus):
        res = synthesize_unconstrained(campus)
        for s in range(campus.n_states):
            for a in range(campus.n_actions):
                if a not in campus.available[s]:
                    assert res.theta[s, a] <= 1e-10


class TestSynthesizeEpsPrivate:
    def test_full_budget_matches_unconstrained(self, campus):
        free = synthesize_unconstrained(campus)
        capped = synthesize_eps_private(campus,
                                        PrivacySpec(CAMPUS_SECRET, 1.0))
        assert capped.average_cost == pytest.approx(free.average_cost,
                                                    abs=1e-8)

    def test_campus_cost_at_017(self, campus):
        res = synthesize_eps_private(campus, PrivacySpec(CAMPUS_SECRET, 0.17))
        assert res.mode == "eps_private"
        assert set(res.diagnostics) == {"unichain", "solver", "lp_status", "lp_iterations",
                                        "master_rounds", "columns", "certificate_rows",
                                        "post_verify_optimum"}
        assert res.diagnostics["solver"] == "column_generation"
        assert res.diagnostics["certificate_rows"] == 5
        assert res.average_cost == pytest.approx(CAMPUS_V_017, abs=1e-5)
        assert res.certificate is not None
        assert res.certificate.z >= 0.0

    def test_result_chain_is_invariant(self, campus):
        spec = PrivacySpec(CAMPUS_SECRET, 0.17)
        res = synthesize_eps_private(campus, spec)
        chain = adversary_matrix(campus, res.theta)
        verdict = verify_invariance(chain, spec)
        assert verdict.invariant
        assert verdict.optimum <= 0.17 + 1e-7

    def test_safe_start_stays_safe_for_thousand_steps(self, campus):
        spec = PrivacySpec(CAMPUS_SECRET, 0.17)
        res = synthesize_eps_private(campus, spec)
        chain = adversary_matrix(campus, res.theta)
        b0 = np.full(campus.n_states, 1 / campus.n_states)
        traj = belief_trajectory(chain, b0, 1000)
        assert eps_privacy_check(traj, spec, slack=1e-6).holds

    def test_infeasible_budget_raises_with_diagnosis(self, campus):
        with pytest.raises(InfeasibleSynthesisError) as exc:
            synthesize_eps_private(campus, PrivacySpec(CAMPUS_SECRET, 0.05))
        diag = exc.value.diagnosis
        assert diag
        assert any(v > 0 for v in diag.values())

    def test_cost_decreases_as_budget_loosens(self, campus):
        costs = [synthesize_eps_private(
            campus, PrivacySpec(CAMPUS_SECRET, e)).average_cost
            for e in (0.17, 0.20, 0.25)]
        assert costs[0] >= costs[1] - 1e-8 >= costs[2] - 2e-8

    def test_tighter_budget_never_cheaper_than_unconstrained(self, campus):
        res = synthesize_eps_private(campus, PrivacySpec(CAMPUS_SECRET, 0.2))
        assert res.average_cost >= CAMPUS_V_UNCONSTRAINED - 1e-8

    def test_multichain_mdp_rejected(self):
        # two disconnected 2-cycles: policy-dependent recurrent class
        t = np.zeros((2, 4, 4))
        t[0, 0, 1] = t[0, 1, 0] = 1.0
        t[0, 2, 3] = t[0, 3, 2] = 1.0
        t[1] = t[0]
        t[1, 1, 1] = 1.0
        t[1, 1, 0] = 0.0
        mdp = make_mdp(t, np.ones((4, 2)), ((0, 1),) * 4, np.full(4, 0.25))
        with pytest.raises(NotUnichainError):
            synthesize_eps_private(mdp, PrivacySpec((2,), 0.5))


def private_lp_models():
    """(name, mdp) pairs: random sparse, dense and action-independent models."""
    rng = np.random.default_rng(1717)
    models = [(f"sparse{k}", random_sparse_mdp(rng, n, m)[0])
              for k, (n, m) in enumerate([(5, 3), (7, 5), (9, 4)])]
    models += [(f"dense{k}", random_dense_mdp(rng, n, m))
               for k, (n, m) in enumerate([(4, 3), (6, 2)])]
    models += [(f"independent{seed}_{n}", action_independent_mdp(seed, n))
               for seed, n in [(0, 12), (1, 20), (4, 40)]]
    return models


def private_lp_specs(mdp, several):
    """Budgets for one secret state (the most likely under the uniform policy)
    or for the two most likely, from loose to infeasible; one secret state
    also gets binding_spec's budget."""
    visits = occupancy_from_policy(mdp, uniform_policy(mdp)).sum(axis=1)
    secret = tuple(int(s) for s in np.argsort(-visits, kind="stable")[:2 if several else 1])
    specs = [PrivacySpec(secret, share * min(1.0, 2.0 * visits[list(secret)].sum()))
             for share in (0.6, 0.8, 1.0)]
    return specs if several else specs + [binding_spec(mdp)]


class TestCollapsedCertificateRows:
    """The eps_private LP keeps one certificate row per distinct state row."""

    @pytest.mark.parametrize("several", [False, True], ids=["one_secret", "two_secrets"])
    def test_objective_matches_the_full_lp(self, several):
        statuses = Counter()
        for name, mdp in private_lp_models():
            for spec in private_lp_specs(mdp, several):
                full = solve_lp(full_eps_private_lp(mdp, spec))
                sol = _solve_private_lp(mdp, spec.selector(mdp.n_states), spec.epsilon)[2]
                assert sol.status == full.status, (name, spec)
                statuses[sol.status] += 1
                if sol.status == "optimal":
                    assert sol.objective == pytest.approx(full.objective, rel=1e-12, abs=0.0)
        assert statuses["optimal"] >= 10

    def test_rows_are_the_distinct_rows_in_first_occurrence_order(self, campus):
        models = private_lp_models() + [("campus", campus)]
        shrunk = 0
        for name, mdp in models:
            for spec in private_lp_specs(mdp, False) + private_lp_specs(mdp, True):
                full = full_eps_private_lp(mdp, spec)
                rows = np.column_stack([full.a_ub, full.b_ub])
                first, group = [], []
                for row in rows:
                    match = [k for k, j in enumerate(first) if np.array_equal(rows[j], row)]
                    if not match:
                        first.append(len(group))
                    group.append(match[0] if match else len(first) - 1)
                lp, got, _ = _solve_private_lp(mdp, spec.selector(mdp.n_states), spec.epsilon)
                assert lp.a_ub.tobytes() == full.a_ub[first].tobytes(), name
                assert lp.b_ub.tobytes() == full.b_ub[first].tobytes(), name
                assert got.tolist() == group, name
                assert (lp.a_eq.tobytes(), lp.b_eq.tobytes(), lp.c.tobytes()) == \
                    (full.a_eq.tobytes(), full.b_eq.tobytes(), full.c.tobytes())
                shrunk += len(first) < mdp.n_states
        assert shrunk >= 6
        lp, _, _ = _solve_private_lp(campus, PrivacySpec(CAMPUS_SECRET, 0.17).selector(6), 0.17)
        assert lp.a_ub.shape[0] == 5

    def test_diagnosis_matches_the_full_elastic_lp(self, campus):
        spec = PrivacySpec(CAMPUS_SECRET, 0.05)
        with pytest.raises(InfeasibleSynthesisError) as exc:
            synthesize_eps_private(campus, spec)
        diag = exc.value.diagnosis
        full = elastic_violations(full_eps_private_lp(campus, spec))
        assert diag["elastic_status"] == "optimal"
        assert diag["worst_row"] in range(campus.n_states)
        assert diag["violations"].shape == (campus.n_states,)
        assert diag["violations"][diag["worst_row"]] == diag["worst_violation"]
        assert diag["worst_violation"] == pytest.approx(full.max(), abs=1e-9)
        np.testing.assert_allclose(diag["violations"], full, rtol=0.0, atol=1e-9)

    def test_merged_rows_are_named_by_their_lowest_state(self):
        # states 0 and 1 feed the secret state 2 alike, harder than the budget allows
        t = np.array([[[0.05, 0.05, 0.9], [0.05, 0.05, 0.9], [0.5, 0.5, 0.0]]])
        mdp = make_mdp(t, np.ones((3, 1)), ((0,),) * 3, np.full(3, 1.0 / 3.0))
        spec = PrivacySpec((2,), 0.5)
        with pytest.raises(InfeasibleSynthesisError) as exc:
            synthesize_eps_private(mdp, spec)
        diag = exc.value.diagnosis
        assert _solve_private_lp(mdp, spec.selector(3), 0.5)[0].a_ub.shape[0] == 2
        assert diag["worst_row"] == 0
        assert diag["violations"].shape == (3,)
        full = elastic_violations(full_eps_private_lp(mdp, spec))
        np.testing.assert_allclose(diag["violations"], full, rtol=0.0, atol=1e-12)


    def test_merged_rows_weigh_by_their_states(self):
        # three public states share one row. Action 0 raises their secret
        # inflow by 0.35 per unit of frequency and lowers the secret state's
        # by 0.65, so one merged row priced once would buy off the secret
        # state's violation; priced as three states it must not
        public = [0.1 / 3.0] * 3 + [0.9], [0.15] * 3 + [0.55]
        secret = [0.7 / 3.0] * 3 + [0.3], [0.05 / 3.0] * 3 + [0.95]
        t = np.array([[public[a]] * 3 + [secret[a]] for a in range(2)])
        mdp = make_mdp(t, np.ones((4, 2)), ((0, 1),) * 4, np.full(4, 0.25))
        spec = PrivacySpec((3,), 0.5)
        with pytest.raises(InfeasibleSynthesisError) as exc:
            synthesize_eps_private(mdp, spec)
        diag = exc.value.diagnosis
        full = elastic_violations(full_eps_private_lp(mdp, spec))
        np.testing.assert_allclose(full, [0.05, 0.05, 0.05, 0.45], atol=1e-12)
        np.testing.assert_allclose(diag["violations"], full, rtol=0.0, atol=1e-12)
        assert diag["worst_row"] == 3


class TestSynthesizeAsymptotic:
    def test_campus_limit_belief_is_safe(self, campus):
        spec = PrivacySpec(CAMPUS_SECRET, 0.16)
        res = synthesize_asymptotic(campus, spec)
        assert res.mode == "asymptotic"
        assert res.b_inf is not None
        chain = adversary_matrix(campus, res.theta)
        np.testing.assert_allclose(chain.T @ res.b_inf, res.b_inf, atol=1e-6)
        assert secret_mass(res.b_inf, spec) <= 0.16 - 1e-4   # margin inside

    def test_campus_cost_beats_all_time_variant(self, campus):
        # letting early steps overshoot can only help the objective
        asym = synthesize_asymptotic(campus, PrivacySpec(CAMPUS_SECRET, 0.16))
        allt = synthesize_eps_private(campus, PrivacySpec(CAMPUS_SECRET, 0.17))
        assert asym.average_cost <= allt.average_cost + 1e-6

    def test_internal_consistency(self, campus):
        res = synthesize_asymptotic(campus, PrivacySpec(CAMPUS_SECRET, 0.16))
        np.testing.assert_allclose(res.theta.sum(axis=1), res.p_inf, atol=1e-6)
        assert res.average_cost == pytest.approx(
            average_cost(campus, res.theta), abs=1e-8)
        assert "residual" in res.diagnostics
        assert res.diagnostics["residual"] <= 1e-7

    def test_deterministic_without_a_seed(self, campus):
        spec = PrivacySpec(CAMPUS_SECRET, 0.16)
        r1 = synthesize_asymptotic(campus, spec)
        r2 = synthesize_asymptotic(campus, spec)
        np.testing.assert_array_equal(r1.theta, r2.theta)
        assert r1.average_cost == r2.average_cost

    def assert_exactly_safe(self, mdp, spec, res):
        """The limit of the policy's belief chain keeps the margin, by the
        stationary solve and by 10 000 steps from the uniform prior, and a
        second call returns the same bits."""
        bound = spec.epsilon - ASYMPTOTIC_MARGIN + 1e-9
        chain = adversary_matrix(mdp, res.theta)
        assert secret_mass(stationary_belief(chain), spec) <= bound
        uniform = np.full(mdp.n_states, 1.0 / mdp.n_states)
        assert secret_mass(belief_trajectory(chain, uniform, 10_000)[-1], spec) <= bound
        assert res.diagnostics["residual"] <= 1e-12
        assert synthesize_asymptotic(mdp, spec).theta.tobytes() == res.theta.tobytes()

    @pytest.mark.parametrize("eps", sorted(ALTERNATION_COST))
    def test_campus_costs_and_limits(self, campus, eps):
        spec = PrivacySpec(CAMPUS_SECRET, eps)
        res = synthesize_asymptotic(campus, spec)
        assert res.average_cost <= ALTERNATION_COST[eps] + 1e-6
        assert res.average_cost <= GLOBAL_OPTIMUM.get(eps, np.inf)
        assert res.diagnostics["start"] in ("uniform", "eps_private")
        self.assert_exactly_safe(campus, spec, res)

    @pytest.mark.parametrize("seed,n", [(seed, n) for seed in range(3) for n in (8, 12)])
    def test_random_limits_are_exactly_safe(self, seed, n):
        mdp = action_independent_mdp(seed, n)
        pi = stationary_distribution(action_independent_rows(mdp))
        top = int(np.argmax(pi))
        for share in (0.5, 0.7, 0.9):
            spec = PrivacySpec((top,), share * pi[top])
            try:
                res = synthesize_asymptotic(mdp, spec)
            except InfeasibleSynthesisError as exc:
                assert (seed, n, share) == (1, 8, 0.5)  # the one budget no start reaches
                lowest = exc.diagnosis["lowest_secret_mass_inf"]
                assert lowest > spec.epsilon - ASYMPTOTIC_MARGIN
                assert f"{lowest:.6f}" in str(exc) and "feasibility unknown" in str(exc)
                continue
            self.assert_exactly_safe(mdp, spec, res)
            # and verify's own check of the deployed policy accepts it: deployed_chain
            # refuses an occupancy more than THETA_TOL off theta
            chain = deployed_chain(mdp, res)[1]
            assert limit_check(chain, spec, res.b_inf)[2]

    def test_campus_takes_few_lps(self, campus, monkeypatch):
        solved = record_synthesis_lps(monkeypatch)
        res = synthesize_asymptotic(campus, PrivacySpec(CAMPUS_SECRET, 0.16))
        assert len(solved) <= 100
        assert res.diagnostics["lp_solves"] <= len(solved)

    @pytest.mark.parametrize("eps,cost", [(0.1, "5.732388"), (0.12, "5.187496")])
    def test_infeasible_eps_private_start_costs_one_lp(self, campus, monkeypatch, eps, cost):
        # the start's master is infeasible and phase 1 proves it: every LP before
        # the descent's 13 is a master (5 certificate rows and the convexity
        # row), so no full elastic LP is solved; and one unichain check
        checks = []
        monkeypatch.setattr("lppm.synthesis.check_unichain_exhaustive",
                            lambda mdp: checks.append(mdp) or check_unichain_exhaustive(mdp))
        solved = record_synthesis_lps(monkeypatch)
        res = synthesize_asymptotic(campus, PrivacySpec(CAMPUS_SECRET, eps))
        assert len(checks) == 1
        assert res.diagnostics["lp_solves"] == 13
        masters = solved[:-13]
        assert [lp.n_rows for lp, _ in masters] == [6] * len(masters)
        assert masters[0][1].status == "infeasible"
        assert masters[-1][1].status == "optimal" and masters[-1][1].objective > 1e-8
        assert f"{res.average_cost:.6f}" == cost

    def test_action_dependent_model_rejected(self, campus):
        with pytest.raises(ActionDependentModelError, match="rows of state 1 differ"):
            synthesize_asymptotic(action_dependent(campus), PrivacySpec(CAMPUS_SECRET, 0.16))

    def test_unreachable_budget_raises(self, campus):
        # below the all-time threshold and below any stationary belief the
        # campus chains can realize
        with pytest.raises(InfeasibleSynthesisError):
            synthesize_asymptotic(campus, PrivacySpec(CAMPUS_SECRET, 0.01))


class TestDeployedChain:
    """deployed_chain is the one chain of a result: what synthesize stores comes
    from it bit for bit, and it refuses a policy its theta does not describe."""

    @pytest.mark.parametrize("case", ["campus", "random"])
    def test_stored_values_are_those_of_the_deployed_chain(self, campus, case):
        if case == "campus":
            mdp, private, limit = campus, PrivacySpec(CAMPUS_SECRET, 0.2), \
                PrivacySpec(CAMPUS_SECRET, 0.16)
        else:
            mdp = action_independent_mdp(0, 16)
            private = binding_spec(mdp)
            pi = stationary_distribution(action_independent_rows(mdp))
            limit = PrivacySpec((4, 9, 14), 0.9 * pi[[4, 9, 14]].sum())
        res = synthesize_eps_private(mdp, private)
        user, chain = deployed_chain(mdp, res)
        assert res.b_inf.tobytes() == stationary_belief(chain).tobytes()
        assert user.tobytes() == induce_chain(mdp, res.policy).tobytes()
        res = synthesize_asymptotic(mdp, limit)
        chain = deployed_chain(mdp, res)[1]
        b_inf = stationary_belief(chain)
        assert res.b_inf.tobytes() == b_inf.tobytes()
        assert res.diagnostics["residual"] == float(np.abs(chain.T @ b_inf - b_inf).sum())
        assert limit_check(chain, limit, res.b_inf)[1] == 0.0

    @pytest.mark.parametrize("case", ["campus-0.17", "campus-0.2", "random"])
    def test_stored_certificate_is_the_one_verify_prints(self, campus, case):
        if case == "random":
            mdp = action_independent_mdp(0, 16)
            spec = binding_spec(mdp)
        else:
            mdp, spec = campus, PrivacySpec(CAMPUS_SECRET, float(case.split("-")[1]))
        res = synthesize_eps_private(mdp, spec)
        chain = deployed_chain(mdp, res)[1]
        cert = theorem1_certificate(chain, spec)
        assert (res.certificate.z, res.certificate.margin) == (cert.z, cert.margin)
        assert res.certificate.beta.tobytes() == cert.beta.tobytes()
        # the smallest row slack: epsilon minus the worst one-step mass, up to rounding
        assert res.certificate.margin == pytest.approx(
            spec.epsilon - res.diagnostics["post_verify_optimum"], abs=1e-15)
        # beta absorbs every row's slack
        assert certificate_margin(chain, spec, res.certificate) == pytest.approx(0.0, abs=1e-15)

    def test_one_secret_mass_on_the_claim_path(self):
        # with three secret states a dot product with the selector and the
        # index sum round apart on this limit belief
        mdp = action_independent_mdp(0, 16)
        pi = stationary_distribution(action_independent_rows(mdp))
        spec = PrivacySpec((4, 9, 14), 0.9 * pi[[4, 9, 14]].sum())
        res = synthesize_asymptotic(mdp, spec)
        chain = deployed_chain(mdp, res)[1]
        assert res.diagnostics["secret_mass_inf"] == limit_check(chain, spec, res.b_inf)[0] \
            == secret_mass(res.b_inf, spec)
        assert spec.selector(16) @ res.b_inf != secret_mass(res.b_inf, spec)

    @pytest.mark.parametrize("shift", [1e-12, 1e-8])
    def test_theta_drift_refused_above_theta_tol(self, campus, shift):
        res = synthesize_eps_private(campus, PrivacySpec(CAMPUS_SECRET, 0.2))
        res.theta[1, 4] += shift
        if shift < THETA_TOL:
            assert deployed_chain(campus, res)[1].shape == (6, 6)
        else:
            with pytest.raises(SelfCheckError, match=r"^its own occupancy differs from theta "
                                                     r"by 1e-08 > 1e-09 \(max abs\)$"):
                deployed_chain(campus, res)

    def test_non_ergodic_user_chain_refused(self):
        # action 0 stays put, action 1 swaps the two states; the policy always stays
        mdp = make_mdp(np.stack([np.eye(2), np.eye(2)[::-1]]), np.ones((2, 2)),
                       ((0, 1), (0, 1)), np.array([0.5, 0.5]))
        stay = np.array([[1.0, 0.0], [1.0, 0.0]])
        res = SynthesisResult("eps_private", 0.5 * stay, stay, np.full(2, 0.5), 1.0)
        with pytest.raises(SelfCheckError, match="^its chain is not ergodic$"):
            deployed_chain(mdp, res)


class TestCampusTradeoff:
    """The relations the privacy-utility trade-off implies, on campus."""

    def test_relations(self, campus, tmp_path):
        floor = synthesize_unconstrained(campus).average_cost
        costs, all_time_feasible = [], []
        for eps in sorted(ALTERNATION_COST):
            res = synthesize_asymptotic(campus, PrivacySpec(CAMPUS_SECRET, eps))
            assert floor <= res.average_cost
            costs.append(res.average_cost)
            try:
                # the all-time private policy at eps - margin is a feasible start
                all_time = synthesize_eps_private(
                    campus, PrivacySpec(CAMPUS_SECRET, eps - ASYMPTOTIC_MARGIN))
            except InfeasibleSynthesisError:
                pass
            else:
                all_time_feasible.append(eps)
                assert res.average_cost <= all_time.average_cost
            save_result(res, tmp_path / "result.json")
            assert cli_main(["verify", "--fixture", "campus",
                             "--result", str(tmp_path / "result.json")]) == 0
        assert costs == sorted(costs, reverse=True)  # non-increasing in epsilon
        assert all_time_feasible == [0.16, 0.2, 0.3]


def perfbench_module(name):
    return load_module(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")


@pytest.fixture(scope="module")
def action_independent_cases(campus, tmp_path_factory):
    """(name, mdp, spec) of every model the column generation is checked on:
    campus on an epsilon grid, generated models at the benchmark's spec, the
    binding seeds of action_independent_mdp and the benchmark's trace models."""
    gen, checks = perfbench_module("gen"), perfbench_module("checks")
    cases = [(f"campus_{eps}", campus, PrivacySpec(CAMPUS_SECRET, eps))
             for eps in (0.05, 0.08, 0.11, 0.14, 0.17, 0.2, 0.3, 0.5)]

    def benchmark_spec(mdp):
        pi = stationary_distribution(action_independent_rows(mdp))
        return PrivacySpec(*[(s,) if k == 0 else s for k, s in enumerate(
            checks.private_spec(mdp, [int(s) for s in np.argsort(-pi, kind="stable")[:5]]))])

    for n in (48, 96, 120, 240, 360):
        mdp = gen.make_model(501, 0, n)
        cases.append((f"gen501_{n}", mdp, benchmark_spec(mdp)))
    binding = 0
    for seed in range(30):
        mdp = action_independent_mdp(seed, 16)
        try:
            cases.append((f"independent{seed}", mdp, binding_spec(mdp)))
            binding += 1
        except ValueError:
            pass
    assert binding == 28
    work = tmp_path_factory.mktemp("traces")
    for u, (places, samples, fmt) in enumerate([(10, 50_000, "csv"), (20, 50_000, "plt"),
                                                (30, 60_000, "csv")]):
        path = work / f"user{u}.{fmt}"
        (gen.write_csv if fmt == "csv" else gen.write_plt)(
            gen.make_trace(4242, u, places, samples), path)
        assert cli_main(["build", "--traces", str(path), "--out", str(work / f"user{u}")]) == 0
        mdp = load_mdp(work / f"user{u}" / "mdp.json")
        cases.append((f"trace{u}", mdp, benchmark_spec(mdp)))
    return cases


def verify_exit_code(mdp, res, tmp_path):
    """Exit code of `verify` on the saved model and result; an unconstrained
    result is checked at epsilon 1, where only its self-consistency can fail."""
    save_mdp(mdp, tmp_path / "mdp.json")
    save_result(res, tmp_path / "result.json")
    budget = ["--epsilon", "1", "--secret", "0"] if res.epsilon is None else []
    return cli_main(["verify", "--model", str(tmp_path / "mdp.json"), *budget,
                     "--result", str(tmp_path / "result.json"), "--out", str(tmp_path)])


class TestColumnGeneration:
    """Models whose moves ignore the action: the eps_private LP is solved by
    column generation and the unconstrained one in closed form; the full LP
    with one certificate row per state is the reference."""

    def test_eps_private_costs_match_the_full_lp(self, action_independent_cases, tmp_path):
        statuses = Counter()
        for name, mdp, spec in action_independent_cases:
            full = solve_lp(full_eps_private_lp(mdp, spec))
            statuses[full.status] += 1
            if full.status == "infeasible":
                with pytest.raises(InfeasibleSynthesisError):
                    synthesize_eps_private(mdp, spec)
                continue
            res = synthesize_eps_private(mdp, spec)
            assert res.average_cost == pytest.approx(full.objective, rel=1e-12, abs=0.0), name
            assert res.diagnostics["solver"] == "column_generation"
            assert res.diagnostics["columns"] <= res.diagnostics["master_rounds"] + 2
            assert verify_exit_code(mdp, res, tmp_path) == 0, name
        # campus is infeasible below 0.17 on the grid
        assert statuses == {"optimal": len(action_independent_cases) - 4, "infeasible": 4}

    def test_closed_form_unconstrained_matches_the_lp(self, action_independent_cases,
                                                       tmp_path):
        models = {name.split("_")[0] if name.startswith("campus") else name: mdp
                  for name, mdp, _ in action_independent_cases}
        for name, mdp in models.items():
            a_eq, b_eq = _base_constraints(mdp, 0)
            lp = solve_lp(LinearProgram(mdp.utility[mdp.pair_index()], a_eq=a_eq, b_eq=b_eq))
            res = synthesize_unconstrained(mdp)
            assert res.average_cost == pytest.approx(lp.objective, rel=1e-12, abs=0.0), name
            assert res.diagnostics == {"unichain": "unichain", "solver": "closed_form"}
            assert verify_exit_code(mdp, res, tmp_path) == 0, name

    def test_closed_form_takes_the_lowest_cheapest_action(self):
        # every action costs the same at state 0, and actions 1 and 2 at state 1
        t = np.stack([random_chain(np.random.default_rng(5), 3)] * 3)
        utility = np.array([[2.0, 2.0, 2.0], [3.0, 1.0, 1.0], [1.0, 0.5, 4.0]])
        mdp = make_mdp(t, utility, ((0, 1, 2),) * 3, np.full(3, 1.0 / 3.0))
        res = synthesize_unconstrained(mdp)
        assert [int(np.argmax(row)) for row in res.policy] == [0, 1, 1]
        assert np.count_nonzero(res.theta) == 3

    def test_infeasible_campus_budget_keeps_the_full_elastic_diagnosis(self, campus):
        spec = PrivacySpec(CAMPUS_SECRET, 0.08)
        with pytest.raises(InfeasibleSynthesisError) as exc:
            synthesize_eps_private(campus, spec)
        diag = exc.value.diagnosis
        full = elastic_violations(full_eps_private_lp(campus, spec))
        assert diag["elastic_status"] == "optimal"
        assert diag["violations"][diag["worst_row"]] == diag["worst_violation"]
        np.testing.assert_allclose(diag["violations"], full, rtol=0.0, atol=1e-9)

    def test_action_dependent_models_keep_the_simplex(self, campus):
        mdp = action_dependent(campus)
        spec = PrivacySpec(CAMPUS_SECRET, 0.2)
        private, free = synthesize_eps_private(mdp, spec), synthesize_unconstrained(mdp)
        assert private.diagnostics["solver"] == free.diagnostics["solver"] == "simplex"
        assert "master_rounds" not in private.diagnostics
        full = solve_lp(full_eps_private_lp(mdp, spec))
        assert private.average_cost == pytest.approx(full.objective, rel=1e-12, abs=0.0)
        assert private.average_cost == pytest.approx(
            synthesize_eps_private(campus, spec).average_cost, rel=1e-9)
