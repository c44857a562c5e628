import json

import numpy as np
import pytest

from lppm.cli import main
from lppm.metrics import PrivacySpec
from lppm.mobility import ClusterParams, build_model_from_traces
from lppm.serialize import (dumps_canonical, load_mdp, load_result, mdp_from_dict,
                            mdp_to_dict, result_from_dict, result_to_dict, save_mdp,
                            save_result)
from lppm.synthesis import (SynthesisResult, synthesize_asymptotic, synthesize_eps_private,
                            synthesize_unconstrained)
from support import (mdp_to_dict_v1, mdp_to_dict_v2, random_dense_mdp,
                     recursive_dumps_canonical, result_to_dict_v1, save_mdp_v1, save_mdp_v2)
from test_mdp import ORACLE_MODELS
from test_mobility import ROOT, load_module


class TestDumpsCanonical:
    def test_key_order_is_insertion_order(self):
        s = dumps_canonical({"b": 1, "a": 2})
        assert s.index('"b"') < s.index('"a"')

    def test_repeat_calls_byte_identical(self):
        doc = {"x": [1 / 3, 2.0 ** -45], "y": {"z": [0.1, 0.2]}}
        assert dumps_canonical(doc) == dumps_canonical(doc)

    def test_negative_zero_normalized(self):
        assert dumps_canonical({"v": -0.0}) == dumps_canonical({"v": 0.0})
        assert "-0" not in dumps_canonical({"v": -0.0})

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            dumps_canonical({"v": float("inf")})
        with pytest.raises(ValueError):
            dumps_canonical({"v": float("nan")})

    def test_floats_round_trip_exactly(self):
        vals = [1 / 3, 1e-300, 123456.789, 2.0 ** -45]
        doc = json.loads(dumps_canonical({"v": vals}))
        assert doc["v"] == vals

    def test_valid_json(self):
        doc = {"a": [1, 2.5], "b": None, "c": "text", "d": True}
        assert json.loads(dumps_canonical(doc)) == doc


class TestFloatListFastPath:
    """dumps_canonical writes the text of the per-value reference on every input."""

    @pytest.mark.parametrize("doc", [
        [], [[]], [[], [1.5]], [0.0, -0.0, 1.0, -1.0], [-0.0],
        [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1 / 3, 1e22, 1e-7],
        [1.0, 2, 3.5], [True, 0.5, False], [np.float64(-0.0), 0.25], [0.5, np.float64(0.1)],
        [np.int64(7), 0.5], [0.5, None, "x"], (0.25, -0.0), {"a": [[0.1, -0.0], [2.0]], "b": []},
        [[0.1, 0.2], [0.3, [0.4, -0.0]]],
        # lists of 1-D arrays, whose values are formatted in one call
        [np.array([0.1, -0.0]), np.array([]), np.array([2.5, 1e22, 5e-324])],
        [np.array([3, 0, 7]), np.array([], dtype=np.int64), np.array([2 ** 60])],
        [np.array([]), np.array([])], [np.array([1, 2]), np.array([0.5])],
        {"a": [np.array([0.25]), np.array([1 / 3, 2.0])], "b": [np.array([1.0]), 0.5]},
    ])
    def test_same_text_as_reference(self, doc):
        assert dumps_canonical(doc) == recursive_dumps_canonical(doc)

    def test_random_doubles(self, rng):
        bits = rng.integers(0, 2 ** 63, size=5000, dtype=np.int64)
        values = [float(v) for v in bits.view(np.float64) if np.isfinite(v)]
        values += [-v for v in values[:100]]
        assert dumps_canonical(values) == recursive_dumps_canonical(values)

    @pytest.mark.parametrize("values", [
        [float("inf")], [1.0, float("nan")], [0.5, -float("inf"), float("nan")],
        [float("nan"), float("inf")], [[0.5], [1.0, float("inf")]],
        [np.array([0.5]), np.array([1.0, -np.inf, np.nan])]])
    def test_first_non_finite_value_raises_the_reference_error(self, values):
        with pytest.raises(ValueError) as want:
            recursive_dumps_canonical(values)
        with pytest.raises(ValueError) as got:
            dumps_canonical(values)
        assert str(got.value) == str(want.value)

    def test_model_and_result_documents(self, campus, rng):
        models = [campus, random_dense_mdp(rng)]
        results = [synthesize_unconstrained(campus),
                   synthesize_eps_private(campus, PrivacySpec((3,), 0.17))]
        fast = ([dumps_canonical(mdp_to_dict(m)) for m in models]
                + [dumps_canonical(result_to_dict(r)) for r in results])
        want = ([recursive_dumps_canonical(mdp_to_dict(m)) for m in models]
                + [recursive_dumps_canonical(result_to_dict(r)) for r in results])
        assert fast == want

class TestMdpRoundTrip:
    def test_campus_bytes_stable(self, campus, tmp_path):
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_mdp(campus, p1)
        save_mdp(load_mdp(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_arrays_exact(self, campus, tmp_path):
        path = tmp_path / "m.json"
        save_mdp(campus, path)
        back = load_mdp(path)
        np.testing.assert_array_equal(back.transition, campus.transition)
        np.testing.assert_array_equal(back.utility, campus.utility)
        np.testing.assert_array_equal(back.p0, campus.p0)
        assert back.available == campus.available

    def test_meta_preserved(self, campus, tmp_path):
        path = tmp_path / "m.json"
        save_mdp(campus, path)
        back = load_mdp(path)
        assert back.state_meta is not None
        assert [m.label for m in back.state_meta] == \
            [m.label for m in campus.state_meta]
        assert back.state_meta[0].lat == campus.state_meta[0].lat
        assert back.action_meta[2].radius_m == campus.action_meta[2].radius_m

    def test_metaless_round_trip(self, rng, tmp_path):
        mdp = random_dense_mdp(rng)
        path = tmp_path / "m.json"
        save_mdp(mdp, path)
        back = load_mdp(path)
        assert back.state_meta is None
        assert back.action_meta is None
        np.testing.assert_array_equal(back.transition, mdp.transition)

    def test_dict_form_holds_float_arrays(self, campus):
        doc = mdp_to_dict(campus)
        assert doc["schema"] == 3
        assert doc["n_states"] == 6
        assert all(row.dtype == np.float64 for row in doc["probabilities"])
        assert all(row.dtype.kind == "i" for row in doc["successors"])
        assert doc["utility"].dtype == np.float64 and doc["p0"].dtype == np.float64
        rebuilt = mdp_from_dict(json.loads(dumps_canonical(doc)))
        np.testing.assert_array_equal(rebuilt.transition, campus.transition)
        old = mdp_from_dict(json.loads(dumps_canonical(mdp_to_dict_v2(campus))))
        np.testing.assert_array_equal(old.transition, campus.transition)

    def test_rows_are_the_available_pairs(self, campus):
        doc = mdp_to_dict(campus)
        assert "transition" not in doc and "rows" not in doc
        states, actions = campus.pair_index()
        rows = campus.transition[actions, states]
        assert [list(row) for row in doc["successors"]] == [
            np.flatnonzero(row).tolist() for row in rows]
        assert [row.tolist() for row in doc["probabilities"]] == [
            row[row != 0].tolist() for row in rows]
        assert doc["utility"].tolist() == campus.utility[states, actions].tolist()
        assert doc["sentinel"] == campus.utility[0, 3] == 1e3 * doc["utility"].max()

    def test_unsorted_available_reads_rows_in_pair_order(self, rng):
        mdp = random_dense_mdp(rng)
        doc = json.loads(dumps_canonical(mdp_to_dict(mdp)))
        doc["available"] = [acts[::-1] for acts in doc["available"]]
        assert mdp_from_dict(doc).transition.tobytes() == mdp.transition.tobytes()


@pytest.fixture(params=["campus", "random_dense", "trace"])
def model_case(request, campus, tmp_path):
    """(model, secret, epsilon) at a budget where the eps_private LP is feasible."""
    if request.param == "campus":
        return campus, 3, 0.2
    if request.param == "random_dense":
        return random_dense_mdp(np.random.default_rng(42)), 2, 0.38
    from test_mobility import commute_csv
    trace = tmp_path / "commute.csv"
    commute_csv(trace, [(x, 0.0) for x in (0, 700, 1400, 700, 0, 1400, 2100, 700, 0, 2100, 0)])
    return build_model_from_traces(trace, ClusterParams())[0], 1, 0.3


class TestVersionOneFiles:
    """Files with the dense `transition` tensor and no schema key still load."""

    def test_loads_bit_identical(self, model_case, tmp_path):
        mdp = model_case[0]
        save_mdp_v1(mdp, tmp_path / "v1.json")
        back = load_mdp(tmp_path / "v1.json")
        assert back.transition.tobytes() == mdp.transition.tobytes()
        assert back.utility.tobytes() == mdp.utility.tobytes()
        assert back.p0.tobytes() == mdp.p0.tobytes()
        assert back.available == mdp.available

    def test_resaves_in_the_current_schema(self, model_case, tmp_path):
        mdp = model_case[0]
        save_mdp_v1(mdp, tmp_path / "v1.json")
        save_mdp(load_mdp(tmp_path / "v1.json"), tmp_path / "resaved.json")
        save_mdp(mdp, tmp_path / "v3.json")
        assert (tmp_path / "resaved.json").read_bytes() == (tmp_path / "v3.json").read_bytes()

    def test_eps_private_result_byte_identical(self, model_case, tmp_path, capsys):
        """The same model in a file of each schema gives the same result, byte for byte."""
        mdp, secret, epsilon = model_case
        save_mdp_v1(mdp, tmp_path / "v1.json")
        save_mdp_v2(mdp, tmp_path / "v2.json")
        save_mdp(mdp, tmp_path / "v3.json")
        printed, written = [], []
        for version in ("v1", "v2", "v3"):
            rc = main(["synthesize", "--model", str(tmp_path / f"{version}.json"),
                       "--mode", "eps_private", "--secret", str(secret),
                       "--epsilon", str(epsilon), "--out", str(tmp_path / version)])
            assert rc == 0
            printed.append(capsys.readouterr().out.splitlines()[0])
            written.append((tmp_path / version / "result.json").read_bytes())
        assert printed[0] == printed[1] == printed[2]
        assert written[0] == written[1] == written[2]


def generated_model(n):
    """perfbench's mobility-like model with n states and n actions."""
    return load_module("perfbench_gen", ROOT / "perfbench" / "gen.py").make_model(501, 0, n)


SCHEMA_MODELS = {**ORACLE_MODELS, "generated_120": lambda rng: generated_model(120)}
WRITERS = {1: mdp_to_dict_v1, 2: mdp_to_dict_v2, 3: mdp_to_dict}


class TestEverySchema:
    """A model written in any schema loads to the model that was written, bit for bit."""

    @staticmethod
    def assert_same_model(back, mdp):
        assert back.rows.tobytes() == mdp.rows.tobytes()
        assert back.utility.tobytes() == mdp.utility.tobytes()
        assert back.p0.tobytes() == mdp.p0.tobytes()
        assert back.available == mdp.available
        assert back.state_meta == mdp.state_meta and back.action_meta == mdp.action_meta

    @pytest.mark.parametrize("schema", WRITERS)
    @pytest.mark.parametrize("name", SCHEMA_MODELS)
    def test_loads_bit_identical(self, rng, tmp_path, name, schema):
        mdp = SCHEMA_MODELS[name](rng)
        path = tmp_path / "mdp.json"
        path.write_text(dumps_canonical(WRITERS[schema](mdp)) + "\n")
        self.assert_same_model(load_mdp(path), mdp)

    @pytest.mark.parametrize("name", SCHEMA_MODELS)
    def test_save_load_save_byte_identical(self, rng, tmp_path, name):
        mdp = SCHEMA_MODELS[name](rng)
        save_mdp(mdp, tmp_path / "m1.json")
        save_mdp(load_mdp(tmp_path / "m1.json"), tmp_path / "m2.json")
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    def test_stores_only_the_nonzero_entries(self):
        mdp = generated_model(120)
        doc = mdp_to_dict(mdp)
        assert sum(map(len, doc["successors"])) == np.count_nonzero(mdp.rows)
        assert len(doc["utility"]) == len(mdp.rows) == 360
        text, old = dumps_canonical(doc), dumps_canonical(mdp_to_dict_v2(mdp))
        assert len(text) < len(old) / 4


class TestResultRoundTrip:
    def check(self, res, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        save_result(res, p1)
        back = load_result(p1)
        save_result(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        return back

    def test_unconstrained_none_fields(self, campus, tmp_path):
        res = synthesize_unconstrained(campus)
        back = self.check(res, tmp_path)
        assert back.mode == "unconstrained"
        assert back.epsilon is None
        assert back.secret_states is None
        assert back.certificate is None
        assert back.b_inf is None
        np.testing.assert_array_equal(back.theta, res.theta)
        assert back.average_cost == res.average_cost

    def test_eps_private_certificate_survives(self, campus, tmp_path):
        res = synthesize_eps_private(campus, PrivacySpec((3,), 0.17))
        back = self.check(res, tmp_path)
        assert back.epsilon == 0.17
        assert back.secret_states == (3,)
        assert back.certificate is not None
        assert back.certificate.z == res.certificate.z
        np.testing.assert_array_equal(back.certificate.beta,
                                      res.certificate.beta)

    def test_asymptotic_limit_belief_survives(self, campus, tmp_path):
        res = synthesize_asymptotic(campus, PrivacySpec((3,), 0.16))
        back = self.check(res, tmp_path)
        assert back.b_inf is not None
        np.testing.assert_array_equal(back.b_inf, res.b_inf)
        assert back.diagnostics["residual"] == res.diagnostics["residual"]


def synthesize(mode, mdp, secret, epsilon):
    if mode == "unconstrained":
        return synthesize_unconstrained(mdp)
    spec = PrivacySpec((secret,), epsilon)
    return (synthesize_eps_private if mode == "eps_private" else synthesize_asymptotic)(mdp, spec)


def assert_same_result(back, res):
    """Every field of `back` holds the bits of `res`'s."""
    for key in ("theta", "policy", "p_inf", "b_inf"):
        want = getattr(res, key)
        got = getattr(back, key)
        assert (got is None and want is None) or (
            got.shape == want.shape and got.tobytes() == want.tobytes()), key
    assert (back.mode, back.epsilon, back.secret_states, back.diagnostics) == \
        (res.mode, res.epsilon, res.secret_states, res.diagnostics)
    assert repr(back.average_cost) == repr(res.average_cost)
    if res.certificate is None:
        assert back.certificate is None
    else:
        assert repr((back.certificate.z, back.certificate.margin)) == \
            repr((res.certificate.z, res.certificate.margin))
        assert back.certificate.beta.tobytes() == res.certificate.beta.tobytes()


# asymptotic mode takes models whose moves ignore the action, so not random_dense
RESULT_CASES = [(model, mode) for model in ("campus", "random_dense", "trace")
                for mode in ("unconstrained", "eps_private", "asymptotic")
                if (model, mode) != ("random_dense", "asymptotic")]


class TestResultSchemas:
    """Result schema 2 stores theta and the policy per state at their nonzero
    actions; schema 1, the dense form, still loads."""

    def test_dict_form_holds_the_supported_pairs(self, campus):
        res = synthesize_eps_private(campus, PrivacySpec((3,), 0.2))
        doc = result_to_dict(res)
        assert list(doc) == ["schema", "mode", "epsilon", "secret_states", "average_cost",
                             "n_actions", "actions", "theta", "policy", "p_inf", "b_inf",
                             "certificate", "diagnostics"]
        assert (doc["schema"], doc["n_actions"]) == (2, 6)
        assert [row.tolist() for row in doc["actions"]] == [
            np.flatnonzero(row).tolist() for row in res.theta + res.policy]
        for key in ("theta", "policy"):
            dense = getattr(res, key)
            assert [row.tolist() for row in doc[key]] == [
                dense[s, acts].tolist() for s, acts in enumerate(doc["actions"])]
        assert [key for key in result_to_dict_v1(res) if key not in doc] == []

    @pytest.mark.parametrize("model_case,mode", RESULT_CASES, indirect=["model_case"])
    def test_either_schema_loads_bit_identical(self, model_case, mode):
        res = synthesize(mode, *model_case)
        for doc in (result_to_dict(res), result_to_dict_v1(res)):
            assert_same_result(result_from_dict(json.loads(dumps_canonical(doc))), res)

    @pytest.mark.parametrize("model_case,mode", RESULT_CASES, indirect=["model_case"])
    def test_save_load_save_byte_identical(self, model_case, mode, tmp_path):
        save_result(synthesize(mode, *model_case), tmp_path / "r1.json")
        save_result(load_result(tmp_path / "r1.json"), tmp_path / "r2.json")
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_schema_one_file_resaves_in_schema_two(self, campus, tmp_path):
        res = synthesize_asymptotic(campus, PrivacySpec((3,), 0.16))
        (tmp_path / "v1.json").write_text(dumps_canonical(result_to_dict_v1(res)) + "\n")
        save_result(load_result(tmp_path / "v1.json"), tmp_path / "resaved.json")
        save_result(res, tmp_path / "v2.json")
        assert (tmp_path / "resaved.json").read_bytes() == (tmp_path / "v2.json").read_bytes()

    def test_policy_without_theta_and_signed_zeros(self):
        """A state without mass keeps its uniform policy row; -0.0 in theta
        is not stored and reads back as 0.0, as the dense form writes it."""
        theta = np.array([[0.25, 0.75, 0.0], [0.0, -0.0, 0.0]])
        policy = np.array([[0.25, 0.75, 0.0], [0.5, 0.0, 0.5]])
        res = SynthesisResult("unconstrained", theta, policy, np.array([1.0, 0.0]), 0.5)
        doc = result_to_dict(res)
        assert [row.tolist() for row in doc["actions"]] == [[0, 1], [0, 2]]
        assert [row.tolist() for row in doc["theta"]] == [[0.25, 0.75], [0.0, 0.0]]
        for doc in (doc, result_to_dict_v1(res)):
            back = result_from_dict(json.loads(dumps_canonical(doc)))
            assert back.theta.tobytes() == (theta + 0.0).tobytes()
            assert back.policy.tobytes() == policy.tobytes()

    def test_generated_120_file_is_small(self, tmp_path):
        mdp = generated_model(120)
        checks = load_module("perfbench_checks", ROOT / "perfbench" / "checks.py")
        pi = checks.stationary(checks.user_chain(mdp))  # synth_large's secret and budget
        top = [int(s) for s in np.argsort(-pi, kind="stable")[:5]]
        secret, epsilon = checks.private_spec(mdp, top)
        res = synthesize_eps_private(mdp, PrivacySpec((secret,), epsilon))
        save_result(res, tmp_path / "r.json")
        dense = dumps_canonical(result_to_dict_v1(res)) + "\n"
        size = (tmp_path / "r.json").stat().st_size
        assert size <= 15_000 and size < len(dense) / 7
        assert_same_result(load_result(tmp_path / "r.json"), res)
