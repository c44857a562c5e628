import json

import numpy as np
import pytest

from lppm.cli import main
from lppm.metrics import PrivacySpec
from lppm.mobility import ClusterParams, build_model_from_traces
from lppm import serialize
from lppm.serialize import (dumps_canonical, load_mdp, load_result, mdp_from_dict,
                            mdp_to_dict, result_to_dict, save_mdp, save_result)
from lppm.synthesis import (synthesize_asymptotic, synthesize_eps_private,
                            synthesize_unconstrained)
from support import loop_nested, random_dense_mdp, recursive_dumps_canonical, save_mdp_v1


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
        [float("nan"), float("inf")], [[0.5], [1.0, float("inf")]]])
    def test_first_non_finite_value_raises_the_reference_error(self, values):
        with pytest.raises(ValueError) as want:
            recursive_dumps_canonical(values)
        with pytest.raises(ValueError) as got:
            dumps_canonical(values)
        assert str(got.value) == str(want.value)

    def test_model_and_result_documents(self, campus, rng, monkeypatch):
        models = [campus, random_dense_mdp(rng)]
        results = [synthesize_unconstrained(campus),
                   synthesize_eps_private(campus, PrivacySpec((3,), 0.17))]
        fast = ([dumps_canonical(mdp_to_dict(m)) for m in models]
                + [dumps_canonical(result_to_dict(r)) for r in results])
        monkeypatch.setattr(serialize, "_nested", loop_nested)
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

    def test_dict_form_lists_only(self, campus):
        doc = mdp_to_dict(campus)
        assert doc["schema"] == 2
        assert doc["n_states"] == 6
        assert isinstance(doc["rows"], list)
        rebuilt = mdp_from_dict(json.loads(dumps_canonical(doc)))
        np.testing.assert_array_equal(rebuilt.transition, campus.transition)

    def test_rows_are_the_available_pairs(self, campus):
        doc = mdp_to_dict(campus)
        assert "transition" not in doc
        states, actions = campus.pair_index()
        assert doc["rows"] == campus.transition[actions, states].tolist()

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

    def test_resaves_as_version_two(self, model_case, tmp_path):
        mdp = model_case[0]
        save_mdp_v1(mdp, tmp_path / "v1.json")
        save_mdp(load_mdp(tmp_path / "v1.json"), tmp_path / "resaved.json")
        save_mdp(mdp, tmp_path / "v2.json")
        assert (tmp_path / "resaved.json").read_bytes() == (tmp_path / "v2.json").read_bytes()

    def test_eps_private_result_byte_identical(self, model_case, tmp_path, capsys):
        mdp, secret, epsilon = model_case
        save_mdp_v1(mdp, tmp_path / "v1.json")
        save_mdp(mdp, tmp_path / "v2.json")
        printed = []
        for version in ("v1", "v2"):
            rc = main(["synthesize", "--model", str(tmp_path / f"{version}.json"),
                       "--mode", "eps_private", "--secret", str(secret),
                       "--epsilon", str(epsilon), "--out", str(tmp_path / version)])
            assert rc == 0
            printed.append(capsys.readouterr().out.splitlines()[0])
        assert printed[0] == printed[1]
        assert ((tmp_path / "v1" / "result.json").read_bytes()
                == (tmp_path / "v2" / "result.json").read_bytes())


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
        res = synthesize_asymptotic(campus, PrivacySpec((3,), 0.16),
                                    n_starts=4)
        back = self.check(res, tmp_path)
        assert back.b_inf is not None
        np.testing.assert_array_equal(back.b_inf, res.b_inf)
        assert back.diagnostics["residual"] == res.diagnostics["residual"]
