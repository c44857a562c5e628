import json
import shutil

import numpy as np

from lppm.mdp import Mdp
from lppm.serialize import dumps_canonical, mdp_to_dict
from support import mdp_to_dict_v2
from test_mobility import ROOT, load_module


def compare_builds():
    return load_module("compare_builds", ROOT / "scripts" / "compare_builds.py")


class TestCompareBuilds:
    """scripts/compare_builds.py on the bundled-trace runs only (no seeds)."""

    def test_tree_against_itself_is_identical(self, capsys):
        assert compare_builds().main([str(ROOT), str(ROOT), "--seeds"]) == 0
        out, err = capsys.readouterr()
        # 4 builds, then 6 chain commands on each of the 4 built models, campus and
        # the action-dependent model, 3 more for campus's asymptotic mode, campus's
        # unsafe-prior simulate, and baselines on campus and the action-dependent model
        assert out.startswith("byte-identical") and err == "46 runs compared\n"

    def test_changed_cover_tolerance_differs(self, tmp_path, capsys):
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        mobility = tmp_path / "src" / "lppm" / "mobility.py"
        text = mobility.read_text()
        assert "\nCOVER_TOL_M = 1e-6\n" in text
        # 10 km: the stationary samples at the cafe, 3 km from home, join home's visits
        mobility.write_text(text.replace("\nCOVER_TOL_M = 1e-6\n", "\nCOVER_TOL_M = 1e4\n"))
        assert compare_builds().main([str(ROOT), str(tmp_path), "--seeds"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "bundled: stdout differs" in lines
        assert any(line.startswith("bundled: mdp.json differs") for line in lines)
        assert all(line.endswith(" differs") or " differs (largest relative difference " in line
                   for line in lines)
        assert not any(line.startswith("campus ") for line in lines)


class TestLargestRelativeDifference:
    def test_one_ulp_in_a_json_file(self):
        x = 0.30000000000000004
        a = json.dumps({"theta": [[x, 1.0]], "mode": "eps_private"}).encode()
        b = json.dumps({"theta": [[np.nextafter(x, 1.0), 1.0]], "mode": "eps_private"}).encode()
        script = compare_builds()
        diff = script.number_difference("result.json", a, b)
        gap = np.nextafter(x, 1.0) - x
        assert diff == {"relative": (gap / np.nextafter(x, 1.0), ".theta[0][0]"),
                        "absolute": (gap, ".theta[0][0]"), "only": []}
        assert 0.0 < diff["relative"][0] < 2.3e-16
        lines = script._differences("campus synthesize_eps_private",
                                    [{"result.json": a}, {"result.json": b}])
        assert lines == (["campus synthesize_eps_private: result.json differs (largest relative "
                          f"difference {diff['relative'][0]:.3g} at .theta[0][0]; largest "
                          f"absolute difference {gap:.3g} at .theta[0][0])"], [])

    def test_one_ulp_in_a_csv_file(self):
        # belief.csv's last secret_mass one ulp lower
        a = b"t,b1,secret_mass\n0,0.25,0.5\n1,0.125,0.75\n"
        b = f"t,b1,secret_mass\n0,0.25,0.5\n1,0.125,{float(np.nextafter(0.75, 0.0))!r}\n".encode()
        gap = 0.75 - np.nextafter(0.75, 0.0)
        assert compare_builds().number_difference("belief.csv", a, b) == {
            "relative": (gap / 0.75, "row 2 column 2"), "absolute": (gap, "row 2 column 2"),
            "only": []}

    def test_a_key_on_one_side(self):
        a = b'{"diagnostics": {"lp_iterations": 25}, "theta": [0.5, 0.25]}'
        b = b'{"diagnostics": {"certificate_rows": 5, "lp_iterations": 24}, "theta": [0.5, 0.25]}'
        script = compare_builds()
        assert script._differences("x", [{"result.json": a}, {"result.json": b}]) == ([
            "x: result.json differs (largest relative difference 0.04 at "
            ".diagnostics.lp_iterations; largest absolute difference 1 at "
            ".diagnostics.lp_iterations; on one side only: .diagnostics.certificate_rows)"], [])

    def test_no_number_difference_for_other_changes(self):
        script = compare_builds()
        a = b'{"mode": "eps_private", "theta": [1.0]}'
        assert script.number_difference("result.json", a, a) == \
            {"relative": (0.0, None), "absolute": (0.0, None), "only": []}
        other = b'{"mode": "asymptotic", "theta": [1.0]}'
        assert script.number_difference("result.json", a, other) is None
        assert script.number_difference("result.json", a, b'[1.0') is None
        assert script.number_difference("stdout", b"1.0", b"2.0") is None
        assert script.number_difference("a.csv", b"x,1\n", b"y,1\n") is None


class TestModelFiles:
    """Two model files that differ in bytes are compared by the models they hold."""

    @staticmethod
    def texts(mdp):
        """The model's schema-2 and schema-3 file text."""
        return [dumps_canonical(mdp_to_dict_v2(mdp)).encode(),
                dumps_canonical(mdp_to_dict(mdp)).encode()]

    def test_same_model_in_another_schema(self, campus):
        old, new = self.texts(campus)
        assert old != new
        assert compare_builds()._differences("bundled", [{"mdp.json": old}, {"mdp.json": new}]) \
            == ([], ["bundled: mdp.json holds the same model bit for bit in other bytes"])

    def test_one_ulp_in_a_row_of_another_schema(self, campus):
        moved = campus.rows.copy()
        moved[2, 1] = np.nextafter(0.25, 1.0)  # the row still sums to one within 1e-12
        other = Mdp(moved, campus.available, campus.utility, campus.p0,
                    campus.state_meta, campus.action_meta)
        gap = np.nextafter(0.25, 1.0) - 0.25
        assert compare_builds()._differences(
            "bundled", [{"mdp.json": self.texts(campus)[0]}, {"mdp.json": self.texts(other)[1]}]) \
            == ([f"bundled: mdp.json differs (largest relative difference "
                 f"{gap / np.nextafter(0.25, 1.0):.3g} at .rows[2][1]; largest absolute "
                 f"difference {gap:.3g} at .rows[2][1])"], [])

    def test_a_file_that_does_not_load_is_compared_by_its_text(self):
        lines, same = compare_builds()._differences(
            "bundled", [{"mdp.json": b'{"p0": [0.5]}'}, {"mdp.json": b'{"p0": [0.25]}'}])
        assert same == [] and lines == [
            "bundled: mdp.json differs (largest relative difference 0.5 at .p0[0]; "
            "largest absolute difference 0.25 at .p0[0])"]
