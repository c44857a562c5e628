import shutil

from test_mobility import ROOT, load_module


def compare_builds():
    return load_module("compare_builds", ROOT / "scripts" / "compare_builds.py")


class TestCompareBuilds:
    """scripts/compare_builds.py on the bundled-trace runs only (no seeds)."""

    def test_tree_against_itself_is_identical(self, capsys):
        assert compare_builds().main([str(ROOT), str(ROOT), "--seeds"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("byte-identical") and err == "4 runs compared\n"

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
        assert "bundled: mdp.json differs" in lines and "bundled: stdout differs" in lines
        assert all(line.endswith(" differs") for line in lines)
