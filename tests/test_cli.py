import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import darbouxkdv
from darbouxkdv.cli import _table_text, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPotentialCommand:
    def test_deformed_spot_value(self, capsys):
        code, out, _ = run(capsys, "potential", "--h", "1", "--seeds", "2",
                           "--xmin", "0", "--xmax", "0", "--n", "1")
        assert code == 0
        assert out == "x,u\n0,-30\n"

    def test_base_spot_value(self, capsys):
        code, out, _ = run(capsys, "potential", "--h", "1",
                           "--xmin", "0", "--xmax", "0", "--n", "1")
        assert code == 0
        assert out == "x,u\n0,-2\n"

    def test_h2_spot_value(self, capsys):
        code, out, _ = run(capsys, "potential", "--h", "2", "--seeds", "2",
                           "--xmin", "0", "--xmax", "0", "--n", "1")
        assert code == 0
        assert out == "x,u\n0,-44\n"

    def test_grid_rows(self, capsys):
        code, out, _ = run(capsys, "potential", "--h", "1", "--seeds", "2",
                           "--xmin", "-1", "--xmax", "1", "--n", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,u"
        assert len(lines) == 6

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "potential", "--h", "1", "--seeds", "2",
                           "--xmin", "0", "--xmax", "1", "--n", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["x"] == [0.0, 0.5, 1.0]
        assert doc["u"][0] == -30.0

    def test_determinism(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert main(["potential", "--h", "1.5", "--seeds", "2", "--xmin", "-5",
                         "--xmax", "5", "--n", "101", "--output", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_odd_seed_exit_code(self, capsys):
        code, _, err = run(capsys, "potential", "--h", "1", "--seeds", "3",
                           "--xmin", "0", "--xmax", "0", "--n", "1")
        assert code == 2
        assert "even" in err

    def test_nodal_multi_index_exit_code(self, capsys):
        code, _, err = run(capsys, "potential", "--h", "1", "--seeds", "2,4",
                           "--xmin", "0", "--xmax", "1", "--n", "2")
        assert code == 2
        assert "singular" in err

    def test_deep_single_seed_module_entry_point(self):
        # v = 36 is nodeless; U_D(0) = h(h+1) - 2 (h+1+v)^2 = -2886
        src = os.path.dirname(os.path.dirname(darbouxkdv.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "darbouxkdv.cli", "potential", "--h", "1", "--seeds", "36",
             "--xmin", "-1", "--xmax", "1", "--n", "3"],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[2] == "0,-2886"

    def test_coefficient_overflow_exit_code(self, capsys):
        code, out, err = run(capsys, "potential", "--h", "1000", "--seeds", "600",
                             "--xmin", "-1", "--xmax", "1", "--n", "3")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "overflow" in err

    def test_bad_grid_exit_code(self, capsys):
        code, _, _ = run(capsys, "potential", "--h", "1", "--xmin", "1",
                         "--xmax", "0", "--n", "5")
        assert code == 2


class TestSpectrumCommand:
    def test_reference_levels(self, capsys, tmp_path):
        out_path = tmp_path / "spec.json"
        code, _, _ = run(capsys, "spectrum", "--h", "1", "--seeds", "2",
                         "--output", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["h"] == 1.0
        assert doc["seeds"] == [2]
        energies = [lvl["energy"] for lvl in doc["levels"]]
        assert energies == [-16.0, -1.0]
        cs = [lvl["norming_constant"] for lvl in doc["levels"]]
        assert cs[0] == pytest.approx(math.sqrt(40.0 / 3.0), abs=1e-6)
        assert cs[1] == pytest.approx(math.sqrt(10.0 / 3.0), abs=1e-6)
        assert all(lvl["energy_defect"] <= 1e-5 for lvl in doc["levels"])

    def test_single_base_level(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--h", "1")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["levels"]) == 1
        assert doc["levels"][0]["energy"] == -1.0

    def test_oracle_mismatch_exit_code(self, capsys):
        code, _, err = run(capsys, "spectrum", "--h", "1", "--seeds", "2",
                           "--tol-energy", "1e-12")
        assert code == 3
        assert "divergence" in err

    def test_unresolvable_level_exit_code(self, capsys):
        # kappa = 9 decays below the oracle's noise floor: the oracle cannot judge
        code, _, err = run(capsys, "spectrum", "--h", "6", "--seeds", "2")
        assert code == 4
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestScatteringCommand:
    def test_single_k_row(self, capsys):
        code, out, _ = run(capsys, "scattering", "--h", "1", "--seeds", "2", "--k", "1")
        assert code == 0
        header, row = out.strip().split("\n")
        cols = dict(zip(header.split(","), (float(v) for v in row.split(","))))
        assert cols["re_t"] == pytest.approx(-8.0 / 17.0, abs=1e-12)
        assert cols["im_t"] == pytest.approx(-15.0 / 17.0, abs=1e-12)
        assert cols["abs_t"] == pytest.approx(1.0, abs=1e-12)
        assert cols["abs_r"] == 0.0
        assert cols["unitarity_defect"] <= 1e-10

    def test_unitarity_column_on_grid(self, capsys):
        code, out, _ = run(capsys, "scattering", "--h", "1.5", "--seeds", "2",
                           "--kmin", "0.5", "--kmax", "4", "--nk", "8")
        assert code == 0
        lines = out.strip().split("\n")
        idx = lines[0].split(",").index("unitarity_defect")
        assert all(float(line.split(",")[idx]) <= 1e-10 for line in lines[1:])

    def test_oracle_columns(self, capsys):
        code, out, _ = run(capsys, "scattering", "--h", "1", "--seeds", "2",
                           "--k", "1", "--oracle")
        assert code == 0
        header, row = out.strip().split("\n")
        cols = dict(zip(header.split(","), (float(v) for v in row.split(","))))
        assert cols["re_t_oracle"] == pytest.approx(cols["re_t"], abs=1e-5)
        assert cols["im_t_oracle"] == pytest.approx(cols["im_t"], abs=1e-5)

    def test_nonpositive_grid_rejected(self, capsys):
        code, _, _ = run(capsys, "scattering", "--h", "1", "--kmin", "-1",
                         "--kmax", "2", "--nk", "4")
        assert code == 2


@pytest.mark.parametrize("argv", [
    ("scattering", "--h", "1", "--seeds", "2", "--k", "inf"),
    ("scattering", "--h", "1", "--seeds", "2", "--k", "nan", "--oracle"),
    ("scattering", "--h", "1", "--kmax", "inf"),
    ("spectrum", "--h", "1", "--grid-l", "inf"),
    ("spectrum", "--h", "1", "--tol-energy", "nan"),
    ("spectrum", "--h", "1", "--tol-norming", "inf"),
    ("spectrum", "--h", "1", "--tol-norming", "0"),
])
def test_non_finite_input_exit_code(capsys, argv):
    # a nan K or tolerance used to pass through as a nan row or a passed check
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_text_matches_per_cell_format(fmt):
    header = ("a", "b", "c")
    columns = ([-0.0, 1.0 / 3.0, 1e-300, 2.0], np.array([1e300, -2.5, math.pi, 0.1]),
               [3, -7, 1e16, 5e-324])
    cells = [[format(float(v), ".17g") for v in col] for col in columns]
    if fmt == "json":
        body = ",\n".join(f'  "{name}": [{", ".join(col)}]' for name, col in zip(header, cells))
        expected = "{\n" + body + "\n}\n"
    else:
        expected = "\n".join([",".join(header)] + [",".join(row) for row in zip(*cells)]) + "\n"
    assert _table_text(header, columns, fmt) == expected
    assert "-0," in expected  # the sign of -0.0 survives


class TestSolitonCommand:
    def test_explicit_one_soliton(self, capsys):
        code, out, _ = run(capsys, "soliton", "--kappas", "1", "--c0", "1.41421356237",
                           "--t", "0", "--x", "0")
        assert code == 0
        u = float(out.strip().split("\n")[1].split(",")[2])
        assert u == pytest.approx(-2.0, abs=1e-9)

    def test_from_spec_initial_profile(self, capsys):
        code, out, _ = run(capsys, "soliton", "--from-spec", "--h", "1", "--seeds", "2",
                           "--t", "0", "--x", "0")
        assert code == 0
        u = float(out.strip().split("\n")[1].split(",")[2])
        assert u == pytest.approx(-30.0, abs=1e-8)

    def test_from_spec_h2(self, capsys):
        code, out, _ = run(capsys, "soliton", "--from-spec", "--h", "2", "--seeds", "2",
                           "--t", "0", "--x", "0")
        assert code == 0
        u = float(out.strip().split("\n")[1].split(",")[2])
        assert u == pytest.approx(-44.0, abs=1e-8)

    def test_grid_shape(self, capsys):
        code, out, _ = run(capsys, "soliton", "--kappas", "1,4",
                           "--c0", "1.8257418583505536,3.6514837167011076",
                           "--tmin", "0", "--tmax", "0.1", "--nt", "3",
                           "--xmin", "-2", "--xmax", "2", "--n", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,x,u"
        assert len(lines) == 1 + 3 * 5

    def test_non_integer_h_exit_code(self, capsys):
        code, _, err = run(capsys, "soliton", "--from-spec", "--h", "1.5", "--seeds", "2",
                           "--t", "0", "--x", "0")
        assert code == 2
        assert "integer" in err

    def test_missing_data_exit_code(self, capsys):
        code, _, _ = run(capsys, "soliton", "--t", "0", "--x", "0")
        assert code == 2

    def test_stability_domain_exit_code(self, capsys):
        code, _, err = run(capsys, "soliton", "--kappas", "1,4", "--c0", "1,1",
                           "--t", "1e12", "--x", "0")
        assert code == 4
        assert "stability" in err
        # on a grid: every offender counted, the first ones listed t-major
        code, _, err = run(capsys, "soliton", "--kappas", "1,4", "--c0", "1,1",
                           "--tmin", "0", "--tmax", "1e12", "--nt", "3",
                           "--xmin", "-1", "--xmax", "1", "--n", "3")
        assert code == 4
        assert "6 grid point(s) outside the numeric stability domain" in err
        assert (
            "(-1, 500000000000), (0, 500000000000), (1, 500000000000), "
            "(-1, 1000000000000), (0, 1000000000000), (1, 1000000000000)\n"
        ) in err


class TestVerifyCommand:
    def test_glm_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "glm")
        assert code == 0
        assert "reconstruction h=1" in out
        assert "PASS" in out and "FAIL" not in out
