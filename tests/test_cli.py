import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import deque
from decimal import Decimal

import numpy as np
import pytest

import darbouxkdv
from darbouxkdv import cli, scattering, spectral_oracle
from darbouxkdv.cli import TABLE_BLOCK, _table_blocks, _text, main
from darbouxkdv.darboux import SystemSpec, bound_states, deformed_potential
from darbouxkdv.kdv import SOLITON_LIMIT, SolitonData, field_u, scattering_data_from_spec
from darbouxkdv.spectral_oracle import GridSpec, oracle_norming_constants
from darbouxkdv.verification import SINC_GRID


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
        # the sinc oracle's energy defect here is near 3e-13, a few ulps of E = -16
        code, _, err = run(capsys, "spectrum", "--h", "1", "--seeds", "2",
                           "--tol-energy", "1e-15")
        assert code == 3
        assert err.startswith("error: oracle divergence") and err.count("\n") == 1

    @pytest.mark.parametrize("spec", [("6", "2"), ("15", ""), ("1.5", "4")], ids="-".join)
    def test_deep_and_shallow_levels_pass_at_default_flags(self, capsys, spec):
        # kappa = 9 of h=6 [2] and 15 of h=15 decay fast; kappa = 0.5 of h=1.5 slowly
        h, seeds = spec
        code, out, err = run(capsys, "spectrum", "--h", h, "--seeds", seeds)
        assert code == 0, err
        levels = json.loads(out)["levels"]
        assert all(lvl["energy_defect"] <= 1e-8 for lvl in levels)
        assert all(lvl["norming_defect"] <= 1e-6 * lvl["norming_constant"] for lvl in levels)

    @pytest.mark.parametrize("spec", [("1.2", ""), ("2.2", "2")], ids="-".join)
    def test_shallow_level_gets_the_box_it_needs(self, capsys, spec):
        # the box [-20, 20] would move kappa = 0.2 by about 1e-4 in E, above the
        # 1e-5 tolerance: the oracle widens its box to L = 28 and keeps the step in s
        h, seeds = spec
        calls = []
        oracle = cli.oracle_norming_constants
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "oracle_norming_constants",
                       lambda pot, grid: calls.append(grid) or oracle(pot, grid))
            code, out, err = run(capsys, "spectrum", "--h", h, "--seeds", seeds)
        assert code == 0, err
        assert calls == [GridSpec(28, 175)]
        assert all(lvl["energy_defect"] <= 5e-6 for lvl in json.loads(out)["levels"])

    @pytest.mark.parametrize("spec", [("10", "6"), ("8", "8"), ("14", "2"), ("9.7", "14")],
                             ids="-".join)
    def test_poles_near_the_axis_pass_at_default_flags(self, capsys, spec):
        # poles of U_D at |Im x| = 0.07-0.18: on the default grid, 10 [6], 8 [8] and
        # 9.7 [14] read their energies 1.3e-5 to 0.24 off (exit 3)
        h, seeds = spec
        code, out, err = run(capsys, "spectrum", "--h", h, "--seeds", seeds)
        assert code == 0, err
        levels = json.loads(out)["levels"]
        assert all(lvl["energy_defect"] <= 1e-8 for lvl in levels)
        assert all(lvl["norming_defect"] <= 1e-7 * lvl["norming_constant"] for lvl in levels)

    @pytest.mark.parametrize("spec, grid", [
        (SystemSpec(2.5, (50,)), (20.0, 963)),
        (SystemSpec(2.5, (26,)), (20.0, 529)),
        (SystemSpec(9.7, (14,)), (20.0, 407)),
        (SystemSpec(10.0, (6,)), (20.0, 241)),
        (SystemSpec(1.05), (80, 213)),
    ], ids=str)
    def test_pole_limited_grid_sizes(self, spec, grid):
        # ds = d / _POLE_STEPS in s, d the least |Im a asinh(x_p / a)| over the poles;
        # 1.05 [] has no pole near the axis but a level at kappa = 0.05 that needs L = 80
        args = cli._build_parser().parse_args(["spectrum", "--h", "1"])
        assert spectral_oracle._spectrum_grid(deformed_potential(spec), bound_states(spec),
                                              args.tol_energy, args.tol_norming) == GridSpec(*grid)

    def test_regular_well_keeps_the_default_grid(self, capsys):
        # h=1 [2]: its poles at |Im x| = 0.42 allow the default step, and [-20, 20]
        # holds both levels, so the output is the oracle's on GridSpec(), the grid
        # of verify's sinc checks
        assert GridSpec() == SINC_GRID
        spec = SystemSpec(1.0, (2,))
        oracle = oracle_norming_constants(deformed_potential(spec), GridSpec())
        code, out, _ = run(capsys, "spectrum", "--h", "1", "--seeds", "2")
        assert code == 0
        expected = [
            "    {" + ", ".join(f'"{k}": {format(v, ".17g")}' for k, v in (
                ("kappa", s.kappa), ("energy", s.energy), ("norming_constant", s.norming_constant),
                ("oracle_energy", -ok * ok), ("oracle_norming_constant", oc),
                ("energy_defect", abs(s.energy + ok * ok)),
                ("norming_defect", abs(s.norming_constant - oc)),
            )) + "}"
            for s, (ok, oc) in zip(bound_states(spec), oracle)
        ]
        assert out == '{\n  "h": 1,\n  "seeds": [2],\n  "levels": [\n' + ",\n".join(expected) + "\n  ]\n}\n"

    @pytest.mark.parametrize("spec, points, cap", [(("300", "600"), "inf", None),
                                                   (("2.5", "60"), "1145", 1001)],
                             ids=["h300-600", "h2.5-60"])
    def test_grid_above_the_cap(self, capsys, monkeypatch, spec, points, cap):
        # h=300 [600] has a pole on the real axis as computed (d = 0), h=2.5 [60]
        # one at |Im x| = 0.025, whose 1145 points are above a cap of 1001:
        # exit 4 before the oracle allocates its matrices
        h, seeds = spec
        if cap is None:
            cap = 8001
        else:
            monkeypatch.setattr(spectral_oracle, "_MAX_ORACLE_POINTS", cap)
        monkeypatch.setattr(cli, "oracle_norming_constants", pytest.fail)
        code, out, err = run(capsys, "spectrum", "--h", h, "--seeds", seeds)
        assert code == 4 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"has {points} points, above the cap of {cap}" in err

    def test_help_names_the_cap(self, capsys):
        with pytest.raises(SystemExit):
            main(["spectrum", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert f"a grid of more than {spectral_oracle._MAX_ORACLE_POINTS} points exits 4" in out

    def test_near_edge_warning_is_one_line(self):
        # E = -0.0025 of h = 1.05 sits within a factor 10 of the cutoff: one
        # "warning:" line, where the raw RuntimeWarning and its source line came out
        src = os.path.dirname(os.path.dirname(darbouxkdv.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "darbouxkdv.cli", "spectrum", "--h", "1.05"],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("warning: eigenvalue(s) [-0.0024")
        assert "continuum cutoff" in line
        assert json.loads(proc.stdout)["levels"][-1]["energy"] == pytest.approx(-0.0025)

    def test_nan_norming_constant_is_a_mismatch(self, capsys, monkeypatch):
        # a nan defect past the first level: max() from 0.0 dropped it, and exit 0
        oracle = cli.oracle_norming_constants

        def nan_second_level(pot, grid):
            levels = oracle(pot, grid)
            levels[1] = (levels[1][0], math.nan)
            return levels

        monkeypatch.setattr(cli, "oracle_norming_constants", nan_second_level)
        code, _, err = run(capsys, "spectrum", "--h", "2", "--seeds", "2")
        assert code == 3
        assert err.startswith("error: oracle divergence") and err.count("\n") == 1
        assert "norming defect nan" in err

    def test_negative_c_squared_exit_code(self, capsys):
        # h=100 [2]: the Jost Wronskian of a deep level (kappa = 88) has the wrong sign
        code, out, err = run(capsys, "spectrum", "--h", "100", "--seeds", "2")
        assert code == 4 and out == ""
        assert err.startswith("error: Jost Wronskian norming constant") and err.count("\n") == 1
        assert "nan" not in err

    def test_level_above_the_continuum_cutoff(self, capsys):
        # E = -1e-4 of h = 1.01 lies above the oracle's cutoff -1e-3 at every box
        code, _, err = run(capsys, "spectrum", "--h", "1.01")
        assert code == 4
        assert err.startswith("error: ") and err.count("\n") == 1 and "cutoff" in err


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

    @pytest.mark.parametrize("seeds", ["2", "2,3"])
    def test_oracle_columns_on_default_grid(self, capsys, seeds):
        # 32 K from 0.25 to 8, on a single seed and on the regular two-seed h=1 [2,3]
        h = "1.5" if seeds == "2" else "1"
        code, out, _ = run(capsys, "scattering", "--h", h, "--seeds", seeds, "--oracle")
        assert code == 0
        header, *rows = out.strip().split("\n")
        assert len(rows) == 32
        names = header.split(",")
        for row in rows:
            cols = dict(zip(names, (float(v) for v in row.split(","))))
            for part in ("re_t", "im_t", "re_r", "im_r"):
                assert abs(cols[part + "_oracle"] - cols[part]) <= 1e-10

    def test_oracle_on_a_singular_set_exit_code(self, capsys):
        # h=1 [2,4] has a pole at x = 0, on the oracle's real line
        code, out, err = run(capsys, "scattering", "--h", "1", "--seeds", "2,4",
                             "--k", "1", "--oracle")
        assert code == 2
        assert out == ""
        assert "singular" in err

    def test_singular_set_exit_code(self, capsys):
        # without --oracle too: the closed forms would give t = 0.7313 + 0.6820i for a
        # potential with a double pole at x = 0
        code, out, err = run(capsys, "scattering", "--h", "1", "--seeds", "2,4", "--k", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: seed Wronskian of (2, 4)") and err.count("\n") == 1

    def test_deep_regular_set_keeps_its_closed_forms(self, capsys):
        # W~ of h=1000 [600] leaves the float range (potential exits 4), but t needs only
        # the Gamma products: the refusal of singular sets reads the seeds alone
        code, out, err = run(capsys, "scattering", "--h", "1000", "--seeds", "600", "--k", "1")
        assert code == 0, err
        header, row = out.strip().split("\n")
        cols = dict(zip(header.split(","), (float(v) for v in row.split(","))))
        assert cols["unitarity_defect"] <= 1e-10

    def test_oracle_stepper_failure_exit_code(self, capsys, monkeypatch):
        # K = 3000 needs more VODE steps than the oracle allows; a small step
        # budget gives the same failure fast.  It used to end in a traceback, exit 1
        monkeypatch.setattr(scattering, "_MAX_STEPS", 50)
        code, out, err = run(capsys, "scattering", "--h", "1", "--seeds", "2",
                             "--k", "3000", "--oracle")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: Jost ODE stepper failed")

    def test_nonpositive_grid_rejected(self, capsys):
        code, _, _ = run(capsys, "scattering", "--h", "1", "--kmin", "-1",
                         "--kmax", "2", "--nk", "4")
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--kmin", "1"), ("--kmax", "3"), ("--nk", "5")])
    def test_single_k_with_grid_flag_exit_code(self, capsys, flag, value):
        # the single K won and the grid was ignored, with exit 0
        code, out, err = run(capsys, "scattering", "--h", "1.5", "--k", "2", flag, value)
        assert code == 2
        assert out == ""
        assert err == "error: --k cannot be combined with --kmin, --kmax, --nk\n"


@pytest.mark.parametrize("argv", [
    ("scattering", "--h", "1", "--seeds", "2", "--k", "inf"),
    ("scattering", "--h", "1", "--seeds", "2", "--k", "nan", "--oracle"),
    ("scattering", "--h", "1", "--kmax", "inf"),
    ("soliton", "--from-spec", "--h", "1", "--seeds", "2", "--t", "nan"),
    ("soliton", "--from-spec", "--h", "1", "--seeds", "2", "--x", "nan"),
    ("soliton", "--kappas", "1", "--c0", "1.4", "--t", "0", "--x", "inf"),
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


def _assert_same_lines(text: str, expected: str) -> None:
    """text == expected, reported as the line counts or the first few lines that differ.

    Each differing line is shown about its first differing character, so that
    a broken writer fails at once on a table of megabytes.
    """
    got, want = text.split("\n"), expected.split("\n")
    if len(got) != len(want):
        pytest.fail(f"{len(got)} lines, expected {len(want)}")
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    if bad:
        report = [f"{len(bad)} of {len(want)} lines differ"]
        for i in bad[:5]:
            c = max(len(os.path.commonprefix([got[i], want[i]])) - 30, 0)
            report.append(f"line {i + 1}: {got[i][c:c + 60]!r} != {want[i][c:c + 60]!r}")
        pytest.fail("\n".join(report))


def _per_cell_text(header, columns, fmt: str) -> str:
    """The table with format(v, ".17g") per cell, built in one piece."""
    cells = [[format(float(v), ".17g") for v in col] for col in columns]
    if fmt == "json":
        body = ",\n".join(f'  "{name}": [{", ".join(col)}]' for name, col in zip(header, cells))
        return "{\n" + body + "\n}\n"
    return "\n".join([",".join(header)] + [",".join(row) for row in zip(*cells)]) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_text_matches_per_cell_format(fmt):
    header = ("a", "b", "c")
    columns = ([-0.0, 1.0 / 3.0, 1e-300, 2.0], np.array([1e300, -2.5, math.pi, 0.1]),
               [3, -7, 1e16, 5e-324])
    expected = _per_cell_text(header, columns, fmt)
    keys, values = np.asarray(columns[0]), np.column_stack(columns[1:])
    _assert_same_lines("".join(_table_blocks(header, keys, values, fmt)), expected)
    assert "-0," in expected  # the sign of -0.0 survives


def _format_cases() -> tuple:
    """Doubles for the cell formatter, and the binary fractions among them.

    Random bit patterns, log-uniform values of both signs over [1e-13, 1e18],
    binary fractions m 2^e with every mantissa length and e = -60 ... 4, the
    doubles up to 3 ulps around each power of ten 1e-12 ... 1e17, and the
    special values.
    """
    rng = np.random.default_rng(20260417)
    patterns = rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64)
    spread = np.exp(rng.uniform(np.log(1e-13), np.log(1e18), 20000))
    mantissas = (rng.integers(2**52, 2**53, 500) >> rng.integers(0, 53, 500)).astype(float)
    binary = np.concatenate([np.ldexp(mantissas, e) for e in range(-60, 5)])
    around = [10.0 ** np.arange(-12, 18)]
    for toward in (np.inf, 0.0):
        x = around[0]
        for _ in range(3):
            x = np.nextafter(x, toward)
            around.append(x)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308]
    cases = np.concatenate([patterns, spread, binary, *around, special])
    return np.concatenate([cases, -cases]), binary


def test_cells_match_python_format():
    cases, binary = _format_cases()
    exact = [Decimal(v).normalize().as_tuple().digits for v in binary.tolist()]
    assert sum(len(d) == 18 and d[-1] == 5 for d in exact) > 100  # half-way at the 17th digit
    texts = _text(cases[:, None], b"\n\0").split("\n")[:-1]
    assert len(texts) == cases.size
    wrong = [(v, t) for v, t in zip(cases.tolist(), texts) if t != format(v, ".17g")]
    assert not wrong, wrong[:5]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("slices, odd_keys", [(None, False), ((-0.0, 3e16), False),
                                              ((-0.0, 0.5, 3e16), True)],
                         ids=["keys", "slices", "odd-keys"])
def test_python_formatted_cells_in_a_streamed_table(fmt, slices, odd_keys):
    # zeros, tiny, huge, subnormal and non-finite cells bypass the vectorised
    # digits; they sit in every block of a table longer than two blocks, and
    # with odd_keys also among the keys of every span, whose text later
    # slices reuse
    n = 2 * TABLE_BLOCK + 5
    keys = np.linspace(-7.0, 5.0, n)
    if odd_keys:
        for start in range(0, n, TABLE_BLOCK):
            keys[start:start + 5] = [0.0, -0.0, 1e-300, 3e16, 5e-324]
    odd = np.resize([0.0, -0.0, 1e-300, 3e16, 5e-324, -2.5e-310, np.inf, np.nan], n)
    ts = None if slices is None else np.array(slices)
    rows = n * (1 if ts is None else ts.size)
    values = np.column_stack([np.resize(odd, rows), np.resize(np.sin(keys) / 3.0, rows)])
    columns = [np.tile(keys, rows // n), *values.T]
    if ts is not None:
        columns.insert(0, np.repeat(ts, n))
    header = ("t", "x", "a", "b")[4 - len(columns):]
    text = "".join(_table_blocks(header, keys, values, fmt, ts))
    _assert_same_lines(text, _per_cell_text(header, columns, fmt))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("nt", [1, 3])
def test_keys_formatted_once_per_table(fmt, nt, monkeypatch):
    # n keys over nt slices: n key cells, n nt value cells and nt slice cells
    n = 2 * TABLE_BLOCK + 5
    keys = np.linspace(-7.0, 5.0, n)
    values = np.sin(np.linspace(0.0, 9.0, n * nt))[:, None]
    formatted = []
    cells = cli._cells

    def counted(v):
        formatted.append(np.size(v))
        return cells(v)

    monkeypatch.setattr(cli, "_cells", counted)
    deque(_table_blocks(("t", "x", "u"), keys, values, fmt, np.linspace(0.0, 0.1, nt)), 0)
    assert sum(formatted) == n + n * nt + nt


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_only_a_table_of_several_slices_keeps_its_key_text(fmt):
    # the kept key text is at most 25 bytes a key, and a one-slice table,
    # which has no later slice to reuse it, keeps none
    n = 10**5
    keys = np.linspace(-10.0, 10.0, n)
    kept = n * (1 + max(len(format(x, ".17g")) for x in keys.tolist()))
    cli._cells(keys[:1])  # the formatter's tables are built once per process
    peaks = []
    for nt in (1, 2):
        values = np.tile(np.sin(keys) / 3.0, nt)[:, None]
        tracemalloc.start()
        try:
            deque(_table_blocks(("t", "x", "u"), keys, values, fmt, np.zeros(nt)), 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < kept
    assert peaks[1] <= peaks[0] + 25 * n


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_grid_matches_per_cell_format(fmt, tmp_path):
    # more rows than one block, so the text is written in several pieces
    n = 2 * TABLE_BLOCK + 3
    path = tmp_path / f"u.{fmt}"
    assert main(["potential", "--h", "1.5", "--seeds", "2", "--xmin", "-7", "--xmax", "5",
                 "--n", str(n), "--format", fmt, "--output", str(path)]) == 0
    xs = np.linspace(-7.0, 5.0, n)
    us = deformed_potential(SystemSpec(1.5, (2,)))(xs)
    _assert_same_lines(path.read_text(), _per_cell_text(("x", "u"), (xs, us), fmt))
    assert len(list(_table_blocks(("x", "u"), xs, us[:, None], fmt))) > 3


SOLITON_DATA = ("--kappas", "1,4", "--c0", "1.8257418583505536,3.6514837167011076")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("data, grid", [
    # three time slices of two full blocks and a partial one each
    (SOLITON_DATA, ("--tmin", "-0.05", "--tmax", "0.05", "--nt", "3",
                    "--xmin", "-6", "--xmax", "6", "--n", str(2 * TABLE_BLOCK + 3))),
    (("--from-spec", "--h", "2", "--seeds", "2"),
     ("--tmin", "0", "--tmax", "0.02", "--nt", "4", "--xmin", "-3", "--xmax", "3", "--n", "9")),
    (SOLITON_DATA, ("--tmin", "-0.1", "--tmax", "0.1", "--nt", "5", "--x", "0.25")),
    (SOLITON_DATA, ("--t", "0.01", "--xmin", "-2", "--xmax", "2", "--n", "7")),
    (("--from-spec", "--h", "1", "--seeds", "2"), ("--t", "-0.0", "--x", "-0.0")),
], ids=["multi-block-slices", "from-spec", "single-x", "single-t", "negative-zero"])
def test_soliton_table_matches_per_cell_format(fmt, data, grid, tmp_path):
    path = tmp_path / f"u.{fmt}"
    assert main(["soliton", *data, *grid, "--format", fmt, "--output", str(path)]) == 0
    opts = dict(zip(grid[::2], grid[1::2]))
    ts = (np.array([float(opts["--t"])]) if "--t" in opts else
          np.linspace(float(opts["--tmin"]), float(opts["--tmax"]), int(opts["--nt"])))
    xs = (np.array([float(opts["--x"])]) if "--x" in opts else
          np.linspace(float(opts["--xmin"]), float(opts["--xmax"]), int(opts["--n"])))
    if data[0] == "--from-spec":
        sol = scattering_data_from_spec(SystemSpec(float(data[2]), (int(data[4]),)))
    else:
        sol = SolitonData(*(tuple(map(float, data[i].split(","))) for i in (1, 3)))
    columns = (np.repeat(ts, xs.size), np.tile(xs, ts.size),
               np.concatenate([field_u(sol, xs, float(t)) for t in ts]))
    expected = _per_cell_text(("t", "x", "u"), columns, fmt)
    _assert_same_lines(path.read_text(), expected)
    if opts.get("--t") == "-0.0":  # the signs of t and x survive
        assert expected.count("-0," if fmt == "csv" else "[-0]") == 2


def test_failed_field_evaluation_writes_nothing(capsys, tmp_path, monkeypatch):
    # every field_u call runs before the first byte is written
    import darbouxkdv.cli as cli

    def field_u_failing_last(data, xs, t):
        if t == 0.1:
            raise OverflowError("field evaluation failed")
        return field_u(data, xs, t)

    monkeypatch.setattr(cli, "field_u", field_u_failing_last)
    path = tmp_path / "u.csv"
    code, out, err = run(capsys, "soliton", *SOLITON_DATA, "--tmin", "0", "--tmax", "0.1",
                         "--nt", "3", "--n", str(2 * TABLE_BLOCK), "--output", str(path))
    assert code == 4
    assert out == "" and not path.exists()
    assert err == "error: field evaluation failed\n"


def test_failed_check_writes_nothing(capsys, tmp_path):
    path = tmp_path / "u.csv"
    code, out, _ = run(capsys, "soliton", "--kappas", "1,4", "--c0", "1,1",
                       "--tmin", "0", "--tmax", "1e12", "--nt", "3", "--output", str(path))
    assert code == 4
    assert out == "" and not path.exists()


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

    @pytest.mark.parametrize("argv", [
        ("--h", "1", "--kappas", "1", "--c0", "1"),
        ("--seeds", "2", "--kappas", "1", "--c0", "1"),
    ], ids=["h", "seeds"])
    def test_spec_without_from_spec_exit_code(self, capsys, argv):
        # --h and --seeds were ignored, and the field of the kappas written
        code, out, err = run(capsys, "soliton", *argv, "--t", "0", "--x", "0")
        assert code == 2
        assert out == ""
        assert err == "error: --h and --seeds require --from-spec\n"

    @pytest.mark.parametrize("argv", [
        ("--kappas", "1", "--c0", "1"), ("--kappas", "1"), ("--c0", "1"),
    ], ids=["both", "kappas", "c0"])
    def test_data_with_from_spec_exit_code(self, capsys, argv):
        # --kappas and --c0 were ignored, and the field of the spec written
        code, out, err = run(capsys, "soliton", "--from-spec", "--h", "1", *argv,
                             "--t", "0", "--x", "0")
        assert code == 2
        assert out == ""
        assert err == "error: --kappas and --c0 cannot be combined with --from-spec\n"

    @pytest.mark.parametrize("argv, flags", [
        (("--t", "0.5", "--tmin", "0"), "--t cannot be combined with --tmin, --tmax, --nt"),
        (("--t", "0.5", "--tmax", "1"), "--t cannot be combined with --tmin, --tmax, --nt"),
        (("--t", "0.5", "--nt", "3"), "--t cannot be combined with --tmin, --tmax, --nt"),
        (("--x", "0", "--xmin", "-1"), "--x cannot be combined with --xmin, --xmax, --n"),
        (("--x", "0", "--xmax", "1"), "--x cannot be combined with --xmin, --xmax, --n"),
        (("--x", "0", "--n", "3"), "--x cannot be combined with --xmin, --xmax, --n"),
    ], ids=["tmin", "tmax", "nt", "xmin", "xmax", "n"])
    def test_single_point_with_grid_flag_exit_code(self, capsys, argv, flags):
        # the single point won and the grid was ignored, with exit 0
        code, out, err = run(capsys, "soliton", "--kappas", "1", "--c0", "1.4142135623730951",
                             *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {flags}\n"

    def test_soliton_limit_exit_code(self, capsys):
        n = SOLITON_LIMIT + 1
        kappas = ",".join(str(k) for k in range(1, n + 1))
        code, out, err = run(capsys, "soliton", "--kappas", kappas, "--c0", ",".join(["1"] * n),
                             "--t", "0", "--x", "0")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {n} solitons exceed the limit of {SOLITON_LIMIT}")
        assert err.count("\n") == 1

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

    def test_stability_domain_is_the_union_over_kappas(self, capsys):
        # |4 k^3 t| + k |x| grows with kappa, so the largest kappa decides alone
        kappas = (0.5, 1.5, 2.5)
        ts, xs = np.linspace(-2e10, 2e10, 9), np.linspace(-6e11, 6e11, 11)
        outside = np.zeros((ts.size, xs.size), dtype=bool)
        for k in kappas:
            outside |= np.abs(ts * (4.0 * k**3))[:, None] + k * np.abs(xs) > 1e12
        assert 0 < outside.sum() < outside.size
        code, _, err = run(capsys, "soliton", "--kappas", "0.5,1.5,2.5", "--c0", "1,1,1",
                           "--tmin=-2e10", "--tmax", "2e10", "--nt", "9",
                           "--xmin=-6e11", "--xmax", "6e11", "--n", "11")
        assert code == 4
        assert f"error: {outside.sum()} grid point(s) outside the numeric stability domain" in err


@pytest.mark.parametrize("argv", [
    ("soliton", "--from-spec", "--h", "6", "--seeds", "2", "--t", "0", "--n", "20001",
     "--format", "json"),
    ("potential", "--h", "6", "--seeds", "2", "--xmin", "-10", "--xmax", "10", "--n", "20001"),
], ids=["soliton", "potential"])
def test_reader_closing_the_pipe_early(argv):
    # several hundred kB, far more than a pipe buffer: the writes after the
    # reader has gone fail with EPIPE, and the command ends quietly with exit 0
    src = os.path.dirname(os.path.dirname(darbouxkdv.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "darbouxkdv.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
    )
    try:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert len(head) == 100
    assert err == ""
    assert code == 0


class TestVerifyCommand:
    def test_glm_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "glm")
        assert code == 0
        assert "reconstruction h=1" in out
        assert "PASS" in out and "FAIL" not in out

    def test_missing_oracle_norming_level_fails_checks(self, capsys, monkeypatch):
        # one oracle level for h=1 [2]: a failed check, not a KeyError traceback
        from darbouxkdv import verification

        oracle = verification.oracle_norming_constants
        monkeypatch.setattr(verification, "oracle_norming_constants",
                            lambda pot, grid: oracle(pot, grid)[:1])
        code, out, err = run(capsys, "verify", "--suite", "spectra")
        assert code == 1 and err == ""
        failed = [line for line in out.splitlines() if line.endswith("FAIL")]
        assert failed == [
            "spectrum h=1 [2] vs {-16,-1} (sinc oracle, n=161, L=20, a=0.55): "
            "defect inf vs tol 1.0e-06 FAIL",
            "norming constants h=1 [2], sinc oracle (n=161, L=20, a=0.55): "
            "defect inf vs tol 1.0e-03 FAIL",
        ]
        assert out.endswith("7/9 checks passed, 2 FAILED\n")

    def test_nan_oracle_amplitude_fails_check(self, capsys, monkeypatch):
        # t = nan at the second K: max() kept the first K's defect, and PASS
        from darbouxkdv import verification

        amplitudes = verification.numerical_amplitudes

        def nan_second_t(pot, ks):
            amp = amplitudes(pot, ks)
            amp.t[1] = math.nan
            return amp

        monkeypatch.setattr(verification, "numerical_amplitudes", nan_second_t)
        code, out, err = run(capsys, "verify", "--suite", "scattering")
        assert code == 1 and err == ""
        failed = [line for line in out.splitlines() if line.endswith("FAIL")]
        assert failed == [
            f"oracle agreement t, h={h} seeds={seeds}: defect nan vs tol 1.0e-04 FAIL"
            for h, seeds in (("1.0", [2]), ("2.0", [2]), ("1.5", [2]), ("1.0", [2, 3]))
        ]

    def test_empty_oracle_spectrum_fails_check(self, capsys, monkeypatch):
        # no h=2 [2] level found: a failed check, not exit 2 from max() of nothing
        from darbouxkdv import verification

        monkeypatch.setattr(verification, "eigen_spectrum", lambda pot, grid: [])
        code, out, err = run(capsys, "verify", "--suite", "spectra")
        assert code == 1 and err == ""
        failed = [line for line in out.splitlines() if line.endswith("FAIL")]
        assert failed == [
            "spectrum h=2 [2] vs {-25,-4,-1} (sinc oracle, n=161, L=20, a=0.55): "
            "defect inf vs tol 1.0e-06 FAIL"
        ]
