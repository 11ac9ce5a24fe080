import importlib
import json
import os
import subprocess
import sys

import pytest

import darbouxkdv

MODULES = ("cli", "darboux", "kdv", "scattering", "specfun", "spectral_oracle", "verification")


def test_public_names_resolve():
    assert [n for n in darbouxkdv.__all__ if not hasattr(darbouxkdv, n)] == []
    assert len(set(darbouxkdv.__all__)) == len(darbouxkdv.__all__)
    for name in MODULES:
        mod = importlib.import_module(f"darbouxkdv.{name}")
        assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_exports_exactly_the_library_modules():
    # a name removed from one list and not the other would leave a stale export
    union = set()
    for name in ("specfun", "darboux", "spectral_oracle", "scattering", "kdv"):
        union.update(importlib.import_module(f"darbouxkdv.{name}").__all__)
    assert sorted(darbouxkdv.__all__) == sorted(union)


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path, "rb") as fh:
        assert darbouxkdv.__version__ == tomllib.load(fh)["project"]["version"]


def test_cli_import_leaves_out_the_ode_solver():
    # a fresh interpreter: pytest's filterwarnings setting imports scipy.integrate itself
    src = os.path.dirname(os.path.dirname(darbouxkdv.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import darbouxkdv.cli, sys; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _fresh(code: str) -> dict:
    """Run code in a new interpreter and return the JSON it prints last."""
    src = os.path.dirname(os.path.dirname(darbouxkdv.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_loads_scipy_and_mpmath_only_where_used():
    code = """if True:
        import contextlib, io, json, sys
        from darbouxkdv.cli import main

        def loaded():
            return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath"))

        seen = {"import": loaded()}
        for name, argv in (
            ("potential", ["potential", "--h", "1", "--seeds", "2",
                           "--xmin", "-1", "--xmax", "1", "--n", "3"]),
            ("soliton", ["soliton", "--from-spec", "--h", "2", "--seeds", "2",
                         "--t", "0", "--xmin", "-1", "--xmax", "1", "--n", "3"]),
            ("verify kdv", ["verify", "--suite", "kdv"]),
            ("scattering", ["scattering", "--h", "1", "--seeds", "2", "--k", "1"]),
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            seen[name] = loaded()
        print(json.dumps(seen))
    """
    seen = _fresh(code)
    # mpmath is a test dependency only: no package module imports it, and
    # the float residuals of the kdv suite need no scipy either
    assert seen["import"] == seen["potential"] == seen["soliton"] == seen["verify kdv"] == []
    assert "scipy.special" in seen["scattering"]
    assert not [m for m in seen["scattering"]
                if m.startswith(("scipy.sparse", "scipy.integrate", "mpmath"))]


def test_cold_first_calls_match_warm_ones():
    code = """if True:
        import json, sys
        from darbouxkdv import (GridSpec, SolitonData, SystemSpec, deformed_amplitudes,
                                deformed_potential, eigen_spectrum, kdv_residual)

        cold = not any(m.split(".")[0] in ("scipy", "mpmath") for m in sys.modules)
        amp = deformed_amplitudes(SystemSpec(1.0, (2,)), 1.0)
        data = SolitonData((1.0, 2.0), (1.5, 0.5))
        res = [kdv_residual(data, 0.3, 0.1) for _ in range(2)]
        pot = deformed_potential(SystemSpec(1.0, (2,)))
        grid = GridSpec()
        first, second = (eigen_spectrum(pot, grid) for _ in range(2))
        same = first == second
        print(json.dumps({"cold": cold, "t": [amp.t.real, amp.t.imag],
                          "r": [amp.r.real, amp.r.imag], "residuals": res,
                          "levels": len(first), "same_spectrum": same}))
    """
    out = _fresh(code)
    assert out["cold"]
    assert abs(complex(*out["t"]) - (-8 - 15j) / 17) <= 1e-12
    assert out["r"] == [0.0, 0.0]
    assert out["residuals"][0] == out["residuals"][1]
    assert out["levels"] == 2 and out["same_spectrum"]
