import importlib
import os

import pytest

import darbouxkdv

MODULES = ("cli", "darboux", "kdv", "scattering", "specfun", "spectral_oracle", "verification")


def test_public_names_resolve():
    assert [n for n in darbouxkdv.__all__ if not hasattr(darbouxkdv, n)] == []
    assert len(set(darbouxkdv.__all__)) == len(darbouxkdv.__all__)
    for name in MODULES:
        mod = importlib.import_module(f"darbouxkdv.{name}")
        assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path, "rb") as fh:
        assert darbouxkdv.__version__ == tomllib.load(fh)["project"]["version"]
