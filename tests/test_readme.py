"""The README's examples run and state the values they compute."""

import contextlib
import io
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from darbouxkdv.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block(heading: str, lang: str) -> str:
    """The first fenced `lang` block under the level-2 `heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quick_tour():
    scope, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block("Library quick tour", "python"), scope)
    printed = [[float(v) for v in line.split()] for line in out.getvalue().splitlines()]
    pot, amp, data = scope["pot"], scope["amp"], scope["data"]
    assert pot(0.0) == pytest.approx(-30.0, abs=1e-12)
    levels, (residual,) = printed[:-1], printed[-1]
    ref_levels = [[-16.0, math.sqrt(40.0 / 3.0)], [-1.0, math.sqrt(10.0 / 3.0)]]
    np.testing.assert_allclose(levels, ref_levels, rtol=1e-12)
    assert abs(amp.t - (-8 - 15j) / 17) <= 1e-12
    assert amp.r == 0.0
    assert data.kappas == (1.0, 4.0)
    ref = pot(np.linspace(-10, 10, 2001))
    assert np.max(np.abs(scope["u0"] - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert residual <= 1e-13


COMMANDS = [
    shlex.split(cmd)
    for cmd in block("CLI", "sh").replace("\\\n", " ").splitlines()
    if cmd.startswith("darbouxkdv ")
]


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[1] for argv in COMMANDS])
def test_cli_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0
    assert capsys.readouterr().err == ""
