"""Command-line front end: profiles, spectra, scattering sweeps, soliton
fields and the verification suites, as reproducible file outputs.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 closed-form/oracle mismatch beyond tolerance, 4 numeric-domain violation
(including a spectrum oracle grid above its point cap and an ODE oracle
stepper that fails).  Errors and warnings go to stderr as one
"error: ..." or "warning: ..." line each.  A reader that closes stdout
early (`... | head`) ends the output with no traceback, and the exit code is
the command's own: 0 for a table written without error.
All floats are written with 17 significant digits and no locale dependence,
so identical configurations produce byte-identical outputs.  The potential,
scattering and soliton tables go through one writer, in blocks of TABLE_BLOCK
rows: each block's cells are formatted in one exact vectorised pass with the
bytes of format(v, ".17g"), and the rare cells outside its range by
format(v, ".17g") itself.  A soliton table is written one time slice at a
time, after every field value is computed, and its x cells are formatted
once: every later slice reuses the first slice's x text.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from functools import cache

import numpy as np

from .darboux import NodalWronskianError, SystemSpec, bound_states, deformed_potential
from .kdv import (THETA_PRECISION_LIMIT, OverflowDomainError, SolitonData, field_u,
                  scattering_data_from_spec)
from .scattering import deformed_amplitudes, numerical_amplitudes
from .spectral_oracle import CONTINUUM_EPS, MAP_SCALE, GridSpec, oracle_norming_constants
from .verification import run_suite

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_ORACLE_MISMATCH = 3
EXIT_NUMERIC_DOMAIN = 4

TABLE_BLOCK = 4096  # rows (csv) or values (json) formatted and written at a time

# The box [-L, L] of the sinc oracle moves a level (kappa, c) by about
# 4 kappa c^2 e^(-2 kappa L) in E and by up to L c^2 e^(-2 kappa L) relative
# in c: fits to h = 0.3-3.4 with seeds (), (2,) and (4,) at L = 15, 20, 25
# (step 0.05) held to 0.95-1.15 and, for c from the Jost Wronskian at the
# box's kappa, 0.07-1.90 times these forms wherever the c form exceeds 1e-8.
# The estimates take the factors 5 and 2.
BOX_ENERGY_FACTOR = 5.0
BOX_NORMING_FACTOR = 2.0
# The sinc error falls like e^(-pi d/ds), d the distance from the real axis of
# U_D's nearest pole in s = a asinh(x/a): the step in s is at most d / 6 (at
# d / 5.5, h=9.7 [14] read its energies 7.5e-9 off, against 4.3e-10 at d / 6).
_POLE_STEPS = 6.0
_MAX_ORACLE_POINTS = 8001  # sector matrices of 4001^2 doubles, 128 MB each


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write(blocks, path):
    """Write an iterable of text blocks, each as soon as it is produced.

    A reader that closes stdout early ends the output: stdout is pointed at
    os.devnull, so that the flush at exit does not raise again.
    """
    if path is None:
        try:
            sys.stdout.writelines(blocks)
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.writelines(blocks)


def _parse_seeds(raw: str) -> tuple:
    if not raw:
        return ()
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ValueError(f"could not parse seed list {raw!r}") from exc


def _parse_floats(raw: str) -> tuple:
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ValueError(f"could not parse number list {raw!r}") from exc


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    finite = math.isfinite(lo) and math.isfinite(hi)
    if not finite or n < 1 or (n > 1 and not lo < hi) or (n == 1 and lo != hi):
        raise ValueError(f"bad grid: [{lo}, {hi}] with {n} points")
    return np.linspace(lo, hi, n) if n > 1 else np.array([lo])  # linspace drops -0.0's sign


def _axis(args, name: str, flags: tuple, default: tuple) -> np.ndarray:
    """The single point --<name>, or the grid of `flags`, `default` for those not given."""
    grid = [getattr(args, flag) for flag in flags]
    if getattr(args, name) is None:
        return _grid(*(d if g is None else g for g, d in zip(grid, default)))
    if grid != [None] * 3:
        raise ValueError(f"--{name} cannot be combined with --{', --'.join(flags)}")
    return _grid(getattr(args, name), getattr(args, name), 1)


@cache
def _cell_tables() -> tuple:
    """5^q (q <= 27) in 32-bit halves, 10^j (j <= 16) and the word tables.

    A cell is 48 bytes: the sign, the "0.000" of exponents -4 ... -1, the 17
    digits at the even bytes 6-38, each with a slot for the point after it,
    an exponent below -4 (bytes 40-43) and a separator (46-47).  `words` is
    word 0 of each leading digit, then each group 0000-9999, then each group
    without its trailing zeros; `ends[p + 11, point, sign]` the rest.
    """
    i = np.arange(10**4, dtype=np.uint64)
    quads = [(i // 10 ** (3 - j) % 10 + 48) << 16 * j for j in range(4)]
    short = sum(q * (i % 10 ** (4 - j) != 0) for j, q in enumerate(quads))
    words = np.concatenate([np.arange(48, 58, dtype=np.uint64) << 48, sum(quads), short])
    ends = np.zeros((28, 2, 2, 48), np.uint8)
    ends[..., 1, 0] = ord("-")
    for p, row in zip(range(-11, 17), ends):
        row[..., 8:7 + 2 * max(p, 0):2] = ord("0")  # integer zeros the short groups drop
        row[..., 40:44] = list(b"e-%02d" % -p) if p < -4 else 0
        if -4 <= p < 0:
            row[..., 1:2 - p] = list(b"0." + b"0" * (-p - 1))
        else:  # after the integer digits, or after the first
            row[1, :, 7 + 2 * max(p, 0)] = ord(".")
    pow5 = np.array([5**q for q in range(28)], np.uint64)
    pow10 = np.array([10**j for j in range(17)])
    return pow5 >> 32, pow5 & 2**32 - 1, pow10, words.astype("<u8"), ends.view("<u8")


def _cells(v) -> np.ndarray:
    """The bytes of format(x, ".17g") for each x in v, as NUL-padded rows of 48.

    With |x| = m 2^(e - 53), m a 53-bit integer, and p = floor(log10 |x|),
    the 17 digits are D = m 5^(16 - p) / 2^s, s = 37 + p - e, rounded half
    to even; m 5^(16 - p) is formed exactly in two 64-bit words.  An
    unrounded D outside [10^16, 10^17) shows a p off by one.  Such cells,
    those with s outside 0 ... 63 or |x| outside [1e-11, 1e16), zeros and
    non-finite values go through format(x, ".17g") itself.
    """
    fh_table, fl_table, pow10, words, ends = _cell_tables()
    v = np.ascontiguousarray(v, dtype=float).ravel()
    a = np.abs(v)
    fast = (a >= 1e-11) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    p = np.maximum(np.floor(np.log10(a)), -11).astype(np.int64)
    bits = a.view(np.uint64)  # 52 bits of m, then the exponent field e + 1022
    m, s = bits & 2**52 - 1 | 2**52, p + 37 + 1022 - (bits >> 52).astype(np.int64)
    fast &= (s >= 0) & (s < 64)
    s = (s & 63).astype(np.uint64)
    mh, ml, fh, fl = m >> 32, m & 2**32 - 1, fh_table[16 - p], fl_table[16 - p]
    mid = ml * fh + mh * fl
    lo = ml * fl + (mid << 32)
    hi = mh * fh + (mid >> 32) + (lo < mid << 32)
    d = lo >> s | hi << (64 - s & 63)  # every shift below 64; hi is 0 where s is
    rest, half = (lo & (1 << s) - 1) << 1, 1 << s
    fast &= d >= 10**16  # else p is one too high
    d += (rest > half) | (rest == half) & (d & 1 == 1)
    fast &= d < 10**17  # else p is one too low; no double here rounds up to 10^17
    d = d.view(np.int64)
    point = d % np.take(pow10, 16 - np.maximum(p, 0)) != 0  # a digit after the point
    idx = np.full((d.size, 6), 10 + 10**4)  # word 5 from the empty group
    offset = idx[:, 5].copy()  # groups up to the last nonzero one: no trailing zeros
    for w in (4, 3, 2, 1):
        d, group = np.divmod(d, 10**4)
        idx[:, w] = group + offset
        offset = np.where(group == 0, offset, 10)
    idx[:, 0] = d
    c = np.take(ends.reshape(-1, 6), 4 * p + 44 + 2 * point + (v < 0), axis=0)
    b = np.bitwise_or(c, np.take(words, idx), out=c).view(np.uint8)
    for i in np.flatnonzero(~fast).tolist():
        b[i] = list(_fmt(v[i]).encode().ljust(48, b"\0"))
    return b


def _text_cells(block: np.ndarray, seps: bytes) -> np.ndarray:
    """The cells of a block, one row per block row, each with its column's two bytes of `seps`."""
    cells = _cells(block).reshape(len(block), -1, 48)
    cells[..., 46:] = np.frombuffer(seps, np.uint8).reshape(-1, 2)
    return cells.reshape(len(block), -1)


def _text(block: np.ndarray, seps: bytes) -> str:
    """The cells of a block row by row, each with its column's two bytes of `seps`, no NULs."""
    return _text_cells(block, seps).tobytes().translate(None, b"\0").decode()


def _compact(cells: np.ndarray) -> np.ndarray:
    """Each row of cells as its text alone, left-aligned and NUL-padded to the longest row."""
    size = np.count_nonzero(cells, axis=1)
    out = np.zeros((size.size, size.max()), np.uint8)
    out[np.arange(out.shape[1]) < size[:, None]] = np.frombuffer(
        cells.tobytes().translate(None, b"\0"), np.uint8)
    return out


def _table_blocks(header, keys, values, fmt: str, slices=None):
    """The table of key column `keys` and value columns values[:, j], as text blocks.

    With `slices`, one value per time slice, the table has a leading column of
    those values and repeats the keys once per slice: slice i is the rows
    i * len(keys) ... of `values`.  One _cells call formats the slice values,
    one each span of at most TABLE_BLOCK keys, once per table, and one each
    block of at most TABLE_BLOCK rows (csv) or values (json).  Past a table's
    first slice, each span's key text is reused: its json run, or its csv
    cells as their text and comma, NUL-padded to the span's longest (at most
    25 bytes a key).  A one-slice table keeps no key text.
    """
    n, k = keys.size, values.shape[1]
    spans = [(i, min(i + TABLE_BLOCK, n)) for i in range(0, n, TABLE_BLOCK)]
    lead = [""] if slices is None else _text(slices, b",\n").splitlines()
    offsets = range(0, len(lead) * n, n)
    if fmt == "json":
        key_text = (_text(keys[a:b], b", ")[:-2] for a, b in spans)
        if len(lead) > 1:
            key_text = list(key_text)
        for i, name in enumerate(header):
            yield (",\n" if i else "{\n") + f'  "{name}": ['
            j = i + k - len(header)  # -2 for the slice column, -1 for the keys
            if j == -2:
                runs = (", ".join([t[:-1]] * (b - a)) for t in lead for a, b in spans)
            elif j == -1:
                runs = (run for _ in lead for run in key_text)
            else:
                runs = (_text(values[o + a:o + b, j], b", ")[:-2]
                        for o in offsets for a, b in spans)
            for r, run in enumerate(runs):
                yield (", " if r else "") + run
            yield "]"
        yield "\n}\n"
        return
    key_text = (_text_cells(keys[a:b], b",\0") for a, b in spans)
    if len(lead) > 1:
        key_text = list(map(_compact, key_text))
    yield ",".join(header) + "\n"
    for t, o in zip(lead, offsets):
        head = np.frombuffer(t.encode(), np.uint8)
        for (a, b), key_cells in zip(spans, key_text):
            cells = _text_cells(values[o + a:o + b], b",\0" * (k - 1) + b"\n\0")
            rows = np.concatenate([np.broadcast_to(head, (b - a, head.size)), key_cells, cells], 1)
            yield rows.tobytes().translate(None, b"\0").decode()


def cmd_potential(args) -> int:
    spec = SystemSpec(args.h, _parse_seeds(args.seeds))
    pot = deformed_potential(spec)
    xs = _grid(args.xmin, args.xmax, args.n)
    us = np.atleast_1d(pot(xs))
    _write(_table_blocks(("x", "u"), xs, us[:, None], args.format), args.output)
    return EXIT_OK


def _oracle_grid(states, pot, tol_energy: float, tol_norming: float) -> tuple:
    """(L, n): the box [-L, L] that the levels need, in n points fine enough for U_D.

    L widens from 20 in 10 % steps until the box's estimated defects meet the
    tolerances.  The step in s is that of GridSpec(), or d / _POLE_STEPS if
    smaller, with d the least |Im a asinh(x/a)| over U_D's poles x in the
    strip |Im x| < pi/2; n = 2 ceil(S / ds) + 1 with S = a asinh(L/a), and
    n is inf for d = 0.
    """
    default = GridSpec()
    L = default.L
    while any(
        BOX_ENERGY_FACTOR * s.kappa * tail > tol_energy
        or BOX_NORMING_FACTOR * L * s.norming_constant * tail > tol_norming
        for s in states
        for tail in [s.norming_constant**2 * math.exp(-2.0 * s.kappa * L)]
    ):
        L = math.ceil(1.1 * L)
    poles = pot.poles()
    poles = poles[np.abs(poles.imag) < math.pi / 2]
    d = np.min(np.abs((MAP_SCALE * np.arcsinh(poles / MAP_SCALE)).imag), initial=math.inf)
    ds = min(default.dx, d / _POLE_STEPS)
    return L, 2 * math.ceil(MAP_SCALE * math.asinh(L / MAP_SCALE) / ds) + 1 if ds > 0 else math.inf


def cmd_spectrum(args) -> int:
    for flag, tol in (("--tol-energy", args.tol_energy), ("--tol-norming", args.tol_norming)):
        if not 0 < tol < math.inf:  # a nan tolerance would pass every comparison
            raise ValueError(f"{flag} must be finite and positive, got {tol}")
    spec = SystemSpec(args.h, _parse_seeds(args.seeds))
    states = bound_states(spec)
    edge = [s.energy for s in states if s.energy >= -CONTINUUM_EPS]
    if edge:
        sys.stderr.write(
            f"error: level(s) E = {edge} above the oracle's continuum cutoff {-CONTINUUM_EPS:g}: "
            "no box resolves them\n"
        )
        return EXIT_NUMERIC_DOMAIN
    pot = deformed_potential(spec)
    L, n = _oracle_grid(states, pot, args.tol_energy, args.tol_norming)
    if n > _MAX_ORACLE_POINTS:
        sys.stderr.write(
            f"error: the oracle grid on [-{L:g}, {L:g}] that resolves the poles of U_D "
            f"has {n} points, above the cap of {_MAX_ORACLE_POINTS}\n"
        )
        return EXIT_NUMERIC_DOMAIN
    oracle = oracle_norming_constants(pot, GridSpec(L, n))
    if len(oracle) != len(states):
        sys.stderr.write(
            f"error: oracle found {len(oracle)} bound states, closed form has {len(states)}\n"
        )
        return EXIT_ORACLE_MISMATCH
    rows, e_defs, c_defs = [], [], []
    for s, (ok, oc) in zip(states, oracle):
        e_def = abs(s.energy - (-ok * ok))
        c_def = abs(s.norming_constant - oc)
        e_defs.append(e_def)
        c_defs.append(c_def)
        rows.append(
            "    {"
            + f'"kappa": {_fmt(s.kappa)}, "energy": {_fmt(s.energy)}, '
            + f'"norming_constant": {_fmt(s.norming_constant)}, '
            + f'"oracle_energy": {_fmt(-ok * ok)}, "oracle_norming_constant": {_fmt(oc)}, '
            + f'"energy_defect": {_fmt(e_def)}, "norming_defect": {_fmt(c_def)}'
            + "}"
        )
    seeds, levels = ", ".join(str(v) for v in spec.seeds), ",\n".join(rows)
    text = f'{{\n  "h": {_fmt(spec.h)},\n  "seeds": [{seeds}],\n  "levels": [\n{levels}\n  ]\n}}\n'
    _write((text,), args.output)
    worst_e, worst_c = np.max(e_defs), np.max(c_defs)  # nan if any defect is; max() drops it
    if not (worst_e <= args.tol_energy and worst_c <= args.tol_norming):
        sys.stderr.write(
            f"error: oracle divergence: energy defect {worst_e:.3e} (tol {args.tol_energy:.1e}), "
            f"norming defect {worst_c:.3e} (tol {args.tol_norming:.1e})\n"
        )
        return EXIT_ORACLE_MISMATCH
    return EXIT_OK


def cmd_scattering(args) -> int:
    spec = SystemSpec(args.h, _parse_seeds(args.seeds))
    ks = _axis(args, "k", ("kmin", "kmax", "nk"), (0.25, 8.0, 32))
    header = ["K", "re_t", "im_t", "re_r", "im_r", "abs_t", "abs_r", "unitarity_defect"]
    amps = (deformed_amplitudes(spec, K) for K in ks.tolist())
    cols = [
        (a.t.real, a.t.imag, a.r.real, a.r.imag, abs(a.t), abs(a.r), a.unitarity_defect)
        for a in amps
    ]
    if args.oracle:
        num = numerical_amplitudes(deformed_potential(spec, allow_singular=True), ks)
        header += ["re_t_oracle", "im_t_oracle", "re_r_oracle", "im_r_oracle"]
        cols = np.column_stack([cols, num.t.real, num.t.imag, num.r.real, num.r.imag])
    _write(_table_blocks(header, ks, np.asarray(cols), args.format), args.output)
    return EXIT_OK


def _soliton_data(args) -> SolitonData:
    if args.from_spec:
        if args.kappas is not None or args.c0 is not None:
            raise ValueError("--kappas and --c0 cannot be combined with --from-spec")
        if args.h is None:
            raise ValueError("--from-spec requires --h")
        return scattering_data_from_spec(SystemSpec(args.h, _parse_seeds(args.seeds)))
    if args.h is not None or args.seeds:
        raise ValueError("--h and --seeds require --from-spec")
    if args.kappas is None or args.c0 is None:
        raise ValueError("provide either --from-spec or both --kappas and --c0")
    return SolitonData(_parse_floats(args.kappas), _parse_floats(args.c0))


def cmd_soliton(args) -> int:
    data = _soliton_data(args)
    ts = _axis(args, "t", ("tmin", "tmax", "nt"), (0.0, 0.0, 1))
    xs = _axis(args, "x", ("xmin", "xmax", "n"), (-10.0, 10.0, 401))
    # |4 k^3 t| + k |x| above the limit for some kappa, per (t, x); it grows with
    # kappa, also as rounded, so the largest kappa alone decides
    k = data.kappas[-1]
    outside = np.abs(ts * (4.0 * k**3))[:, None] + k * np.abs(xs) > THETA_PRECISION_LIMIT
    ti, xi = np.nonzero(outside)
    if ti.size:
        listing = ", ".join(f"({_fmt(xs[j])}, {_fmt(ts[i])})" for i, j in zip(ti[:10], xi[:10]))
        raise OverflowDomainError(
            f"{ti.size} grid point(s) outside the numeric stability domain: {listing}"
        )
    us = np.empty((ts.size, xs.size))
    for i, t in enumerate(ts):  # every field value before the first byte is written
        us[i] = field_u(data, xs, float(t))
    _write(_table_blocks(("t", "x", "u"), xs, us.reshape(-1, 1), args.format, ts), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failed = [r for r in results if not r.passed]
    summary = f"{len(results) - len(failed)}/{len(results)} checks passed" + (
        f", {len(failed)} FAILED\n" if failed else "\n"
    )
    _write([res.line() + "\n" for res in results] + [summary], None)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main() call and reused after."""
    parser = argparse.ArgumentParser(
        prog="darbouxkdv",
        description=(
            "Deformed reflectionless sech^2 wells: profiles, spectra, scattering "
            "amplitudes and the KdV multi-soliton fields built from their data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec(p):
        p.add_argument("--h", type=float, required=True, help="base coupling h > 0")
        p.add_argument("--seeds", type=str, default="", help="comma list of even seed degrees")

    def add_output(p):
        p.add_argument("--output", type=str, default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("potential", help="sample a deformed potential on an x grid")
    add_spec(p)
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    add_output(p)
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("spectrum", help="bound states: closed form vs sinc-collocation oracle",
                       description="The oracle's box [-L, L] is the one the closed-form "
                       "levels need, and its step resolves the poles of U_D; a grid of more "
                       f"than {_MAX_ORACLE_POINTS} points exits 4.")
    add_spec(p)
    p.add_argument("--tol-energy", type=float, default=1e-5, help="absolute; also sizes the box")
    p.add_argument("--tol-norming", type=float, default=1e-3, help="absolute; also sizes the box")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("scattering", help="transmission/reflection over a K grid")
    add_spec(p)
    p.add_argument("--k", type=float, default=None, help="single wave number")
    p.add_argument("--kmin", type=float, default=None, help="default 0.25")
    p.add_argument("--kmax", type=float, default=None, help="default 8")
    p.add_argument("--nk", type=int, default=None, help="default 32")
    p.add_argument("--oracle", action="store_true", help="add ODE-oracle columns")
    add_output(p)
    p.set_defaults(func=cmd_scattering)

    p = sub.add_parser("soliton", help="sample u(x,t) for reflectionless data")
    p.add_argument("--from-spec", action="store_true", help="derive data from --h/--seeds")
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--seeds", type=str, default="")
    p.add_argument("--kappas", type=str, default=None, help="comma list, strictly increasing")
    p.add_argument("--c0", type=str, default=None, help="comma list of norming constants")
    p.add_argument("--t", type=float, default=None, help="single time")
    p.add_argument("--tmin", type=float, default=None, help="default 0")
    p.add_argument("--tmax", type=float, default=None, help="default 0")
    p.add_argument("--nt", type=int, default=None, help="default 1")
    p.add_argument("--x", type=float, default=None, help="single position")
    p.add_argument("--xmin", type=float, default=None, help="default -10")
    p.add_argument("--xmax", type=float, default=None, help="default 10")
    p.add_argument("--n", type=int, default=None, help="default 401")
    add_output(p)
    p.set_defaults(func=cmd_soliton)

    p = sub.add_parser("verify", help="run acceptance-grade verification checks")
    p.add_argument(
        "--suite",
        choices=("spectra", "scattering", "glm", "kdv", "all"),
        default="all",
    )
    p.set_defaults(func=cmd_verify)
    return parser


def _warning_line(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(f"warning: {message}\n")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        try:
            return args.func(args)
        except (OverflowDomainError, OverflowError, RuntimeError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_NUMERIC_DOMAIN
        except (NodalWronskianError, ValueError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
