"""Command-line front end: profiles, spectra, scattering sweeps, soliton
fields and the verification suites, as reproducible file outputs.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 closed-form/oracle mismatch beyond tolerance, 4 numeric-domain violation
(including a spectrum oracle box too narrow for a shallow level and an ODE
oracle stepper that fails).  Errors and warnings go to stderr as one
"error: ..." or "warning: ..." line each.  A reader that closes stdout
early (`... | head`) ends the output with no traceback, and the exit code is
the command's own: 0 for a table written without error.
All floats are written with 17 significant digits and no locale dependence,
so identical configurations produce byte-identical outputs.  Tables are
formatted and written in blocks of TABLE_BLOCK rows.  A soliton table is
written one time slice at a time, after every field value is computed; each
distinct t and x is formatted once, and per row only u is.
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
from .kdv import OverflowDomainError, SolitonData, field_u, scattering_data_from_spec
from .scattering import deformed_amplitudes, numerical_amplitudes
from .spectral_oracle import CONTINUUM_EPS, GridSpec, oracle_norming_constants
from .verification import run_suite

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_ORACLE_MISMATCH = 3
EXIT_NUMERIC_DOMAIN = 4

# theta_n = log c_n + 4 k^3 t - k x loses absolute precision once the raw
# exponent magnitude approaches 1/eps; beyond this the field values are noise.
THETA_PRECISION_LIMIT = 1e12

TABLE_BLOCK = 4096  # rows (csv) or values (json) formatted and written at a time
# CSV rows of a soliton table per %-format: 64 rows (about 4 kB of text)
# format as fast as a whole block, while results of 8 kB and up left about
# 1.3 MB of freed heap that glibc kept from the system in the benchmark's
# soliton_fields worker.
FORMAT_ROWS = 64

# The box [-L, L] of the sinc oracle moves a level (kappa, c) by about
# 4 kappa c^2 e^(-2 kappa L) in E and by L c^2 e^(-2 kappa L) relative in c:
# fits to h = 0.3-3.4 with seeds (), (2,) and (4,) at L = 15, 20, 25 (step
# 0.05) held to 0.95-1.15 and 1.0-1.75 times these forms.  The estimates take
# the factors 5 and 2.
BOX_ENERGY_FACTOR = 5.0
BOX_NORMING_FACTOR = 2.0


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


def _table_blocks(header, columns, fmt: str):
    """The table as text blocks of at most TABLE_BLOCK rows (csv) or values (json).

    One %-format per block over Python floats: the same bytes as
    format(v, ".17g") per cell in a fraction of the time, while only one
    block's strings are alive at once.
    """
    if fmt == "json":
        yield "{\n"
        for i, (name, col) in enumerate(zip(header, columns)):
            yield (",\n" if i else "") + f'  "{name}": ['
            for start in range(0, len(col), TABLE_BLOCK):
                block = tuple(map(float, col[start:start + TABLE_BLOCK]))
                yield (", " if start else "") + ", ".join(["%.17g"] * len(block)) % block
            yield "]"
        yield "\n}\n"
        return
    row = ",".join(["%.17g"] * len(columns))
    yield ",".join(header) + "\n"
    for start in range(0, min(map(len, columns)), TABLE_BLOCK):
        rows = zip(*(map(float, col[start:start + TABLE_BLOCK]) for col in columns))
        yield "\n".join([row % values for values in rows]) + "\n"


def _grid_blocks(ts, xs, us, fmt: str):
    """The (t, x, u) table of the t-major product grid ts x xs, us[i, j] = u(xs[j], ts[i]).

    The same bytes as _table_blocks over the columns (repeat(ts), tile(xs),
    us.ravel()), but each t and each x is formatted once: per time slice only
    u is formatted, one block of at most TABLE_BLOCK values at a time.  CSV
    rows go through one %-format per FORMAT_ROWS rows, of a template joined
    from the t and x texts.  The x text is kept for the later slices only
    when there are any.
    """
    tstrs = ["%.17g" % t for t in ts.tolist()]
    spans = [(i, min(i + TABLE_BLOCK, xs.size)) for i in range(0, xs.size, TABLE_BLOCK)]

    def values(col, start, stop):
        return ", ".join(["%.17g"] * (stop - start)) % tuple(col[start:stop].tolist())

    if fmt == "json":
        yield '{\n  "t": ['
        for i, tstr in enumerate(tstrs):
            for j, (start, stop) in enumerate(spans):
                yield (", " if i or j else "") + ", ".join([tstr] * (stop - start))
        yield '],\n  "x": ['
        xtexts = [values(xs, *span) for span in spans] if len(tstrs) > 1 else None
        for i in range(len(tstrs)):
            for j, span in enumerate(spans):
                yield (", " if i or j else "") + (xtexts[j] if xtexts else values(xs, *span))
        yield '],\n  "u": ['
        for i, row in enumerate(us):
            for j, span in enumerate(spans):
                yield (", " if i or j else "") + values(row, *span)
        yield "]\n}\n"
        return

    def tails(start, stop):  # "x,%.17g\n" per row, for u; the t text goes in front
        return ["%.17g,%%.17g\n" % x for x in xs[start:stop].tolist()]

    kept = [tails(*span) for span in spans] if len(tstrs) > 1 else None
    yield "t,x,u\n"
    for tstr, row in zip(tstrs, us):
        sep = tstr + ","
        for j, (start, stop) in enumerate(spans):
            rows = kept[j] if kept else tails(start, stop)
            vals = row[start:stop].tolist()
            for k in range(0, len(rows), FORMAT_ROWS):
                yield (sep + sep.join(rows[k:k + FORMAT_ROWS])) % tuple(vals[k:k + FORMAT_ROWS])


def cmd_potential(args) -> int:
    spec = SystemSpec(args.h, _parse_seeds(args.seeds))
    pot = deformed_potential(spec)
    xs = _grid(args.xmin, args.xmax, args.n)
    us = np.atleast_1d(pot(xs))
    _write(_table_blocks(("x", "u"), (xs, us), args.format), args.output)
    return EXIT_OK


def _box_defects(states, L: float) -> tuple:
    """The largest (energy, norming-constant) defects the box [-L, L] should cause."""
    worst_e = worst_c = 0.0
    for s in states:
        tail = s.norming_constant**2 * math.exp(-2.0 * s.kappa * L)
        worst_e = max(worst_e, BOX_ENERGY_FACTOR * s.kappa * tail)
        worst_c = max(worst_c, BOX_NORMING_FACTOR * L * s.norming_constant * tail)
    return worst_e, worst_c


def cmd_spectrum(args) -> int:
    for flag, tol in (("--tol-energy", args.tol_energy), ("--tol-norming", args.tol_norming)):
        if not 0 < tol < math.inf:  # a nan tolerance would pass every comparison
            raise ValueError(f"{flag} must be finite and positive, got {tol}")
    spec = SystemSpec(args.h, _parse_seeds(args.seeds))
    states = bound_states(spec)
    grid = GridSpec(L=args.grid_l, n_points=args.grid_n)
    edge = [s.energy for s in states if s.energy >= -CONTINUUM_EPS]
    if edge:
        sys.stderr.write(
            f"level(s) E = {edge} above the oracle's continuum cutoff {-CONTINUUM_EPS:g}: "
            "no box resolves them\n"
        )
        return EXIT_NUMERIC_DOMAIN

    def too_narrow(L):
        e, c = _box_defects(states, L)
        return e > args.tol_energy or c > args.tol_norming

    if too_narrow(grid.L):
        need = grid.L
        while too_narrow(need):
            need = math.ceil(1.1 * need)
        e, c = _box_defects(states, grid.L)
        sys.stderr.write(
            f"oracle box --grid-l {grid.L:g} too narrow for kappa = "
            f"{min(s.kappa for s in states):.6g}: estimated defects {e:.1e} in E, {c:.1e} in c; "
            f"use --grid-l {need:g} --grid-n {2 * math.ceil(need / grid.dx) + 1}\n"
        )
        return EXIT_NUMERIC_DOMAIN
    pot = deformed_potential(spec)
    oracle = oracle_norming_constants(pot, grid)
    if len(oracle) != len(states):
        sys.stderr.write(
            f"oracle found {len(oracle)} bound states, closed form has {len(states)}\n"
        )
        return EXIT_ORACLE_MISMATCH
    rows = []
    worst_e = worst_c = 0.0
    for s, (ok, oc) in zip(states, oracle):
        e_def = abs(s.energy - (-ok * ok))
        c_def = abs(s.norming_constant - oc)
        worst_e = max(worst_e, e_def)
        worst_c = max(worst_c, c_def)
        rows.append(
            "    {"
            + f'"kappa": {_fmt(s.kappa)}, "energy": {_fmt(s.energy)}, '
            + f'"norming_constant": {_fmt(s.norming_constant)}, '
            + f'"oracle_energy": {_fmt(-ok * ok)}, "oracle_norming_constant": {_fmt(oc)}, '
            + f'"energy_defect": {_fmt(e_def)}, "norming_defect": {_fmt(c_def)}'
            + "}"
        )
    seeds_json = "[" + ", ".join(str(v) for v in spec.seeds) + "]"
    text = (
        "{\n"
        + f'  "h": {_fmt(spec.h)},\n  "seeds": {seeds_json},\n'
        + '  "levels": [\n'
        + ",\n".join(rows)
        + "\n  ]\n}\n"
    )
    _write((text,), args.output)
    if worst_e > args.tol_energy or worst_c > args.tol_norming:
        sys.stderr.write(
            f"oracle divergence: energy defect {worst_e:.3e} (tol {args.tol_energy:.1e}), "
            f"norming defect {worst_c:.3e} (tol {args.tol_norming:.1e})\n"
        )
        return EXIT_ORACLE_MISMATCH
    return EXIT_OK


def cmd_scattering(args) -> int:
    spec = SystemSpec(args.h, _parse_seeds(args.seeds))
    ks = _grid(args.kmin, args.kmax, args.nk) if args.k is None else _grid(args.k, args.k, 1)
    if np.any(ks <= 0):
        raise ValueError("K grid must be positive")
    header = ["K", "re_t", "im_t", "re_r", "im_r", "abs_t", "abs_r", "unitarity_defect"]
    amps = (deformed_amplitudes(spec, float(K)) for K in ks)
    cols = list(zip(*(
        (a.K, a.t.real, a.t.imag, a.r.real, a.r.imag, abs(a.t), abs(a.r), a.unitarity_defect)
        for a in amps
    )))
    if args.oracle:
        num = numerical_amplitudes(deformed_potential(spec, allow_singular=True), ks)
        header += ["re_t_oracle", "im_t_oracle", "re_r_oracle", "im_r_oracle"]
        cols += [num.t.real, num.t.imag, num.r.real, num.r.imag]
    _write(_table_blocks(header, cols, args.format), args.output)
    return EXIT_OK


def _soliton_data(args) -> SolitonData:
    if args.from_spec:
        if args.h is None:
            raise ValueError("--from-spec requires --h")
        return scattering_data_from_spec(SystemSpec(args.h, _parse_seeds(args.seeds)))
    if args.kappas is None or args.c0 is None:
        raise ValueError("provide either --from-spec or both --kappas and --c0")
    return SolitonData(_parse_floats(args.kappas), _parse_floats(args.c0))


def cmd_soliton(args) -> int:
    data = _soliton_data(args)
    ts = _grid(args.tmin, args.tmax, args.nt) if args.t is None else _grid(args.t, args.t, 1)
    xs = _grid(args.xmin, args.xmax, args.n) if args.x is None else _grid(args.x, args.x, 1)
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
    _write(_grid_blocks(ts, xs, us, args.format), args.output)
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

    p = sub.add_parser("spectrum", help="bound states: closed form vs sinc-collocation oracle")
    add_spec(p)
    p.add_argument("--grid-l", type=float, default=20.0)
    p.add_argument("--grid-n", type=int, default=801)
    p.add_argument("--tol-energy", type=float, default=1e-5)
    p.add_argument("--tol-norming", type=float, default=1e-3)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("scattering", help="transmission/reflection over a K grid")
    add_spec(p)
    p.add_argument("--k", type=float, default=None, help="single wave number")
    p.add_argument("--kmin", type=float, default=0.25)
    p.add_argument("--kmax", type=float, default=8.0)
    p.add_argument("--nk", type=int, default=32)
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
    p.add_argument("--tmin", type=float, default=0.0)
    p.add_argument("--tmax", type=float, default=0.0)
    p.add_argument("--nt", type=int, default=1)
    p.add_argument("--x", type=float, default=None, help="single position")
    p.add_argument("--xmin", type=float, default=-10.0)
    p.add_argument("--xmax", type=float, default=10.0)
    p.add_argument("--n", type=int, default=401)
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
