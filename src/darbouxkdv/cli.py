"""Command-line front end: profiles, spectra, scattering sweeps, soliton
fields and the verification suites, as reproducible file outputs.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 closed-form/oracle mismatch beyond tolerance, 4 numeric-domain violation.
All floats are written with 17 significant digits and no locale dependence,
so identical configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .darboux import NodalWronskianError, SystemSpec, bound_states, deformed_potential
from .kdv import OverflowDomainError, SolitonData, field_u, scattering_data_from_spec
from .scattering import deformed_amplitudes, numerical_amplitudes
from .spectral_oracle import GridSpec, OracleWindowError, oracle_norming_constants
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


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write(text: str, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


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
    return np.linspace(lo, hi, n)


def _table_text(header, columns, fmt: str) -> str:
    # one %-format per row (csv) or per column (json) over Python floats,
    # the same bytes as format(v, ".17g") per cell in a fraction of the time
    if fmt == "json":
        body = ",\n".join(
            f'  "{name}": [' + ", ".join(["%.17g"] * len(col)) % tuple(map(float, col)) + "]"
            for name, col in zip(header, columns)
        )
        return "{\n" + body + "\n}\n"
    row = ",".join(["%.17g"] * len(columns))
    lines = [",".join(header)]
    lines.extend(row % values for values in zip(*(map(float, col) for col in columns)))
    return "\n".join(lines) + "\n"


def cmd_potential(args) -> int:
    spec = SystemSpec(args.h, _parse_seeds(args.seeds))
    pot = deformed_potential(spec)
    xs = _grid(args.xmin, args.xmax, args.n)
    us = np.atleast_1d(pot(xs))
    _write(_table_text(("x", "u"), (xs, us), args.format), args.output)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    for flag, tol in (("--tol-energy", args.tol_energy), ("--tol-norming", args.tol_norming)):
        if not 0 < tol < math.inf:  # a nan tolerance would pass every comparison
            raise ValueError(f"{flag} must be finite and positive, got {tol}")
    spec = SystemSpec(args.h, _parse_seeds(args.seeds))
    states = bound_states(spec)
    pot = deformed_potential(spec)
    oracle = oracle_norming_constants(pot, GridSpec(L=args.grid_l, n_points=args.grid_n))
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
    _write(text, args.output)
    if worst_e > args.tol_energy or worst_c > args.tol_norming:
        sys.stderr.write(
            f"oracle divergence: energy defect {worst_e:.3e} (tol {args.tol_energy:.1e}), "
            f"norming defect {worst_c:.3e} (tol {args.tol_norming:.1e})\n"
        )
        return EXIT_ORACLE_MISMATCH
    return EXIT_OK


def cmd_scattering(args) -> int:
    spec = SystemSpec(args.h, _parse_seeds(args.seeds))
    ks = _grid(args.kmin, args.kmax, args.nk) if args.k is None else np.array([args.k])
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
    _write(_table_text(header, cols, args.format), args.output)
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
    ts = np.array([args.t]) if args.t is not None else _grid(args.tmin, args.tmax, args.nt)
    xs = np.array([args.x]) if args.x is not None else _grid(args.xmin, args.xmax, args.n)
    # max over kappa of |4 k^3 t| + k |x| per (t, x), rounded as the scalar bound
    speed = 4.0 * np.array([k**3 for k in data.kappas])
    drift = np.abs(ts[:, None] * speed)  # (nt, N)
    magnitude = np.max(drift[:, None, :] + np.asarray(data.kappas) * np.abs(xs)[:, None], axis=2)
    ti, xi = np.nonzero(magnitude > THETA_PRECISION_LIMIT)
    if ti.size:
        listing = ", ".join(f"({_fmt(xs[j])}, {_fmt(ts[i])})" for i, j in zip(ti[:10], xi[:10]))
        raise OverflowDomainError(
            f"{ti.size} grid point(s) outside the numeric stability domain: {listing}"
        )
    tcol = np.repeat(ts, xs.size)
    xcol = np.tile(xs, ts.size)
    ucol = np.concatenate([field_u(data, xs, float(t)) for t in ts])
    _write(_table_text(("t", "x", "u"), (tcol, xcol, ucol), args.format), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    for res in results:
        sys.stdout.write(res.line() + "\n")
    failed = [r for r in results if not r.passed]
    sys.stdout.write(
        f"{len(results) - len(failed)}/{len(results)} checks passed"
        + (f", {len(failed)} FAILED\n" if failed else "\n")
    )
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("spectrum", help="bound states: closed form vs FD oracle")
    add_spec(p)
    p.add_argument("--grid-l", type=float, default=20.0)
    p.add_argument("--grid-n", type=int, default=4001)
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OverflowDomainError, OverflowError, OracleWindowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC_DOMAIN
    except (NodalWronskianError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
