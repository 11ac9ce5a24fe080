"""Seeded inputs of the three workloads and the checks on their outputs.

Inputs are plain JSON-able dicts made from ``--seed`` alone; the worker
process receives them and never sees the seed.  Known faults of the program
are kept as fixed, seed-independent operations tagged with ``fault``; every
other operation is drawn so that it passes at the stated tolerances.
"""

from __future__ import annotations

import csv
import math
import random

import numpy as np

import reference as ref

# --- tolerances of the checks -------------------------------------------------

C2_RTOL = 1e-8          # c_n^2 against |Res t_D| (mpmath)
AMPLITUDE_ATOL = 1e-10  # t, r against the mpmath Gamma products
UNITARITY_TOL = 1e-10   # | |t|^2 + |r|^2 - 1 |, as in C07
POTENTIAL_RTOL = 1e-9   # U_D against the mpmath Wronskian route, relative to max |U_D|
FIELD_RTOL = 1e-8       # GLM field against U_D and against mpmath, relative to max |U_D|
INVARIANT_RTOL = 1e-6   # mass -4 sum k and momentum (16/3) sum k^3
RESIDUAL_TOL = 1e-5     # the C06 tolerance

# --- spectral_sweep -----------------------------------------------------------

SWEEP_FIXED = (
    {"h": 1.0, "seeds": [2]},
    {"h": 1.0, "seeds": [36], "fault": "node-scan"},
    {"h": 5.0, "seeds": [34], "fault": "node-scan"},
    {"h": 2.1, "seeds": [2], "fault": "normalization-window"},
    {"h": 1.2, "seeds": [], "fault": "normalization-window"},
    {"h": 3.3, "seeds": [4], "fault": "normalization-window"},
)
SWEEP_X = (-10.0, 10.0, 2001)
SWEEP_POLE_GAP = 0.5    # singular sets: |x| >= this, the Wronskian zero sits at x = 0
SWEEP_K = (0.05, 20.0, 200)
SWEEP_X_SAMPLES = 9
SWEEP_K_SAMPLES = 8


# Seeded slots.  Each slot fixes the integer part of h (or h itself) and the
# seed degrees, so that every seed gives a round of about the same cost; the
# seed draws the fractional part of h and moves a single seed degree by 0 or 2.
# Fractional parts stay in [0.5, 0.95]: the shallowest state then has
# kappa >= 0.5, where the normalization window is exact to ~1e-11.
SWEEP_UNDEFORMED = ((3, False), (8, False), (2, True), (6, True))
SWEEP_DEEP_SEED = 34  # the deepest degree the node scan accepts, drawn at h < 1
SWEEP_FRACTIONAL = ((0, 2), (1, 24), (2, 6), (3, 20), (4, 10), (5, 16),
                    (6, 4), (7, 20), (8, 12), (9, 18), (4, 8), (7, 14))
SWEEP_INTEGER = ((1, 14), (2, 6), (3, 22), (4, 2), (5, 18), (6, 10),
                 (7, 4), (8, 16), (9, 20), (10, 8), (5, 24))
SWEEP_SINGULAR = (((2, 4), 1), ((2, 6), 3), ((4, 6), 2), ((4, 8), 4), ((2, 4, 6), 1))


def _fractional_h(rng: random.Random, n: int) -> float:
    return round(n + rng.uniform(0.5, 0.95), 4)


def _max_seed_degree(h: float) -> int:
    """Largest single seed degree whose Wronskian clears the node scan with margin."""
    return 26 if h <= 6.0 else 22


def _jitter_seed(rng: random.Random, v: int, h: float) -> list:
    return [min(v + 2 * rng.randint(0, 1), _max_seed_degree(h))]


def sweep_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    systems = [dict(s) for s in SWEEP_FIXED]
    for n, fractional in SWEEP_UNDEFORMED:
        systems.append({"h": _fractional_h(rng, n) if fractional else float(n), "seeds": []})
    for _ in range(2):
        systems.append({"h": round(rng.uniform(0.5, 0.99), 4), "seeds": [SWEEP_DEEP_SEED]})
    for n, v in SWEEP_FRACTIONAL:
        h = _fractional_h(rng, n)
        systems.append({"h": h, "seeds": _jitter_seed(rng, v, h)})
    for n, v in SWEEP_INTEGER:
        systems.append({"h": float(n), "seeds": _jitter_seed(rng, v, n)})
    for seeds, n in SWEEP_SINGULAR:
        h = _fractional_h(rng, n) if rng.random() < 0.5 else float(n)
        systems.append({"h": h, "seeds": list(seeds)})
    inputs = {"systems": systems, "x": SWEEP_X, "pole_gap": SWEEP_POLE_GAP, "k": SWEEP_K}
    for s in systems:
        n_x = len(sweep_x_grid(inputs, len(s["seeds"])))
        s["x_samples"] = sorted(rng.sample(range(n_x), SWEEP_X_SAMPLES))
        s["k_samples"] = sorted(rng.sample(range(SWEEP_K[2]), SWEEP_K_SAMPLES))
    return inputs


def sweep_x_grid(inputs: dict, n_seeds: int) -> np.ndarray:
    """The x grid of one system; singular sets leave out |x| < pole_gap."""
    xs = np.linspace(*inputs["x"][:2], int(inputs["x"][2]))
    return xs[np.abs(xs) >= inputs["pole_gap"]] if n_seeds > 1 else xs


def check_sweep_system(system: dict, out: dict, inputs: dict) -> list:
    """Problems found in one system's outputs; empty when all checks hold."""
    h, seeds = system["h"], system["seeds"]
    problems = []
    if len(seeds) <= 1:
        kset = ref.kappa_set(h, seeds)
        if out["kappas"] != kset:
            problems.append(f"kappa set {out['kappas']} != {kset}")
        if out["energies"] != [-k * k for k in out["kappas"]]:
            problems.append("energies are not -kappa^2 exactly")
        if out["poles"] != kset:
            problems.append(f"transmission poles {out['poles']} != {kset}")
        for (k, c2), c in zip(ref.norming_constants_sq(h, seeds), out["norming_constants"]):
            err = abs(c * c / c2 - 1.0)
            if not err <= C2_RTOL:
                problems.append(f"c^2 at kappa={k}: relative error {err:.2e}")
    ks = np.linspace(*inputs["k"][:2], int(inputs["k"][2]))
    for i, t, r in zip(system["k_samples"], out["t_samples"], out["r_samples"]):
        t_ref, r_ref = ref.amplitudes(h, seeds, float(ks[i]))
        err = max(abs(complex(*t) - t_ref), abs(complex(*r) - r_ref))
        if not err <= AMPLITUDE_ATOL:
            problems.append(f"amplitudes at K={ks[i]}: error {err:.2e}")
    if not out["unitarity_max"] <= UNITARITY_TOL:
        problems.append(f"unitarity defect {out['unitarity_max']:.2e}")
    if h == round(h) and out["r_max_abs"] != 0.0:
        problems.append(f"integer h but max |r| = {out['r_max_abs']:.2e}")
    xs = sweep_x_grid(inputs, len(seeds))
    u_ref = [ref.deformed_potential(h, seeds, float(xs[i])) for i in system["x_samples"]]
    scale = max(abs(u) for u in u_ref)
    err = max(abs(a - b) for a, b in zip(out["u_samples"], u_ref)) / scale
    if not err <= POTENTIAL_RTOL:
        problems.append(f"U_D relative error {err:.2e}")
    return problems


# --- soliton_fields -----------------------------------------------------------

SOLITON_X = (-10.0, 10.0, 2001)
SOLITON_T = (0.0, 0.02, 11)     # t = 0 comes first, exactly
INVARIANT_TIMES = (0.0, 0.02)
RESIDUAL_POINTS = 4
FIELD_SAMPLES = 6
SOLITON_FAULT = {"h": 6.0, "seeds": [2], "fault": "glm-digits"}


def soliton_inputs(seed: int) -> dict:
    """One integer-h system for each soliton count N = 1..7: h = N - 1 with
    seed v = 2, after the undeformed h = 1 well.

    The systems are the same for every seed, so every round costs the same;
    the seed draws the KdV residual points and the sampled (x, t) that are
    checked against mpmath.  N = 6 and N = 7 take their points from a fixed
    generator instead: near their cores (kappa = 8 and 9) kdv_residual's fixed
    stencil steps reach the 1e-5 tolerance at some points only, and N = 7 is
    the fault system, which must fail the same way on every seed.
    """
    rng = random.Random(seed)
    systems = [{"h": 1.0, "seeds": []}]
    systems += [{"h": float(n - 1), "seeds": [2]} for n in range(2, 7)]
    systems[-1]["fixed_points"] = True
    systems.append(dict(SOLITON_FAULT, fixed_points=True))
    n_rows = SOLITON_X[2] * SOLITON_T[2]
    for s in systems:
        draw = random.Random(int(s["h"])) if s.get("fixed_points") else rng
        s["residual_points"] = [
            (round(draw.uniform(-2.0, 2.0), 6), round(draw.uniform(*SOLITON_T[:2]), 6))
            for _ in range(RESIDUAL_POINTS)
        ]
        s["field_samples"] = sorted(draw.sample(range(n_rows), FIELD_SAMPLES))
    return {"systems": systems, "x": SOLITON_X, "t": SOLITON_T, "invariant_times": INVARIANT_TIMES}


def read_field_csv(path: str):
    """(t, x, u) columns of a CLI soliton CSV as float arrays."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["t", "x", "u"]:
        raise ValueError(f"unexpected CSV header {rows[0]}")
    return np.array(rows[1:], dtype=float).T


def check_soliton_system(system: dict, out: dict, path: str, potential) -> list:
    """Problems found in one soliton system; ``potential`` is the program's U_D."""
    h, seeds = system["h"], system["seeds"]
    problems = []
    tcol, xcol, ucol = read_field_csv(path)
    nx = SOLITON_X[2]
    xs = xcol[:nx]
    if not (np.all(tcol[:nx] == 0.0) and len(ucol) == nx * SOLITON_T[2]):
        return [f"CSV layout: {len(ucol)} rows, first block not at t = 0"]
    u_d = potential(xs)
    scale = float(np.max(np.abs(u_d)))
    err = float(np.max(np.abs(ucol[:nx] - u_d))) / scale
    if not err <= FIELD_RTOL:
        problems.append(f"u(x,0) vs U_D: relative error {err:.2e}")
    c2 = ref.norming_constants_sq(h, seeds)
    kappas = [k for k, _ in c2]
    c0 = [math.sqrt(c) for _, c in c2]
    for i in system["field_samples"]:
        u_ref = ref.glm_field(kappas, c0, float(xcol[i]), float(tcol[i]))
        e = abs(ucol[i] - u_ref) / scale
        if not e <= FIELD_RTOL:
            problems.append(f"u({xcol[i]}, {tcol[i]}) vs mpmath: relative error {e:.2e}")
    mass_ref = -4.0 * sum(kappas)
    mom_ref = 16.0 / 3.0 * sum(k**3 for k in kappas)
    for t, (mass, mom) in zip(INVARIANT_TIMES, out["invariants"]):
        e = max(abs(mass / mass_ref - 1.0), abs(mom / mom_ref - 1.0))
        if not e <= INVARIANT_RTOL:
            problems.append(f"mass/momentum at t={t}: relative error {e:.2e}")
    worst = max(out["residuals"])
    if not worst <= RESIDUAL_TOL:
        problems.append(f"KdV residual {worst:.2e}")
    return problems


# --- acceptance ---------------------------------------------------------------

def parse_verify(text: str):
    """[(name, defect, tol, passed)] and the summary line of `verify` output."""
    checks = []
    lines = text.strip().splitlines()
    for line in lines[:-1]:
        name, _, rest = line.rpartition(": defect ")
        defect, _, rest = rest.partition(" vs tol ")
        tol, _, status = rest.partition(" ")
        checks.append((name, float(defect), float(tol), status == "PASS"))
    return checks, lines[-1] if lines else ""


def inputs_for(workload: str, seed: int) -> dict:
    if workload == "acceptance":
        return {"argv": ["verify", "--suite", "all"]}
    if workload == "spectral_sweep":
        return sweep_inputs(seed)
    if workload == "soliton_fields":
        return soliton_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")
