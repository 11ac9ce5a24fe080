"""Acceptance-grade verification checks, shared by the CLI and the test suite.

Each check function returns a list of CheckResult records (name, measured
defect, tolerance); a check passes when the measured defect does not exceed
its tolerance.  Suites group the checks by subject: spectra, scattering, glm
reconstruction and kdv dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .darboux import SystemSpec, bound_states, deformed_potential
from .kdv import (
    SolitonData,
    asymptotic_decomposition,
    conserved_quantities,
    field_u,
    kdv_residual,
    scattering_data_from_spec,
)
from .scattering import deformed_amplitudes, numerical_amplitudes, transmission_poles
from .spectral_oracle import MAP_SCALE, GridSpec, eigen_spectrum, oracle_norming_constants

__all__ = ["CheckResult", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: defect {self.measured:.3e} vs tol {self.tolerance:.1e} {status}"


C0_TWO_SOLITON = math.sqrt(10.0 / 3.0)
C1_TWO_SOLITON = math.sqrt(40.0 / 3.0)


def _two_soliton_data_exact() -> SolitonData:
    return SolitonData((1.0, 4.0), (C0_TWO_SOLITON, C1_TWO_SOLITON))


def two_soliton_closed_form(x, t):
    """Frozen closed form of the (kappa = 1, 4) field, used as a cross-check."""
    x = np.asarray(x, dtype=float)
    num = -120.0 * np.exp(8 * t + 2 * x) * (
        np.exp(1024 * t)
        + np.exp(16 * x)
        + 16 * np.exp(520 * t + 6 * x)
        + 30 * np.exp(512 * t + 8 * x)
        + 16 * np.exp(504 * t + 10 * x)
    )
    den = (
        3 * np.exp(520 * t)
        + 3 * np.exp(10 * x)
        + 5 * np.exp(512 * t + 2 * x)
        + 5 * np.exp(8 * t + 8 * x)
    ) ** 2
    return num / den


def _worst(defects) -> float:
    """The largest of the defects, nan if one is nan: the builtin max drops a nan not first."""
    return float(np.max(np.fromiter(defects, float)))


def _level_defect(found, expected) -> float:
    """max |found - expected| over the levels in order, or inf if the level counts differ."""
    if len(found) != len(expected):
        return math.inf
    return _worst(abs(a - b) for a, b in zip(found, expected))


# --- criteria 1, 2 and 5: the sinc oracle's grid ---

SINC_GRID = GridSpec()
_SINC_GRID_TEXT = f"n={SINC_GRID.n_points}, L={SINC_GRID.L:g}, a={MAP_SCALE:g}"


# --- criteria 1 and 2: spectrum and norming constants of h=1 [2], one sinc oracle solve ---

def _norming_defect_h1(levels) -> float:
    """The (kappa, c) levels of h=1 [2] against c at kappa = 1 and 4; inf for other kappas."""
    by_kappa = {round(kappa): c for kappa, c in levels}
    if len(levels) != 2 or by_kappa.keys() != {1, 4}:
        return math.inf
    return _worst((abs(by_kappa[1] - C0_TWO_SOLITON), abs(by_kappa[4] - C1_TWO_SOLITON)))


def check_bound_states_h1() -> list:
    spec = SystemSpec(1.0, (2,))
    oracle = oracle_norming_constants(deformed_potential(spec), SINC_GRID)
    sdefect = _level_defect([-kappa * kappa for kappa, _ in oracle], (-16.0, -1.0))
    closed = _norming_defect_h1([(s.kappa, s.norming_constant) for s in bound_states(spec)])
    odefect = _norming_defect_h1(oracle)
    return [
        CheckResult(f"spectrum h=1 [2] vs {{-16,-1}} (sinc oracle, {_SINC_GRID_TEXT})",
                    sdefect, 1e-6),
        CheckResult("norming constants h=1 [2], closed form", closed, 1e-6),
        CheckResult(f"norming constants h=1 [2], sinc oracle ({_SINC_GRID_TEXT})", odefect, 1e-3),
    ]


# --- criterion 3: GLM reconstruction of the h=1 profile ---

def check_reconstruction_h1() -> list:
    data = scattering_data_from_spec(SystemSpec(1.0, (2,)))
    pot = deformed_potential(SystemSpec(1.0, (2,)))
    xs = np.linspace(-10.0, 10.0, 2001)
    defect = float(np.max(np.abs(field_u(data, xs, 0.0) - pot(xs))))
    spot = abs(field_u(data, 0.0, 0.0) - (-30.0))
    return [
        CheckResult("reconstruction h=1: max |u(x,0) - U_D(x)| on [-10,10]", defect, 1e-8),
        CheckResult("reconstruction h=1: spot value u(0,0) = -30", spot, 1e-8),
    ]


# --- criterion 4: agreement with the transcribed two-soliton closed form ---

def check_explicit_formula() -> list:
    data = _two_soliton_data_exact()
    xs = (-3.0, -1.5, 0.0, 1.5, 3.0)
    ts = (-0.05, -0.02, 0.02, 0.05)
    defect = _worst(
        abs(field_u(data, x, t) - float(two_soliton_closed_form(x, t)))
        for x in xs
        for t in ts
    )
    return [CheckResult("two-soliton closed form, 20 samples |x|<=3 |t|<=0.05", defect, 1e-9)]


# --- criterion 5: the h=2 chain ---

def check_h2_chain() -> list:
    spec = SystemSpec(2.0, (2,))
    pot = deformed_potential(spec)
    levels = eigen_spectrum(pot, SINC_GRID)
    sdefect = _level_defect([e for e, _ in levels], (-25.0, -4.0, -1.0))
    data = scattering_data_from_spec(spec)
    spot = abs(field_u(data, 0.0, 0.0) - (-44.0))
    xs = np.linspace(-8.0, 8.0, 1601)
    rdefect = float(np.max(np.abs(field_u(data, xs, 0.0) - pot(xs))))
    return [
        CheckResult(f"spectrum h=2 [2] vs {{-25,-4,-1}} (sinc oracle, {_SINC_GRID_TEXT})",
                    sdefect, 1e-6),
        CheckResult("h=2 profile spot value u(0,0) = -44", spot, 1e-8),
        CheckResult("reconstruction h=2: max |u(x,0) - U_D(x)| on [-8,8]", rdefect, 1e-6),
    ]


# --- criterion 6: KdV residuals on a 9x5 grid ---

def _residual_grid(data: SolitonData) -> float:
    xs = np.linspace(-2.0, 2.0, 9)
    ts = np.linspace(-0.05, 0.05, 5)
    return _worst(kdv_residual(data, x, t) for x in xs for t in ts)


def check_kdv_residuals() -> list:
    one = SolitonData((1.0,), (math.sqrt(2.0),))
    two = _two_soliton_data_exact()
    three = scattering_data_from_spec(SystemSpec(2.0, (2,)))
    r1 = _worst((_residual_grid(one), kdv_residual(one, 0.3, 0.2)))
    r2 = _worst((_residual_grid(two), kdv_residual(two, 0.5, 0.05)))
    r3 = _worst((_residual_grid(three), kdv_residual(three, -1.0, 0.02)))
    return [
        CheckResult("KdV residual, one-soliton (1), 9x5 grid", r1, 1e-6),
        CheckResult("KdV residual, two-soliton (1,4), 9x5 grid", r2, 1e-5),
        CheckResult("KdV residual, three-soliton (1,2,5), 9x5 grid", r3, 1e-5),
    ]


# --- criterion 7: unitarity and exact reflectionlessness ---

def check_unitarity() -> list:
    rng = np.random.default_rng(20260809)
    seed_choices = ((), (2,), (4,), (2, 4))
    defects = []
    while len(defects) < 200:
        h = float(rng.uniform(0.5, 5.0))
        if abs(h - round(h)) < 1e-3:
            continue
        K = float(rng.uniform(0.1, 10.0))
        spec = SystemSpec(h, seed_choices[len(defects) % len(seed_choices)])
        defects.append(deformed_amplitudes(spec, K).unitarity_defect)
    rmax = _worst(
        abs(deformed_amplitudes(SystemSpec(h, seeds), K).r)
        for h in (1.0, 2.0, 3.0)
        for seeds in ((), (2,), (2, 4))
        for K in (0.5, 1.0, 2.0, 4.0)
    )
    defect = _worst(defects)
    return [
        CheckResult("unitarity | |t|^2+|r|^2 - 1 |, 200 random non-integer h", defect, 1e-10),
        CheckResult("reflectionless r_D = 0 (exact float zero) for integer h", rmax, 0.0),
    ]


# --- criterion 8: closed form vs ODE-integration oracle ---

ORACLE_SPECS = (
    SystemSpec(1.0, (2,)),
    SystemSpec(2.0, (2,)),
    SystemSpec(1.5, (2,)),
    SystemSpec(1.0, (2, 4)),
)
ORACLE_K_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def check_oracle_agreement() -> list:
    out = []
    for spec in ORACLE_SPECS:
        pot = deformed_potential(spec, allow_singular=True)
        numeric = numerical_amplitudes(pot, ORACLE_K_GRID)
        closed = [deformed_amplitudes(spec, K) for K in ORACLE_K_GRID]
        dt = _worst(abs(c.t - t) for c, t in zip(closed, numeric.t))
        dr = _worst(abs(c.r - r) for c, r in zip(closed, numeric.r))
        label = f"h={spec.h} seeds={list(spec.seeds)}"
        out.append(CheckResult(f"oracle agreement t, {label}", dt, 1e-4))
        out.append(CheckResult(f"oracle agreement r, {label}", dr, 1e-4))
    return out


# --- criterion 9: transmission poles = bound-state decay rates ---

def check_pole_duality() -> list:
    out = []
    for spec in (SystemSpec(1.0, (2,)), SystemSpec(2.0, (2,)), SystemSpec(3.0, ())):
        poles = transmission_poles(spec)
        defect = _level_defect(poles, sorted(s.kappa for s in bound_states(spec)))
        out.append(
            CheckResult(f"pole/spectrum duality h={spec.h} seeds={list(spec.seeds)}", defect, 0.0)
        )
    return out


# --- criterion 10: asymptotic phase shifts of the (1,4) solution ---

def _peak_near(data: SolitonData, x_guess: float, t: float):
    xs = np.linspace(x_guess - 0.5, x_guess + 0.5, 1001)
    vals = -field_u(data, xs, t)
    i = int(np.argmax(vals))
    if 0 < i < len(xs) - 1:
        d = xs[1] - xs[0]
        denom = vals[i - 1] - 2 * vals[i] + vals[i + 1]
        x_peak = xs[i] + 0.5 * d * (vals[i - 1] - vals[i + 1]) / denom
        height = -field_u(data, x_peak, t)
    else:
        x_peak, height = xs[i], vals[i]
    return x_peak, height


def check_asymptotic_phase_shifts() -> list:
    data = _two_soliton_data_exact()
    solitons = asymptotic_decomposition(data)
    chi_expected = 0.5 * math.log(5.0 / 3.0)
    chi_defect = _worst(
        (abs(solitons[0].chi - chi_expected), abs(solitons[1].chi + chi_expected))
    )
    pos_defects, height_defects = [], []
    for t in (-3.0, 3.0):
        for a in solitons:
            predicted = a.peak_position(t)
            x_peak, height = _peak_near(data, predicted, t)
            pos_defects.append(abs(x_peak - predicted))
            height_defects.append(abs(height - 2.0 * a.kappa**2))
    pos_defect, height_defect = _worst(pos_defects), _worst(height_defects)
    return [
        CheckResult("phase shifts chi for (1,4): +-0.5 ln(5/3)", chi_defect, 1e-12),
        CheckResult("peak positions at t=+-3 vs 4 k^2 t -+ chi/k", pos_defect, 1e-2),
        CheckResult("peak heights at t=+-3 vs 2 k^2", height_defect, 1e-3),
    ]


# --- criterion 11: conserved mass and momentum ---

def check_conservation() -> list:
    datasets = {
        "(1)": SolitonData((1.0,), (math.sqrt(2.0),)),
        "(1,4)": _two_soliton_data_exact(),
        "(1,2,5)": scattering_data_from_spec(SystemSpec(2.0, (2,))),
    }
    out = []
    for label, data in datasets.items():
        mass_ref = -4.0 * sum(data.kappas)
        mom_ref = (16.0 / 3.0) * sum(k**3 for k in data.kappas)
        masses, moms = [], []
        for t in (-0.05, 0.0, 0.05):
            mass, mom = conserved_quantities(data, t)
            masses.append(mass)
            moms.append(mom)
        defect = _worst(
            [abs(m - mass_ref) for m in masses]
            + [abs(p - mom_ref) for p in moms]
            + [abs(m - masses[1]) for m in masses]
        )
        out.append(CheckResult(f"conserved mass/momentum {label}, t in {{-0.05,0,0.05}}", defect, 1e-8))
    return out


SUITES = {
    "spectra": (check_bound_states_h1, check_h2_chain, check_pole_duality),
    "scattering": (check_unitarity, check_oracle_agreement),
    "glm": (check_reconstruction_h1, check_explicit_formula),
    "kdv": (check_kdv_residuals, check_asymptotic_phase_shifts, check_conservation),
}


def run_suite(name: str) -> list:
    """Results of one suite, or of every suite in SUITES order for 'all'."""
    if name == "all":
        return [res for suite in SUITES for res in run_suite(suite)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return [res for fn in SUITES[name] for res in fn()]
