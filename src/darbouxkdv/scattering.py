"""Transmission and reflection amplitudes of base and deformed sech^2 wells.

The closed forms come from the e^(+-iKx) asymptotics of the exact scattering
state: with the convention psi -> e^(iKx) as x -> +inf and
psi -> (1/t) e^(iKx) + (r/t) e^(-iKx) as x -> -inf,

    t(K) = G(-iK-h) G(-iK+h+1) / (G(-iK+1) G(-iK))
    r(K) = t(K) G(iK) G(1-iK) / (G(1+h) G(-h))

and each deformation step multiplies t by the unimodular factor
(K + i(h+1+v)) / (K - i(h+1+v)).  The 1/Gamma factors of r go through
reciprocal_gamma, so integer h gives a floating-point-exact zero.  An
independent ODE-integration oracle checks both amplitudes, integrating a
whole K grid as one complex system; for singular multi-step potentials it
detours around the x = 0 pole on a complex semicircle, which computes the
meromorphic continuation of the deformed scattering state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .darboux import SystemSpec, _validated
from .specfun import log_gamma, reciprocal_gamma

__all__ = [
    "ScatteringAmplitudes",
    "base_amplitudes",
    "deformation_factor",
    "deformed_amplitudes",
    "numerical_amplitudes",
    "transmission_poles",
]

SMALL_K_CUTOFF = 0.05
ORACLE_HALF_WIDTH = 25.0
ORACLE_DECAY = 1e-12
DETOUR_RADIUS = 0.5


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Complex transmission and reflection at real wave number K (E = K^2),
    or at each K of the array given to numerical_amplitudes."""

    K: float
    t: complex
    r: complex

    @property
    def unitarity_defect(self) -> float:
        return abs(abs(self.t) ** 2 + abs(self.r) ** 2 - 1.0)


def base_amplitudes(h: float, K: float) -> ScatteringAmplitudes:
    """Amplitudes of the undeformed well -h(h+1)/cosh^2 x."""
    if not 0 < K < math.inf:
        raise ValueError(f"wave number must be finite and positive, got K = {K}")
    if not h > 0:
        raise ValueError(f"h must be positive, got {h}")
    s = -1j * K
    t = cmath.exp(log_gamma(s - h) + log_gamma(s + h + 1.0) - log_gamma(s + 1.0) - log_gamma(s))
    r = (
        t
        * cmath.exp(log_gamma(1j * K) + log_gamma(1.0 - 1j * K))
        * reciprocal_gamma(1.0 + h)
        * reciprocal_gamma(-h)
    )
    return ScatteringAmplitudes(K=float(K), t=t, r=r)


def deformation_factor(h: float, v: int, K: float):
    """Unimodular one-step factors (t_factor, r_factor) for seed degree v.

    t_factor = (K + i d)/(K - i d) and r_factor = -(K + i d)/(K - i d) with
    d = h + 1 + v; the transmission factor carries the new bound-state pole at
    K = i d on the positive imaginary axis.
    """
    _validated(h, (v,))
    if not 0 < K < math.inf:
        raise ValueError(f"wave number must be finite and positive, got K = {K}")
    d = h + 1.0 + v
    t_factor = (K + 1j * d) / (K - 1j * d)
    return t_factor, -t_factor


def deformed_amplitudes(spec: SystemSpec, K: float) -> ScatteringAmplitudes:
    """Amplitudes of the M-step deformed well: products of one-step factors."""
    amp = base_amplitudes(spec.h, K)
    t, r = amp.t, amp.r
    for v in spec.seeds:  # deformation_factor's product, the spec already validated
        d = spec.h + 1.0 + v
        tf = (K + 1j * d) / (K - 1j * d)
        t *= tf
        r *= -tf
    return ScatteringAmplitudes(K=float(K), t=t, r=r)


def transmission_poles(spec: SystemSpec) -> list:
    """kappa values of the poles of t_D on the positive imaginary K axis.

    These are {h - n : n = 0..ceil(h)-1} together with h + 1 + v per seed, and
    must coincide with the decay rates of the bound states.
    """
    poles = [spec.h - n for n in range(spec.n_base_states)]
    poles.extend(spec.h + 1.0 + v for v in spec.seeds)
    return sorted(poles)


def _detour_segments(L: float, radius: float):
    def arc(theta):
        return radius * cmath.exp(1j * theta)

    def darc(theta):
        return 1j * radius * cmath.exp(1j * theta)

    return [
        (lambda s: s, lambda s: 1.0, L, radius),
        (arc, darc, 0.0, math.pi),
        (lambda s: s, lambda s: 1.0, -radius, -L),
    ]


def numerical_amplitudes(
    potential,
    K,
    half_width: float = ORACLE_HALF_WIDTH,
    detour_radius: float = DETOUR_RADIUS,
) -> ScatteringAmplitudes:
    """ODE-integration scattering oracle, independent of the closed forms.

    K is one wave number or a 1-D array of them; every K must be finite and
    at least SMALL_K_CUTOFF.  Starts from pure e^(iKx) waves at x = +L and
    integrates psi'' = (U - K^2) psi backwards to -L for all K at once, as
    one complex state [psi(K...), psi'(K...)] that evaluates U once per step.
    There psi = P e^(iKx) + Q e^(-iKx) splits as
    P = (psi + psi'/(iK)) e^(iKL)/2 and Q = (psi - psi'/(iK)) e^(-iKL)/2.
    Potentials flagged as singular are integrated along a complex semicircle
    of the given radius around x = 0; the result is the meromorphic
    continuation of the scattering state and is independent of which
    half-plane the detour uses.  half_width must be positive and
    detour_radius inside (0, half_width).  A scalar K gives scalar fields,
    an array K arrays of the same length.
    """
    from scipy.integrate import solve_ivp  # slow to import, and only this oracle uses it

    ks = np.array(K, dtype=float)
    kv = np.atleast_1d(ks)
    if ks.ndim > 1 or kv.size == 0:
        raise ValueError(f"K must be a scalar or a nonempty 1-D array, got shape {ks.shape}")
    for k in kv.tolist():
        if not 0 < k < math.inf:
            raise ValueError(f"wave number must be finite and positive, got K = {k}")
        if k < SMALL_K_CUTOFF:
            raise ValueError(
                f"K = {k} below the {SMALL_K_CUTOFF} cutoff: the e^(+-iKx) decomposition "
                "is too ill-conditioned to return a trustworthy result"
            )
    L = float(half_width)
    if not L > 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    if not 0 < detour_radius < L:
        raise ValueError(f"detour_radius must lie in (0, half_width = {L}), got {detour_radius}")
    edge = max(abs(complex(potential(L))), abs(complex(potential(-L))))
    if edge >= ORACLE_DECAY:
        raise ValueError(f"potential must decay below {ORACLE_DECAY} at +-{L}, got {edge:.2e}")
    if getattr(potential, "is_singular", False):
        segments = _detour_segments(L, detour_radius)
    else:
        segments = [(lambda s: s, lambda s: 1.0, L, -L)]
    f = getattr(potential, "evaluate_scalar", potential)
    n, k2, ik = kv.size, kv * kv, 1j * kv
    wave = np.exp(ik * L)
    y = np.concatenate([wave, ik * wave])
    for path, dpath, s0, s1 in segments:
        def rhs(s, yv):
            dx = dpath(s)
            return np.concatenate([yv[n:] * dx, (f(path(s)) - k2) * yv[:n] * dx])

        sol = solve_ivp(rhs, (s0, s1), y, method="DOP853", rtol=1e-10, atol=1e-12)
        if not sol.success:
            raise RuntimeError(f"scattering ODE stepper failed: {sol.message}")
        y = sol.y[:, -1]
    psi, dpsi = y[:n], y[n:]
    p = 0.5 * (psi + dpsi / ik) * wave
    q = 0.5 * (psi - dpsi / ik) / wave
    t, r = 1.0 / p, q / p
    if ks.ndim == 0:
        return ScatteringAmplitudes(K=float(ks), t=complex(t[0]), r=complex(r[0]))
    return ScatteringAmplitudes(K=kv, t=t, r=r)
