"""Transmission and reflection amplitudes of base and deformed sech^2 wells.

The closed forms come from the e^(+-iKx) asymptotics of the exact scattering
state: with the convention psi -> e^(iKx) as x -> +inf and
psi -> (1/t) e^(iKx) + (r/t) e^(-iKx) as x -> -inf,

    t(K) = G(-iK-h) G(-iK+h+1) / (G(-iK+1) G(-iK))
    r(K) = t(K) G(iK) G(1-iK) / (G(1+h) G(-h)) = i t(K) sin(pi h) / sinh(pi K)

by the reflection formula, and each deformation step multiplies t by the
unimodular factor (K + i(h+1+v)) / (K - i(h+1+v)) and r by minus that
factor.  sin(pi h) is taken about the nearest integer, so integer h gives a
floating-point-exact zero, and r stays finite at every h.  Where the
log-Gamma sum of t cannot be resolved in double precision (h beyond about
1e8), the amplitudes raise OverflowError instead of losing digits.  An
independent ODE-integration oracle checks both amplitudes.  It writes the
Jost solutions f(x; +-K) -> e^(+-iKx) as h e^(+-iKx), whose h'' = -+2iK h'
+ U h has h' = 0 wherever U has decayed, with no exponential in the
right-hand side, and steps it with VODE's variable-order Adams method.  The
equation is linear, so VODE gets its exact Jacobian in band form and each
step's corrector is a Newton step: 1.2 right-hand sides per step on the
verify grids, where functional iteration took 2.0, and a new Jacobian about
every 55 steps.  spectral_oracle integrates the same form a complex step off
k = i kappa, for the Jost Wronskian that gives each norming constant.
As every U_D is even and real, it integrates only from x = +25 to x = 0 on
the real line, and reads t and r off two Wronskians there: the left Jost
solutions are the mirror images of f(.; +-K).  It integrates a whole K grid
as one complex system of +K only, as U is real and so f(x; -K) =
conj f(x; K).  A singular potential, whose poles the line would cross, is
refused.
"""

from __future__ import annotations

import cmath
import math
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .darboux import SystemSpec
from .specfun import log_gamma

__all__ = [
    "ScatteringAmplitudes",
    "deformed_amplitudes",
    "numerical_amplitudes",
    "transmission_poles",
]

SMALL_K_CUTOFF = 0.05
AMPLITUDE_ERROR_LIMIT = 1e-6  # relative, on t and r
_EPS = math.ulp(1.0)  # double-precision epsilon, 2^-52
ORACLE_HALF_WIDTH = 25.0
ORACLE_DECAY = 1e-12


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


def deformed_amplitudes(spec: SystemSpec, K: float) -> ScatteringAmplitudes:
    """Amplitudes of the M-step deformed well: the base well's, times one factor per step.

    The base t is the exponential of a sum of four log-Gammas that cancel: at
    large h the terms are of size h log h, at large K of size pi K / 2.  The
    rounding of that sum is a relative error of |t|, and so of r; eps times
    the sum of the |Re log Gamma| bounds it.  The measured unitarity defect,
    about twice that error, stayed below 1.25 times the bound over h = 1e5 to
    1e8 and over K = 1e6 to 1e8.  Past AMPLITUDE_ERROR_LIMIT (the figure of
    darboux.WAVEFUNCTION_ERROR_LIMIT) it raises OverflowError: for K up to
    20 from about h = 1.3e8 on, and for a subnormal K, below
    sys.float_info.min.  An empty seed list gives the base well.
    """
    if not 0 < K < math.inf:
        raise ValueError(f"wave number must be finite and positive, got K = {K}")
    h = spec.h
    s = -1j * K
    a, b, c, d = log_gamma(s - h), log_gamma(s + h + 1.0), log_gamma(s + 1.0), log_gamma(s)
    # |t| = e^(Re sum), so the rounding of the sum is a relative error of t and r
    bound = _EPS * (abs(a.real) + abs(b.real) + abs(c.real) + abs(d.real))
    if K < sys.float_info.min:  # a subnormal K has lost digits, and 1/sinh(pi K) overflows
        bound = math.inf
    if not bound <= AMPLITUDE_ERROR_LIMIT:
        raise OverflowError(
            f"h = {h}, K = {K}: rounding error bound {bound:.1e} of the log-Gamma sum "
            f"exceeds {AMPLITUDE_ERROR_LIMIT:.0e}; double precision cannot resolve t"
        )
    t = cmath.exp(a + b - c - d)
    # r = (-i t / sinh(pi K)) (-sin(pi h)).  1/sinh(pi K) = 2 e^(-pi K) / (1 - e^(-2 pi K))
    # underflows to 0 where sinh would overflow.  -sin(pi h) = (-1)^n sin(pi (n - h)) about
    # the nearest integer n is exactly +0.0 at integer h (0.0 - s, not -s, for odd n).  r is
    # then -i t times +0.0, whose signed zeros, which the CLI prints, are those of the Gamma
    # form with 1/G(-h) = +0.0.
    n = round(h)
    minus_sin = math.sin(math.pi * (n - h))
    if n % 2:
        minus_sin = 0.0 - minus_sin
    r = -1j * t * (2.0 * math.exp(-math.pi * K) / -math.expm1(-2.0 * math.pi * K)) * minus_sin
    for gamma, _ in spec._columns:
        f = (K + 1j * gamma) / (K - 1j * gamma)
        t *= f
        r *= -f
    return ScatteringAmplitudes(K=float(K), t=t, r=r)


def transmission_poles(spec: SystemSpec) -> list:
    """kappa values of the poles of t_D on the positive imaginary K axis.

    These are the levels of SystemSpec._columns, and must coincide with the
    decay rates of the bound states.
    """
    poles = [spec.h - n for n in range(spec.n_base_states)]
    poles.extend(gamma for gamma, _ in spec._columns)
    return sorted(poles)


_TOL = (1e-13, 1e-15)  # (rtol, atol) of the Adams solve


# Adams starts from h' = 0, where the right-hand side is near 0 too; with no step
# bound it stepped over the whole well from x = 30 and returned h = 1, h' = 0
_MAX_STEP = 1.0
_MAX_STEPS = 100_000  # K = 400 takes 16,500 steps
# the largest ik.size whose right-hand side is one dense (2n, 2n) product: on a
# 2-core x86-64 host with one OpenBLAS thread a call at n = 2, 6, 12, 24 and 32
# took 1.1, 1.1, 1.3, 1.9 and 2.5 us against 2.7 to 3.2 us for three ufuncs; at
# n = 32 with two threads 4.2 us, and at n = 48 3.9 us with one
_DENSE_MAX = 24
# scipy does not promise that VODE is re-entrant (the Fortran original keeps its
# state in SAVE variables), so one Jost solve runs at a time
_JOST_LOCK = threading.Lock()


def _jost_system(ik: np.ndarray) -> tuple:
    """Right-hand side and Jacobian of the Jost equation on the state (h_0, h'_0, h_1, h'_1, ...).

    (h_j, h'_j)' = (h'_j, -2ik_j h'_j + U(x) h_j) is linear, so its Jacobian
    is the matrix M(x) of (h_j, h'_j)' = M (h_j, h'_j): 2 x 2 blocks
    [[0, 1], [U(x), -2ik_j]] on the diagonal, one per ik_j, U(x) real.  For
    n = ik.size up to _DENSE_MAX the right-hand side is one product with M,
    built once: each call writes the scalar U(x) into a strided view of the
    entries (2j + 1, 2j) and makes one np.dot into a preallocated output,
    which costs less than three ufunc calls while M is small.  M has (2n)^2 entries, so a
    larger ik takes h'' = -2ik h' + U h in three ufunc calls on strided views
    instead.  The state is complex, and VODE sees its float view
    (Re h_j, Im h_j, Re h'_j, Im h'_j, ...).  The Jacobian goes to VODE in
    its packed band form, band[uband + i - j, j] = J[i, j], J the Jacobian of
    that float view, with lband = uband = 2.  Only the entries of U(x)
    change from call to call.
    Returns (derivative, jacobian, lband, uband): derivative(uz, flat) and
    jacobian(uz) take U(x) and write M (h, h') of the float view flat, or the
    band, into one preallocated array each, which they return.
    """
    n, minus_2ik = ik.size, -2.0 * ik
    out = np.empty(2 * n, complex)  # every right-hand side is written here
    flat_out = out.view(float)
    if n <= _DENSE_MAX:
        m = np.zeros((2 * n, 2 * n), complex)  # local to this solve
        entries = m.reshape(-1)  # (2j + r, 2j + c) is entry 2n r + c + (4n + 2) j
        entries[1::4 * n + 2] = 1.0
        entries[2 * n + 1::4 * n + 2] = minus_2ik
        u_dense = entries[2 * n::4 * n + 2]  # the entries (2j + 1, 2j), set to U(x)

        def derivative(uz, flat):
            u_dense.fill(uz)
            np.dot(m, flat.view(complex), out=out)
            return flat_out

    else:
        h_out, dh_out = out[0::2], out[1::2]

        def derivative(uz, flat):
            state = flat.view(complex)
            h_out[:] = state[1::2]
            np.multiply(minus_2ik, state[1::2], out=dh_out)
            dh_out[:] += uz * state[0::2]
            return flat_out

    # J[4j + r, 4j + c] is band[2 + r - c, j, c], c over (Re h, Im h, Re h', Im h')
    band = np.zeros((5, n, 4))
    band[0, :, 2:] = 1.0  # (Re h_j)' = Re h'_j, (Im h_j)' = Im h'_j
    band[2, :, 2:] = minus_2ik.real[:, None]  # times -2ik_j: [[Re, -Im], [Im, Re]]
    band[1, :, 3] = -minus_2ik.imag
    band[3, :, 2] = minus_2ik.imag
    u_band = band[4, :, :2]  # times the real U(x)
    packed = band.reshape(5, -1)

    def jacobian(uz):
        u_band.fill(uz)
        return packed

    return derivative, jacobian, 2, 2


def _jost(potential, ik, L: float) -> np.ndarray:
    """(h..., h'...) at x = 0 of h = f e^(-ikx), f the right Jost solution -> e^(ikx), per ik.

    f'' = (U - k^2) f becomes h'' = -2ik h' + U h, solved from h = 1, h' = 0
    at x = L down to x = 0 on the real line, for every k at once: one solve
    by the variable-order Adams method of VODE (Brown, Byrne and Hindmarsh,
    SIAM J. Sci. Stat. Comput. 10 (1989) 1038) through scipy.integrate.ode,
    with steps of at most _MAX_STEP.  The right-hand side needs no
    exponential, h' stays near 0 where U has decayed, and for real k the
    growing mode e^(-2ikx) of h keeps modulus one, so no error made on the
    way is amplified.  The equation is linear, so VODE is given its exact
    Jacobian M(x) in band form (_jost_system) and the Adams corrector is a
    Newton step, which converges in about 1.2 right-hand sides per step.
    The state is complex for every ik, real ones too, and goes to VODE as
    its float view; each call reads the real U(x) once.  Where h and h' both
    end below atol / rtol of _TOL, as a deep level's f(0) of about 1/c does,
    VODE's weight rtol |y| + atol is no longer relative: those solutions are
    solved again, alone, with atol 1e-300 (VODE refuses 0).
    RuntimeError if U is not finite at a point of the path or VODE fails.
    """
    from scipy import integrate  # slow to import, and only the oracles use it

    u = getattr(potential, "evaluate_scalar", potential)
    nonfinite = []

    def refused(x, ux):
        nonfinite.append((x, ux))
        return 0.0  # VODE would step on a nan until _MAX_STEPS; refused below

    def solve(ik, atol):
        derivative, jacobian, lband, uband = _jost_system(ik)

        def rhs(x, flat):
            ux = u(x)
            return derivative(ux if math.isfinite(ux) else refused(x, ux), flat)

        def jac(x, flat):
            ux = u(x)
            return jacobian(ux if math.isfinite(ux) else refused(x, ux))

        y = np.zeros(2 * ik.size, complex)  # (h_0, h'_0, h_1, h'_1, ...)
        y[0::2] = 1.0
        solver = integrate.ode(rhs, jac).set_integrator(
            "vode", method="adams", with_jacobian=True, lband=lband, uband=uband,
            rtol=_TOL[0], atol=atol, max_step=_MAX_STEP, nsteps=_MAX_STEPS,
        )
        solver.set_initial_value(y.view(float), L)
        state = solver.integrate(0.0).view(complex)
        if nonfinite:
            x, ux = nonfinite[0]
            raise RuntimeError(f"Jost ODE stepper failed: U({x:.6g}) = {ux}")
        if not solver.successful():
            raise RuntimeError(
                f"Jost ODE stepper failed: VODE return code "
                f"{solver.get_return_code()} at x = {solver.t:.6g}"
            )
        return state[0::2], state[1::2]

    with _JOST_LOCK, warnings.catch_warnings():
        # a failed VODE call also warns; the RuntimeError below reports it once
        warnings.filterwarnings("ignore", "vode: ", UserWarning)
        h, dh = solve(ik, _TOL[1])
        again = np.flatnonzero((abs(h) < _TOL[1] / _TOL[0]) & (abs(dh) < _TOL[1] / _TOL[0]))
        if again.size:
            h[again], dh[again] = solve(ik[again], 1e-300)
    return np.concatenate([h, dh])  # (h..., h'...)


# both oracles need U(x) = U(-x), real, checked at these points to this relative
# tolerance
_EVEN_PROBES = (0.375, 1.25, 3.0)
_EVEN_TOL = 1e-10


def _require_oracle_potential(potential, L: float, decay: float) -> None:
    """ValueError unless |U| < decay at +-L and U is even and real at the _EVEN_PROBES."""
    edge = max(abs(complex(potential(L))), abs(complex(potential(-L))))
    if not edge < decay:
        raise ValueError(f"potential must decay below {decay} at +-{L}, got {edge:.2e}")
    for x in _EVEN_PROBES:
        a, b = complex(potential(x)), complex(potential(-x))
        if not max(abs(a - b), abs(a.imag)) <= _EVEN_TOL * max(abs(a), abs(b)):
            raise ValueError(
                f"potential must be even and real on the real line, got U({x}) = {a:.6g}, "
                f"U({-x}) = {b:.6g}"
            )


def numerical_amplitudes(potential, K) -> ScatteringAmplitudes:
    """ODE-integration scattering oracle, independent of the closed forms.

    K is one wave number or a 1-D array of them; every K must be finite and
    at least SMALL_K_CUTOFF.  The potential U must be even and real, so the
    path runs only from x = L = ORACLE_HALF_WIDTH down to x = 0.  The right
    Jost solution f(x; K) -> e^(iKx) is carried as f = h e^(iKx) from h = 1,
    h' = 0 at x = L (see _jost), and read off as f(0) = h and
    f'(0) = h' + iK h.  h' stays near 0 wherever U has decayed, so the
    stepper takes long steps in the tails.  One complex state holds every K
    and evaluates U once per step.  As U is even, the left Jost solution
    g(x) = f(-x; K), which is e^(-iKx) at -inf, has g(0) = f(0) and
    g'(0) = -f'(0); as it is real too, the solution conj f(-x; K), which is
    e^(iKx) at -inf, has the values conj f(0) and -conj f'(0).  With
    W[a, b] = a b' - a' b, the Wronskians give

        t = -2iK / W[f, g](0) = iK / (f(0) f'(0)),
        r = t W[f, conj f(-x; K)](0) / (2iK) = -t Re(f(0) conj f'(0)) / (iK).

    A potential whose is_singular is true raises ValueError: the path would
    cross its real poles.  The potential must have decayed below
    ORACLE_DECAY at +-L and be even and real at a few probe points
    (ValueError otherwise).
    A scalar K gives scalar fields, an array K arrays of the same length.
    """
    ks = np.array(K, dtype=float)
    kv = np.atleast_1d(ks)
    if ks.ndim > 1 or kv.size == 0:
        raise ValueError(f"K must be a scalar or a nonempty 1-D array, got shape {ks.shape}")
    for k in kv.tolist():
        if not 0 < k < math.inf:
            raise ValueError(f"wave number must be finite and positive, got K = {k}")
        if k < SMALL_K_CUTOFF:
            raise ValueError(
                f"K = {k} below the {SMALL_K_CUTOFF} cutoff: the Wronskians that give t "
                "and r cancel as K -> 0, too ill-conditioned for a trustworthy result"
            )
    if getattr(potential, "is_singular", False):
        raise ValueError("the potential is singular: its poles lie on the oracle's path")
    L = ORACLE_HALF_WIDTH
    _require_oracle_potential(potential, L, ORACLE_DECAY)
    ik = 1j * kv
    f, dh = np.split(_jost(potential, ik, L), 2)
    df = dh + ik * f
    t = 1j * kv / (f * df)
    r = t * (f * df.conj()).real / (-1j * kv)
    if ks.ndim == 0:
        return ScatteringAmplitudes(K=float(ks), t=complex(t[0]), r=complex(r[0]))
    return ScatteringAmplitudes(K=kv, t=t, r=r)
