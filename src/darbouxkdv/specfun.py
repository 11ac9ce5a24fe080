"""Special-function kernel for the deformation and scattering machinery.

Provides exactly what the rest of the package needs: Jacobi polynomials for
arbitrary real parameters (including the negative-parameter range required by
pseudo-virtual seed functions), principal-branch complex log-Gamma, the entire
reciprocal Gamma, and the Gauss hypergeometric series 2F1 with complex
parameters at real argument together with its two-term connection formula.

All functions are pure and hold no state; concurrent use is safe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "JacobiParams",
    "GammaPoleError",
    "Hyp2f1ConvergenceError",
    "DegenerateConnectionError",
    "jacobi_coefficients",
    "jacobi_eval",
    "log_gamma",
    "reciprocal_gamma",
    "hyp2f1",
    "hyp2f1_connection",
    "hyp2f1_dz",
]


class GammaPoleError(ValueError):
    """Gamma evaluated at a nonpositive integer (a pole)."""


class Hyp2f1ConvergenceError(RuntimeError):
    """The Gauss series did not converge within the term budget."""


class DegenerateConnectionError(ValueError):
    """c - a - b is an integer, so the two-term connection formula degenerates."""


@dataclass(frozen=True)
class JacobiParams:
    """Degree and (possibly negative real) parameters of a Jacobi polynomial."""

    n: int
    alpha: float
    beta: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise ValueError(f"Jacobi degree must be a nonnegative integer, got {self.n}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("Jacobi parameters must be finite")


def _gen_binom(a: float, k: int) -> float:
    """Generalized binomial coefficient C(a, k) for real a, integer k >= 0."""
    out = 1.0
    for j in range(k):
        out *= (a - j) / (j + 1)
    return out


def _symmetric_coefficients(n: int, a: float) -> np.ndarray:
    """Monomial coefficients of P_n^(a,a), each one a product of exact factors.

    P_n^(a,a) has the parity of n.  Its lowest coefficient, with n = 2m + k,
    is (-1)^m (b+m+1)_m / (4^m m!) with b = a + k, times (n+2a+1)/2 when n is
    odd (the derivative rule P_n' = (n+2a+1)/2 P_(n-1)^(a+1,a+1)); the Jacobi
    equation then gives c_(j+2) = (j-n)(j+n+2a+1)/((j+1)(j+2)) c_j.
    """
    m, k = divmod(n, 2)
    c = (n + 2.0 * a + 1.0) / 2.0 if k else 1.0
    for i in range(m):
        c *= -(a + k + m + 1.0 + i) / (4.0 * (i + 1))
    out = np.zeros(n + 1)
    out[k] = c
    for j in range(k, n - 1, 2):
        out[j + 2] = out[j] * (j - n) * (j + n + 2.0 * a + 1.0) / ((j + 1) * (j + 2))
    return out


def jacobi_coefficients(p: JacobiParams) -> np.ndarray:
    """Monomial coefficients (lowest degree first) of P_n^(alpha,beta).

    Uses the explicit finite sum

        P_n(z) = sum_k C(n+alpha, k) C(n+beta, n-k) ((z-1)/2)^(n-k) ((z+1)/2)^k

    which involves only generalized binomials, so it is exact for every real
    parameter pair, including the nonpositive-integer values where the
    terminating hypergeometric form would divide by a vanishing Pochhammer
    symbol.  For alpha = beta the coefficients come from the recurrence of
    _symmetric_coefficients instead, which is free of cancellation.
    """
    n, al, be = p.n, p.alpha, p.beta
    if al == be:
        return _symmetric_coefficients(n, al)
    minus = np.array([-0.5, 0.5])  # (z-1)/2
    plus = np.array([0.5, 0.5])    # (z+1)/2
    coeffs = np.zeros(n + 1)
    for k in range(n + 1):
        c = _gen_binom(n + al, k) * _gen_binom(n + be, n - k)
        if c == 0.0:
            continue
        term = np.array([c])
        term = npoly.polymul(term, npoly.polypow(minus, n - k)) if n - k else term
        term = npoly.polymul(term, npoly.polypow(plus, k)) if k else term
        coeffs = npoly.polyadd(coeffs, term)
    out = np.zeros(n + 1)
    out[: len(coeffs)] = coeffs
    return out


def jacobi_eval(p: JacobiParams, z):
    """Value and z-derivative of P_n^(alpha,beta) at z (scalar or array).

    Exact (up to rounding) for every real parameter pair; the only rejected
    inputs are non-finite arguments.
    """
    z = np.asarray(z)
    if not np.all(np.isfinite(z)):
        raise ValueError("jacobi_eval requires finite argument")
    coef = jacobi_coefficients(p)
    dcoef = npoly.polyder(coef) if p.n >= 1 else np.array([0.0])
    value = npoly.polyval(z, coef)
    dvalue = npoly.polyval(z, dcoef)
    if z.ndim == 0:
        return float(value), float(dvalue)
    return value, dvalue


# Lanczos approximation, g = 7, 9 coefficients.  Verified against an
# independent implementation to ~4e-15 relative over |z| <= 50.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _is_nonpositive_integer(w: complex):
    """Return -w as int when w is a real nonpositive integer, else None."""
    if w.imag == 0.0 and w.real <= 0.0 and w.real == math.floor(w.real):
        return int(-w.real)
    return None


def log_gamma(z) -> complex:
    """Principal-branch log Gamma(z) for complex z.

    Lanczos sum on Re z >= 0.5; elsewhere shifted there through the recurrence
    log Gamma(z) = log Gamma(z+1) - Log z, which preserves the principal
    branch on the plane cut along the negative real axis.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("log_gamma requires finite argument")
    if _is_nonpositive_integer(z) is not None:
        raise GammaPoleError(f"log_gamma pole at z = {z}")
    shift = 0.0 + 0.0j
    while z.real < 0.5:
        shift += cmath.log(z)
        z += 1.0
    w = z - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return (w + 0.5) * cmath.log(t) - t + _HALF_LOG_2PI + cmath.log(acc) - shift


def reciprocal_gamma(z) -> complex:
    """1/Gamma(z) as an entire function; exactly 0 at nonpositive integers."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("reciprocal_gamma requires finite argument")
    if _is_nonpositive_integer(z) is not None:
        return 0.0 + 0.0j
    return cmath.exp(-log_gamma(z))


_SERIES_MAX_TERMS = 10_000
_SERIES_RTOL = 1e-16
_SERIES_RUN = 3  # consecutive small terms required to stop


def _gauss_series(a: complex, b: complex, c: complex, z: float) -> complex:
    """Direct Gauss series at real z; handles terminating cases exactly."""
    ka = _is_nonpositive_integer(a)
    kb = _is_nonpositive_integer(b)
    kc = _is_nonpositive_integer(c)
    n_stop = None
    if ka is not None:
        n_stop = ka
    if kb is not None:
        n_stop = kb if n_stop is None else min(n_stop, kb)
    if kc is not None and (n_stop is None or kc < n_stop):
        raise GammaPoleError(
            f"2F1 series hits the pole of (c)_k at k = {kc + 1} before terminating"
        )
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    if n_stop == 0:
        return total
    small_run = 0
    for k in range(_SERIES_MAX_TERMS):
        term *= (a + k) * (b + k) / (c + k) * z / (k + 1)
        total += term
        if n_stop is not None:
            if k + 1 == n_stop:
                return total
            continue
        if abs(term) < _SERIES_RTOL * abs(total):
            small_run += 1
            if small_run == _SERIES_RUN:
                return total
        else:
            small_run = 0
    raise Hyp2f1ConvergenceError(
        f"2F1 series did not converge within {_SERIES_MAX_TERMS} terms (z = {z})"
    )


def _connection_degenerate(a: complex, b: complex, c: complex) -> bool:
    s = c - a - b
    return abs(s.imag) < 1e-13 and abs(s.real - round(s.real)) < 1e-13


def hyp2f1(a, b, c, z: float) -> complex:
    """Gauss 2F1(a, b; c; z) for complex parameters at real z in [0, 1).

    Terminating series (a or b a nonpositive integer) are summed exactly and
    are accepted at z = 1 as well.  Non-terminating series with z > 1/2 are
    routed through the connection formula for accuracy when c - a - b is not
    an integer; otherwise the direct series is used while it still converges.
    """
    a, b, c = complex(a), complex(b), complex(c)
    z = float(z)
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"hyp2f1 requires 0 <= z <= 1, got z = {z}")
    terminating = (
        _is_nonpositive_integer(a) is not None or _is_nonpositive_integer(b) is not None
    )
    if z == 1.0 and not terminating:
        raise Hyp2f1ConvergenceError("non-terminating 2F1 at z = 1")
    if terminating or z <= 0.5:
        return _gauss_series(a, b, c, z)
    if not _connection_degenerate(a, b, c):
        t1, t2 = hyp2f1_connection(a, b, c, z)
        return t1 + t2
    if z <= 0.95:
        return _gauss_series(a, b, c, z)
    raise Hyp2f1ConvergenceError(
        "z too close to 1 with integer c-a-b: connection formula inapplicable"
    )


def hyp2f1_connection(a, b, c, z: float):
    """The two terms of the 1-z connection formula for 2F1(a, b; c; z).

    Returns (term1, term2) with

        term1 = G(c)G(c-a-b)/(G(c-a)G(c-b)) 2F1(a, b; a+b-c+1; 1-z)
        term2 = G(c)G(a+b-c)/(G(a)G(b)) (1-z)^(c-a-b)
                  2F1(c-a, c-b; c-a-b+1; 1-z)

    whose sum equals 2F1(a, b; c; z).  1/Gamma factors go through
    reciprocal_gamma, so a vanishing prefactor (e.g. a a nonpositive integer)
    produces an exact zero term.  Raises DegenerateConnectionError when
    c - a - b is an integer.
    """
    a, b, c = complex(a), complex(b), complex(c)
    z = float(z)
    if not 0.0 < z < 1.0:
        raise ValueError(f"hyp2f1_connection requires 0 < z < 1, got z = {z}")
    if _connection_degenerate(a, b, c):
        raise DegenerateConnectionError(
            f"c - a - b = {c - a - b} is an integer; connection formula degenerates"
        )
    s = c - a - b
    om = 1.0 - z
    lgc = log_gamma(c)
    f1 = _gauss_series(a, b, a + b - c + 1.0, om)
    term1 = cmath.exp(lgc + log_gamma(s)) * reciprocal_gamma(c - a) * reciprocal_gamma(c - b) * f1
    pref2 = cmath.exp(lgc + log_gamma(-s)) * reciprocal_gamma(a) * reciprocal_gamma(b)
    if pref2 == 0:
        return term1, 0.0 + 0.0j
    f2 = _gauss_series(c - a, c - b, s + 1.0, om)
    term2 = pref2 * cmath.exp(s * math.log(om)) * f2
    return term1, term2


def hyp2f1_dz(a, b, c, z: float) -> complex:
    """d/dz 2F1(a, b; c; z) = (a b / c) 2F1(a+1, b+1; c+1; z)."""
    a, b, c = complex(a), complex(b), complex(c)
    return a * b / c * hyp2f1(a + 1.0, b + 1.0, c + 1.0, z)
