"""Special-function kernel for the deformation and scattering machinery.

Provides exactly what the rest of the package calls: monomial coefficients of
Jacobi polynomials for arbitrary real parameters (including the
negative-parameter range required by pseudo-virtual seed functions), and the
principal-branch complex log-Gamma and entire reciprocal Gamma of
scipy.special, bound here under the names the scattering amplitudes use.
rgamma is an exact 0.0 at the nonpositive integers, which keeps the
reflection of integer-h wells a floating-point zero.

All functions are pure and hold no state; concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special
from numpy.polynomial import polynomial as npoly

__all__ = [
    "JacobiParams",
    "jacobi_coefficients",
    "log_gamma",
    "reciprocal_gamma",
]

# Callers pass complex arguments: loggamma of a negative real float is nan.
log_gamma = scipy.special.loggamma
reciprocal_gamma = scipy.special.rgamma


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
