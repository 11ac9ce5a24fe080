"""Special-function kernel for the deformation and scattering machinery.

Provides monomial coefficients of the symmetric Jacobi polynomials P_n^(a,a)
for any real a (including the negative range required by pseudo-virtual seed
functions), the principal-branch complex log-Gamma of scipy.special that the
transmission amplitude uses, and its entire reciprocal Gamma.

scipy.special takes longer to import than the rest of the package together,
and only the amplitudes need it, so the module holds one lazily bound handle:
the first log_gamma or reciprocal_gamma call imports scipy.special and binds
it to _special.  Binding is idempotent (the import lock hands every thread
the same module object), so concurrent first calls are safe; every function
is otherwise pure.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "jacobi_coefficients",
    "log_gamma",
    "reciprocal_gamma",
]

_special = None  # scipy.special, bound by the first Gamma call


def _bind_special():
    global _special
    import scipy.special

    _special = scipy.special
    return _special


def log_gamma(z):
    """Principal-branch log Gamma(z), scipy.special.loggamma.

    Callers pass complex arguments: loggamma of a negative real float is nan.
    """
    return (_special or _bind_special()).loggamma(z)


def reciprocal_gamma(z):
    """1/Gamma(z), scipy.special.rgamma: entire, and 0.0 at z = 0, -1, -2, ..."""
    return (_special or _bind_special()).rgamma(z)


def jacobi_coefficients(n: int, a: float) -> np.ndarray:
    """Monomial coefficients (lowest degree first) of P_n^(a,a).

    Every caller asks for one form, the Darboux column P_n^(-gamma,-gamma):
    a seed has gamma = h+1+v > 3, a base level n gamma = n - h < 0.
    Each coefficient is a product of exact factors, free of cancellation for
    every real a.  P_n^(a,a) has the parity of n.  Its lowest coefficient,
    with n = 2m + k, is (-1)^m (b+m+1)_m / (4^m m!) with b = a + k, times
    (n+2a+1)/2 when n is odd (the derivative rule
    P_n' = (n+2a+1)/2 P_(n-1)^(a+1,a+1)); the Jacobi equation then gives
    c_(j+2) = (j-n)(j+n+2a+1)/((j+1)(j+2)) c_j.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"Jacobi degree must be a nonnegative integer, got {n}")
    if not math.isfinite(a):
        raise ValueError(f"Jacobi parameter must be finite, got {a}")
    m, k = divmod(n, 2)
    c = (n + 2.0 * a + 1.0) / 2.0 if k else 1.0
    for i in range(m):
        c *= -(a + k + m + 1.0 + i) / (4.0 * (i + 1))
    out = np.zeros(n + 1)
    out[k] = c
    for j in range(k, n - 1, 2):
        out[j + 2] = out[j] * (j - n) * (j + n + 2.0 * a + 1.0) / ((j + 1) * (j + 2))
    return out
