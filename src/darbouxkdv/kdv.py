"""Exact KdV multi-soliton fields from reflectionless scattering data.

For reflectionless data {kappa_n, c_n(0)} the inverse transform reduces to
u(x, t) = -2 (d^2/dx^2) log det A(x, t) with

    A_mn = delta_mn + c_m(t) c_n(t) e^(-(kappa_m+kappa_n)x) / (kappa_m+kappa_n)
    c_n(t) = c_n(0) e^(4 kappa_n^3 t)

(the symmetric congruent form of the GLM matrix; same determinant, positive
definite).  The field itself is evaluated on a per-point rescaled matrix,
which keeps every entry bounded for arbitrary (x, t): the rescaling is a
congruence by diag(e^(-max(theta_n, 0))), i.e. the translation-covariance
factors e^(kappa_n a) absorbed at the matrix level.  The x-derivatives of A
have rank one and two, so one linear solve with one right-hand side per point
gives u.  Array points are evaluated in blocks of FIELD_BLOCK, so the
per-point work arrays stay bounded however many points one call asks for;
each block's matrices are built in place, and every matrix is solved on its
own, so a point's value does not depend on its block.
The KdV residual check re-evaluates the field in high precision through the
principal-minor (Cauchy determinant) expansion of det A, an algebraically
independent route whose x- and t-derivatives are exact, term by term.  The
expansion's float constants are converted to mpf once per precision and
cached.  mpmath is imported by the functions that use it, _mp_terms,
_tau_sums and kdv_residual, so it loads with the first residual check, not
with the package.
The conserved mass and momentum are trapezoid sums over one uniform grid,
evaluated in one vector call: the step is set by the largest kappa, the
window by the smallest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .darboux import SystemSpec, bound_states

__all__ = [
    "OverflowDomainError",
    "SolitonData",
    "AsymptoticSoliton",
    "scattering_data_from_spec",
    "field_u",
    "kdv_residual",
    "asymptotic_decomposition",
    "conserved_quantities",
]

RESIDUAL_DPS = 40
QUADRATURE_MARGIN = 40.0  # window margin in decay lengths 1/kappa_min
TRAPEZOID_STEP = 0.15     # grid step in units of 1/kappa_max
FIELD_BLOCK = 1024        # points per vector solve in field_u


class OverflowDomainError(ArithmeticError):
    """Requested evaluation point lies outside the representable domain."""


@dataclass(frozen=True)
class SolitonData:
    """Reflectionless scattering data: decay rates and norming constants at t=0."""

    kappas: tuple
    c0: tuple

    def __post_init__(self):
        kap = tuple(float(k) for k in self.kappas)
        cc = tuple(float(c) for c in self.c0)
        if len(kap) != len(cc) or not kap:
            raise ValueError("kappas and c0 must be nonempty lists of equal length")
        if any(not (math.isfinite(k) and k > 0) for k in kap):
            raise ValueError("every kappa must be finite and positive")
        if any(b <= a for a, b in zip(kap, kap[1:])):
            raise ValueError("kappas must be strictly increasing")
        if any(not (math.isfinite(c) and c > 0) for c in cc):
            raise ValueError("every norming constant must be finite and positive")
        object.__setattr__(self, "kappas", kap)
        object.__setattr__(self, "c0", cc)

    @property
    def n(self) -> int:
        return len(self.kappas)


def scattering_data_from_spec(spec: SystemSpec) -> SolitonData:
    """Scattering data of a deformed well with integer h (reflectionless).

    Non-integer h is rejected: the reflection amplitude would not vanish and
    the determinant form of the GLM solution would not apply.
    """
    if spec.h != round(spec.h) or round(spec.h) < 1:
        raise ValueError(
            f"h = {spec.h} is not a positive integer; the deformed well is not "
            "reflectionless and the GLM determinant form does not apply"
        )
    states = bound_states(spec)  # ascending energy == descending kappa
    states = sorted(states, key=lambda s: s.kappa)
    return SolitonData(
        kappas=tuple(s.kappa for s in states),
        c0=tuple(s.norming_constant for s in states),
    )


def _theta(data: SolitonData, x, t: float) -> np.ndarray:
    """theta_n = log c_n + 4 kappa_n^3 t - kappa_n x, shape (npts, N)."""
    kap = np.asarray(data.kappas)
    logc = np.log(data.c0)
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    return logc + 4.0 * kap**3 * t - np.outer(xx, kap)


def field_u(data: SolitonData, x, t: float):
    """u(x, t) = -2 (log det A)'' from one linear solve, for scalar or array x.

    Per point the matrix is rescaled by the congruence S = diag(e^(-max(theta,0))),
    which leaves the traces of (log det A)' = tr(A^-1 A') and
    (log det A)'' = tr(A^-1 A'') - tr((A^-1 A')^2) unchanged.  With
    w = e^(min(theta, 0)), every entry is bounded:

        S A S = S^2 + w w^T / (kappa_m + kappa_n),
        S A' S = -w w^T,    S A'' S = (kappa w) w^T + w (kappa w)^T,

    so with y = (S A S)^-1 w the traces collapse to dot products,
    (log det A)' = -w.y and (log det A)'' = 2 (kappa w).y - (w.y)^2.
    No numeric differentiation is used.  Array points go through in blocks
    of FIELD_BLOCK, which bounds the (npts, N, N) work arrays without
    changing any value, and u comes back in the shape of x.
    """
    xarr = np.asarray(x, dtype=float)
    if xarr.ndim == 0:
        return float(_field_block(data, xarr, t)[0])
    flat = xarr.ravel()
    u = np.empty(flat.size)
    for start in range(0, flat.size, FIELD_BLOCK):
        stop = start + FIELD_BLOCK
        u[start:stop] = _field_block(data, flat[start:stop], t)
    return u.reshape(xarr.shape)


def _field_block(data: SolitonData, xs: np.ndarray, t: float) -> np.ndarray:
    """The one-solve formula of field_u on one block of points, shape (npts,).

    The (npts, N, N) matrices are built in place: w w^T, divided by the
    (N, N) sums kappa_m + kappa_n, then S^2 added through a strided view of
    the diagonals.  The dot products are per-row sums, whose order does not
    depend on npts.
    """
    th = _theta(data, xs, t)  # (npts, N)
    kap = np.asarray(data.kappas)
    th_hat = np.minimum(th, 0.0)
    w = np.exp(th_hat)  # bounded by 1
    a = w[:, :, None] * w[:, None, :]
    a /= kap[:, None] + kap[None, :]
    a.reshape(len(th), -1)[:, ::data.n + 1] += np.exp(2.0 * (th_hat - th))  # S^2 <= 1
    y = np.linalg.solve(a, w[:, :, None])[:, :, 0]
    wy = (w * y).sum(axis=1)
    return -2.0 * (2.0 * (kap * w * y).sum(axis=1) - wy * wy)


@lru_cache(maxsize=64)
def _tau_terms(kappas: tuple, c0: tuple):
    """Principal-minor expansion of det A: per subset S the constants
    (alpha_S, beta_S, gamma_S) with term = exp(alpha + beta t + gamma x).

    det A = sum_S C_S prod_{n in S} c_n(t)^2 e^(-2 kappa_n x), with the Cauchy
    determinant C_S = prod_{i<j in S} ((k_i-k_j)/(k_i+k_j))^2 / prod_{i in S} 2 k_i.
    """
    n = len(kappas)
    terms = []
    for size in range(n + 1):
        for sub in combinations(range(n), size):
            log_c = 0.0
            for ii, i in enumerate(sub):
                log_c -= math.log(2.0 * kappas[i])
                log_c += 2.0 * math.log(c0[i])
                for j in sub[ii + 1:]:
                    log_c += 2.0 * math.log(
                        abs(kappas[i] - kappas[j]) / (kappas[i] + kappas[j])
                    )
            beta = sum(8.0 * kappas[i] ** 3 for i in sub)
            gamma = -sum(2.0 * kappas[i] for i in sub)
            terms.append((log_c, beta, gamma))
    return tuple(terms)


@lru_cache(maxsize=64)
def _mp_terms(terms: tuple, prec: int) -> tuple:
    """The float triples of _tau_terms as mpf triples, converted at precision prec.

    Keyed by the terms tuple itself, not by the data it came from, and by the
    precision, since below 53 bits the conversion rounds.
    """
    import mpmath as mp

    with mp.workprec(prec):
        return tuple(tuple(mp.mpf(v) for v in term) for term in terms)


def _tau_sums(data: SolitonData, x, t, nx: int, nt: int):
    """Exact derivatives of det A = f = sum_S exp(alpha_S + beta_S t + gamma_S x).

    Returns [d^k f/dx^k for k < nx] and [d/dt d^k f/dx^k for k < nt], the sums
    of gamma^k e and beta gamma^k e over the principal-minor expansion, in the
    caller's mpmath precision, from the cached mpf terms of _mp_terms.
    """
    import mpmath as mp

    x = mp.mpf(x)
    t = mp.mpf(t)
    fx = [mp.mpf(0)] * nx
    ft = [mp.mpf(0)] * nt
    for log_c, beta, gamma in _mp_terms(_tau_terms(data.kappas, data.c0), mp.mp.prec):
        e = mp.exp(log_c + beta * t + gamma * x)
        for k in range(nx):
            fx[k] += e
            if k < nt:
                ft[k] += beta * e
            e *= gamma
    return fx, ft


def _field_mp(data: SolitonData, x, t):
    """High-precision u(x, t) = -2 (f f'' - f'^2) / f^2 from the tau sums."""
    (f, fx, fxx), _ = _tau_sums(data, x, t, 3, 0)
    return -2.0 * (fxx * f - fx * fx) / (f * f)


def _quotient_derivs(g: list, f: list) -> list:
    """x-derivatives 0..len(g)-1 of g/f from those of g and f.

    Solves the Leibniz rule g^(n) = sum_k C(n, k) q^(k) f^(n-k) for q^(n).
    """
    q = []
    for n in range(len(g)):
        q.append((g[n] - sum(math.comb(n, k) * q[k] * f[n - k] for k in range(n))) / f[0])
    return q


def kdv_residual(data: SolitonData, x: float, t: float) -> float:
    """|u_t - 6 u u_x + u_xxx| at one point, from exact derivatives of det A.

    The derivatives of f = det A come exactly from _tau_sums.  With
    u = -2 (log f)'', u_x, u_xxx and u_t are x-derivatives of the quotients
    f'/f and f_t/f, evaluated in 40 significant digits; no step size enters.
    """
    import mpmath as mp

    with mp.workdps(RESIDUAL_DPS):
        fx, ft = _tau_sums(data, x, t, 6, 3)
        dlog = _quotient_derivs(fx[1:], fx)  # (log f)^(k+1), k = 0..4
        dlog_t = _quotient_derivs(ft, fx)    # d^k/dx^k of (log f)_t, k = 0..2
        # u = -2 dlog[1], u_x = -2 dlog[2], u_xxx = -2 dlog[4], u_t = -2 dlog_t[2]
        res = -2 * dlog_t[2] - 24 * dlog[1] * dlog[2] - 2 * dlog[4]
        return float(abs(res))


@dataclass(frozen=True)
class AsymptoticSoliton:
    """Asymptotic single-soliton component: speed 4 kappa^2 and phase shift chi."""

    kappa: float
    speed: float
    chi: float

    def peak_position(self, t: float) -> float:
        """Location of the -u peak for large |t|: 4 kappa^2 t -+ chi/kappa.

        The sign pairing (minus chi/kappa as t -> +inf) was fixed empirically
        against the peak positions of the evaluated field.
        """
        return self.speed * t - math.copysign(1.0, t) * self.chi / self.kappa


def asymptotic_decomposition(data: SolitonData) -> list:
    """Phase shifts chi_n = 1/2 sum_{m!=n} sgn(k_n-k_m) log|(k_n-k_m)/(k_n+k_m)|."""
    kap = data.kappas
    out = []
    for n, kn in enumerate(kap):
        chi = 0.0
        for m, km in enumerate(kap):
            if m == n:
                continue
            chi += 0.5 * math.copysign(1.0, kn - km) * math.log(abs((kn - km) / (kn + km)))
        out.append(AsymptoticSoliton(kappa=kn, speed=4.0 * kn * kn, chi=chi))
    return out


def conserved_quantities(data: SolitonData, t: float):
    """(integral of u, integral of u^2) over a window covering every soliton.

    Expected values: -4 sum kappa_n and (16/3) sum kappa_n^3, independent of t.

    Both integrals are trapezoid sums over one uniform grid, from one vector
    field_u call.  The window reaches QUADRATURE_MARGIN / kappa_min past the
    outermost soliton centre 4 kappa_n^2 t, where |u| ~ e^(-2 QUADRATURE_MARGIN)
    = e^-80, so the end weights and the tails are below rounding.  u is
    analytic in a strip about the real axis: its nearest poles sit about
    pi / (2 kappa_max) off it.  For such an integrand the trapezoid rule
    converges geometrically, with error about e^(-pi^2 / (kappa_max step))
    (Trefethen & Weideman, SIAM Rev. 56 (2014) 385), and u^2 has the same
    poles.  The step TRAPEZOID_STEP / kappa_max therefore leaves e^-66.
    """
    centers = [4.0 * k * k * t for k in data.kappas]
    margin = QUADRATURE_MARGIN / data.kappas[0]
    lo = min(0.0, *centers) - margin
    hi = max(0.0, *centers) + margin
    # even, so that every other point is itself a trapezoid grid
    n = 2 * math.ceil((hi - lo) * data.kappas[-1] / (2.0 * TRAPEZOID_STEP))
    xs = np.linspace(lo, hi, n + 1)
    step = (hi - lo) / n
    u = field_u(data, xs, t)
    return float(step * np.sum(u)), float(step * np.sum(u * u))
