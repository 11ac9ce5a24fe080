"""Exact KdV multi-soliton fields from reflectionless scattering data.

For reflectionless data {kappa_n, c_n(0)} the inverse transform reduces to
u(x, t) = -2 (d^2/dx^2) log tau with tau = det A,

    A_mn = delta_mn + c_m(t) c_n(t) e^(-(kappa_m+kappa_n)x) / (kappa_m+kappa_n)
    c_n(t) = c_n(0) e^(4 kappa_n^3 t)

(the symmetric congruent form of the GLM matrix).  Its principal-minor
(Cauchy determinant) expansion writes tau as a sum of 2^N positive terms
e^(alpha_S + beta_S t + gamma_S x), one per subset S of the solitons.  One
builder makes the terms with numpy, sorts them by gamma and groups equal
gammas, once per data set, and caches the last TAU_CACHE_SIZE data sets.
The field merges each group into one weight W_g(t): for integer kappa,
gamma = -2 sum_S kappa takes at most 1 + sum kappa values (31 at N = 7),
for general kappa up to 2^N.  Then u = -2 Var(gamma) under the softmax
weights of log W_g + gamma_g x, a sum of positive terms with no
cancellation and no overflow for any (x, t).  Array points are evaluated
in blocks bounded by FIELD_BUDGET points x groups, and a point's value
does not depend on its block.  Above SOLITON_LIMIT = 20 solitons the
builder raises ValueError before allocating anything.
The KdV residual takes the same expansion term by term: log tau is the
cumulant generating function of gamma under the softmax weights of the
terms, so u and its x- and t-derivatives are exact cumulants, summed in
float64 with no step size; their rounding grows like kappa_max^5.
The conserved mass and momentum are trapezoid sums over uniform grids on the
merged windows about 0 and each soliton centre: the step is set by the
largest kappa, the window width by the smallest.  Past the field's precision
domain (THETA_PRECISION_LIMIT) the field, the residual and the conserved
quantities raise OverflowDomainError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

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

QUADRATURE_MARGIN = 40.0  # window margin in decay lengths 1/kappa_min
TRAPEZOID_STEP = 0.15     # grid step in units of 1/kappa_max
FIELD_BUDGET = 1 << 15    # points x groups per block of field_u
SOLITON_LIMIT = 20        # largest soliton count: the tau expansion has 2^N terms
TAU_CACHE_SIZE = 4        # cached expansions, 21 to 34 MB each at N = SOLITON_LIMIT
# the field's precision domain: theta_n = log c_n + 4 k^3 t - k x loses absolute
# precision as |4 k^3 t| + k |x| approaches 1/eps; past this limit u is noise
THETA_PRECISION_LIMIT = 1e12
# exponents below this give subnormal weights, and np.exp takes about 200 times as
# long for a subnormal result as for a normal one; they are taken as -inf, weight 0
_LOG_MIN = math.log(sys.float_info.min)


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


def field_u(data: SolitonData, x, t: float):
    """u(x, t) = -2 (log tau)'' as a variance of positive weights, for scalar or array x.

    tau = det A = sum_g W_g(t) e^(gamma_g x) over the groups of _tau_groups,
    every W_g > 0.  With the softmax weights p_g of z_g = log W_g + gamma_g x,
    (log tau)' = sum p gamma and (log tau)'' = sum p (gamma - mean)^2, so u is
    -2 times the variance of gamma under p: a sum of positive terms, taken in
    two passes, with no cancellation and no overflow for any (x, t).  log W_g
    is one log-sum-exp per group and per call.  The per-point cost is one term
    per group: at most 1 + sum kappa for integer kappa, up to 2^N otherwise.
    Points go through in blocks of FIELD_BUDGET // groups (at least one), laid
    out as (groups, points), and every sum over the groups is a _group_sum, so
    a point's value does not depend on its block; u comes back in the shape
    of x.  Weights below sys.float_info.min are taken as 0 before the
    exponential: they change no sum unless |u| is itself below about 1e-290.
    Above SOLITON_LIMIT solitons, for a non-finite entry of x, or for a t
    that is not one finite number, it raises ValueError, and past the
    precision domain (THETA_PRECISION_LIMIT) OverflowDomainError.
    """
    xarr = np.asarray(x, dtype=float)
    flat = xarr.reshape(-1)
    reach = float(np.abs(flat).max(initial=0.0))  # inf or nan where an entry is one
    if not math.isfinite(reach):
        _require_finite("x", flat)
    _require_scalar("t", t)
    _require_precision_domain(data, reach, t)
    alpha, beta, starts, group, gam = _tau_groups(data.kappas, data.c0)
    e = alpha + beta * t
    peak = np.maximum.reduceat(e, starts)
    log_w = peak + np.log(np.add.reduceat(np.exp(e - peak[group]), starts))
    gam = gam[:, None]
    log_w = log_w[:, None]
    u = np.empty(flat.size)
    step = max(1, FIELD_BUDGET // gam.size)
    for start in range(0, flat.size, step):
        z = gam * flat[start:start + step]
        z += log_w
        z -= z.max(axis=0)
        if z.min() < _LOG_MIN:  # on most grids no weight is that small
            np.copyto(z, -np.inf, where=z < _LOG_MIN)
        p = np.exp(z, out=z)  # the largest weight is 1
        norm = _group_sum(p)
        dev = gam - _group_sum(p * gam) / norm
        dev *= dev
        dev *= p
        u[start:start + step] = -2.0 * _group_sum(dev) / norm
    return float(u[0]) if xarr.ndim == 0 else u.reshape(xarr.shape)


def _require_finite(name: str, value) -> None:
    """Raise ValueError naming `name` if the number or array `value` holds a non-finite entry."""
    finite = np.isfinite(value)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {np.asarray(value)[~finite].flat[0]}")


def _require_scalar(name: str, value) -> None:
    """Raise ValueError naming `name` unless `value` is one finite number."""
    if np.ndim(value):
        raise ValueError(f"{name} must be a scalar, got an array of shape {np.shape(value)}")
    _require_finite(name, value)


def _require_precision_domain(data: SolitonData, reach: float, t: float) -> None:
    """Raise OverflowDomainError if |4 kappa^3 t| + kappa reach > THETA_PRECISION_LIMIT.

    The left side grows with kappa, also as rounded, so the largest kappa
    alone decides, and with |x|, so reach = max |x| stands for every point.
    """
    k = data.kappas[-1]
    if abs(t * (4.0 * k**3)) + k * reach > THETA_PRECISION_LIMIT:
        raise OverflowDomainError(
            f"|x| up to {reach:.6g} at t = {t} leaves the numeric stability domain "
            f"|4 kappa^3 t| + kappa |x| <= {THETA_PRECISION_LIMIT:.0e}"
        )


def _group_sum(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0 by halving, in an order that no column count changes.

    numpy's own reduction over axis 0 adds the rows in turn for two or more
    columns, but sums a single column pairwise, so a scalar x would not be
    bitwise the same as the array path.
    """
    while len(a) > 1:
        half = len(a) // 2
        middle = a[half:len(a) - half]  # one row when the count is odd
        a = a[:half] + a[len(a) - half:]
        if len(middle):
            a[0] += middle[0]
    return a[0]


@lru_cache(maxsize=TAU_CACHE_SIZE)
def _tau_groups(kappas: tuple, c0: tuple) -> tuple:
    """Principal-minor expansion of det A, sorted by gamma and grouped by exactly equal gamma.

    det A = sum_S C_S prod_{n in S} c_n(t)^2 e^(-2 kappa_n x) over the subsets S
    of the solitons, with the Cauchy determinant
    C_S = prod_{i<j in S} ((k_i-k_j)/(k_i+k_j))^2 / prod_{i in S} 2 k_i, so each
    term is exp(alpha_S + beta_S t + gamma_S x).  The three arrays, indexed by
    the bitmask of S, double once per kappa: the subsets holding kappa_i are
    those without it, shifted by kappa_i's own factor and its interaction with
    each.  Returns alpha and beta sorted by gamma (stably), the start of each
    group, the group of each term (both int32, which holds 2^SOLITON_LIMIT)
    and the gamma of each group, all read-only.  Integer kappas give integer
    gamma = -2 sum_S kappa, so at most 1 + sum kappa groups (31 at N = 7);
    general kappas give up to 2^N.  More than SOLITON_LIMIT solitons raise
    ValueError before anything is allocated.
    """
    if len(kappas) > SOLITON_LIMIT:
        raise ValueError(
            f"{len(kappas)} solitons exceed the limit of {SOLITON_LIMIT}: "
            "the tau expansion has 2^N terms"
        )
    kap = np.asarray(kappas)
    own = 2.0 * np.log(c0) - np.log(2.0 * kap)
    alpha = beta = gamma = np.zeros(1)
    for i, k in enumerate(kap):
        inter = np.zeros(1)  # sum over j in S of the pair factor of (j, i), S below i
        for pair in 2.0 * np.log(np.abs(k - kap[:i]) / (k + kap[:i])):
            inter = np.concatenate([inter, inter + pair])
        alpha = np.concatenate([alpha, alpha + own[i] + inter])
        beta = np.concatenate([beta, beta + 8.0 * k**3])
        gamma = np.concatenate([gamma, gamma - 2.0 * k])
    order = np.argsort(gamma, kind="stable")
    gamma = gamma[order]
    first = np.r_[True, gamma[1:] != gamma[:-1]]
    starts = np.flatnonzero(first).astype(np.int32)
    group = np.cumsum(first, dtype=np.int32) - 1
    out = (alpha[order], beta[order], starts, group, gamma[first])
    for arr in out:
        arr.setflags(write=False)
    return out


def kdv_residual(data: SolitonData, x: float, t: float) -> float:
    """|u_t - 6 u u_x + u_xxx| at one point, from exact cumulants of the tau expansion.

    tau = sum_S e^(z_S), z_S = alpha_S + beta_S t + gamma_S x, so log tau is
    the cumulant generating function of gamma under the softmax weights p_S
    of z_S: (log tau)^(k) = kappa_k, the k-th cumulant of gamma, and
    d/dt (log tau)'' = E[(beta - E beta)(gamma - E gamma)^2].  Hence
    u = -2 kappa_2, u_x = -2 kappa_3, u_xxx = -2 kappa_5 with
    kappa_5 = mu_5 - 10 mu_3 mu_2 (central moments mu_k), u_t = -2 kappa_bgg,
    and the residual is |-2 kappa_bgg - 24 kappa_2 kappa_3 - 2 kappa_5|.  No
    step size enters, and the weights cannot overflow for any (x, t).  The
    sums run in float64 over all 2^N terms of the cached _tau_groups, with
    gamma taken per term; their rounding is about
    eps (|u_t| + 6 |u u_x| + |u_xxx|), which grows like kappa_max^5
    (1e-10 at a kappa = 8 core).  Weights below sys.float_info.min are
    taken as 0, as in field_u.  Above SOLITON_LIMIT solitons, or for an x
    or t that is not one finite number, it raises ValueError, and past the
    precision domain OverflowDomainError.
    """
    _require_scalar("x", x)
    _require_scalar("t", t)
    _require_precision_domain(data, abs(x), t)
    alpha, beta, _, group, gam = _tau_groups(data.kappas, data.c0)
    gamma = gam[group]
    z = alpha + beta * t + gamma * x
    z -= z.max()
    np.copyto(z, -np.inf, where=z < _LOG_MIN)
    p = np.exp(z, out=z)
    p /= p.sum()
    dg = gamma - p @ gamma
    dg2 = dg * dg
    mu2 = p @ dg2
    mu3 = p @ (dg2 * dg)
    mu5 = p @ (dg2 * dg2 * dg)
    k_bgg = p @ ((beta - p @ beta) * dg2)
    return float(abs(-2.0 * k_bgg - 24.0 * mu2 * mu3 - 2.0 * (mu5 - 10.0 * mu3 * mu2)))


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
    """(integral of u, integral of u^2) over windows covering every soliton.

    Expected values: -4 sum kappa_n and (16/3) sum kappa_n^3, independent of t.

    Both integrals are trapezoid sums, one uniform grid and one vector
    field_u call per window.  The windows reach QUADRATURE_MARGIN / kappa_min
    either side of 0 and of each soliton centre 4 kappa_n^2 t, and overlapping
    ones merge, so the point count does not grow with |t|.  At a window's
    ends |u| ~ e^(-2 QUADRATURE_MARGIN) = e^-80, so the end weights, the tails
    and the gaps between windows are below rounding.  u is analytic in a strip
    about the real axis: its nearest poles sit about pi / (2 kappa_max) off
    it.  For such an integrand the trapezoid rule converges geometrically,
    with error about e^(-pi^2 / (kappa_max step)) (Trefethen & Weideman, SIAM
    Rev. 56 (2014) 385), and u^2 has the same poles.  The step
    TRAPEZOID_STEP / kappa_max therefore leaves e^-66.  A t that is not one
    finite number raises ValueError, and windows past the field's precision
    domain raise OverflowDomainError (see THETA_PRECISION_LIMIT).
    """
    _require_scalar("t", t)
    kap = data.kappas
    margin = QUADRATURE_MARGIN / kap[0]
    windows = []
    for c in sorted([0.0] + [4.0 * k * k * t for k in kap]):
        if windows and c - margin <= windows[-1][1]:
            windows[-1][1] = c + margin
        else:
            windows.append([c - margin, c + margin])
    _require_precision_domain(data, max(-windows[0][0], windows[-1][1]), t)
    mass = momentum = 0.0
    for lo, hi in windows:
        # even, so that every other point is itself a trapezoid grid
        n = 2 * math.ceil((hi - lo) * kap[-1] / (2.0 * TRAPEZOID_STEP))
        step = (hi - lo) / n
        u = field_u(data, np.linspace(lo, hi, n + 1), t)
        mass += step * np.sum(u)
        momentum += step * np.sum(u * u)
    return float(mass), float(momentum)
