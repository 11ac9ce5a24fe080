"""Darboux-Crum deformations of the reflectionless sech^2 well.

Builds the base potential U(x) = -h(h+1)/cosh^2 x, its pseudo-virtual seed
functions phi_v(x) = (cosh x)^(h+1+v) P_v^(-h-1-v,-h-1-v)(tanh x), the
deformed potentials U_D = U - 2 (log W[seeds])'' and their bound states with
norming constants.  The norming constants are closed forms, the residues of
the transmission amplitude's Gamma product at its bound-state poles; no
numerical integration enters.

Every derivative is assembled analytically: higher derivatives of any closed
form solution are reduced to (phi, phi') through phi'' = (U - E) phi.
Wronskian matrix columns rescaled by their cosh powers have entries that are
polynomials in u = tanh x, so every Wronskian is one polynomial in u.  The
seed Wronskian W~(u) is built once and U_D follows from W~, W~' and W~''.
Regularity is a closed form: one even seed is nodeless, two or more have a
node at x = 0.  Each bound state is the Crum ratio of two such polynomials,
a Wronskian with one column added to or removed from the seeds over W~,
times a cosh power.  The cosh factors cancel in every ratio, so evaluations
extend to complex x.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .specfun import jacobi_coefficients

__all__ = [
    "NodalWronskianError",
    "SystemSpec",
    "BoundState",
    "PotentialEvaluator",
    "base_potential",
    "base_bound_state",
    "seed_function",
    "seed_exponents",
    "deformed_potential",
    "bound_states",
]


class NodalWronskianError(ValueError):
    """The seed Wronskian has a node, so the deformed potential is singular."""


def _validated(h, seeds) -> tuple:
    """(float h, int seeds) for finite h > 0 and increasing even seeds >= 2, else ValueError."""
    if not (isinstance(h, (int, float, np.integer, np.floating)) and math.isfinite(h) and h > 0):
        raise ValueError(f"coupling h must be a finite positive real, got {h!r}")
    seeds = tuple(seeds)
    for v in seeds:
        if not isinstance(v, (int, np.integer)):
            raise ValueError(f"seed degrees must be integers, got {v!r}")
        if v < 2 or v % 2 != 0:
            raise ValueError(
                f"seed degree {v} is not an even integer >= 2 "
                "(odd degrees deform into singular potentials)"
            )
    if any(b <= a for a, b in zip(seeds, seeds[1:])):
        raise ValueError(f"seed degrees must be strictly increasing, got {seeds}")
    return float(h), tuple(int(v) for v in seeds)


@dataclass(frozen=True)
class SystemSpec:
    """Base coupling h and the ordered even seed degrees of a deformation.

    An empty seed list is the undeformed system.
    """

    h: float
    seeds: tuple = ()

    def __post_init__(self):
        h, seeds = _validated(self.h, self.seeds)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "seeds", seeds)

    @property
    def n_steps(self) -> int:
        return len(self.seeds)

    @property
    def n_base_states(self) -> int:
        """Number of bound states of the undeformed well: n = 0 .. ceil(h)-1."""
        return math.ceil(self.h)


@dataclass(frozen=True)
class BoundState:
    """One normalized bound state: label, decay rate, energy, tail amplitude."""

    index: int
    kappa: float
    energy: float
    norming_constant: float
    wavefunction: Callable

    def __post_init__(self):
        if self.energy != -self.kappa * self.kappa:
            raise ValueError("energy must equal -kappa^2 exactly")


_DU_FACTOR = np.array([1.0, 0.0, -1.0])  # (1 - u^2), the chain factor d u/d x


def _poly_dx(coef: np.ndarray) -> np.ndarray:
    """x-derivative of a polynomial in u = tanh x, again a polynomial in u."""
    if len(coef) <= 1:
        return np.array([0.0])
    return npoly.polymul(npoly.polyder(coef), _DU_FACTOR)


class _Solution:
    """Closed-form base solution (cosh x)^gamma P(tanh x) at energy E.

    Derivative rows are generated through the equation phi'' = (U - E) phi:
    phi^(i) = A_i(u) phi + B_i(u) phi' with A_(k+1) = A_k' + B_k (U - E) and
    B_(k+1) = A_k + B_k'.  Dividing a whole column of a Wronskian matrix by
    the strictly positive cosh power leaves the entries

        phi^(i)/cosh^gamma = A_i P + B_i (gamma u P + (1 - u^2) P')

    which are polynomials in u = tanh x: entire, bounded on the real line and
    free of spurious poles at the nodes of P.  The cosh factors cancel in
    every determinant ratio used downstream.
    """

    def __init__(self, h: float, gamma: float, energy: float, pcoef: np.ndarray):
        self.h = h
        self.gamma = gamma
        self.energy = energy
        self.pcoef = np.asarray(pcoef, dtype=float)
        self.dpcoef = npoly.polyder(self.pcoef) if len(self.pcoef) > 1 else np.array([0.0])
        # (log phi)' numerator: gamma u P + (1 - u^2) P'
        self.qcoef = npoly.polyadd(
            npoly.polymul(np.array([0.0, gamma]), self.pcoef),
            npoly.polymul(_DU_FACTOR, self.dpcoef),
        )
        self._ab: list = []
        self._row_polys: list = []

    def row_polys(self, nrows: int) -> list:
        """phi^(i)(x)/(cosh x)^gamma, i = 0..nrows-1, as polynomials in u."""
        if not self._ab:
            self._ab.append((np.array([1.0]), np.array([0.0])))
        ue = np.array([-self.h * (self.h + 1.0) - self.energy, 0.0, self.h * (self.h + 1.0)])
        while len(self._ab) < nrows:
            a, b = self._ab[-1]
            self._ab.append(
                (npoly.polyadd(_poly_dx(a), npoly.polymul(b, ue)), npoly.polyadd(a, _poly_dx(b)))
            )
        while len(self._row_polys) < nrows:
            a, b = self._ab[len(self._row_polys)]
            self._row_polys.append(
                npoly.polyadd(npoly.polymul(a, self.pcoef), npoly.polymul(b, self.qcoef))
            )
        return self._row_polys[:nrows]

    def value(self, x):
        u = np.tanh(x)
        return np.cosh(x) ** self.gamma * npoly.polyval(u, self.pcoef)


def _seed_solution(h: float, v: int) -> _Solution:
    gamma = h + 1.0 + v
    pcoef = jacobi_coefficients(v, -gamma)
    return _Solution(h, gamma, -gamma * gamma, pcoef)


def _base_solution(h: float, n: int) -> _Solution:
    kappa = h - n
    pcoef = jacobi_coefficients(n, kappa)
    return _Solution(h, -kappa, -kappa * kappa, pcoef)


def _wronskian_poly(sols: list, magnitude: bool = False) -> np.ndarray:
    """det[phi_j^(i)/cosh^gamma_j], i, j < M, as one polynomial in u = tanh x.

    Laplace expansion: the minor on rows 0..k-1 and columns S expands along
    row k-1 into minors on S minus one column, O(M 2^M) products; M = 0 gives 1.
    With magnitude set, every entry's coefficients enter by absolute value and
    every term with sign +: coefficient by coefficient, the result bounds the
    terms that the signed expansion sums, and so scales its rounding error.
    """
    m = len(sols)
    rows = [s.row_polys(m) for s in sols]
    if magnitude:
        rows = [[np.abs(c) for c in row] for row in rows]
    minors = {(): np.array([1.0])}
    for i in range(m):
        minors = {
            cols: reduce(npoly.polyadd, (
                (1.0 if magnitude else (-1.0) ** (i + p))
                * npoly.polymul(rows[j][i], minors[cols[:p] + cols[p + 1:]])
                for p, j in enumerate(cols)
            ))
            for cols in combinations(range(m), i + 1)
        }
    return minors[tuple(range(m))]


def _finite(coef: np.ndarray, what: str) -> np.ndarray:
    """coef itself, or OverflowError if a coefficient left the float range.

    Callers build their polynomials under np.errstate(over/invalid="ignore"),
    so an overflow surfaces here as a typed error, not as a warning and nan.
    """
    if not np.all(np.isfinite(coef)):
        raise OverflowError(f"coefficients of {what} overflow the float range")
    return coef


def _horner(coef: tuple, u):
    """sum_k coef[k] u^k by Horner's rule, in pure Python for scalar u."""
    out = 0.0
    for c in reversed(coef):
        out = out * u + c
    return out


def base_potential(h: float, x):
    """The reflectionless well -h(h+1)/cosh^2 x."""
    if not h > 0:
        raise ValueError(f"h must be positive, got {h}")
    u = np.tanh(np.asarray(x))
    out = -h * (h + 1.0) * (1.0 - u * u)
    return float(out) if out.ndim == 0 else out


def base_bound_state(h: float, n: int, x):
    """Unnormalized n-th bound state of the undeformed well."""
    n_max = math.ceil(h) - 1
    if not 0 <= n <= n_max:
        raise ValueError(f"level index {n} outside 0..{n_max} for h = {h}")
    out = np.asarray(_base_solution(h, n).value(x))
    return float(out) if out.ndim == 0 else out


def seed_function(h: float, v: int, x):
    """Seed phi_v(x) with its first and second logarithmic derivatives.

    Only even v >= 2 is accepted: odd degrees produce a pole at x = 0 in the
    deformed potential.  The second log-derivative comes from the equation
    itself, (log phi)'' = (U - E) - ((log phi)')^2.
    """
    h, _ = _validated(h, (v,))
    sol = _seed_solution(h, v)
    x = np.asarray(x)
    u = np.tanh(x)
    value = sol.value(x)
    dlog = npoly.polyval(u, sol.qcoef) / npoly.polyval(u, sol.pcoef)
    d2log = base_potential(h, x) - sol.energy - dlog * dlog
    if x.ndim == 0:
        return float(value), float(dlog), float(d2log)
    return value, dlog, d2log


def seed_exponents(h: float, v: int):
    """Growth exponents of phi_v at +inf and -inf: (h+1+v, -(h+1+v))."""
    h, _ = _validated(h, (v,))
    delta = h + 1.0 + v
    return delta, -delta


class PotentialEvaluator:
    """Callable x -> U_D(x) for a (possibly deformed) soliton potential.

    The seed Wronskian is one polynomial, W[seeds] = prod_j (cosh x)^gamma_j
    W~(u) in u = tanh x, so that with Gamma = sum_j gamma_j

        U_D = U - 2 (1-u^2) [Gamma - 2u W~'/W~ + (1-u^2) (W~''/W~ - (W~'/W~)^2)].

    W~, W~' and W~'' are built once; a coefficient beyond the float range
    raises OverflowError (deep seeds at large h).  Scalar x, real or
    complex, is evaluated by pure-Python Horner (the ODE oracle's right-hand
    side, including its complex detour around a pole), arrays through numpy;
    an exact zero of W~ gives nan.

    is_singular = spec.n_steps >= 2, exact on every (all-even) seed set:
    * One even seed is nodeless.  With gamma = h+1+v = h+1+2m, the even-power
      coefficients of P_v^(-gamma,-gamma) are positive: the lowest is
      prod_i (gamma-m-1-i)/(4(i+1)) with gamma-m-1-i >= h+1 > 0, and the
      ratio (j-v)(j-v-2h-1)/((j+1)(j+2)) of _symmetric_coefficients is
      positive for j < v.  So W~ = P >= P(0) > 0, in floats too.
    * Two or more even seeds have a node.  The first-derivative row of the
      scaled matrix, gamma u P + (1-u^2) P', is odd, so W~(0) = 0 exactly.
    """

    def __init__(self, spec: SystemSpec, allow_singular: bool = False):
        self.spec = spec
        with np.errstate(over="ignore", invalid="ignore"):
            self._seeds = [_seed_solution(spec.h, v) for v in spec.seeds]
            w = _wronskian_poly(self._seeds)
            polys = (w, npoly.polyder(w), npoly.polyder(w, 2))
        what = f"the seed Wronskian of {spec.seeds} (h = {spec.h})"
        self._w, self._dw, self._ddw = (tuple(_finite(c, what).tolist()) for c in polys)
        self._hh = spec.h * (spec.h + 1.0)
        self._gamma = sum(s.gamma for s in self._seeds)
        self.is_singular = spec.n_steps >= 2
        if self.is_singular and not allow_singular:
            raise NodalWronskianError(
                f"seed Wronskian of {spec.seeds} (h = {spec.h}) has a node; "
                "the deformed potential is singular and this multi-index is rejected"
            )

    def _from_u(self, u, w, dw, ddw):
        """U_D from u = tanh x and W~, W~', W~'' at u; scalars or arrays."""
        s2 = 1.0 - u * u
        base = -self._hh * s2
        q = dw / w
        return base - 2.0 * s2 * (self._gamma - 2.0 * u * q + s2 * (ddw / w - q * q))

    def _scalar(self, x):
        """U_D at one real or complex x, in pure Python."""
        u = cmath.tanh(x) if isinstance(x, complex) else math.tanh(x)
        try:
            return self._from_u(u, _horner(self._w, u), _horner(self._dw, u), _horner(self._ddw, u))
        except ZeroDivisionError:
            return complex(math.nan, math.nan) if isinstance(u, complex) else math.nan

    evaluate_scalar = _scalar  # the ODE oracle's one call per step, real line and detour alike

    def __call__(self, x):
        if not isinstance(x, (int, float, complex)):
            x = np.asarray(x)
            if x.ndim:
                u = np.tanh(x)
                return self._from_u(u, *(npoly.polyval(u, c) for c in (self._w, self._dw, self._ddw)))
            x = x.item()
        return self._scalar(x)


def deformed_potential(spec: SystemSpec, allow_singular: bool = False) -> PotentialEvaluator:
    """Evaluator for U_D(x) = U(x) - 2 (log W[seed functions])''(x).

    Seed sets whose Wronskian has a node (every set of two or more) raise
    NodalWronskianError unless allow_singular is set; a singular evaluator is
    still exact away from the Wronskian zeros and supports complex x for
    contour integration.
    """
    return PotentialEvaluator(spec, allow_singular=allow_singular)


def _norming_sq(h: float, kappa: float, ds: list) -> float:
    """c^2 = |Res_{K=i kappa} t_D(K)| at a bound-state pole, in closed form.

    With s = -iK, t_D = Gamma(s-h) Gamma(s+h+1) / (Gamma(s+1) Gamma(s)) times
    (s + d_j)/(s - d_j) per seed, d_j = h+1+v_j.  A seed level kappa = d_j is
    the pole of its own factor (residue 2 d_j); an original level kappa = h-n
    is the pole of Gamma(s-h) (residue (-1)^n / n!).  Every Gamma argument is
    a positive real.
    """
    log_c2 = math.lgamma(kappa + h + 1.0) - math.lgamma(kappa + 1.0) - math.lgamma(kappa)
    factors = math.prod((d + kappa) / abs(d - kappa) for d in ds if d != kappa)
    if kappa in ds:
        return 2.0 * kappa * math.exp(log_c2 + math.lgamma(kappa - h)) * factors
    return math.exp(log_c2 - math.lgamma(round(h - kappa) + 1.0)) * factors


WAVEFUNCTION_ERROR_LIMIT = 1e-6  # absolute, on a unit-normalized state


def _unit_state(sols: list, num: np.ndarray, den: tuple, kappa: float, c: float) -> Callable:
    """x -> psi(x) = scale (cosh x)^(-kappa) num(u)/den(u), unit-normalized.

    num = W~[sols].  The raw state's tail lim_{x->+inf} raw(x) e^(kappa x) is
    2^kappa num(1)/den(1); scale = c / tail makes psi decay as +c e^(-kappa x),
    which fixes its sign and, c^2 being the norming constant, its unit norm.
    With 2^kappa (cosh x)^(-kappa) = e^(-kappa (|x| + log1p(e^(-2|x|)))), num
    and den taken over their largest coefficients and den > 0 (W~ is
    nodeless), psi is a sign times the exponential of a sum of logarithms:
    nothing overflows (deep wells have coefficients near 1e290, and
    2^kappa num(1) beyond the float range), and psi underflows to 0 only
    below the smallest float.

    Each call bounds psi's rounding error by eps times num's magnitude
    polynomial at |u|, scaled like num(u), plus eps bound(1)/|num(1)| relative
    for the tail scale.  Past WAVEFUNCTION_ERROR_LIMIT it raises
    OverflowError, as for the low levels of h = 250 [500], whose coefficients
    reach 1e285 over values near 1e80: double precision cannot resolve them.
    The terms are built on the first call, so bound_states stays cheap.
    """
    eps = np.finfo(float).eps

    @cache
    def terms():
        with np.errstate(over="ignore", invalid="ignore"):
            bound = _wronskian_poly(sols, magnitude=True)
        top = np.max(np.abs(num))
        d = np.asarray(den) / np.max(np.abs(den))
        num1 = npoly.polyval(1.0, num) / top
        with np.errstate(divide="ignore"):
            log_scale = math.log(c) + np.log(npoly.polyval(1.0, d)) - np.log(abs(num1))
            rel_scale = eps * npoly.polyval(1.0, bound / top) / abs(num1)
        return num / top, bound / top, d, log_scale, rel_scale, math.copysign(1.0, num1)

    def wavefunction(x):
        num, bound, den, log_scale, rel_scale, sign = terms()
        x = np.asarray(x, dtype=float)
        u = np.tanh(x)
        a = np.abs(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_k = log_scale - kappa * (a + np.log1p(np.exp(-2.0 * a)))
            log_k -= np.log(npoly.polyval(u, den))
            v = npoly.polyval(u, num)
            out = sign * np.sign(v) * np.exp(log_k + np.log(np.abs(v)))
            err = eps * np.exp(log_k) * npoly.polyval(np.abs(u), bound) + rel_scale * np.abs(out)
        worst = np.max(err)
        if not worst <= WAVEFUNCTION_ERROR_LIMIT:
            raise OverflowError(
                f"bound state kappa = {kappa}: rounding error bound {worst:.1e} exceeds "
                f"{WAVEFUNCTION_ERROR_LIMIT:.0e}; its Crum-ratio coefficients span more "
                "than double precision resolves"
            )
        return float(out) if out.ndim == 0 else out

    return wavefunction


def bound_states(spec: SystemSpec) -> list:
    """All bound states of the deformed system, sorted by increasing energy.

    The ceil(h) deformed originals sit at E = -(h-n)^2 and each seed v adds
    one state at E = -(h+1+v)^2.  Each is a Crum ratio of scaled Wronskians,
    a ratio of two polynomials in u = tanh x over the seed Wronskian W~: an
    original level's numerator is W~[seeds, phi_n], and the cosh power left
    over is that of phi_n, (cosh x)^(-kappa); seed j's numerator is
    W~[seeds without j], leaving (cosh x)^(-gamma_j) = (cosh x)^(-kappa).
    Each norming constant comes in closed form from the residue of the
    transmission amplitude, c_n^2 = |Res_{K=i kappa_n} t_D(K)| (the wells are
    even), and scales the wavefunction to unit norm with tail +c_n e^(-kappa_n x).
    """
    pot = deformed_potential(spec)
    seeds = pot._seeds
    h = spec.h
    ds = [h + 1.0 + v for v in spec.seeds]
    entries = [(h - n, seeds + [_base_solution(h, n)]) for n in range(spec.n_base_states)]
    entries += [(d, seeds[:j] + seeds[j + 1:]) for j, d in enumerate(ds)]
    with np.errstate(over="ignore", invalid="ignore"):
        entries = [(kappa, sols, _wronskian_poly(sols)) for kappa, sols in entries]
    what = f"a bound-state numerator of {spec.seeds} (h = {h})"
    entries = [(kappa, sols, _finite(num, what)) for kappa, sols, num in entries]
    entries.sort(key=lambda e: -e[0] * e[0])
    out = []
    for idx, (kappa, sols, num) in enumerate(entries):
        c = math.sqrt(_norming_sq(h, kappa, ds))
        out.append(
            BoundState(
                index=idx,
                kappa=kappa,
                energy=-kappa * kappa,
                norming_constant=c,
                wavefunction=_unit_state(sols, num, pot._w, kappa, c),
            )
        )
    return out
