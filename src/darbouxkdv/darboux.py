"""Darboux-Crum deformations of the reflectionless sech^2 well.

Deforms the base well U(x) = -h(h+1)/cosh^2 x by the pseudo-virtual seed
functions phi_v(x) = (cosh x)^(h+1+v) P_v^(-h-1-v,-h-1-v)(tanh x) into
U_D = U - 2 (log W[seeds])'' (with no seeds, U_D is U itself) and builds the
bound states of U_D with their norming constants.  The norming constants are
closed forms, the residues of the transmission amplitude's Gamma product at
its bound-state poles; no numerical integration enters.

Every derivative is assembled analytically: each closed form solution is a
cosh power times a polynomial in u = tanh x, and differentiating it gives
the same cosh power times another polynomial in u.  Wronskian matrix columns
rescaled by their cosh powers therefore have polynomial entries, so every
Wronskian is one polynomial in u.  The seed Wronskian W~(u) is built once
and U_D follows from W~, W~' and W~''; regularity is read off the seed
parities.  Each bound state is the Crum ratio of two such polynomials, a
Wronskian with one column added to or removed from the seeds over W~, times
a cosh power.  The cosh factors cancel in every ratio.
"""

from __future__ import annotations

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
    "deformed_potential",
    "bound_states",
]


class NodalWronskianError(ValueError):
    """The seed Wronskian has a node, so the deformed potential is singular."""


def _validated(h, seeds) -> tuple:
    """(float h, int seeds) for finite h > 0 and increasing seeds, the first even and >= 2."""
    if not (isinstance(h, (int, float, np.integer, np.floating)) and math.isfinite(h) and h > 0):
        raise ValueError(f"coupling h must be a finite positive real, got {h!r}")
    seeds = tuple(seeds)
    for v in seeds:
        if not isinstance(v, (int, np.integer)):
            raise ValueError(f"seed degrees must be integers, got {v!r}")
    if seeds and (seeds[0] < 2 or seeds[0] % 2 != 0):
        raise ValueError(
            f"the first seed degree {seeds[0]} is not an even integer >= 2 "
            "(later seeds may have either parity)"
        )
    if any(b <= a for a, b in zip(seeds, seeds[1:])):
        raise ValueError(f"seed degrees must be strictly increasing, got {seeds}")
    return float(h), tuple(int(v) for v in seeds)


@dataclass(frozen=True)
class SystemSpec:
    """Base coupling h and the increasing seed degrees of a deformation.

    An empty seed list is the undeformed system.  The first seed is even; the
    later ones may have either parity, and PotentialEvaluator.is_singular
    tells the regular sets, those whose degrees alternate in parity.
    _columns holds the (gamma, n) of each Darboux column
    (cosh x)^gamma P_n^(-gamma,-gamma)(tanh x), built once, as
    deformed_amplitudes reads it once per K.  Seed v is the column
    (h+1+v, v).  A column adds the level kappa = gamma to the levels h - n > 0
    of the base well, and the factor (K + i gamma)/(K - i gamma) to t, minus
    it to r.
    """

    h: float
    seeds: tuple = ()

    def __post_init__(self):
        h, seeds = _validated(self.h, self.seeds)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "_columns", tuple((h + 1.0 + v, v) for v in seeds))

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


def _rows(gamma: float, p: np.ndarray, m: int) -> list:
    """phi^(i)(x)/(cosh x)^gamma, i = 0..m-1, for phi = (cosh x)^gamma P(tanh x).

    Dividing a whole column of a Wronskian matrix by the strictly positive
    cosh power leaves entries that are polynomials in u = tanh x, entire,
    bounded on the real line and free of spurious poles at the nodes of P:
    row_0 = P and, as d/dx [cosh^gamma p(u)] = cosh^gamma (gamma u p +
    (1 - u^2) p'(u)), row_(i+1) = gamma u row_i + (1 - u^2) row_i'.  The cosh
    factors cancel in every determinant ratio used downstream.
    """
    rows = [np.asarray(p, dtype=float)]
    while len(rows) < m:
        row = rows[-1]
        row_dx = npoly.polymul(npoly.polyder(row), _DU_FACTOR)  # the x-derivative of row(u)
        rows.append(npoly.polyadd(npoly.polymul(np.array([0.0, gamma]), row), row_dx))
    return rows[:m]


def _solution(gamma: float, n: int) -> tuple:
    """(gamma, P_n^(-gamma,-gamma)); the base level n is _solution(n - h, n)."""
    return gamma, jacobi_coefficients(n, -gamma)


def _wronskian_poly(sols: list, magnitude: bool = False) -> np.ndarray:
    """det[phi_j^(i)/cosh^gamma_j], i, j < M, over the (gamma_j, P_j) of sols, in u = tanh x.

    Laplace expansion: the minor on rows 0..k-1 and columns S expands along
    row k-1 into minors on S minus one column, O(M 2^M) products; M = 0 gives 1.
    With magnitude set, every entry's coefficients enter by absolute value and
    every term with sign +: coefficient by coefficient, the result bounds the
    terms that the signed expansion sums, and so scales its rounding error.
    """
    m = len(sols)
    rows = [_rows(gamma, p, m) for gamma, p in sols]
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


def _is_singular(spec: SystemSpec, allow_singular: bool = False) -> bool:
    """PotentialEvaluator's parity rule, off the seeds alone; NodalWronskianError unless allowed."""
    singular = any(v % 2 != j % 2 for j, v in enumerate(spec.seeds))
    if singular and not allow_singular:
        raise NodalWronskianError(
            f"seed Wronskian of {spec.seeds} (h = {spec.h}) has a node; "
            "the deformed potential is singular and this multi-index is rejected"
        )
    return singular


class PotentialEvaluator:
    """Callable x -> U_D(x) for a (possibly deformed) soliton potential.

    The seed Wronskian is one polynomial, W[seeds] = prod_j (cosh x)^gamma_j
    W~(u) in u = tanh x, so that with Gamma = sum_j gamma_j

        U_D = U - 2 (1-u^2) [Gamma - 2u W~'/W~ + (1-u^2) (W~''/W~ - (W~'/W~)^2)].

    W~, W~' and W~'' are built once; a coefficient beyond the float range
    raises OverflowError (deep seeds at large h).  A real scalar x (the ODE
    oracle's right-hand side) and an array of them share one body: one Horner
    loop sums W~, W~' and W~'', then one quotient gives U_D.  An exact zero of
    W~ gives nan, with no warning, at a scalar x and in an array alike.  A
    complex x raises TypeError.

    is_singular is the parity rule: W~ is nodeless on the real line exactly
    when the degrees alternate in parity from an even first one, v_j = j-1
    (mod 2) for j = 1..M.  It is proved on the all-even sets:
    * One even seed is nodeless.  With gamma = h+1+v = h+1+2m, the even-power
      coefficients of P_v^(-gamma,-gamma) are positive: the lowest is
      prod_i (gamma-m-1-i)/(4(i+1)) with gamma-m-1-i >= h+1 > 0, and the
      ratio (j-v)(j-v-2h-1)/((j+1)(j+2)) of jacobi_coefficients is
      positive for j < v.  So W~ = P >= P(0) > 0, in floats too.
    * Two or more even seeds have a node.  The first-derivative row of the
      scaled matrix, gamma u P + (1-u^2) P', is odd, so W~(0) = 0 exactly.
    On mixed sets the rule is checked, not proved: a float node scan agrees
    with it on every increasing set of one to three degrees from 2..8 with an
    even first one, at five h.  It looks like the pseudo-virtual analogue of
    the Krein-Adler condition (Adler, Theor. Math. Phys. 101 (1994) 1381).
    """

    def __init__(self, spec: SystemSpec, allow_singular: bool = False):
        self.spec = spec
        self.is_singular = _is_singular(spec, allow_singular)
        with np.errstate(over="ignore", invalid="ignore"):
            self._seeds = [_solution(gamma, n) for gamma, n in spec._columns]
            w = _wronskian_poly(self._seeds)
            polys = (w, npoly.polyder(w), npoly.polyder(w, 2))
        what = f"the seed Wronskian of {spec.seeds} (h = {spec.h})"
        coefs = [tuple(_finite(c, what).tolist()) for c in polys]
        self._w = coefs[0]
        # (W~_k, W~'_k, W~''_k) from the top power of W~ down, for _u_d
        self._top_down = tuple(zip(*((0.0,) * (len(self._w) - len(c)) + c[::-1] for c in coefs)))
        self._hh = spec.h * (spec.h + 1.0)
        self._gamma = sum(gamma for gamma, _ in self._seeds)

    def _u_d(self, u, e):
        """U_D from u = tanh x and e = e^(-2|x|), Python floats or numpy arrays alike.

        Padded with zeros above their top powers, W~' and W~'' stay +0.0 until
        their own top coefficient, so each sum is bitwise its own Horner sum.
        sech^2 x is taken as 4e/(1+e)^2, not as 1 - u^2, which loses the
        digits of sech^2 x, and so of U_D, as u rounds towards +-1: a relative
        error eps e^(2|x|)/4, 1.7e-4 at |x| = 15, and U_D = -0 from |x| = 20.
        The bracket tends to a constant as |u| -> 1, so U_D keeps the relative
        accuracy of s2.
        """
        w = dw = ddw = 0.0
        for c, dc, ddc in self._top_down:
            w, dw, ddw = w * u + c, dw * u + dc, ddw * u + ddc
        q, s2 = dw / w, 4.0 * e / ((1.0 + e) * (1.0 + e))
        return -self._hh * s2 - 2.0 * s2 * (self._gamma - 2.0 * u * q + s2 * (ddw / w - q * q))

    def _scalar(self, x):
        """U_D at one real x, in pure Python; an exact zero of W~ gives nan."""
        if isinstance(x, complex):  # math would take a numpy complex's real part
            raise TypeError("U_D takes real x only, got a complex x")
        try:
            return self._u_d(math.tanh(x), math.exp(-2.0 * abs(x)))
        except ZeroDivisionError:
            return math.nan

    evaluate_scalar = _scalar  # the ODE oracle's one call per step

    def poles(self) -> np.ndarray:
        """Poles of U_D in the strip |Im x| < pi/2: x = artanh(u) over the roots u of W~.

        A regular W~ is nodeless on the real line, so none is real.  Noise in
        the top coefficients adds roots far outside the unit disk, whose artanh
        lie near +-i pi/2.  The other poles of U_D, at x = i pi/2 + i pi n, lie
        outside the strip.  ValueError on a singular evaluator: its W~ has
        real roots, and a multiple one at u = 0 (as on [2,4,6]) splits under
        rounding into tiny spurious ones.
        """
        if self.is_singular:
            raise ValueError(f"poles() takes a regular well, not the seeds {self.spec.seeds}")
        poles = np.arctanh(npoly.polyroots(self._w).astype(complex))
        return poles[np.abs(poles.imag) < math.pi / 2]

    def __call__(self, x):
        if not isinstance(x, (int, float)):
            x = np.asarray(x)
            if x.dtype.kind == "c":
                raise TypeError("U_D takes real x only, got a complex x")
            if x.ndim:
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # at a node
                    return self._u_d(np.tanh(x), np.exp(-2.0 * np.abs(x)))
            x = x.item()
        return self._scalar(x)


def deformed_potential(spec: SystemSpec, allow_singular: bool = False) -> PotentialEvaluator:
    """Evaluator for U_D(x) = U(x) - 2 (log W[seed functions])''(x).

    Seed sets whose Wronskian has a node raise NodalWronskianError unless
    allow_singular is set; a singular evaluator is still exact away from the
    Wronskian zeros.
    """
    return PotentialEvaluator(spec, allow_singular=allow_singular)


def _norming_sq(h: float, kappa: float, gammas: list) -> float:
    """c^2 = |Res_{K=i kappa} t_D(K)| at a bound-state pole, in closed form.

    With s = -iK, t_D = Gamma(s-h) Gamma(s+h+1) / (Gamma(s+1) Gamma(s)) times
    (s + gamma_j)/(s - gamma_j) per Darboux column.  A column's level
    kappa = gamma_j is the pole of its own factor (residue 2 gamma_j); an
    original level kappa = h-n is the pole of Gamma(s-h) (residue
    (-1)^n / n!).  Every Gamma argument is a positive real.
    """
    log_c2 = math.lgamma(kappa + h + 1.0) - math.lgamma(kappa + 1.0) - math.lgamma(kappa)
    factors = math.prod((g + kappa) / abs(g - kappa) for g in gammas if g != kappa)
    if kappa in gammas:
        return 2.0 * kappa * math.exp(log_c2 + math.lgamma(kappa - h)) * factors
    return math.exp(log_c2 - math.lgamma(round(h - kappa) + 1.0)) * factors


WAVEFUNCTION_ERROR_LIMIT = 1e-6  # absolute, on a unit-normalized state


def _unit_state(sols: list, den: tuple, kappa: float, c: float) -> Callable:
    """x -> psi(x) = scale (cosh x)^(-kappa) num(u)/den(u), unit-normalized.

    num = W~[sols].  The raw state's tail lim_{x->+inf} raw(x) e^(kappa x) is
    2^kappa num(1)/den(1); scale = c / tail makes psi decay as +c e^(-kappa x),
    which fixes its sign and, c^2 being the norming constant, its unit norm.
    With 2^kappa (cosh x)^(-kappa) = e^(-kappa (|x| + log1p(e^(-2|x|)))), num
    and den taken over their largest coefficients, and den over its sign too
    (W~ is nodeless, so of the one sign of W~(0), negative on h=1 [2,3]), psi
    is a sign times the exponential of a sum of logarithms:
    nothing overflows (deep wells have coefficients near 1e290, and
    2^kappa num(1) beyond the float range), and psi underflows to 0 only
    below the smallest float.

    Each call bounds psi's rounding error by eps times num's magnitude
    polynomial at |u|, scaled like num(u), plus eps bound(1)/|num(1)| relative
    for the tail scale.  Past WAVEFUNCTION_ERROR_LIMIT it raises
    OverflowError, as for the low levels of h = 250 [500], whose coefficients
    reach 1e285 over values near 1e80: double precision cannot resolve them.
    num and its magnitude polynomial are built on the first call, so
    bound_states stays cheap.  A num beyond the float range raises
    OverflowError, and the failure is kept: later calls raise it again
    without rebuilding num.
    """
    eps = np.finfo(float).eps

    @cache
    def terms():
        what = f"the bound-state numerator at kappa = {kappa}"
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                num = _finite(_wronskian_poly(sols), what)
            except OverflowError as exc:
                return str(exc)
            bound = _wronskian_poly(sols, magnitude=True)
        top = np.max(np.abs(num))
        d = np.asarray(den) / math.copysign(np.max(np.abs(den)), den[0])
        num1 = npoly.polyval(1.0, num) / top
        with np.errstate(divide="ignore"):
            log_scale = math.log(c) + np.log(npoly.polyval(1.0, d)) - np.log(abs(num1))
            rel_scale = eps * npoly.polyval(1.0, bound / top) / abs(num1)
        return num / top, bound / top, d, log_scale, rel_scale, math.copysign(1.0, num1)

    def wavefunction(x):
        parts = terms()
        if isinstance(parts, str):
            raise OverflowError(parts)
        num, bound, den, log_scale, rel_scale, sign = parts
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

    The levels E = -kappa^2 are those of SystemSpec._columns.  Each state is a
    Crum ratio of scaled Wronskians, a ratio of two polynomials in u = tanh x
    over the seed Wronskian W~: an original level's numerator is
    W~[seeds, phi_n], and the cosh power left over is that of phi_n,
    (cosh x)^(-kappa); column j's numerator is W~[seeds without j], leaving
    (cosh x)^(-gamma_j) = (cosh x)^(-kappa).
    Each norming constant comes in closed form from the residue of the
    transmission amplitude, c_n^2 = |Res_{K=i kappa_n} t_D(K)| (the wells are
    even), and scales the wavefunction to unit norm with tail +c_n e^(-kappa_n x).
    A norming constant beyond the float range (from about h = 420) raises
    OverflowError, as does a state's first wavefunction call, which builds
    its numerator, if that leaves the float range.
    """
    pot = deformed_potential(spec)
    seeds = pot._seeds
    h = spec.h
    gammas = [gamma for gamma, _ in seeds]
    with np.errstate(over="ignore", invalid="ignore"):  # as in PotentialEvaluator.__init__
        entries = [(h - n, seeds + [_solution(n - h, n)]) for n in range(spec.n_base_states)]
    entries += [(gamma, seeds[:j] + seeds[j + 1:]) for j, gamma in enumerate(gammas)]
    entries.sort(key=lambda e: -e[0] * e[0])
    out = []
    for idx, (kappa, sols) in enumerate(entries):
        try:
            c = math.sqrt(_norming_sq(h, kappa, gammas))
        except OverflowError:  # math.exp's bare "math range error"
            raise OverflowError(f"norming constant at h = {h}, kappa = {kappa} overflows") from None
        out.append(BoundState(idx, kappa, -kappa * kappa, c, _unit_state(sols, pot._w, kappa, c)))
    return out
