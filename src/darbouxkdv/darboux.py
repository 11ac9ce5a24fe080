"""Darboux-Crum deformations of the reflectionless sech^2 well.

Builds the base potential U(x) = -h(h+1)/cosh^2 x, its pseudo-virtual seed
functions phi_v(x) = (cosh x)^(h+1+v) P_v^(-h-1-v,-h-1-v)(tanh x), the
deformed potentials U_D = U - 2 (log W[seeds])'' and their bound states with
norming constants.  The norming constants are closed forms, the residues of
the transmission amplitude's Gamma product at its bound-state poles; no
numerical integration enters.

Every derivative is assembled analytically: higher derivatives of any closed
form solution are reduced to (phi, phi') through phi'' = (U - E) phi, which
keeps the Wronskian determinants exact and free of numerical differentiation.
Wronskian matrix columns are rescaled by their cosh powers, leaving entries
that are polynomials in tanh x; the scale factors cancel in every ratio that
enters the potential or a wavefunction, so evaluations stay bounded on the
whole real line and extend to complex x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .specfun import JacobiParams, jacobi_coefficients

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

SCAN_HALF_WIDTH = 20.0
SCAN_POINTS = 40001


class NodalWronskianError(ValueError):
    """The seed Wronskian has a node, so the deformed potential is singular."""


@dataclass(frozen=True)
class SystemSpec:
    """Base coupling h and the ordered even seed degrees of a deformation.

    An empty seed list is the undeformed system.
    """

    h: float
    seeds: tuple = ()

    def __post_init__(self):
        if not (isinstance(self.h, (int, float)) and math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"coupling h must be a finite positive real, got {self.h!r}")
        object.__setattr__(self, "h", float(self.h))
        seeds = tuple(self.seeds)
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
        object.__setattr__(self, "seeds", tuple(int(v) for v in seeds))

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

    def _extend_tables(self, nrows: int):
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

    def value(self, x):
        u = np.tanh(x)
        return np.cosh(x) ** self.gamma * npoly.polyval(u, self.pcoef)

    def logderiv_u(self, u):
        return self.gamma * u + (1.0 - u * u) * npoly.polyval(u, self.dpcoef) / npoly.polyval(
            u, self.pcoef
        )

    def rows_u(self, u, nrows: int):
        """Stack of phi^(i)(x)/(cosh x)^gamma, i = 0..nrows-1, as functions of u."""
        self._extend_tables(nrows)
        return np.stack([npoly.polyval(u, c) for c in self._row_polys[:nrows]])


def _seed_solution(h: float, v: int) -> _Solution:
    gamma = h + 1.0 + v
    pcoef = jacobi_coefficients(JacobiParams(v, -gamma, -gamma))
    return _Solution(h, gamma, -gamma * gamma, pcoef)


def _base_solution(h: float, n: int) -> _Solution:
    kappa = h - n
    pcoef = jacobi_coefficients(JacobiParams(n, kappa, kappa))
    return _Solution(h, -kappa, -kappa * kappa, pcoef)


def _wronskian_matrix(sols: list, u, nrows: int):
    """(..., nrows, M) scaled derivative rows of the solutions sols at u."""
    return np.moveaxis(np.stack([s.rows_u(u, nrows) for s in sols], axis=1), (0, 1), (-2, -1))


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
    spec = SystemSpec(h, (v,))  # reuses the even/positive validation
    sol = _seed_solution(spec.h, v)
    x = np.asarray(x)
    u = np.tanh(x)
    value = sol.value(x)
    dlog = sol.logderiv_u(u)
    d2log = base_potential(h, x) - sol.energy - dlog * dlog
    if x.ndim == 0:
        return float(value), float(dlog), float(d2log)
    return value, dlog, d2log


def seed_exponents(h: float, v: int):
    """Growth exponents of phi_v at +inf and -inf: (h+1+v, -(h+1+v))."""
    SystemSpec(h, (v,))
    delta = h + 1.0 + v
    return delta, -delta


class PotentialEvaluator:
    """Callable x -> U_D(x) for a (possibly deformed) soliton potential.

    Evaluation goes through u = tanh x only, so complex x is supported
    wherever the expression stays finite; that is what the contour-deformed
    scattering oracle uses for singular multi-step deformations.
    """

    def __init__(self, spec: SystemSpec, allow_singular: bool = False):
        self.spec = spec
        self._seeds = [_seed_solution(spec.h, v) for v in spec.seeds]
        self.is_singular = False
        if self._seeds:
            nodal = self._scan_for_nodes()
            if nodal:
                if not allow_singular:
                    raise NodalWronskianError(
                        f"seed Wronskian of {spec.seeds} (h = {spec.h}) has a node; "
                        "the deformed potential is singular and this multi-index is rejected"
                    )
                self.is_singular = True
        # fast-path polynomial data for one-step scalar evaluation
        if spec.n_steps == 1:
            s = self._seeds[0]
            self._p1 = tuple(s.pcoef)
            self._dp1 = tuple(s.dpcoef)
            self._gamma1 = s.gamma
            self._e1 = s.energy

    def _scan_for_nodes(self) -> bool:
        """Sign changes or zeros of W[seeds] on a dense grid of [-20, 20].

        The scanned quantity is the cosh-scaled Wronskian determinant, which
        equals W up to strictly positive factors.  A point counts as a zero
        when the determinant is within rounding of zero for its own matrix:
        below 64 eps times the Hadamard bound, the product of the column norms.
        """
        x = np.linspace(-SCAN_HALF_WIDTH, SCAN_HALF_WIDTH, SCAN_POINTS)
        mat = _wronskian_matrix(self._seeds, np.tanh(x), len(self._seeds))
        vals = np.linalg.det(mat)
        hadamard = np.sqrt(np.prod(np.einsum("...ij,...ij->...j", mat, mat), axis=-1))
        if np.any(np.abs(vals) <= 64.0 * np.finfo(float).eps * hadamard):
            return True
        sgn = np.sign(vals)
        return bool(np.any(sgn[1:] * sgn[:-1] < 0))

    def _rows(self, u, nrows: int):
        """(nrows, M, ...) stack of scaled derivative rows for the seed set."""
        return np.stack([s.rows_u(u, nrows) for s in self._seeds], axis=1)

    def __call__(self, x):
        x = np.asarray(x)
        scalar = x.ndim == 0
        xx = np.atleast_1d(x)
        u = np.tanh(xx)
        base = -self.spec.h * (self.spec.h + 1.0) * (1.0 - u * u)
        m = self.spec.n_steps
        if m == 0:
            out = base
        elif m == 1:
            s = self._seeds[0]
            r = s.logderiv_u(u)
            d2 = base - s.energy - r * r
            out = base - 2.0 * d2
        else:
            rows = self._rows(u, m + 2)  # (m+2, m, npts)
            rows = np.moveaxis(rows, (0, 1), (-2, -1))  # (npts, m+2, m)

            def det(idx):
                return np.linalg.det(rows[..., idx, :])

            wl = det(list(range(m)))
            wp = det(list(range(m - 1)) + [m])
            wpp = det(list(range(m - 1)) + [m + 1])
            wpp = wpp + det(list(range(m - 2)) + [m - 1, m])
            dlog = wp / wl
            out = base - 2.0 * (wpp / wl - dlog * dlog)
        return complex(out[0]) if scalar and np.iscomplexobj(out) else (
            float(out[0].real) if scalar else out
        )

    def evaluate_scalar(self, x: float) -> float:
        """Fast pure-Python path for ODE right-hand sides (real x, M <= 1)."""
        m = self.spec.n_steps
        u = math.tanh(x)
        s2 = 1.0 - u * u
        base = -self.spec.h * (self.spec.h + 1.0) * s2
        if m == 0:
            return base
        if m == 1:
            p = 0.0
            for c in reversed(self._p1):
                p = p * u + c
            dp = 0.0
            for c in reversed(self._dp1):
                dp = dp * u + c
            r = self._gamma1 * u + s2 * dp / p
            return base - 2.0 * (base - self._e1 - r * r)
        return float(self(x))


def deformed_potential(spec: SystemSpec, allow_singular: bool = False) -> PotentialEvaluator:
    """Evaluator for U_D(x) = U(x) - 2 (log W[seed functions])''(x).

    Multi-step seed sets whose Wronskian has a node (every all-even set with
    two or more seeds does, since the first-derivative row of the Wronskian
    matrix vanishes at x = 0 for even functions) raise NodalWronskianError
    unless allow_singular is set; a singular evaluator is still exact away
    from the Wronskian zeros and supports complex x for contour integration.
    """
    return PotentialEvaluator(spec, allow_singular=allow_singular)


def _added_state_dets(seeds: list, extra: _Solution) -> Callable:
    """u -> (W[seeds, extra], W[seeds]), scaled: the deformed partner of extra.

    The cosh powers of the seed columns cancel in the ratio; the extra column
    leaves (cosh x)^gamma_extra = (cosh x)^(-kappa), the decay of the state.
    """
    m = len(seeds)

    def dets(u):
        big = _wronskian_matrix(seeds + [extra], u, m + 1)
        return np.linalg.det(big), np.linalg.det(big[..., :m, :m])

    return dets


def _removed_state_dets(seeds: list, j: int) -> Callable:
    """u -> (W[seeds without j], W[seeds]), scaled: the state added by seed j.

    After the cosh cancellations (cosh x)^(-gamma_j) = (cosh x)^(-kappa)
    remains, i.e. the state decays like sech^(h+1+v_j).
    """
    m = len(seeds)
    keep = [i for i in range(m) if i != j]

    def dets(u):
        big = _wronskian_matrix(seeds, u, m)
        return np.linalg.det(big[..., : m - 1, keep]), np.linalg.det(big)

    return dets


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


def _unit_state(dets: Callable, kappa: float, c: float) -> Callable:
    """x -> psi(x) = scale (cosh x)^(-kappa) num(u)/den(u), unit-normalized.

    The raw state's tail lim_{x->+inf} raw(x) e^(kappa x) is 2^kappa num(1)/den(1).
    scale = c / tail makes psi decay as +c e^(-kappa x), which fixes its sign
    and, c^2 being the norming constant, its unit norm.
    """
    num1, den1 = dets(1.0)
    scale = c / (2.0**kappa * float(num1) / float(den1))

    def wavefunction(x):
        x = np.asarray(x, dtype=float)
        num, den = dets(np.tanh(x))
        out = scale * np.cosh(x) ** -kappa * num / den
        return float(out) if out.ndim == 0 else out

    return wavefunction


def bound_states(spec: SystemSpec) -> list:
    """All bound states of the deformed system, sorted by increasing energy.

    The ceil(h) deformed originals sit at E = -(h-n)^2 and each seed v adds
    one state at E = -(h+1+v)^2.  Each norming constant comes in closed form
    from the residue of the transmission amplitude, c_n^2 = |Res_{K=i kappa_n}
    t_D(K)| (the wells are even), and scales the Crum-ratio wavefunction to
    unit norm with tail +c_n e^(-kappa_n x).
    """
    pot = deformed_potential(spec)
    seeds = pot._seeds
    h = spec.h
    ds = [h + 1.0 + v for v in spec.seeds]
    entries = [(h - n, _added_state_dets(seeds, _base_solution(h, n)))
               for n in range(spec.n_base_states)]
    entries += [(d, _removed_state_dets(seeds, j)) for j, d in enumerate(ds)]
    entries.sort(key=lambda e: -e[0] * e[0])
    out = []
    for idx, (kappa, dets) in enumerate(entries):
        c = math.sqrt(_norming_sq(h, kappa, ds))
        out.append(
            BoundState(
                index=idx,
                kappa=kappa,
                energy=-kappa * kappa,
                norming_constant=c,
                wavefunction=_unit_state(dets, kappa, c),
            )
        )
    return out
