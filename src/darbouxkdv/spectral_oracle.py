"""Independent sinc-collocation Schrodinger eigensolver.

Discretizes -psi'' + U psi = E psi by sinc collocation (Eggert, Jarratt and
Lund, J. Comput. Phys. 69 (1987) 209) on the uniform grid in s mapped to
[-L, L] by x = a sinh(s/a), which puts the points densely in the core and
sparsely in the smooth tails.  The equation is solved for the
Liouville-transformed potential in s (see _grid_sectors).  U is even, so
each parity sector is one dense symmetric matrix on the points x >= 0,
summed from strided Toeplitz and Hankel windows on one vector of sinc
weights, and one eigvalsh per sector returns every eigenvalue below the
continuum edge, with no eigenvector: a level's parity is its sector's.  Each
norming constant comes from the Jost solution f ~ e^(-kappa x) at the
level's kappa, c^2 = -kappa / W[f, d_kappa f](0),
with f integrated inward from x = L by the Jost integrator of the
scattering oracle (VODE's Adams method, with Newton steps on the exact
banded Jacobian of the linear Jost equation) at k = i (kappa + i delta):
the complex step delta puts d_kappa f in the imaginary part.
_spectrum_grid sizes the box and the step for the spectrum command.  Used
purely as an oracle against the closed-form spectra and norming constants.

scipy.linalg is imported by eigen_spectrum and scipy.integrate by the Jost
integrator, so they load only when a spectrum is asked for (the spectrum
subcommand and the spectra suite of verify), not with the package.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .scattering import _jost, _require_oracle_potential

__all__ = ["GridSpec", "eigen_spectrum", "oracle_norming_constants"]

CONTINUUM_EPS = 1e-3
DECAY_REQUIREMENT = 1e-10
JOST_STEP = 1e-30  # imaginary part of the complex kappa step


# The scale a of the map x = a sinh(s/a).  At 161 points on [-20, 20], scales
# from 0.5 to 0.6 resolve h=1 [2], 2 [2], 3.7 [4], 6 [2] and 15 [] to the
# levels' rounding floor of a few 1e-12 (at a = 0.7, 3.7 [4] is left 1e-10
# off); 0.55 is the middle of that window.
MAP_SCALE = 0.55

# The box [-L, L] moves a level (kappa, c) by about 4 kappa c^2 e^(-2 kappa L)
# in E and by up to L c^2 e^(-2 kappa L) relative in c: fits to h = 0.3-3.4
# with seeds (), (2,) and (4,) at L = 15, 20, 25 (step 0.05) held to 0.95-1.15
# and, for c from the Jost Wronskian at the box's kappa, 0.07-1.90 times these
# forms wherever the c form exceeds 1e-8.  The estimates take the factors 5 and 2.
BOX_ENERGY_FACTOR = 5.0
BOX_NORMING_FACTOR = 2.0
# The sinc error falls like e^(-pi d/ds), d the distance from the real axis of
# U_D's nearest pole in s = a asinh(x/a): the step in s is at most d / 6 (at
# d / 5.5, h=9.7 [14] read its energies 7.5e-9 off, against 4.3e-10 at d / 6).
_POLE_STEPS = 6.0
_MAX_ORACLE_POINTS = 8001  # sector matrices of 4001^2 doubles, 128 MB each


def _reach(L: float) -> float:
    """S = a asinh(L / a): the grid on [-L, L] is the uniform one on [-S, S] in s."""
    return MAP_SCALE * math.asinh(L / MAP_SCALE)


@dataclass(frozen=True)
class GridSpec:
    """Symmetric grid on [-L, L] of n_points points, with x = 0 at its middle point.

    The points are x = g(s) = a sinh(s / a), a = MAP_SCALE, at the uniform
    s_j = j dx of [-S, S], S = a asinh(L / a), so dx is the step in s, and
    the x-step g'(s) dx = cosh(s / a) dx is dx at x = 0 and grows to about
    sqrt(1 + (L / a)^2) dx at x = +-L.  The points crowd where the well and
    its levels vary, and thin out in the smooth tails.  n_points is an odd
    integer >= 101.  The default, 161 points on [-20, 20], reads the levels
    of h=1 [2] and 2 [2] to a few 1e-13, and those of 3.7 [4] to 4e-12, where
    801 uniform points are 2.4e-6 off.
    """

    L: float = 20.0
    n_points: int = 161

    def __post_init__(self):
        if not 0 < self.L < math.inf:
            raise ValueError(f"grid half-width must be finite and positive, got {self.L}")
        n = self.n_points
        if not isinstance(n, numbers.Integral) or n < 101 or n % 2 == 0:
            raise ValueError("n_points must be an odd integer >= 101")

    @property
    def points(self) -> np.ndarray:
        half = self.n_points // 2
        return MAP_SCALE * np.sinh(self.dx * np.arange(-half, half + 1) / MAP_SCALE)

    @property
    def dx(self) -> float:
        """The grid step in s."""
        return 2.0 * _reach(self.L) / (self.n_points - 1)


def _spectrum_grid(potential, levels, tol_energy: float, tol_norming: float) -> GridSpec:
    """The GridSpec on which the levels (kappa, c) of a regular U_D meet both tolerances.

    L widens from 20 in 10 % steps until the box's estimated defects meet the
    tolerances.  The step in s is GridSpec().dx, or d / _POLE_STEPS if smaller,
    d the least |Im a asinh(x/a)| over potential.poles().  RuntimeError, before
    the oracle allocates anything, for a level at or above -CONTINUUM_EPS and
    for more than _MAX_ORACLE_POINTS points (d = 0 asks for infinitely many).
    """
    edge = [s.energy for s in levels if s.energy >= -CONTINUUM_EPS]
    if edge:
        raise RuntimeError(f"level(s) E = {edge} above the oracle's continuum cutoff "
                           f"{-CONTINUUM_EPS:g}: no box resolves them")
    L = GridSpec().L
    while any(
        BOX_ENERGY_FACTOR * s.kappa * tail > tol_energy
        or BOX_NORMING_FACTOR * L * s.norming_constant * tail > tol_norming
        for s in levels
        for tail in [s.norming_constant**2 * math.exp(-2.0 * s.kappa * L)]
    ):
        L = math.ceil(1.1 * L)
    poles = potential.poles()
    d = np.min(np.abs((MAP_SCALE * np.arcsinh(poles / MAP_SCALE)).imag), initial=math.inf)
    ds = min(GridSpec().dx, d / _POLE_STEPS)
    n = 2 * math.ceil(_reach(L) / ds) + 1 if ds > 0 else math.inf
    if n > _MAX_ORACLE_POINTS:
        raise RuntimeError(f"the oracle grid on [-{L:g}, {L:g}] that resolves the poles of U_D "
                           f"has {n} points, above the cap of {_MAX_ORACLE_POINTS}")
    return GridSpec(L, n)


def _sector_matrices(uu: np.ndarray, dx: float) -> tuple:
    """Even and odd sinc matrices of -d2/dx2 + U on the points x_j = j dx, j >= 0.

    -d2/dx2 has the entries T(j - k) with T(0) = pi^2/(3 dx^2) and
    T(m) = 2 (-1)^m / (m^2 dx^2).  Folding psi_(-k) = +-psi_k gives
    T(j - k) +- T(j + k) for k >= 1; the even sector keeps psi_0 with column
    T(j), and the weight sqrt(2) on j >= 1 makes it symmetric.  Both
    T(|j - k|) and T(j + k) are strided windows on the one vector
    t = T(0..2n-2), gathered by no index matrix: the Hankel part is row j of
    the windows of t, the Toeplitz part row n-1-j of the windows of
    (T(n-1), ..., T(1), t).
    """
    n = len(uu)
    m = np.arange(1, 2 * n - 1)
    t = np.concatenate([[math.pi**2 / 3.0], 2.0 * (1.0 - 2.0 * (m % 2)) / (m * m)]) / dx**2
    diff = sliding_window_view(np.concatenate([t[n - 1:0:-1], t[:n]]), n)[::-1]
    total = sliding_window_view(t, n)
    even = diff + total
    even[:, 0] = t[:n] * math.sqrt(2.0)
    even[0] = even[:, 0]
    even[0, 0] = t[0]
    odd = diff[1:, 1:] - total[1:, 1:]
    even.reshape(-1)[::n + 1] += uu
    odd.reshape(-1)[::n] += uu[1:]
    return even, odd


def _grid_sectors(x: np.ndarray, uu: np.ndarray, ds: float) -> tuple:
    """Even and odd sector matrices of -d2/dx2 + U, for U = uu at the grid points x >= 0.

    x = g(s) = a sinh(s/a) at s_j = j ds, and psi = sqrt(g') w turns the
    equation into -w'' + V w = E g'^2 w in s, with the Liouville potential
    V = g'^2 U(g(s)) - {g, s}/2, g' = cosh(s/a) and the Schwarzian
    {g, s} = (1 - 1.5 tanh^2(s/a)) / a^2.  Its sectors on the uniform s_j
    are scaled by 1/g' on both sides, so that each stays one symmetric
    matrix with the eigenvalues E and the eigenvectors g' w = psi sqrt(g').
    """
    # x = a sinh(s/a): g'^2 = 1 + (x/a)^2 and tanh^2(s/a) = (x/a)^2 / g'^2
    r2 = (x / MAP_SCALE) ** 2
    stretch = 1.0 + r2
    vv = stretch * uu - (0.5 - 0.75 * r2 / stretch) / MAP_SCALE**2
    inv = 1.0 / np.sqrt(stretch)
    sectors = _sector_matrices(vv, ds)
    for matrix, r in zip(sectors, (inv, inv[1:])):
        matrix *= np.outer(r, r)
    return sectors


def eigen_spectrum(potential, grid: GridSpec) -> list:
    """Bound spectrum of -d2/dx2 + U: list of (energy, parity) pairs.

    Returns every eigenvalue below -CONTINUUM_EPS = -1e-3, sorted ascending,
    each with the parity of its sector: +1 even, -1 odd.  U must be even,
    real and finite (ValueError otherwise, as it is if |U| reaches
    DECAY_REQUIREMENT at +-grid.L): one dense eigvalsh per parity sector
    computes only the levels below the cutoff, and no eigenvector.  A warning
    is emitted for eigenvalues within a factor of ten of the continuum cutoff.
    """
    from scipy import linalg

    _require_oracle_potential(potential, grid.L, DECAY_REQUIREMENT)
    x = grid.points[grid.n_points // 2:]
    uu = np.asarray(potential(x), dtype=float)
    if not np.all(np.isfinite(uu)):
        raise ValueError("potential must be finite on the grid")
    levels = []
    for matrix, parity in zip(_grid_sectors(x, uu, grid.dx), (1, -1)):
        # matrix.T is the same symmetric matrix, in the Fortran order LAPACK overwrites
        w = linalg.eigvalsh(matrix.T, subset_by_value=(-np.inf, -CONTINUUM_EPS),
                            overwrite_a=True, check_finite=False)
        levels.extend((float(e), parity) for e in w)
    levels.sort(key=lambda level: level[0])
    near_edge = [e for e, _ in levels if e >= -10.0 * CONTINUUM_EPS]
    if near_edge:
        warnings.warn(
            f"eigenvalue(s) {near_edge} sit within a factor 10 of the continuum cutoff",
            RuntimeWarning,
            stacklevel=2,
        )
    return levels


def oracle_norming_constants(potential, grid: GridSpec) -> list:
    """(kappa, c) for each discrete bound state: c from the Jost Wronskian at x = 0.

    kappa is that of eigen_spectrum.  The Jost solution f ~ e^(-kappa x) has
    int_0^inf f^2 dx = -W[f, d_kappa f](0) / (2 kappa), and c^2 is one over
    twice that integral.  An even level has f'(0) = 0, so
    c^2 = -kappa / (f(0) d_kappa f'(0)); an odd one has f(0) = 0, so
    c^2 = kappa / (f'(0) d_kappa f(0)).  The parity is the one eigen_spectrum
    gives, that of the level's sector.  One scattering._jost solve at
    ik = -(kappa + i JOST_STEP), for every kappa at once, gives f(0) = g(0)
    and f'(0) = g'(0) - (kappa + i JOST_STEP) g(0), g its h; their imaginary
    parts over JOST_STEP are the kappa derivatives, exact to rounding
    (complex step: Squire and Trapp, SIAM Rev. 40 (1998) 110).
    RuntimeError if a c^2 is not finite and positive.
    """
    levels = eigen_spectrum(potential, grid)
    if not levels:
        return []
    kappas = np.sqrt([-e for e, _ in levels])
    odd = np.array([parity < 0 for _, parity in levels])
    ik = -(kappas + 1j * JOST_STEP)
    f, dg = np.split(_jost(potential, ik, grid.L), 2)  # f(0) = g(0), g the h of _jost
    df = dg + ik * f  # f'(0)
    # W[f, d_kappa f](0), of which parity leaves one term
    wronskian = np.where(odd, -df.real * f.imag, f.real * df.imag) / JOST_STEP
    with np.errstate(divide="ignore", invalid="ignore"):  # refused below, with the level
        c_sq = -kappas / wronskian
    for kappa, value in zip(kappas, c_sq):
        if not 0.0 < value < math.inf:
            raise RuntimeError(
                f"Jost Wronskian norming constant c^2 = {value:.6g} at kappa = {kappa:.6g}: "
                "not finite and positive"
            )
    return [(float(kappa), math.sqrt(value)) for kappa, value in zip(kappas, c_sq)]
