"""Independent sinc-collocation Schrodinger eigensolver.

Discretizes -psi'' + U psi = E psi by sinc collocation (Eggert, Jarratt and
Lund, J. Comput. Phys. 69 (1987) 209) on the uniform grid of [-L, L].  U is
even, so each parity sector is one dense symmetric matrix on the points
x >= 0, summed from strided Toeplitz and Hankel windows on one vector of
sinc weights, and one eigh per sector returns every eigenvalue below the
continuum edge.  Each norming constant matches the eigenvector at its peak
to the Jost solution f ~ e^(-kappa x), integrated inward from x = L by the
Jost integrator of the scattering oracle (VODE's Adams method, with Newton
steps on the exact banded Jacobian of the linear Jost equation) at
k = i kappa.
The box [-L, L] moves a level (kappa, c) by about 4 kappa c^2 e^(-2 kappa L)
in E, so shallow levels need a wide box.  Used purely as an oracle against
the closed-form spectra and norming constants.

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


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric grid on [-L, L], with x = 0 at its middle point."""

    L: float = 20.0
    n_points: int = 801

    def __post_init__(self):
        if not 0 < self.L < math.inf:
            raise ValueError(f"grid half-width must be finite and positive, got {self.L}")
        n = self.n_points
        if not isinstance(n, numbers.Integral) or n < 501 or n % 2 == 0:
            raise ValueError("n_points must be an odd integer >= 501")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.n_points)

    @property
    def dx(self) -> float:
        return 2.0 * self.L / (self.n_points - 1)


def _sector_matrices(uu: np.ndarray, dx: float) -> tuple:
    """Even and odd sinc matrices of -d2/dx2 + U on the points x_j = j dx, j >= 0.

    -d2/dx2 has the entries T(j - k) with T(0) = pi^2/(3 dx^2) and
    T(m) = 2 (-1)^m / (m^2 dx^2).  Folding psi_(-k) = +-psi_k gives
    T(j - k) +- T(j + k) for k >= 1; the even sector keeps psi_0 with column
    T(j), and the weight sqrt(2) on j >= 1 makes it symmetric.  The norm of
    its eigenvector is then the full-line discrete norm.  Both T(|j - k|) and
    T(j + k) are strided windows on the one vector t = T(0..2n-2), gathered
    by no index matrix: the Hankel part is row j of the windows of t, the
    Toeplitz part row n-1-j of the windows of (T(n-1), ..., T(1), t).
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


def eigen_spectrum(potential, grid: GridSpec) -> list:
    """Bound spectrum of -d2/dx2 + U: list of (energy, eigenvector) pairs.

    Returns every eigenvalue below -CONTINUUM_EPS = -1e-3, sorted ascending,
    with eigenvectors on grid.points normalized in the discrete inner product
    sum(psi^2) dx = 1.  U must be even and real (ValueError otherwise, as it
    is if |U| reaches DECAY_REQUIREMENT at +-grid.L): one dense eigh per
    parity sector computes only the levels below the cutoff.  A warning is
    emitted for eigenvalues within a factor of ten of the continuum cutoff.
    """
    from scipy import linalg

    _require_oracle_potential(potential, grid.L, DECAY_REQUIREMENT)
    mid = grid.n_points // 2
    uu = np.asarray(potential(grid.points[mid:]), dtype=float)
    even, odd = _sector_matrices(uu, grid.dx)
    levels = []
    for matrix, sign in ((even, 1.0), (odd, -1.0)):
        w, vecs = linalg.eigh(matrix, subset_by_value=(-np.inf, -CONTINUUM_EPS))
        half = vecs / math.sqrt(2.0 * grid.dx)  # psi_j = phi_j / sqrt(2) for j >= 1
        if sign > 0:
            half[0] *= math.sqrt(2.0)  # psi_0 = phi_0 carries no weight
        else:
            half = np.vstack([np.zeros(len(w)), half])  # psi_0 = 0
        full = np.vstack([sign * half[:0:-1], half])
        levels.extend((float(wi), full[:, i]) for i, wi in enumerate(w))
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
    """(kappa, c) for each discrete bound state, by matching the Jost solution.

    With f(x) = e^(-kappa x) g(x) the Jost solution, c = |psi(x0)| / |f(x0)|
    at the grid point x0 >= 0 of largest |psi|.  g is the h of
    scattering._jost at ik = -kappa: g'' = 2 kappa g' + U g runs from g = 1,
    g' = 0 at x = L inward, its stable direction, in one real solve for
    every kappa at once.
    """
    levels = eigen_spectrum(potential, grid)
    if not levels:
        return []
    mid = grid.n_points // 2
    xs = np.maximum(grid.points[mid:], 0.0)  # linspace can round x = 0 below the solve's end
    kappas = np.sqrt([-e for e, _ in levels])
    halves = [np.abs(psi[mid:]) for _, psi in levels]
    peaks = [int(np.argmax(half)) for half in halves]
    reads = sorted(set(peaks), reverse=True)  # in path order, from x = L inward
    states = _jost(potential, -kappas, grid.L, t_eval=xs[reads])
    g = dict(zip(reads, states.T))  # (g..., g'...) at each peak point
    return [
        (float(kappa), float(half[j] * math.exp(kappa * xs[j]) / abs(g[j][i])))
        for i, (kappa, half, j) in enumerate(zip(kappas, halves, peaks))
    ]
