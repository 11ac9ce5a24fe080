"""Independent finite-difference Schrodinger eigensolver.

Discretizes -psi'' + U psi = E psi with Dirichlet walls at +-L on a uniform
grid (the fourth-order central stencil) and extracts every eigenvalue below
the continuum edge.  One unpivoted sparse LDL^T factorization of
H + CONTINUUM_EPS I counts those levels (Sylvester's law of inertia), and one
shift-invert Lanczos solve then computes exactly that many.  Used purely as
an oracle against the closed-form spectra and norming constants.

scipy.sparse and its eigsh are imported by the functions that use them, so
they load only when an FD spectrum is asked for (the spectrum subcommand and
the spectra suite of verify), not with the package.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["GridSpec", "OracleWindowError", "eigen_spectrum", "oracle_norming_constants"]

CONTINUUM_EPS = 1e-3
DECAY_REQUIREMENT = 1e-10
AMPLITUDE_FLOOR = 1e-11


class OracleWindowError(RuntimeError):
    """No usable tail window: discretization noise swamps the eigenvector."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric grid on [-L, L] with Dirichlet boundaries."""

    L: float = 20.0
    n_points: int = 4001

    def __post_init__(self):
        if not 0 < self.L < math.inf:
            raise ValueError(f"grid half-width must be finite and positive, got {self.L}")
        if self.n_points < 501 or self.n_points % 2 == 0:
            raise ValueError("n_points must be an odd integer >= 501")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.n_points)

    @property
    def interior(self) -> np.ndarray:
        return self.points[1:-1]

    @property
    def dx(self) -> float:
        return 2.0 * self.L / (self.n_points - 1)


def _hamiltonian(potential, grid: GridSpec):
    from scipy import sparse

    xi = grid.interior
    uu = np.asarray(potential(xi), dtype=float)
    edge = max(abs(float(potential(-grid.L))), abs(float(potential(grid.L))))
    if edge >= DECAY_REQUIREMENT:
        raise ValueError(
            f"potential does not decay below {DECAY_REQUIREMENT} at the walls (|U| = {edge:.2e})"
        )
    inv_dx2 = 1.0 / grid.dx**2
    m = len(xi)
    main = 30.0 / 12.0 * inv_dx2 + uu
    off1 = np.full(m - 1, -16.0 / 12.0 * inv_dx2)
    off2 = np.full(m - 2, 1.0 / 12.0 * inv_dx2)
    ham = sparse.diags([off2, off1, main, off1, off2], [-2, -1, 0, 1, 2], format="csc")
    return ham, uu


def _level_count(ham) -> int:
    """Number of eigenvalues of the symmetric matrix ham below -CONTINUUM_EPS.

    By Sylvester's law of inertia, H + CONTINUUM_EPS I = L D L^T has as many
    negative eigenvalues as D has negative entries.  SuperLU in symmetric mode
    with the natural ordering and no row pivoting (diag_pivot_thresh = 0) makes
    exactly that factorization, D being the diagonal of its U.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    lu = splu(
        ham + CONTINUUM_EPS * sparse.identity(ham.shape[0], format="csc"),
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise RuntimeError("the inertia count needs a symmetric permutation, and SuperLU pivoted")
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))


def eigen_spectrum(potential, grid: GridSpec) -> list:
    """Bound spectrum of -d2/dx2 + U: list of (energy, eigenvector) pairs.

    Returns every eigenvalue below -CONTINUUM_EPS = -1e-3, sorted ascending,
    with eigenvectors normalized in the discrete inner product
    sum(psi^2) dx = 1.  The levels are counted first, by the inertia of an
    LDL^T factorization, and one shift-invert Lanczos solve below the well
    bottom then asks for exactly that many: no eigenpair of the box continuum
    is computed.  A count of zero returns [] with no Lanczos solve.  If the
    solve returns another number of levels, or one at or above
    -CONTINUUM_EPS, RuntimeError is raised.  A warning is emitted for
    eigenvalues within a factor of ten of the continuum cutoff.
    """
    from scipy.sparse.linalg import eigsh

    ham, uu = _hamiltonian(potential, grid)
    count = _level_count(ham)
    if count == 0:
        return []
    n = ham.shape[0]
    v0 = np.full(n, 1.0 / math.sqrt(n))
    try:
        w, vecs = eigsh(ham, k=count, sigma=float(uu.min()) - 1.0, which="LM", v0=v0, tol=0)
    except Exception as exc:  # pragma: no cover - ARPACK failures are rare
        raise RuntimeError(f"eigen-decomposition failed: {exc}") from exc
    if w.size != count or not w.max() < -CONTINUUM_EPS:
        raise RuntimeError(
            f"the Lanczos solve returned {w.size} levels up to {w.max():.3e}, but the "
            f"inertia count finds {count} below {-CONTINUUM_EPS}"
        )
    order = np.argsort(w)
    w, vecs = w[order], vecs[:, order]
    near_edge = w[w >= -10.0 * CONTINUUM_EPS]
    if near_edge.size:
        warnings.warn(
            f"eigenvalue(s) {near_edge} sit within a factor 10 of the continuum cutoff",
            RuntimeWarning,
            stacklevel=2,
        )
    scale = 1.0 / math.sqrt(grid.dx)
    return [(float(wi), vecs[:, i] * scale) for i, wi in enumerate(w)]


def _tail_fit(xi: np.ndarray, psi: np.ndarray, kappa: float, grid: GridSpec) -> float:
    """Least-squares amplitude of the decaying tail of a discrete eigenvector.

    The model basis e^(-kappa x) - e^(-kappa (2L - x)) satisfies the Dirichlet
    wall exactly, which removes the leading boundary distortion.  The fit
    window is [L/2, 3L/4] intersected with the region where the eigenvector
    still stands above the eigensolver noise floor; for fast-decaying states
    the window slides left so that the tail remains resolvable.
    """
    L = grid.L
    alive = np.abs(psi) >= AMPLITUDE_FLOOR
    window = (xi >= L / 2) & (xi <= 0.75 * L) & alive
    if not np.any(window):
        usable = alive & (xi >= 4.0) & (xi <= 0.75 * L)
        if not np.any(usable):
            raise OracleWindowError(
                f"tail window for kappa = {kappa:.3f} is dominated by discretization noise"
            )
        hi = xi[usable].max()
        window = usable & (xi >= max(4.0, hi - L / 4))
    basis = np.exp(-kappa * xi[window]) - np.exp(-kappa * (2.0 * L - xi[window]))
    return float(np.dot(psi[window], basis) / np.dot(basis, basis))


def oracle_norming_constants(potential, grid: GridSpec) -> list:
    """(kappa, c) for each discrete bound state, by matching the e^(-kappa x) tail."""
    xi = grid.interior
    out = []
    for energy, psi in eigen_spectrum(potential, grid):
        kappa = math.sqrt(-energy)
        out.append((kappa, abs(_tail_fit(xi, psi, kappa, grid))))
    return out
