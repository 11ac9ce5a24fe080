import dataclasses
import math

import numpy as np
import pytest

from darbouxkdv import cli, spectral_oracle
from darbouxkdv.darboux import SystemSpec, bound_states, deformed_potential
from darbouxkdv.spectral_oracle import (
    MAP_SCALE,
    GridSpec,
    _grid_sectors,
    _sector_matrices,
    eigen_spectrum,
    oracle_norming_constants,
)
from darbouxkdv.verification import SINC_GRID


class TestGridSpec:
    def test_valid(self):
        g = GridSpec()
        assert g == GridSpec(20.0, 161) == SINC_GRID
        assert len(g.points) == 161
        assert g.points[0] == pytest.approx(-20.0, rel=1e-14) and g.points[80] == 0.0

    def test_mapped(self):
        g, a = GridSpec(L=20.0, n_points=101), MAP_SCALE
        assert g.dx == 2.0 * a * math.asinh(20.0 / a) / 100  # the step in s
        s = g.dx * np.arange(-50, 51)
        assert np.array_equal(g.points, a * np.sinh(s / a))
        # symmetric, x = 0 exactly at the middle, +-L at the ends
        assert np.array_equal(g.points, -g.points[::-1]) and g.points[50] == 0.0
        assert g.points[-1] == pytest.approx(20.0, rel=1e-14)
        # the x-step is dx at the middle and about sqrt(1 + (L/a)^2) dx at the ends
        steps = np.diff(g.points) / g.dx
        assert steps[50] == pytest.approx(1.0, rel=1e-2)
        assert steps[-1] == pytest.approx(math.sqrt(1.0 + (20.0 / a) ** 2), rel=0.1)

    def test_has_no_scale_option(self):
        # one map, a = MAP_SCALE: the grid is its box and its number of points
        assert [f.name for f in dataclasses.fields(GridSpec)] == ["L", "n_points"]
        with pytest.raises(TypeError):
            GridSpec(20.0, 161, scale=MAP_SCALE)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"L": -1.0},
            {"L": math.inf},
            {"L": math.nan},
            {"n_points": 99},
            {"n_points": 160},
            {"n_points": 500},
            {"n_points": 4000},
            {"n_points": 801.5},
            {"n_points": 801.0},
            {"n_points": 161.5},  # used to pass, then fail with a TypeError in eigen_spectrum
            {"n_points": 161.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)


def sector_matrices_direct(uu, dx):
    """The sector matrices entry by entry: T(j - k) +- T(j + k), the even sector's
    column and row 0 T(j) sqrt(2) with T(0) at (0, 0), and U on the diagonal."""
    n = len(uu)
    j, k = np.arange(n)[:, None], np.arange(n)

    def sinc_t(m):
        m = np.abs(m)
        off = 2.0 * (1.0 - 2.0 * (m % 2)) / np.maximum(m * m, 1)
        return np.where(m == 0, math.pi**2 / 3.0, off) / dx**2

    even = sinc_t(j - k) + sinc_t(j + k)
    even[:, 0] = even[0] = sinc_t(np.arange(n)) * math.sqrt(2.0)
    even[0, 0] = sinc_t(0)
    odd = sinc_t(j - k)[1:, 1:] - sinc_t(j + k)[1:, 1:]
    return even + np.diag(uu), odd + np.diag(uu[1:])


def stretch(grid):
    """g' = dx/ds at grid.points: sqrt(1 + (x/a)^2) for x = a sinh(s/a)."""
    return np.sqrt(1.0 + (grid.points / MAP_SCALE) ** 2)


def uniform_levels(potential, L, n_points):
    """Energies by eigvalsh on the sector matrices of the uniform grid linspace(-L, L, n_points):
    the unmapped sinc solve, for comparison with the mapped grid."""
    from scipy import linalg

    x = np.linspace(-L, L, n_points)[n_points // 2:]
    sectors = _sector_matrices(np.asarray(potential(x)), 2.0 * L / (n_points - 1))
    return sorted(np.concatenate([
        linalg.eigvalsh(m, subset_by_value=(-np.inf, -spectral_oracle.CONTINUUM_EPS))
        for m in sectors
    ]).tolist())


def sinc_eigenvectors(potential, grid):
    """(energy, psi) of each level below the cutoff, ascending, by eigh on the sector
    matrices: psi on grid.points, mirrored by the sector's parity and normalized in the
    discrete inner product sum(psi^2 g') dx = 1, g' = stretch(grid).  A sector's
    eigenvector w is psi sqrt(g'), so psi = w / sqrt(g').  A witness for the
    closed-form wavefunctions; the package itself computes no eigenvector."""
    from scipy import linalg

    mid = grid.n_points // 2
    x = grid.points[mid:]
    uu = np.asarray(potential(x), dtype=float)
    levels = []
    for matrix, sign in zip(_grid_sectors(x, uu, grid.dx), (1.0, -1.0)):
        w, vecs = linalg.eigh(matrix, subset_by_value=(-np.inf, -spectral_oracle.CONTINUUM_EPS))
        half = vecs / math.sqrt(2.0 * grid.dx)  # psi_j = phi_j / sqrt(2) for j >= 1
        if sign > 0:
            half[0] *= math.sqrt(2.0)  # psi_0 = phi_0 carries no weight
        else:
            half = np.vstack([np.zeros(len(w)), half])  # psi_0 = 0
        half /= np.sqrt(stretch(grid)[mid:])[:, None]
        full = np.vstack([sign * half[:0:-1], half])
        levels.extend((float(e), full[:, i]) for i, e in enumerate(w))
    return sorted(levels, key=lambda level: level[0])


class TestSectorMatrices:
    @pytest.mark.parametrize("n_points", [501, 801])
    def test_bitwise_the_direct_definition(self, n_points):
        grid = GridSpec(20.0, n_points)
        uu = deformed_potential(SystemSpec(2.0, (2,)))(grid.points[n_points // 2:])
        for got, want in zip(_sector_matrices(uu, grid.dx), sector_matrices_direct(uu, grid.dx)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)


class TestEigenSpectrum:
    def test_base_well(self):
        levels = eigen_spectrum(deformed_potential(SystemSpec(1.0)), GridSpec(16.0, 501))
        assert len(levels) == 1
        assert levels[0][0] == pytest.approx(-1.0, abs=1e-10)

    def test_deformed_well_h1(self):
        levels = eigen_spectrum(deformed_potential(SystemSpec(1.0, (2,))), GridSpec(20.0, 801))
        energies = [e for e, _ in levels]
        np.testing.assert_allclose(energies, [-16.0, -1.0], rtol=0, atol=1e-10)

    def test_deformed_well_h2(self):
        levels = eigen_spectrum(deformed_potential(SystemSpec(2.0, (2,))), GridSpec(20.0, 801))
        energies = [e for e, _ in levels]
        np.testing.assert_allclose(energies, [-25.0, -4.0, -1.0], rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "spec, expected",
        [
            (SystemSpec(1.0, (2,)), 2),
            (SystemSpec(1.5, (2,)), 3),
            (SystemSpec(2.5, ()), 3),
            (SystemSpec(15.0), 15),  # eight even and seven odd levels
        ],
    )
    def test_eigenvalue_count(self, spec, expected):
        levels = eigen_spectrum(deformed_potential(spec), GridSpec(20.0, 501))
        assert len(levels) == expected

    def test_every_level_of_a_deep_well(self):
        levels = eigen_spectrum(deformed_potential(SystemSpec(15.0)), GridSpec(20.0, 801))
        energies = [e for e, _ in levels]
        np.testing.assert_allclose(energies, [-((15 - n) ** 2) for n in range(15)], atol=1e-9)

    @pytest.mark.parametrize(
        "spec, grid",
        [
            (SystemSpec(1.0, (2,)), GridSpec(20.0, 801)),
            (SystemSpec(2.0, (2,)), GridSpec(20.0, 801)),
            (SystemSpec(15.0), GridSpec(20.0, 501)),
            (SystemSpec(15.0), SINC_GRID),
        ],
        ids=str,
    )
    def test_one_eigvalsh_per_parity_sector(self, spec, grid, monkeypatch):
        # each sector's eigvalsh returns only the levels below the cutoff; no eigh
        # call computes an eigenvector
        import scipy.linalg

        found = []
        eigvalsh = scipy.linalg.eigvalsh

        def counted(*args, **kwargs):
            w = eigvalsh(*args, **kwargs)
            found.append(w.size)
            return w

        def refused(*args, **kwargs):
            raise AssertionError("eigh call: the oracle computes eigenvalues only")

        monkeypatch.setattr(scipy.linalg, "eigvalsh", counted)
        monkeypatch.setattr(scipy.linalg, "eigh", refused)
        levels = eigen_spectrum(deformed_potential(spec), grid)
        assert len(found) == 2 and sum(found) == len(levels)
        # the ground state is even, and the parities alternate up the spectrum
        assert found[0] == (len(levels) + 1) // 2

    @pytest.mark.parametrize(
        "spec, parities",
        [
            (SystemSpec(1.0, (2,)), (1, -1)),
            (SystemSpec(2.0, (2,)), (1, -1, 1)),
            (SystemSpec(15.0), tuple((-1) ** n for n in range(15))),
        ],
        ids=str,
    )
    def test_parity_is_the_sector(self, spec, parities):
        # by ascending energy: even (+1) ground state, then alternating
        pot, grid = deformed_potential(spec), GridSpec(20.0, 801)
        assert tuple(parity for _, parity in eigen_spectrum(pot, grid)) == parities
        # an odd sector's eigenvector is exactly 0 at x = 0, an even one's is not
        mid = grid.n_points // 2
        witness = sinc_eigenvectors(pot, grid)
        assert tuple(-1 if psi[mid] == 0.0 else 1 for _, psi in witness) == parities

    def test_barrier_has_no_levels_and_no_lanczos_solve(self):
        assert eigen_spectrum(lambda x: 1.0 / np.cosh(x) ** 2, GridSpec(20.0, 501)) == []

    def test_box_doubling_stability(self):
        # [-40, 40] at the default step in s (187 points) adds the tails the levels
        # do not reach: it moved no level by more than 1.5e-12
        pot, grid = deformed_potential(SystemSpec(2.0, (2,))), SINC_GRID
        wide = GridSpec(40.0, 2 * round(MAP_SCALE * math.asinh(40.0 / MAP_SCALE) / grid.dx) + 1)
        assert wide.dx == pytest.approx(grid.dx, rel=1e-3)
        coarse, widened = eigen_spectrum(pot, grid), eigen_spectrum(pot, wide)
        assert [p for _, p in coarse] == [p for _, p in widened]
        assert max(abs(a - b) for (a, _), (b, _) in zip(coarse, widened)) <= 1e-11

    @pytest.mark.parametrize("g", [GridSpec(20.0, 801), SINC_GRID], ids=str)
    def test_eigenvectors_orthonormal(self, g):
        pot = deformed_potential(SystemSpec(2.0, (2,)))
        levels = sinc_eigenvectors(pot, g)
        # the witness solves the oracle's own sector matrices
        assert [e for e, _ in levels] == pytest.approx([e for e, _ in eigen_spectrum(pot, g)],
                                                       rel=0, abs=1e-12)
        vecs = np.stack([v for _, v in levels], axis=1)
        gram = vecs.T @ (vecs * stretch(g)[:, None]) * g.dx
        assert np.max(np.abs(gram - np.eye(len(levels)))) <= 1e-12

    @pytest.mark.parametrize(
        "spec, g",
        [
            (SystemSpec(2.0, (2,)), GridSpec(20.0, 801)),
            (SystemSpec(2.0, (2,)), SINC_GRID),
            (SystemSpec(3.7, (4,)), SINC_GRID),
        ],
        ids=str,
    )
    def test_eigenvectors_match_the_closed_form(self, spec, g):
        # overlaps in the discrete inner product sum(psi phi g') dx, at the mapped
        # points on a mapped grid
        states = bound_states(spec)
        levels = sinc_eigenvectors(deformed_potential(spec), g)
        assert len(levels) == len(states)
        for state, (_, psi) in zip(states, levels):
            exact = state.wavefunction(g.points)
            assert abs(abs(np.sum(psi * exact * stretch(g)) * g.dx) - 1.0) <= 1e-9
            assert np.max(np.abs(np.abs(psi) - np.abs(exact))) <= 1e-6

    def test_decay_precondition(self):
        with pytest.raises(ValueError):
            eigen_spectrum(deformed_potential(SystemSpec(1.0)), GridSpec(8.0, 801))

    @pytest.mark.parametrize(
        "potential",
        [lambda x: -2.0 / np.cosh(x - 1.0) ** 2, lambda x: -2.0j / np.cosh(x) ** 2],
        ids=["shifted", "complex"],
    )
    def test_even_precondition(self, potential):
        # the parity sectors hold for an even, real well only
        with pytest.raises(ValueError, match="even and real"):
            eigen_spectrum(potential, GridSpec(20.0, 801))

    def test_nonfinite_potential_raises(self):
        # nan between the probe points, where only the grid sees it
        def potential(x):
            x = np.asarray(x)
            return np.where(np.abs(np.abs(x) - 5.0) < 0.1, np.nan, -2.0 / np.cosh(x) ** 2)

        with pytest.raises(ValueError, match="finite"):
            eigen_spectrum(potential, GridSpec(20.0, 801))

    def test_sectors_solved_in_place_as_their_copies(self):
        # eigvalsh overwrites the transpose of each symmetric sector, with no copy;
        # the levels are those of the untouched matrices, bitwise
        from scipy import linalg

        pot, grid = deformed_potential(SystemSpec(2.0, (2,))), GridSpec(20.0, 801)
        x = grid.points[grid.n_points // 2:]
        even, odd = _grid_sectors(x, np.asarray(pot(x)), grid.dx)
        want = sorted(np.concatenate([
            linalg.eigvalsh(m, subset_by_value=(-np.inf, -spectral_oracle.CONTINUUM_EPS))
            for m in (even, odd)
        ]).tolist())
        assert [e for e, _ in eigen_spectrum(pot, grid)] == want

    def test_continuum_edge_warning(self):
        # a shallow well with its only level inside (-1e-2, -1e-3)
        shallow = lambda x: -0.1 / np.cosh(np.asarray(x)) ** 2
        with pytest.warns(RuntimeWarning):
            levels = eigen_spectrum(shallow, GridSpec(30.0, 601))
        assert len(levels) == 1


class TestMappedGrid:
    def test_sectors_are_the_liouville_form(self):
        # V = g'^2 U(g(s)) - {g, s}/2 at s_j = j ds, g = a sinh(s/a), and the sectors
        # scaled by 1/g' on both sides, entry by entry from the definitions in s
        grid, pot = SINC_GRID, deformed_potential(SystemSpec(3.7, (4,)))
        a, mid = MAP_SCALE, grid.n_points // 2
        s = grid.dx * np.arange(mid + 1)
        gp = np.cosh(s / a)
        schwarzian = (1.0 - 1.5 * np.tanh(s / a) ** 2) / a**2
        vv = gp**2 * pot(a * np.sinh(s / a)) - 0.5 * schwarzian
        x = grid.points[mid:]
        got = _grid_sectors(x, np.asarray(pot(x)), grid.dx)
        want = sector_matrices_direct(vv, grid.dx)
        for g, w, r in zip(got, want, (1.0 / gp, 1.0 / gp[1:])):
            w = w * np.outer(r, r)
            assert np.allclose(g, w, rtol=0, atol=1e-13 * np.max(np.abs(w)))
            assert np.array_equal(g, g.T)  # one symmetric matrix per sector

    @pytest.mark.parametrize(
        "spec",
        [
            SystemSpec(1.0, (2,)),
            SystemSpec(2.0, (2,)),
            SystemSpec(3.7, (4,)),
            SystemSpec(6.0, (2,)),
            SystemSpec(15.0),
        ],
        ids=str,
    )
    def test_refinement_moves_no_level(self, spec):
        # 2n - 1 points halve the step in s
        pot, grid = deformed_potential(spec), SINC_GRID
        fine = GridSpec(grid.L, 2 * grid.n_points - 1)
        coarse, refined = eigen_spectrum(pot, grid), eigen_spectrum(pot, fine)
        assert [p for _, p in coarse] == [p for _, p in refined]
        assert max(abs(a - b) for (a, _), (b, _) in zip(coarse, refined)) <= 1e-11

    @pytest.mark.parametrize(
        "spec", [SystemSpec(1.0, (2,)), SystemSpec(2.0, (2,)), SystemSpec(15.0)], ids=str
    )
    def test_levels_of_the_uniform_solve(self, spec):
        # where 801 uniform points on [-20, 20] resolve U, the two discretizations of
        # the same operator agree: the peak gap read 1.7e-12 (2 [2])
        pot = deformed_potential(spec)
        mapped = [e for e, _ in eigen_spectrum(pot, SINC_GRID)]
        uniform = uniform_levels(pot, 20.0, 801)
        assert len(mapped) == len(uniform) == len(bound_states(spec))
        assert max(abs(a - b) for a, b in zip(mapped, uniform)) <= 1e-11

    @pytest.mark.parametrize("grid", [SINC_GRID, GridSpec(20.0, 141)], ids=str)
    @pytest.mark.parametrize(
        "spec, uniform_defect",
        [(SystemSpec(3.7, (4,)), 1e-6), (SystemSpec(6.0, (2,)), 1e-9)],
        ids=str,
    )
    def test_closed_form_where_the_uniform_grid_is_coarse(self, spec, uniform_defect, grid):
        # 801 uniform points on [-20, 20] are 2.4e-6 off on 3.7 [4] and 8.4e-9 on
        # 6 [2]; the 161 mapped points of the default grid read 4.1e-12 and 1.7e-12,
        # 141 mapped points 1.2e-11 and 9.1e-13
        pot, closed = deformed_potential(spec), [s.energy for s in bound_states(spec)]
        uniform = uniform_levels(pot, 20.0, 801)
        assert max(abs(a - b) for a, b in zip(uniform, closed)) > uniform_defect
        energies = [e for e, _ in eigen_spectrum(pot, grid)]
        np.testing.assert_allclose(energies, closed, rtol=0, atol=1e-9)

    def test_norming_constants_on_the_mapped_grid(self):
        # the Jost solve reads only kappa and L off the grid
        spec = SystemSpec(3.7, (4,))
        out = oracle_norming_constants(deformed_potential(spec), SINC_GRID)
        states = bound_states(spec)
        assert len(out) == len(states)
        for state, (kappa, c) in zip(states, out):
            assert abs(state.energy + kappa * kappa) <= 1e-10
            assert c == pytest.approx(state.norming_constant, rel=1e-8)


class TestOracleNormingConstants:
    def test_base_well(self):
        out = oracle_norming_constants(deformed_potential(SystemSpec(1.0)), GridSpec(20.0, 801))
        assert len(out) == 1
        kappa, c = out[0]
        assert kappa == pytest.approx(1.0, abs=1e-10)
        assert c == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_middle_point_is_zero(self):
        # a sinh(0) puts the middle point at x = 0 exactly, where linspace put it
        # at -3.6e-15 on 607 uniform points; the Jost solve ends at x = 0 itself
        grid = GridSpec(20.0, 607)
        assert grid.points[grid.n_points // 2] == 0.0
        (out,) = oracle_norming_constants(deformed_potential(SystemSpec(1.0)), grid)
        assert out[1] == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_deformed_well_matches_closed_form(self):
        spec = SystemSpec(1.0, (2,))
        closed = {round(s.kappa): s.norming_constant for s in bound_states(spec)}
        out = oracle_norming_constants(deformed_potential(spec), GridSpec(20.0, 801))
        for kappa, c in out:
            assert c == pytest.approx(closed[round(kappa)], rel=1e-9)

    def test_fast_decay_needs_amplitude_window(self):
        # kappa = 4 sinks below 1e-11 by x = 8, before U has decayed: the Jost
        # Wronskian at x = 0 needs no asymptotic window
        spec = SystemSpec(1.0, (2,))
        out = oracle_norming_constants(deformed_potential(spec), GridSpec(20.0, 801))
        kappa, c = max(out)
        assert kappa == pytest.approx(4.0, abs=1e-10)
        assert c == pytest.approx(math.sqrt(40.0 / 3.0), rel=1e-9)

    def test_deep_levels_resolve_c(self):
        # h = 9: kappa = 9 decays like e^(-9x), far below any tail-fit floor
        spec = SystemSpec(9.0)
        out = oracle_norming_constants(deformed_potential(spec), GridSpec(20.0, 801))
        states = bound_states(spec)
        assert len(out) == len(states) == 9
        for state, (kappa, c) in zip(states, out):
            assert kappa == pytest.approx(state.kappa, abs=1e-9)
            assert c == pytest.approx(state.norming_constant, rel=1e-8)

    @pytest.mark.parametrize(
        "spec",
        [
            SystemSpec(1.0, (2,)),
            SystemSpec(2.0, (2,)),
            SystemSpec(1.5, (2,)),
            SystemSpec(1.5, (4,)),
            SystemSpec(3.7, (4,)),
            SystemSpec(6.0, (2,)),
            SystemSpec(15.0),
        ],
        ids=str,
    )
    def test_fine_grid_matches_closed_form(self, spec):
        out = oracle_norming_constants(deformed_potential(spec), GridSpec(30.0, 1801))
        states = bound_states(spec)
        assert len(out) == len(states)
        for state, (kappa, c) in zip(states, out):
            assert abs(state.energy + kappa * kappa) <= 1e-9
            assert c == pytest.approx(state.norming_constant, rel=1e-8)

    @staticmethod
    def oracle_on_cli_grid(spec) -> list:
        """The oracle's (kappa, c) on the grid that `spectrum` derives at its default tolerances."""
        states, pot = bound_states(spec), deformed_potential(spec)
        L, n = cli._oracle_grid(states, pot, 1e-5, 1e-3)
        out = oracle_norming_constants(pot, GridSpec(L, n))
        assert len(out) == len(states)
        return [(state.norming_constant, c) for state, (_, c) in zip(states, out)]

    @pytest.mark.parametrize(
        "spec",
        [
            SystemSpec(3.7, (4,)),
            SystemSpec(6.0, (2,)),
            SystemSpec(10.0, (6,)),
            SystemSpec(14.0, (2,)),
            SystemSpec(20.0, (4,)),
        ],
        ids=str,
    )
    def test_cli_grid_matches_closed_form(self, spec):
        # the peak match reads 1.6e-11 relative (20 [4]); it read 1.2e-8 on the uniform grid
        for closed, c in self.oracle_on_cli_grid(spec):
            assert c == pytest.approx(closed, rel=1e-8)

    def test_deep_well_keeps_its_deepest_levels(self):
        # kappa up to 53: this grid reads 6.8e-8 relative.  The deepest levels' c is
        # limited by the Jost solver's absolute atol: over the grids of 161 to 801
        # points it read from 6e-11 to 0.8 relative (ROADMAP item 20)
        for closed, c in self.oracle_on_cli_grid(SystemSpec(50.0, (2,))):
            assert c == pytest.approx(closed, rel=1e-7)

    def test_non_positive_c_squared_raises(self, monkeypatch):
        # conjugating the state flips the sign of every kappa derivative, and of c^2
        jost = spectral_oracle._jost
        monkeypatch.setattr(spectral_oracle, "_jost", lambda *args: jost(*args).conj())
        with pytest.raises(RuntimeError, match="not finite and positive"):
            oracle_norming_constants(deformed_potential(SystemSpec(1.0, (2,))), GridSpec())

    def test_no_levels_no_jost_solve(self, monkeypatch):
        import scipy.integrate

        def refused(*args, **kwargs):
            raise AssertionError("Jost solve for a spectrum with no bound state")

        monkeypatch.setattr(scipy.integrate, "ode", refused)
        assert oracle_norming_constants(lambda x: 1.0 / np.cosh(x) ** 2, GridSpec(20.0, 501)) == []
