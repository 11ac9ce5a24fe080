import math

import numpy as np
import pytest

from darbouxkdv.darboux import SystemSpec, bound_states, deformed_potential
from darbouxkdv.spectral_oracle import (
    GridSpec,
    OracleWindowError,
    eigen_spectrum,
    oracle_norming_constants,
)


class TestGridSpec:
    def test_valid(self):
        g = GridSpec(L=20.0, n_points=4001)
        assert g.dx == pytest.approx(0.01)
        assert len(g.points) == 4001
        assert g.points[0] == -20.0 and g.points[-1] == 20.0
        assert len(g.interior) == 3999

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"L": -1.0},
            {"L": math.inf},
            {"L": math.nan},
            {"n_points": 500},
            {"n_points": 4000},
            {"n_points": 301},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)


class TestEigenSpectrum:
    def test_base_well(self):
        levels = eigen_spectrum(deformed_potential(SystemSpec(1.0)), GridSpec(16.0, 2001))
        assert len(levels) == 1
        assert levels[0][0] == pytest.approx(-1.0, abs=1e-5)

    def test_deformed_well_h1(self):
        levels = eigen_spectrum(deformed_potential(SystemSpec(1.0, (2,))), GridSpec(20.0, 4001))
        energies = [e for e, _ in levels]
        np.testing.assert_allclose(energies, [-16.0, -1.0], rtol=0, atol=1e-6)

    def test_deformed_well_h2(self):
        levels = eigen_spectrum(deformed_potential(SystemSpec(2.0, (2,))), GridSpec(20.0, 6001))
        energies = [e for e, _ in levels]
        np.testing.assert_allclose(energies, [-25.0, -4.0, -1.0], rtol=0, atol=1e-6)

    @pytest.mark.parametrize(
        "spec, expected",
        [
            (SystemSpec(1.0, (2,)), 2),
            (SystemSpec(1.5, (2,)), 3),
            (SystemSpec(2.5, ()), 3),
            (SystemSpec(15.0), 15),  # more levels than the first 12 eigenpairs
        ],
    )
    def test_eigenvalue_count(self, spec, expected):
        levels = eigen_spectrum(deformed_potential(spec), GridSpec(20.0, 2001))
        assert len(levels) == expected

    def test_every_level_of_a_deep_well(self):
        levels = eigen_spectrum(deformed_potential(SystemSpec(15.0)), GridSpec(20.0, 4001))
        energies = [e for e, _ in levels]
        np.testing.assert_allclose(energies, [-((15 - n) ** 2) for n in range(15)], atol=1e-3)

    def test_grid_doubling_stability(self):
        pot = deformed_potential(SystemSpec(1.0, (2,)))
        coarse = [e for e, _ in eigen_spectrum(pot, GridSpec(20.0, 4001))]
        fine = [e for e, _ in eigen_spectrum(pot, GridSpec(20.0, 8001))]
        assert max(abs(a - b) for a, b in zip(coarse, fine)) <= 1e-6

    def test_eigenvectors_orthonormal(self):
        g = GridSpec(20.0, 2001)
        levels = eigen_spectrum(deformed_potential(SystemSpec(2.0, (2,))), g)
        vecs = np.stack([v for _, v in levels], axis=1)
        gram = vecs.T @ vecs * g.dx
        assert np.max(np.abs(gram - np.eye(len(levels)))) <= 1e-8

    def test_decay_precondition(self):
        with pytest.raises(ValueError):
            eigen_spectrum(deformed_potential(SystemSpec(1.0)), GridSpec(8.0, 801))

    def test_continuum_edge_warning(self):
        # a shallow well with its only level inside (-1e-2, -1e-3)
        shallow = lambda x: -0.1 / np.cosh(np.asarray(x)) ** 2
        with pytest.warns(RuntimeWarning):
            levels = eigen_spectrum(shallow, GridSpec(30.0, 3001))
        assert len(levels) == 1


class TestOracleNormingConstants:
    def test_base_well(self):
        out = oracle_norming_constants(deformed_potential(SystemSpec(1.0)), GridSpec(20.0, 4001))
        assert len(out) == 1
        kappa, c = out[0]
        assert kappa == pytest.approx(1.0, abs=1e-6)
        assert c == pytest.approx(math.sqrt(2.0), abs=1e-3)

    def test_deformed_well_matches_closed_form(self):
        spec = SystemSpec(1.0, (2,))
        closed = {round(s.kappa): s.norming_constant for s in bound_states(spec)}
        out = oracle_norming_constants(deformed_potential(spec), GridSpec(20.0, 6001))
        for kappa, c in out:
            assert c == pytest.approx(closed[round(kappa)], abs=1e-3)

    def test_fast_decay_needs_amplitude_window(self):
        # kappa = 4: the nominal [L/2, 3L/4] window is below the noise floor,
        # so the fit must slide left and still recover the tail amplitude
        spec = SystemSpec(1.0, (2,))
        out = oracle_norming_constants(deformed_potential(spec), GridSpec(20.0, 6001))
        kappas = sorted(k for k, _ in out)
        assert kappas[-1] == pytest.approx(4.0, abs=1e-6)

    def test_window_noise_error(self):
        # h = 9: the kappa = 9 state decays below the amplitude floor before
        # the asymptotic window even begins
        with pytest.raises(OracleWindowError):
            oracle_norming_constants(deformed_potential(SystemSpec(9.0)), GridSpec(20.0, 2001))
