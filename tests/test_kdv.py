import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from darbouxkdv.darboux import SystemSpec, deformed_potential
from darbouxkdv.kdv import (
    OverflowDomainError,
    SolitonData,
    SolitonField,
    asymptotic_decomposition,
    conserved_quantities,
    field_u,
    glm_matrix,
    kdv_residual,
    scattering_data_from_spec,
)

RNG = np.random.default_rng(3)

TWO_SOLITON = SolitonData((1.0, 4.0), (math.sqrt(10.0 / 3.0), math.sqrt(40.0 / 3.0)))
ONE_SOLITON = SolitonData((1.0,), (math.sqrt(2.0),))


class TestSolitonData:
    @pytest.mark.parametrize(
        "kappas, c0",
        [
            ((1.0, 2.0), (1.0,)),
            ((), ()),
            ((2.0, 1.0), (1.0, 1.0)),
            ((1.0, 1.0), (1.0, 1.0)),
            ((-1.0,), (1.0,)),
            ((1.0,), (-1.0,)),
            ((1.0,), (0.0,)),
        ],
    )
    def test_invalid(self, kappas, c0):
        with pytest.raises(ValueError):
            SolitonData(kappas, c0)

    def test_valid(self):
        data = SolitonData((1, 4), (1.0, 2.0))
        assert data.n == 2
        assert data.kappas == (1.0, 4.0)


class TestScatteringDataFromSpec:
    def test_two_soliton(self):
        data = scattering_data_from_spec(SystemSpec(1.0, (2,)))
        assert data.kappas == (1.0, 4.0)
        assert data.c0[0] == pytest.approx(math.sqrt(10.0 / 3.0), abs=1e-9)
        assert data.c0[1] == pytest.approx(math.sqrt(40.0 / 3.0), abs=1e-9)

    def test_three_soliton(self):
        data = scattering_data_from_spec(SystemSpec(2.0, (2,)))
        assert data.kappas == (1.0, 2.0, 5.0)

    def test_undeformed(self):
        data = scattering_data_from_spec(SystemSpec(1.0))
        assert data.kappas == (1.0,)
        assert data.c0[0] == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_non_integer_h_rejected(self):
        with pytest.raises(ValueError):
            scattering_data_from_spec(SystemSpec(1.5, (2,)))


class TestGlmMatrix:
    def test_reference_determinant(self):
        # A = [[8/3, 8/3], [2/3, 8/3]] in the asymmetric form; det = 16/3
        a = glm_matrix(TWO_SOLITON, 0.0, 0.0)
        assert a.shape == (2, 2)
        np.testing.assert_allclose(a, a.T, rtol=0, atol=1e-15)
        assert np.linalg.det(a) == pytest.approx(16.0 / 3.0, rel=1e-12)

    def test_identity_limit(self):
        a = glm_matrix(TWO_SOLITON, 30.0, 0.0)
        assert np.max(np.abs(a - np.eye(2))) < 1e-20

    def test_ggkm_time_scaling(self):
        # off-diagonal entries scale by e^(4(k_m^3+k_n^3) dt) under the flow
        dt = 0.01
        a0 = glm_matrix(TWO_SOLITON, 0.5, 0.0) - np.eye(2)
        a1 = glm_matrix(TWO_SOLITON, 0.5, dt) - np.eye(2)
        kap = np.array(TWO_SOLITON.kappas)
        scale = np.exp(4.0 * (kap[:, None] ** 3 + kap[None, :] ** 3) * dt)
        np.testing.assert_allclose(a1, a0 * scale, rtol=1e-12)

    def test_positive_definite(self):
        for x in (-3.0, 0.0, 2.0):
            a = glm_matrix(TWO_SOLITON, x, 0.01)
            assert np.all(np.linalg.eigvalsh(a) > 0)

    def test_overflow_domain(self):
        with pytest.raises(OverflowDomainError):
            glm_matrix(TWO_SOLITON, -200.0, 0.0)


class TestFieldU:
    def test_one_soliton_closed_form(self):
        xs = np.linspace(-5, 5, 101)
        for t in (0.0, 0.2):
            got = field_u(ONE_SOLITON, xs, t)
            ref = -2.0 / np.cosh(xs - 4.0 * t) ** 2
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_initial_profile_spot_value(self):
        assert field_u(TWO_SOLITON, 0.0, 0.0) == pytest.approx(-30.0, abs=1e-10)

    def test_reconstructs_deformed_potential(self):
        data = scattering_data_from_spec(SystemSpec(1.0, (2,)))
        pot = deformed_potential(SystemSpec(1.0, (2,)))
        xs = np.linspace(-10, 10, 801)
        assert np.max(np.abs(field_u(data, xs, 0.0) - pot(xs))) <= 1e-8

    def test_vacuum_decay(self):
        assert abs(field_u(TWO_SOLITON, 30.0, 0.0)) < 1e-20

    def test_translation_covariance(self):
        data = SolitonData((0.8, 1.7), (1.3, 0.9))
        a = 0.7
        shifted = SolitonData(
            data.kappas, tuple(c * math.exp(k * a) for c, k in zip(data.c0, data.kappas))
        )
        xs = np.linspace(-4, 4, 41)
        np.testing.assert_allclose(
            field_u(shifted, xs, 0.05), field_u(data, xs - a, 0.05), rtol=0, atol=1e-10
        )

    def test_matches_high_precision_route(self):
        # trace formulas vs the principal-minor tau expansion in mpmath,
        # including far-field points the raw matrix could never represent
        from darbouxkdv.kdv import _field_mp

        data = scattering_data_from_spec(SystemSpec(2.0, (2,)))
        points = [(0.3, 0.0), (-1.2, 0.04), (5.0, 1.0), (192.0, 3.0), (-50.0, -2.0)]
        with mp.workdps(40):
            for x, t in points:
                ref = float(_field_mp(data, x, t))
                got = field_u(data, x, t)
                assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref))

    def test_scalar_and_array_agree(self):
        xs = np.linspace(-2, 2, 5)
        arr = field_u(TWO_SOLITON, xs, 0.01)
        for x, u in zip(xs, arr):
            assert field_u(TWO_SOLITON, float(x), 0.01) == pytest.approx(u, rel=1e-14)

    def test_blocked_equals_scalar_path(self):
        # 5,000 points span several FIELD_BLOCKs; every matrix is solved on its
        # own, so blocking must not change a single bit
        data = scattering_data_from_spec(SystemSpec(6.0, (2,)))
        xs = np.linspace(-30.0, 30.0, 5000)
        whole = field_u(data, xs, 0.01)
        scalar = np.array([field_u(data, float(x), 0.01) for x in xs])
        halves = np.concatenate([field_u(data, xs[:2500], 0.01), field_u(data, xs[2500:], 0.01)])
        assert np.array_equal(whole, scalar)
        assert np.array_equal(whole, halves)
        assert type(field_u(data, 0.5, 0.01)) is float

    def test_field_wrapper(self):
        f = SolitonField(TWO_SOLITON)
        assert f(0.0, 0.0) == field_u(TWO_SOLITON, 0.0, 0.0)


class TestKdvResidual:
    def test_one_soliton(self):
        assert kdv_residual(ONE_SOLITON, 0.3, 0.2) <= 1e-6

    def test_two_soliton(self):
        assert kdv_residual(TWO_SOLITON, 0.5, 0.05) <= 1e-5

    def test_three_soliton(self):
        data = scattering_data_from_spec(SystemSpec(2.0, (2,)))
        assert kdv_residual(data, -1.0, 0.02) <= 1e-5

    def test_steep_core(self):
        # kappa = 8 core: a stencil's truncation error grows like kappa^7 and
        # reached 1e-5 here; exact derivatives leave only rounding of the data
        data = scattering_data_from_spec(SystemSpec(5.0, (2,)))
        assert kdv_residual(data, 1.82, 0.006) <= 1e-9

    def test_detects_a_non_solution(self, monkeypatch):
        # scaling the interaction term of the tau expansion by e breaks the
        # Cauchy structure: the field is no longer a KdV solution
        import darbouxkdv.kdv as kdv

        terms = kdv._tau_terms(TWO_SOLITON.kappas, TWO_SOLITON.c0)
        bent = terms[:-1] + ((terms[-1][0] + 1.0,) + terms[-1][1:],)
        monkeypatch.setattr(kdv, "_tau_terms", lambda kappas, c0: bent)
        assert kdv_residual(TWO_SOLITON, 0.3, 0.0) > 1.0


class TestAsymptoticDecomposition:
    def test_two_soliton_phase_shifts(self):
        sol = asymptotic_decomposition(TWO_SOLITON)
        chi = 0.5 * math.log(5.0 / 3.0)
        assert sol[0].chi == pytest.approx(chi, abs=1e-15)
        assert sol[1].chi == pytest.approx(-chi, abs=1e-15)
        assert sol[0].speed == 4.0 and sol[1].speed == 64.0

    def test_single_soliton_no_shift(self):
        sol = asymptotic_decomposition(ONE_SOLITON)
        assert sol[0].chi == 0.0

    def test_three_soliton_frozen_values(self):
        # chi = (1/2) ln(9/2), (1/2) ln(7/9), (1/2) ln(2/7) worked out by hand
        data = SolitonData((1.0, 2.0, 5.0), (1.0, 1.0, 1.0))
        sol = asymptotic_decomposition(data)
        assert sol[0].chi == pytest.approx(0.7520386983881371, abs=1e-14)
        assert sol[1].chi == pytest.approx(-0.12565721414045303, abs=1e-14)
        assert sol[2].chi == pytest.approx(-0.626381484247684, abs=1e-14)

    def test_peak_position_convention(self):
        sol = asymptotic_decomposition(TWO_SOLITON)[0]
        assert sol.peak_position(3.0) == pytest.approx(12.0 - sol.chi / sol.kappa)
        assert sol.peak_position(-3.0) == pytest.approx(-12.0 + sol.chi / sol.kappa)

    def test_repeated_kappa_rejected(self):
        data = SolitonData((1.0, 2.0), (1.0, 1.0))
        object.__setattr__(data, "kappas", (1.0, 1.0))
        with pytest.raises(ValueError):
            asymptotic_decomposition(data)


class TestConservedQuantities:
    def test_one_soliton(self):
        mass, momentum = conserved_quantities(ONE_SOLITON, 0.0)
        assert mass == pytest.approx(-4.0, abs=1e-10)
        assert momentum == pytest.approx(16.0 / 3.0, abs=1e-10)

    def test_two_soliton_trace_values(self):
        mass, momentum = conserved_quantities(TWO_SOLITON, 0.0)
        assert mass == pytest.approx(-20.0, abs=1e-9)
        assert momentum == pytest.approx(16.0 / 3.0 * 65.0, abs=1e-8)

    @pytest.mark.parametrize("kappa", [0.1, 0.2, 0.3])
    def test_shallow_soliton(self, kappa):
        # the window must widen with the decay length 1/kappa
        data = SolitonData((kappa,), (math.sqrt(2.0 * kappa),))
        mass, momentum = conserved_quantities(data, 0.0)
        assert mass == pytest.approx(-4.0 * kappa, rel=1e-10)
        assert momentum == pytest.approx(16.0 / 3.0 * kappa**3, rel=1e-10)

    @pytest.mark.parametrize("h", [3.0, 4.0])
    def test_many_solitons_no_warning(self, h):
        data = scattering_data_from_spec(SystemSpec(h, (2,)))
        assert data.n == int(h) + 1
        mass_ref = -4.0 * sum(data.kappas)
        momentum_ref = 16.0 / 3.0 * sum(k**3 for k in data.kappas)
        for t in (0.0, 0.02):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mass, momentum = conserved_quantities(data, t)
            assert mass == pytest.approx(mass_ref, rel=1e-9)
            assert momentum == pytest.approx(momentum_ref, rel=1e-9)

    def test_time_independence(self):
        m0, p0 = conserved_quantities(TWO_SOLITON, 0.0)
        m1, p1 = conserved_quantities(TWO_SOLITON, 0.05)
        assert abs(m1 - m0) <= 1e-9
        assert abs(p1 - p0) <= 1e-8
