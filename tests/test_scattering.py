import cmath
import math

import numpy as np
import pytest

from darbouxkdv.cli import main
from darbouxkdv.darboux import SystemSpec, bound_states, deformed_potential
from darbouxkdv.scattering import (
    base_amplitudes,
    deformation_factor,
    deformed_amplitudes,
    numerical_amplitudes,
    transmission_poles,
)
from darbouxkdv.verification import ORACLE_K_GRID, ORACLE_SPECS, check_oracle_agreement

RNG = np.random.default_rng(11)


class TestBaseAmplitudes:
    def test_h1_transmission_is_pure_phase(self):
        amp = base_amplitudes(1.0, 1.0)
        assert abs(amp.t - 1j) <= 1e-13
        assert amp.r == 0.0

    def test_h1_closed_ratio(self):
        # Gamma recurrences collapse t(K; h=1) to (iK-1)/(iK+1)
        for K in (0.3, 1.0, 2.7, 8.0):
            amp = base_amplitudes(1.0, K)
            assert abs(amp.t - (1j * K - 1) / (1j * K + 1)) <= 1e-12

    def test_integer_h_reflectionless(self):
        for h in (1.0, 2.0, 3.0):
            for K in (0.5, 1.0, 4.0):
                amp = base_amplitudes(h, K)
                assert amp.r == 0.0
                assert abs(abs(amp.t) - 1.0) <= 1e-12

    def test_unitarity_non_integer(self):
        assert base_amplitudes(1.5, 2.0).unitarity_defect <= 1e-12

    def test_transmission_probability_closed_form(self):
        # |t|^2 = sinh^2(pi K) / (sin^2(pi h) + sinh^2(pi K)), derived via
        # Gamma reflection/modulus identities -- an independent oracle
        for _ in range(40):
            h = float(RNG.uniform(0.2, 4.8))
            if abs(h - round(h)) < 1e-3:
                continue
            K = float(RNG.uniform(0.1, 4.0))
            expected = math.sinh(math.pi * K) ** 2 / (
                math.sin(math.pi * h) ** 2 + math.sinh(math.pi * K) ** 2
            )
            assert abs(base_amplitudes(h, K).t) ** 2 == pytest.approx(expected, rel=1e-11)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            base_amplitudes(1.0, 0.0)
        with pytest.raises(ValueError):
            base_amplitudes(-1.0, 1.0)
        for K in (math.inf, math.nan):
            with pytest.raises(ValueError):
                base_amplitudes(1.0, K)
            with pytest.raises(ValueError):
                deformation_factor(1.0, 2, K)


class TestDeformationFactor:
    def test_reference_value(self):
        tf, rf = deformation_factor(1.0, 2, 1.0)
        assert abs(tf - (1 + 4j) / (1 - 4j)) <= 1e-15
        assert rf == -tf

    def test_unit_modulus(self):
        for _ in range(50):
            h = float(RNG.uniform(0.2, 5.0))
            v = int(RNG.choice([2, 4, 6]))
            K = float(RNG.uniform(0.05, 20.0))
            tf, rf = deformation_factor(h, v, K)
            assert abs(abs(tf) - 1.0) <= 1e-14
            assert abs(abs(rf) - 1.0) <= 1e-14

    def test_high_energy_transparency(self):
        tf, _ = deformation_factor(1.0, 2, 1e8)
        assert abs(tf - 1.0) <= 1e-7

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            deformation_factor(1.0, 3, 1.0)
        for h in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                deformation_factor(h, 2, 1.0)


class TestDeformedAmplitudes:
    def test_two_soliton_value(self):
        amp = deformed_amplitudes(SystemSpec(1.0, (2,)), 1.0)
        assert abs(amp.t - (-8 - 15j) / 17) <= 1e-12
        assert amp.r == 0.0

    def test_empty_seed_list_reduces_to_base(self):
        spec = SystemSpec(1.7)
        for K in (0.5, 2.0):
            a = deformed_amplitudes(spec, K)
            b = base_amplitudes(1.7, K)
            assert a.t == b.t and a.r == b.r

    def test_unitarity_sampled(self):
        seed_choices = ((), (2,), (4,), (2, 4))
        for i in range(50):
            h = float(RNG.uniform(0.5, 5.0))
            if abs(h - round(h)) < 1e-3:
                continue
            K = float(RNG.uniform(0.1, 10.0))
            amp = deformed_amplitudes(SystemSpec(h, seed_choices[i % 4]), K)
            assert amp.unitarity_defect <= 1e-10

    def test_integer_h_exact_zero_reflection(self):
        for h in (1.0, 2.0, 3.0):
            for seeds in ((), (2,), (2, 4)):
                amp = deformed_amplitudes(SystemSpec(h, seeds), 1.3)
                assert amp.r.real == 0.0 and amp.r.imag == 0.0


class TestTransmissionPoles:
    def test_reference_sets(self):
        assert transmission_poles(SystemSpec(1.0, (2,))) == [1.0, 4.0]
        assert transmission_poles(SystemSpec(2.0, (2,))) == [1.0, 2.0, 5.0]
        assert transmission_poles(SystemSpec(3.0)) == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize(
        "spec", [SystemSpec(1.0, (2,)), SystemSpec(1.5, (2,)), SystemSpec(2.0, (4,))]
    )
    def test_matches_bound_state_kappas(self, spec):
        poles = transmission_poles(spec)
        kappas = sorted(s.kappa for s in bound_states(spec))
        assert poles == kappas


class TestNumericalAmplitudes:
    def test_base_h1(self):
        amp = numerical_amplitudes(deformed_potential(SystemSpec(1.0)), 1.0)
        assert abs(amp.t - 1j) <= 1e-5
        assert abs(amp.r) <= 1e-6

    def test_reflectionless_deformed_well(self):
        pot = deformed_potential(SystemSpec(1.0, (2,)))
        for K in (0.5, 1.0, 2.0, 4.0):
            amp = numerical_amplitudes(pot, K)
            assert abs(amp.r) <= 1e-6

    def test_flux_conservation_non_integer_h(self):
        amp = numerical_amplitudes(deformed_potential(SystemSpec(1.5)), 1.0)
        assert amp.unitarity_defect <= 1e-6

    def test_agreement_with_closed_form(self):
        spec = SystemSpec(1.5, (2,))
        pot = deformed_potential(spec)
        for K in (0.5, 2.0):
            closed = deformed_amplitudes(spec, K)
            numeric = numerical_amplitudes(pot, K)
            assert abs(closed.t - numeric.t) <= 1e-6
            assert abs(closed.r - numeric.r) <= 1e-6

    def test_singular_multi_index_contour(self):
        spec = SystemSpec(1.0, (2, 4))
        pot = deformed_potential(spec, allow_singular=True)
        closed = deformed_amplitudes(spec, 1.0)
        numeric = numerical_amplitudes(pot, 1.0)
        assert abs(closed.t - numeric.t) <= 1e-6
        assert abs(numeric.r) <= 1e-6

    def test_contour_is_path_independent(self):
        # the deformed scattering state is meromorphic at the Wronskian zero,
        # so different detour radii must give the same amplitudes
        pot = deformed_potential(SystemSpec(1.0, (2, 4)), allow_singular=True)
        a = numerical_amplitudes(pot, 2.0, detour_radius=0.4)
        b = numerical_amplitudes(pot, 2.0, detour_radius=0.7)
        assert abs(a.t - b.t) <= 1e-7

    def test_contour_is_path_independent_for_k_array(self):
        pot = deformed_potential(SystemSpec(1.0, (2, 4)), allow_singular=True)
        K = np.array([0.5, 2.0, 8.0])
        a = numerical_amplitudes(pot, K, detour_radius=0.4)
        b = numerical_amplitudes(pot, K, detour_radius=0.7)
        assert np.max(np.abs(a.t - b.t)) <= 1e-7

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
    def test_k_array_matches_closed_form(self, spec):
        pot = deformed_potential(spec, allow_singular=len(spec.seeds) > 1)
        assert pot.is_singular == (spec.seeds == (2, 4))  # [2, 4] takes the detour
        numeric = numerical_amplitudes(pot, ORACLE_K_GRID)
        assert numeric.t.shape == numeric.r.shape == (len(ORACLE_K_GRID),)
        assert numeric.K.tolist() == list(ORACLE_K_GRID)
        for K, t, r in zip(ORACLE_K_GRID, numeric.t, numeric.r):
            closed = deformed_amplitudes(spec, K)
            assert abs(closed.t - t) <= 1e-6
            assert abs(closed.r - r) <= 1e-6

    def test_scalar_k_gives_scalar_fields(self):
        amp = numerical_amplitudes(deformed_potential(SystemSpec(1.0, (2,))), 1.0)
        assert type(amp.K) is float
        assert type(amp.t) is complex and type(amp.r) is complex

    @pytest.mark.parametrize("K", [
        [0.5, 0.04, 2.0], [0.5, -1.0, 2.0], [0.5, math.inf, 2.0], [0.5, math.nan, 2.0],
        [], [[0.5, 1.0]],
    ])
    def test_bad_k_array_rejected(self, K):
        # one bad wave number rejects the whole array, as does a shape other than 1-D
        with pytest.raises(ValueError):
            numerical_amplitudes(deformed_potential(SystemSpec(1.0)), K)

    def test_one_ode_solve_per_spec(self, monkeypatch, capsys):
        # every K of a spec shares one solve_ivp per path segment: one on the
        # real line, three on the detour around a singular set's pole
        import scipy.integrate

        calls = []
        solve_ivp = scipy.integrate.solve_ivp

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "solve_ivp", counted)
        assert main(["scattering", "--h", "1", "--seeds", "2,4", "--oracle", "--nk", "32"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 33
        assert len(calls) == 3
        calls.clear()
        assert all(res.passed for res in check_oracle_agreement())
        assert len(calls) == sum(3 if len(s.seeds) > 1 else 1 for s in ORACLE_SPECS)

    def test_small_k_declined(self):
        with pytest.raises(ValueError):
            numerical_amplitudes(deformed_potential(SystemSpec(1.0)), 0.04)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError):
            numerical_amplitudes(deformed_potential(SystemSpec(1.0)), -1.0)

    def test_decay_precondition(self):
        with pytest.raises(ValueError):
            numerical_amplitudes(deformed_potential(SystemSpec(1.0)), 1.0, half_width=6.0)
        # a window of no width or a detour outside (0, half_width) would give wrong numbers
        regular = deformed_potential(SystemSpec(1.0, (2,)))
        singular = deformed_potential(SystemSpec(1.0, (2, 4)), allow_singular=True)
        for pot, kwargs in [
            (regular, {"half_width": -25.0}),
            (regular, {"half_width": 0.0}),
            (singular, {"detour_radius": 30.0}),
            (singular, {"detour_radius": 0.0}),
            (singular, {"detour_radius": -0.5}),
            (singular, {"half_width": 0.3}),
        ]:
            with pytest.raises(ValueError):
                numerical_amplitudes(pot, 1.0, **kwargs)

    def test_plain_callable_potential(self):
        amp = numerical_amplitudes(lambda x: -2.0 / math.cosh(x) ** 2, 1.0)
        assert abs(amp.t - 1j) <= 1e-5
