import cmath
import math
import sys
import threading

import mpmath as mp
import numpy as np
import pytest

from darbouxkdv import scattering
from darbouxkdv.cli import main
from darbouxkdv.darboux import SystemSpec, bound_states, deformed_potential
from darbouxkdv.scattering import (
    AMPLITUDE_ERROR_LIMIT,
    DETOUR_BAND,
    SMALL_K_CUTOFF,
    deformed_amplitudes,
    numerical_amplitudes,
    transmission_poles,
)
from darbouxkdv.spectral_oracle import GridSpec, oracle_norming_constants
from darbouxkdv.verification import ORACLE_K_GRID, ORACLE_SPECS, check_oracle_agreement

RNG = np.random.default_rng(11)


def amplitudes_mp(h, K):
    """(t, r) from the Gamma products, in 50-digit mpmath."""
    with mp.workdps(50):
        h, K = mp.mpf(h), mp.mpf(K)
        s = -1j * K
        t = mp.gamma(s - h) * mp.gamma(s + h + 1) / (mp.gamma(s + 1) * mp.gamma(s))
        r = t * mp.gamma(1j * K) * mp.gamma(1 - 1j * K) / (mp.gamma(1 + h) * mp.gamma(-h))
        return complex(t), complex(r)


class TestBaseAmplitudes:
    def test_h1_transmission_is_pure_phase(self):
        amp = deformed_amplitudes(SystemSpec(1.0), 1.0)
        assert abs(amp.t - 1j) <= 1e-13
        assert amp.r == 0.0

    def test_h1_closed_ratio(self):
        # Gamma recurrences collapse t(K; h=1) to (iK-1)/(iK+1)
        for K in (0.3, 1.0, 2.7, 8.0):
            amp = deformed_amplitudes(SystemSpec(1.0), K)
            assert abs(amp.t - (1j * K - 1) / (1j * K + 1)) <= 1e-12

    def test_integer_h_reflectionless(self):
        for h in (1.0, 2.0, 3.0, 7.0, 171.0):
            for K in (0.05, 0.5, 1.0, 4.0, 24.96, 300.0):
                amp = deformed_amplitudes(SystemSpec(h), K)
                assert amp.r == 0.0
                assert abs(abs(amp.t) - 1.0) <= 1e-12

    def test_unitarity_non_integer(self):
        assert deformed_amplitudes(SystemSpec(1.5), 2.0).unitarity_defect <= 1e-12

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
            t = deformed_amplitudes(SystemSpec(h), K).t
            assert abs(t) ** 2 == pytest.approx(expected, rel=1e-11)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            deformed_amplitudes(SystemSpec(1.0), 0.0)
        with pytest.raises(ValueError):
            deformed_amplitudes(SystemSpec(-1.0), 1.0)
        for K in (math.inf, math.nan):
            with pytest.raises(ValueError):
                deformed_amplitudes(SystemSpec(1.0), K)
            with pytest.raises(ValueError):
                deformed_amplitudes(SystemSpec(1.0, (2,)), K)

    @pytest.mark.parametrize("h", [162.47, 171.5, 200.5, 1000.3])
    def test_reflection_at_large_h_matches_mpmath(self, h):
        # past h ~ 171, 1/Gamma(1+h) underflows and 1/Gamma(-h) overflows, so the Gamma
        # form of r is 0 * inf = nan; before that it keeps no digit of r ~ 1e-34 at
        # h = 162.47, K = 24.96
        for K in (0.3, 1.0, 7.3, 24.96):
            amp = deformed_amplitudes(SystemSpec(h), K)
            t, r = amplitudes_mp(h, K)
            assert abs(amp.r / amp.t - r / t) <= 1e-14 * abs(r / t)
            # r carries t's own loggamma error (1.2e-12 at h = 1000.3) and no more
            t_error = abs(amp.t - t) / abs(t)
            assert abs(amp.r - r) <= (t_error + 1e-14) * abs(r)
            assert amp.unitarity_defect <= 1e-11

    @pytest.mark.parametrize("h", [1e9 + 0.5, 1e10 + 0.5])
    def test_unresolvable_large_h_raises(self, h):
        # four log-Gammas of size h log h cancel in t: the rounding bound passes
        # AMPLITUDE_ERROR_LIMIT (the measured unitarity defect at h = 1e10 + 0.5
        # was 3.7e-5); h = 1e7 + 0.5 is still accepted, as its bound of 6.7e-8 is
        # below the 1.4e-7 of K = 1e8, h = 1 in test_high_energy_transparency
        for K in (1.0, 20.0):
            with pytest.raises(OverflowError, match="rounding error bound"):
                deformed_amplitudes(SystemSpec(h), K)
            with pytest.raises(OverflowError):
                deformed_amplitudes(SystemSpec(h, (2,)), K)
        amp = deformed_amplitudes(SystemSpec(1e7 + 0.5), 20.0)
        assert amp.unitarity_defect <= AMPLITUDE_ERROR_LIMIT

    def test_unresolvable_large_h_exit_code(self, capsys):
        code = main(["scattering", "--h", "1000000000.5", "--k", "1"])
        out, err = capsys.readouterr()
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "rounding" in err

    def test_subnormal_k_raises(self):
        # below the smallest normal float 1/sinh(pi K) overflowed and r was
        # nan, and t has lost its digits (K = 5e-309 gave Re t = 5e-324)
        for K in (1e-320, 5e-309):
            with pytest.raises(OverflowError):
                deformed_amplitudes(SystemSpec(1.5, (2,)), K)
        amp = deformed_amplitudes(SystemSpec(1.5, (2,)), sys.float_info.min)
        assert cmath.isfinite(amp.t) and cmath.isfinite(amp.r)

    def test_subnormal_k_exit_code(self, capsys):
        code = main(["scattering", "--h", "1", "--seeds", "2", "--k", "1e-320"])
        out, err = capsys.readouterr()
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_high_k_reflection_underflows_to_zero(self):
        # sinh(pi K) overflows past K ~ 226; r = 0, not nan
        for h in (1.5, 200.5):
            amp = deformed_amplitudes(SystemSpec(h), 300.0)
            assert amp.r == 0.0 and abs(abs(amp.t) - 1.0) <= 1e-12


class TestDeformationFactor:
    # each seed multiplies t by (K + i d)/(K - i d), d = h + 1 + v, and r by minus that factor
    @staticmethod
    def factors(h, v, K):
        """(t_D/t, r_D/r); the r ratio is nan at integer h, where r = 0."""
        deformed = deformed_amplitudes(SystemSpec(h, (v,)), K)
        base = deformed_amplitudes(SystemSpec(h), K)
        rf = deformed.r / base.r if base.r else complex(math.nan, math.nan)
        return deformed.t / base.t, rf

    def test_reference_value(self):
        tf, _ = self.factors(1.0, 2, 1.0)
        assert abs(tf - (1 + 4j) / (1 - 4j)) <= 1e-15
        tf, rf = self.factors(1.5, 2, 1.0)
        assert abs(tf - (1 + 4.5j) / (1 - 4.5j)) <= 1e-15
        assert abs(rf + tf) <= 1e-15

    def test_unit_modulus(self):
        for _ in range(50):
            h = float(RNG.uniform(0.2, 5.0))
            if abs(h - round(h)) < 1e-3:
                continue
            v = int(RNG.choice([2, 4, 6]))
            K = float(RNG.uniform(0.05, 20.0))
            tf, rf = self.factors(h, v, K)
            assert abs(abs(tf) - 1.0) <= 1e-14
            assert abs(abs(rf) - 1.0) <= 1e-14
            assert abs(rf + tf) <= 1e-14

    def test_high_energy_transparency(self):
        tf, _ = self.factors(1.0, 2, 1e8)
        assert abs(tf - 1.0) <= 1e-7


class TestDeformedAmplitudes:
    def test_two_soliton_value(self):
        amp = deformed_amplitudes(SystemSpec(1.0, (2,)), 1.0)
        assert abs(amp.t - (-8 - 15j) / 17) <= 1e-12
        assert amp.r == 0.0

    def test_empty_seed_list_reduces_to_base(self):
        # no deformation step: the Gamma products of the base well
        spec = SystemSpec(1.7)
        for K in (0.5, 2.0):
            a = deformed_amplitudes(spec, K)
            t, r = amplitudes_mp(1.7, K)
            assert abs(a.t - t) <= 1e-14 * abs(t) and abs(a.r - r) <= 1e-14 * abs(r)

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


JOST_IKS = pytest.mark.parametrize(
    "ik",
    [1j * np.array([0.05, -0.05, 0.5, -0.5, 2.0, -2.0, 8.0, -8.0]),
     -np.array([0.3, 1.0, 3.0, 7.5]),
     1j * np.linspace(-8.0, 8.0, 2 * scattering._DENSE_MAX)],
    ids=["real k", "k = i kappa", "real k, O(n) right-hand side"],
)


class NanInsideTheWell:
    """-2 sech^2 x on grids and probes, but nan from the scalar path at |x| < 1."""

    def __call__(self, x):
        return -2.0 / np.cosh(x) ** 2

    def evaluate_scalar(self, z):
        return math.nan if abs(z) < 1.0 else -2.0 / np.cosh(z) ** 2


class TestJostIntegrator:
    @staticmethod
    def assert_exact_h1_solution(ik, L):
        # U = -2 sech^2 x has f = e^(ikx) (k + i tanh x) / (k + i), so at s = 0
        # h = k / (k + i) and h' = i / (k + i)
        pot = deformed_potential(SystemSpec(1.0))
        h, dh = np.split(scattering._jost(pot, ik, L), 2)
        assert h.shape == dh.shape == ik.shape
        k = ik / 1j
        assert np.max(np.abs(h - k / (k + 1j))) <= 1e-10
        assert np.max(np.abs(dh - 1j / (k + 1j))) <= 1e-10

    @JOST_IKS
    def test_exact_jost_solution_of_the_h1_well(self, ik):
        self.assert_exact_h1_solution(ik, scattering.ORACLE_HALF_WIDTH)

    @JOST_IKS
    @pytest.mark.parametrize("L", [30.0, 40.0])
    def test_far_start_does_not_step_over_the_well(self, ik, L):
        # h' = 0 and U ~ 0 at the start: with no step bound, Adams stepped from
        # x = 30 over the whole well and returned h = 1, h' = 0
        self.assert_exact_h1_solution(ik, L)

    def test_complex_kappa_step_gives_the_h1_derivatives(self):
        # at k = i kappa, h(0) = kappa / (kappa + 1) and h'(0) = 1 / (kappa + 1):
        # a step of i delta in kappa puts delta times their kappa derivatives,
        # 1 / (kappa + 1)^2 and -1 / (kappa + 1)^2, in the imaginary parts
        kappa, delta = np.array([0.3, 1.0, 3.0, 7.5]), 1e-30
        pot = deformed_potential(SystemSpec(1.0))
        h, dh = np.split(scattering._jost(pot, -(kappa + 1j * delta), 25.0), 2)
        np.testing.assert_allclose(h.real, kappa / (kappa + 1.0), rtol=1e-10)
        np.testing.assert_allclose(h.imag / delta, 1.0 / (kappa + 1.0) ** 2, rtol=1e-10)
        np.testing.assert_allclose(dh.imag / delta, -1.0 / (kappa + 1.0) ** 2, rtol=1e-10)

    @pytest.mark.parametrize(
        "oracle",
        [lambda pot: numerical_amplitudes(pot, [0.5, 2.0]),
         lambda pot: oracle_norming_constants(pot, GridSpec(20.0, 801))],
        ids=["numerical_amplitudes", "oracle_norming_constants"],
    )
    def test_nan_inside_the_well_raises(self, oracle):
        with pytest.raises(RuntimeError, match="Jost ODE stepper failed"):
            oracle(NanInsideTheWell())

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
    def test_dense_and_elementwise_right_hand_sides_agree(self, spec, monkeypatch):
        # the dense (2n, 2n) product and the three ufuncs round differently, so
        # VODE picks other steps; both land within the solve's tolerance
        pot = deformed_potential(spec, allow_singular=len(spec.seeds) > 1)
        dense = numerical_amplitudes(pot, ORACLE_K_GRID)
        monkeypatch.setattr(scattering, "_DENSE_MAX", 0)
        elementwise = numerical_amplitudes(pot, ORACLE_K_GRID)
        assert np.max(np.abs(dense.t - elementwise.t)) <= 1e-10
        assert np.max(np.abs(dense.r - elementwise.r)) <= 1e-10

    @pytest.mark.parametrize("n", [3, scattering._DENSE_MAX + 8], ids=["dense", "O(n)"])
    def test_band_jacobian_unpacks_to_m(self, n):
        # the Jacobian of the float view is M(z) itself, with (h_j, h'_j) adjacent:
        # blocks [[0, 1], [U, -2ik_j]], each complex entry w as [[Re w, -Im w], [Im w, Re w]]
        kappa = np.linspace(0.3, 7.0, n)
        ik = (0.3 + 1j * (-1.0) ** np.arange(n)) * kappa
        derivative, jacobian, lband, uband = scattering._jost_system(ik)
        assert (lband, uband) == (3, 2)
        for uz in (-1.7 + 0.6j, 0.4, 2.5 - 3.0j):
            m = np.zeros((2 * n, 2 * n), complex)
            for j in range(n):
                m[2 * j, 2 * j + 1] = 1.0
                m[2 * j + 1, 2 * j] = uz
                m[2 * j + 1, 2 * j + 1] = -2.0 * ik[j]
            expected = (np.kron(m.real, [[1.0, 0.0], [0.0, 1.0]])
                        + np.kron(m.imag, [[0.0, -1.0], [1.0, 0.0]]))
            band = jacobian(uz)
            size = expected.shape[0]
            assert band.shape == (lband + uband + 1, size)
            unpacked = np.zeros_like(expected)
            for row in range(lband + uband + 1):
                for col in range(size):
                    if 0 <= col + row - uband < size:
                        unpacked[col + row - uband, col] = band[row, col]
            assert np.array_equal(unpacked, expected)
            # the right-hand side is the product with that same matrix
            flat = RNG.standard_normal(size)
            np.testing.assert_allclose(derivative(uz, flat), expected @ flat, rtol=1e-14, atol=1e-14)

    def test_two_threads_match_the_serial_results(self):
        singular = deformed_potential(SystemSpec(1.0, (2, 4)), allow_singular=True)
        regular = deformed_potential(SystemSpec(2.0, (2,)))
        grid = GridSpec(20.0, 801)

        def both_oracles():
            amp = numerical_amplitudes(singular, ORACLE_K_GRID)
            return amp.t.tolist(), amp.r.tolist(), oracle_norming_constants(regular, grid)

        serial = both_oracles()
        results = [[], []]

        def work(i):
            for _ in range(4):
                results[i].append(both_oracles())

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[serial] * 4] * 2


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

    def test_contour_is_path_independent(self, monkeypatch):
        # the deformed scattering state is meromorphic at the Wronskian zero,
        # so lines below and above the poles at Im x = 0.461 must give the same
        # amplitudes
        pot = deformed_potential(SystemSpec(1.0, (2, 4)), allow_singular=True)
        a, b = (self.at_height(monkeypatch, height, pot, 2.0) for height in (0.2, 0.7))
        assert abs(a.t - b.t) <= 1e-7

    def test_contour_is_path_independent_for_k_array(self, monkeypatch):
        pot = deformed_potential(SystemSpec(1.0, (2, 4)), allow_singular=True)
        K = np.array([0.5, 2.0, 8.0])
        a, b = (self.at_height(monkeypatch, height, pot, K) for height in (0.2, 0.7))
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

    @pytest.mark.parametrize(
        "spec",
        [SystemSpec(1.0), SystemSpec(1.5), SystemSpec(3.7, (4,)), SystemSpec(6.0, (2,))],
        ids=str,
    )
    def test_regular_wells_accurate_to_1e9(self, spec):
        K = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 16.0, 20.0)
        numeric = numerical_amplitudes(deformed_potential(spec), K)
        for k, t, r in zip(K, numeric.t, numeric.r):
            closed = deformed_amplitudes(spec, k)
            assert abs(closed.t - t) <= 1e-9
            assert abs(closed.r - r) <= 1e-9

    @pytest.mark.parametrize("spec", [SystemSpec(3.7, (4,)), SystemSpec(1.0, (2, 4))], ids=str)
    def test_32_wave_numbers_accurate_to_1e9(self, spec, monkeypatch):
        # 32 Jost solutions on the real line (+K only) and 64 on the detour (+-K)
        # both take the O(n) right-hand side, past _DENSE_MAX
        K = np.linspace(SMALL_K_CUTOFF, 20.0, 32)
        used = self.record_solves(monkeypatch)
        pot = deformed_potential(spec, allow_singular=True)
        numeric = numerical_amplitudes(pot, K)
        ((n, _),) = used
        assert n == (64 if pot.is_singular else 32) and n > scattering._DENSE_MAX
        for k, t, r in zip(K, numeric.t, numeric.r):
            closed = deformed_amplitudes(spec, k)
            assert abs(closed.t - t) <= 1e-9
            assert abs(closed.r - r) <= 1e-9

    @pytest.mark.parametrize("spec", [SystemSpec(1.0, (2, 4)), SystemSpec(2.5, (2, 4, 6))], ids=str)
    def test_singular_wells_accurate_to_1e7(self, spec):
        # on a quarter arc of radius R an error grew like e^(2K R) on its way to
        # z0 = iR: h=1 [2,4] was off by 1.0 at K = 100; on the line no error grows
        K = (0.5, 8.0, 20.0, 40.0, 60.0, 80.0, 100.0)
        numeric = numerical_amplitudes(deformed_potential(spec, allow_singular=True), K)
        for k, t, r in zip(K, numeric.t, numeric.r):
            closed = deformed_amplitudes(spec, k)
            assert abs(closed.t - t) <= 1e-7
            assert abs(closed.r - r) <= 1e-7

    @pytest.mark.filterwarnings("error")
    def test_detour_past_the_overflow_of_its_wave_factor(self):
        # f(z0; -K) carries e^(Kc), which overflows from Kc = 710 (K = 2,150 at
        # c = 0.331): the readout gave t = r = nan, with numpy warnings only
        spec = SystemSpec(1.0, (2, 4))
        numeric = numerical_amplitudes(deformed_potential(spec, allow_singular=True), 2500.0)
        closed = deformed_amplitudes(spec, 2500.0)
        assert abs(closed.t - numeric.t) <= 1e-9
        assert abs(closed.r - numeric.r) <= 1e-9

    @staticmethod
    def oracle_potential_calls(spec, monkeypatch) -> int:
        """evaluate_scalar calls of one numerical_amplitudes on ORACLE_K_GRID."""
        pot = deformed_potential(spec, allow_singular=len(spec.seeds) > 1)
        calls = []
        evaluate_scalar = pot.evaluate_scalar

        def counted(x):
            calls.append(1)
            return evaluate_scalar(x)

        monkeypatch.setattr(pot, "evaluate_scalar", counted)
        numerical_amplitudes(pot, ORACLE_K_GRID)
        return len(calls)

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
    def test_tails_cost_few_potential_calls(self, spec, monkeypatch):
        # h' stays near 0 where U has decayed, so the tails take long
        # steps; the detour of h=1 [2,4] took 8,058 calls on an arc 0.014 from two poles.
        # About 1.3 times the counts measured, 743 to 1,022 for one seed and 1,303
        # on the detour, so a step-count regression of the Jost solve shows: with
        # functional iteration in place of Newton steps they were 1,661 to 1,819 and 2,662
        calls = self.oracle_potential_calls(spec, monkeypatch)
        assert 0 < calls <= (1700 if len(spec.seeds) > 1 else 1350)

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
    def test_half_path_halves_the_potential_calls(self, spec, monkeypatch):
        # the path ends at the mirror point of the even well; the full path to
        # x = -25 took 2,149 to 3,228 calls per spec on this grid
        assert 0 < self.oracle_potential_calls(spec, monkeypatch) <= 1700

    @pytest.mark.parametrize("spec", [SystemSpec(1.0, (2, 4)), SystemSpec(2.5, (2, 4, 6))], ids=str)
    def test_singular_wells_at_the_small_k_cutoff(self, spec):
        # 1/K-sized coefficients cancel at K = 0.05; an arc 0.014 from a pole pair
        # (h=1 [2,4] at radius 0.5) left 5e-8 of error there
        numeric = numerical_amplitudes(deformed_potential(spec, allow_singular=True), SMALL_K_CUTOFF)
        closed = deformed_amplitudes(spec, SMALL_K_CUTOFF)
        assert abs(closed.t - numeric.t) <= 1e-9
        assert abs(closed.r - numeric.r) <= 1e-9

    @staticmethod
    def at_height(monkeypatch, height, potential, K):
        """numerical_amplitudes(potential, K) on a detour line at the given height."""
        monkeypatch.setattr(scattering, "_detour_height", lambda potential: height)
        return numerical_amplitudes(potential, K)

    @staticmethod
    def record_solves(monkeypatch) -> list:
        """(number of wave numbers, path height) of every later Jost solve, in order."""
        used = []
        jost = scattering._jost

        def recorded(potential, ik, L, height=0.0):
            used.append((ik.size, height))
            return jost(potential, ik, L, height)

        monkeypatch.setattr(scattering, "_jost", recorded)
        return used

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
    def test_real_line_solves_plus_k_only(self, spec, monkeypatch):
        # U is real on the real line, so f(x; -K) = conj f(x; K) comes free; on the
        # detour f(.; -K) lives on the mirror line s - ic and is solved for
        used = self.record_solves(monkeypatch)
        pot = deformed_potential(spec, allow_singular=len(spec.seeds) > 1)
        numerical_amplitudes(pot, ORACLE_K_GRID)
        ((n, _),) = used
        assert n == (2 if pot.is_singular else 1) * len(ORACLE_K_GRID)

    @staticmethod
    def full_state_amplitudes(potential, K) -> tuple:
        """(t, r) on the real line from one Jost solve of f(.; +K) and f(.; -K)."""
        kv = np.asarray(K, dtype=float)
        ik = 1j * np.concatenate([kv, -kv])
        h, dh = np.split(scattering._jost(potential, ik, scattering.ORACLE_HALF_WIDTH), 2)
        (fp, fm), (dfp, dfm) = np.split(h, 2), np.split(dh + ik * h, 2)
        t = 2j * kv / (fp * dfm.conj() + dfp * fm.conj())
        return t, t * (fp * dfp.conj()).real / (-1j * kv)

    @pytest.mark.parametrize("nk", [len(ORACLE_K_GRID), 512])
    @pytest.mark.parametrize("spec", [s for s in ORACLE_SPECS if len(s.seeds) < 2], ids=str)
    def test_half_state_matches_the_full_state(self, spec, nk):
        # the two solves round differently and VODE picks other steps, so the
        # conjugate of f(.; K) is no bitwise copy of a solved f(.; -K)
        K = ORACLE_K_GRID if nk == len(ORACLE_K_GRID) else np.linspace(0.25, 8.0, nk)
        pot = deformed_potential(spec)
        t, r = self.full_state_amplitudes(pot, K)
        numeric = numerical_amplitudes(pot, K)
        assert np.max(np.abs(numeric.t - t)) <= 1e-12
        assert np.max(np.abs(numeric.r - r)) <= 1e-12

    @pytest.mark.parametrize(
        "spec, height",
        [
            (SystemSpec(1.0, (2, 4)), 0.331),  # poles at Im x = 0.461
            (SystemSpec(2.5, (2, 4, 6)), 0.297),  # poles at Im x = 0.395 and 0.443
            (SystemSpec(2.0, (2, 4)), None),
            (SystemSpec(3.0, (4, 6)), None),
            (SystemSpec(1.6, (2, 4, 6)), None),
        ],
        ids=str,
    )
    def test_detour_radius_clears_the_poles(self, spec, height, monkeypatch):
        used = self.record_solves(monkeypatch)
        pot = deformed_potential(spec, allow_singular=True)
        numerical_amplitudes(pot, 1.0)
        ((_, c),) = used
        assert DETOUR_BAND[0] <= c <= DETOUR_BAND[1]
        assert np.min(np.abs(np.abs(pot.poles().imag) - c)) >= 0.05
        if height is not None:
            assert c == pytest.approx(height, abs=1e-3)

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
        # every K of a spec shares one integrator on one straight path, the real
        # line or the line above a singular set's pole (the quarter arc took a second)
        import scipy.integrate

        made = []

        class CountedOde(scipy.integrate.ode):
            def set_integrator(self, name, **params):
                made.append(name)
                return super().set_integrator(name, **params)

        monkeypatch.setattr(scipy.integrate, "ode", CountedOde)
        assert main(["scattering", "--h", "1", "--seeds", "2,4", "--oracle", "--nk", "32"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 33
        assert made == ["vode"]
        made.clear()
        assert all(res.passed for res in check_oracle_agreement())
        assert made == ["vode"] * len(ORACLE_SPECS)

    def test_small_k_declined(self):
        with pytest.raises(ValueError):
            numerical_amplitudes(deformed_potential(SystemSpec(1.0)), 0.04)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError):
            numerical_amplitudes(deformed_potential(SystemSpec(1.0)), -1.0)

    def test_decay_precondition(self):
        # -2/cosh^2(x/4) is still near 3e-5 at the window edge +-ORACLE_HALF_WIDTH
        with pytest.raises(ValueError):
            numerical_amplitudes(lambda x: -2.0 / math.cosh(x / 4.0) ** 2, 1.0)

    def test_even_precondition(self):
        # the readout mirrors the path about z0, which holds for an even well,
        # real on the real line, only
        for potential in (
            lambda x: -2.0 / math.cosh(x - 1.0) ** 2,
            lambda x: -2.0j / math.cosh(x) ** 2,
        ):
            with pytest.raises(ValueError, match="even and real"):
                numerical_amplitudes(potential, 1.0)

    def test_plain_callable_potential(self):
        amp = numerical_amplitudes(lambda x: -2.0 / math.cosh(x) ** 2, 1.0)
        assert abs(amp.t - 1j) <= 1e-5
