import cmath
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sc

from darbouxkdv.specfun import (
    DegenerateConnectionError,
    GammaPoleError,
    Hyp2f1ConvergenceError,
    JacobiParams,
    hyp2f1,
    hyp2f1_connection,
    hyp2f1_dz,
    jacobi_coefficients,
    jacobi_eval,
    log_gamma,
    reciprocal_gamma,
)

RNG = np.random.default_rng(42)


class TestJacobi:
    def test_degree_zero(self):
        value, dvalue = jacobi_eval(JacobiParams(0, 1.7, -0.3), 0.3)
        assert value == 1.0
        assert dvalue == 0.0

    def test_pseudo_virtual_values(self):
        # P_2^(-4,-4)(z) = 1/2 + 5 z^2 / 2, expanded symbolically
        p = JacobiParams(2, -4.0, -4.0)
        assert jacobi_eval(p, 0.0) == (0.5, 0.0)
        value, dvalue = jacobi_eval(p, 1.0)
        assert value == pytest.approx(3.0, abs=1e-14)
        assert dvalue == pytest.approx(5.0, abs=1e-14)

    @pytest.mark.parametrize(
        "n, a, coeffs",
        [
            (2, -4.0, (0.5, 0.0, 2.5)),
            (2, -5.0, (0.75, 0.0, 5.25)),
            (4, -6.0, (3 / 16, 0.0, 21 / 8, 0.0, 35 / 16)),
            (4, -7.0, (3 / 8, 0.0, 27 / 4, 0.0, 63 / 8)),
            (3, 2.0, (0.0, -5.0, 0.0, 15.0)),
        ],
    )
    def test_frozen_expansions(self, n, a, coeffs):
        # coefficient tables expanded independently with symbolic algebra
        got = jacobi_coefficients(JacobiParams(n, a, a))
        np.testing.assert_allclose(got, coeffs, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n, a", [(34, -60.0), (100, -101.5), (27, -12.3), (30, 24.0)])
    def test_symmetric_coefficients_at_high_degree(self, n, a):
        # deep seeds and bound states: every coefficient to rounding, against
        # the binomial sum in mpmath, and the wrong-parity ones exactly zero
        got = jacobi_coefficients(JacobiParams(n, a, a))
        assert not np.any(got[1 - n % 2::2])
        with mp.workdps(50):
            for zz in (mp.mpf("-0.9"), mp.mpf("0.3"), mp.mpf(1)):
                ref = mp.fsum(
                    mp.binomial(n + a, k) * mp.binomial(n + a, n - k)
                    * ((zz - 1) / 2) ** (n - k) * ((zz + 1) / 2) ** k
                    for k in range(n + 1)
                )
                scale = sum(abs(c) * abs(float(zz)) ** i for i, c in enumerate(got))
                value = np.polynomial.polynomial.polyval(float(zz), got)
                assert abs(value - float(ref)) <= 1e-14 * scale

    def test_half_integer_parameters(self):
        # P_5^(-3.5,-3.5)(z) = -3/256 z exactly (symbolic expansion)
        value, dvalue = jacobi_eval(JacobiParams(5, -3.5, -3.5), 0.4)
        assert value == pytest.approx(-3 / 256 * 0.4, abs=1e-15)
        assert dvalue == pytest.approx(-3 / 256, abs=1e-15)

    def test_degenerate_negative_integer_alpha(self):
        # alpha = -2 with n = 3: the limit form of the terminating series
        sympy = pytest.importorskip("sympy")
        z = sympy.symbols("z")
        ref = sympy.jacobi(3, -2, 1, z)
        for zz in (-0.7, 0.0, 0.4, 1.0):
            expected = float(ref.subs(z, sympy.Rational(zz)))
            value, _ = jacobi_eval(JacobiParams(3, -2.0, 1.0), zz)
            assert value == pytest.approx(expected, abs=1e-13)

    def test_matches_scipy_for_classical_parameters(self):
        for _ in range(200):
            n = int(RNG.integers(0, 9))
            a = float(RNG.uniform(-0.9, 4.0))
            b = float(RNG.uniform(-0.9, 4.0))
            z = float(RNG.uniform(-1.0, 1.0))
            value, _ = jacobi_eval(JacobiParams(n, a, b), z)
            ref = float(sc.eval_jacobi(n, a, b, z))
            assert value == pytest.approx(ref, rel=1e-11, abs=1e-12)

    def test_parity_for_symmetric_parameters(self):
        for _ in range(100):
            n = int(RNG.integers(0, 9))
            a = float(RNG.uniform(-8.0, 4.0))
            z = float(RNG.uniform(0.0, 1.0))
            p = JacobiParams(n, a, a)
            left, _ = jacobi_eval(p, -z)
            right, _ = jacobi_eval(p, z)
            assert left == pytest.approx((-1.0) ** n * right, rel=1e-12, abs=1e-12)

    def test_polynomial_degree_exactness(self):
        # (n+1)-th finite difference of a degree-n polynomial vanishes
        p = JacobiParams(4, -7.0, -7.0)
        step = 0.3
        vals = np.array([jacobi_eval(p, -0.9 + step * k)[0] for k in range(6)])
        diff = vals
        for _ in range(5):
            diff = np.diff(diff)
        assert abs(diff[0]) <= 1e-10

    def test_derivative_matches_finite_differences(self):
        p = JacobiParams(5, -8.5, -8.5)
        z, eps = 0.37, 1e-6
        _, dvalue = jacobi_eval(p, z)
        fd = (jacobi_eval(p, z + eps)[0] - jacobi_eval(p, z - eps)[0]) / (2 * eps)
        assert dvalue == pytest.approx(fd, rel=1e-8)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            JacobiParams(-1, 0.0, 0.0)
        with pytest.raises(ValueError):
            jacobi_eval(JacobiParams(2, 1.0, 1.0), np.inf)


class TestLogGamma:
    def test_trivial_values(self):
        assert abs(log_gamma(1.0)) <= 1e-14
        assert log_gamma(5.0).real == pytest.approx(math.log(24.0), rel=1e-14)
        assert log_gamma(5.0).imag == 0.0

    def test_reflection_modulus_at_one_plus_i(self):
        # |Gamma(1+i)| = sqrt(pi / sinh pi), an identity independent of the algorithm
        expected = math.sqrt(math.pi / math.sinh(math.pi))
        assert abs(cmath.exp(log_gamma(1 + 1j))) == pytest.approx(expected, rel=1e-13)

    def test_against_scipy_on_disc(self):
        worst = 0.0
        for _ in range(500):
            z = complex(RNG.uniform(-50, 50), RNG.uniform(-50, 50))
            if abs(z) > 50 or abs(z.imag) < 1e-2:
                continue
            ref = complex(sc.loggamma(z))
            worst = max(worst, abs(log_gamma(z) - ref) / max(abs(ref), 1.0))
        assert worst <= 1e-12

    def test_positive_axis_against_scipy(self):
        for x in np.linspace(0.05, 50, 200):
            ref = float(sc.loggamma(x))
            assert log_gamma(x).real == pytest.approx(ref, rel=1e-12, abs=1e-12)
            assert log_gamma(x).imag == 0.0

    def test_recurrence_identity(self):
        for _ in range(100):
            z = complex(RNG.uniform(-20, 20), RNG.uniform(0.1, 20))
            lhs = log_gamma(z + 1)
            rhs = log_gamma(z) + cmath.log(z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_poles_raise(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(GammaPoleError):
                log_gamma(z)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            log_gamma(complex(np.inf, 0.0))


class TestReciprocalGamma:
    def test_trivial_values(self):
        assert reciprocal_gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert reciprocal_gamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)

    def test_exact_zero_at_nonpositive_integers(self):
        for k in range(0, 21):
            assert reciprocal_gamma(-float(k)) == 0.0

    def test_entire_near_poles(self):
        # smooth on the negative axis where Gamma itself blows up
        assert reciprocal_gamma(-2.5) == pytest.approx(float(sc.rgamma(-2.5)), rel=1e-12)

    def test_product_with_exp_log_gamma(self):
        for _ in range(200):
            z = complex(RNG.uniform(-30, 30), RNG.uniform(-30, 30))
            if abs(z.imag) < 1e-2:
                continue
            prod = reciprocal_gamma(z) * cmath.exp(log_gamma(z))
            assert abs(prod - 1.0) <= 1e-12


class TestHyp2f1:
    def test_empty_series(self):
        assert hyp2f1(0.3 + 0.1j, -2.2, 1.7, 0.0) == 1.0

    def test_one_term(self):
        assert hyp2f1(-1.0, 2.0, 3.0, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_terminating_at_unit_argument(self):
        # 1 - (10/3) u + (10/3) u^2 at u = 1, expanded by hand
        assert hyp2f1(-2.0, -5.0, -3.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_against_mpmath(self):
        for _ in range(60):
            a = complex(RNG.uniform(-3, 3), RNG.uniform(-3, 3))
            b = complex(RNG.uniform(-3, 3), RNG.uniform(-3, 3))
            c = complex(RNG.uniform(0.5, 4), RNG.uniform(-3, 3))
            z = float(RNG.uniform(0.0, 0.95))
            ref = complex(mp.hyp2f1(a, b, c, z))
            got = hyp2f1(a, b, c, z)
            assert abs(got - ref) <= 1e-11 * (1.0 + abs(ref))

    def test_scattering_parameter_family(self):
        # a = -iK-h, b = -iK+h+1, c = -iK+1 for several (h, K)
        for h, K, z in [(1.5, 1.0, 0.7), (2.3, 0.4, 0.3), (0.7, 5.0, 0.9)]:
            a, b, c = -1j * K - h, -1j * K + h + 1, -1j * K + 1
            ref = complex(mp.hyp2f1(a, b, c, z))
            got = hyp2f1(a, b, c, z)
            assert abs(got - ref) <= 1e-11 * (1.0 + abs(ref))

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            hyp2f1(1.0, 1.0, 2.0, -0.1)
        with pytest.raises(ValueError):
            hyp2f1(1.0, 1.0, 2.0, 1.2)

    def test_nonterminating_at_one_raises(self):
        with pytest.raises(Hyp2f1ConvergenceError):
            hyp2f1(0.3, 0.4, 5.0, 1.0)

    def test_series_pole_raises(self):
        # c = -3 hits its Pochhammer zero before a = -5 terminates
        with pytest.raises(GammaPoleError):
            hyp2f1(-5.0, 2.0, -3.0, 0.5)


class TestConnectionFormula:
    def test_sum_matches_direct_series_real_case(self):
        a, b, c, z = 0.3, 0.7, 1.9, 0.6
        t1, t2 = hyp2f1_connection(a, b, c, z)
        direct = complex(mp.hyp2f1(a, b, c, z))
        assert abs((t1 + t2) - direct) <= 1e-10 * (1.0 + abs(direct))

    def test_sum_matches_direct_series_scattering_case(self):
        K, h, z = 1.0, 1.5, 0.7
        a, b, c = -1j * K - h, -1j * K + h + 1, -1j * K + 1
        t1, t2 = hyp2f1_connection(a, b, c, z)
        direct = complex(mp.hyp2f1(a, b, c, z))
        assert abs((t1 + t2) - direct) <= 1e-10 * (1.0 + abs(direct))

    def test_sum_matches_across_z_sweep(self):
        params = [
            (0.25, 1.1, 2.4),
            (-0.6 + 0.4j, 0.9 - 0.2j, 1.3 + 0.5j),
            (-1j - 2.5, -1j + 3.5, -1j + 1.0),
        ]
        for a, b, c in params:
            for z in np.linspace(0.05, 0.95, 10):
                t1, t2 = hyp2f1_connection(a, b, c, float(z))
                ref = complex(mp.hyp2f1(a, b, c, float(z)))
                assert abs((t1 + t2) - ref) <= 1e-10 * (1.0 + abs(ref))

    def test_second_term_vanishes_for_nonpositive_integer_a(self):
        t1, t2 = hyp2f1_connection(-2.0, 0.7, 1.9, 0.6)
        assert t2 == 0.0
        ref = complex(mp.hyp2f1(-2.0, 0.7, 1.9, 0.6))
        assert abs(t1 - ref) <= 1e-12 * (1.0 + abs(ref))

    def test_degenerate_integer_case_raises(self):
        with pytest.raises(DegenerateConnectionError):
            hyp2f1_connection(0.5, 0.5, 2.0, 0.6)  # c - a - b = 1

    def test_derivative_identity_matches_finite_differences(self):
        a, b, c = 0.4 - 0.3j, 1.2 + 0.1j, 2.1 + 0.0j
        z, eps = 0.35, 1e-6
        deriv = hyp2f1_dz(a, b, c, z)
        fd = (hyp2f1(a, b, c, z + eps) - hyp2f1(a, b, c, z - eps)) / (2 * eps)
        assert abs(deriv - fd) <= 1e-7 * (1.0 + abs(deriv))
