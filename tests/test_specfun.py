import cmath
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sc
from numpy.polynomial import polynomial as npoly

from darbouxkdv.specfun import jacobi_coefficients, log_gamma, reciprocal_gamma

RNG = np.random.default_rng(42)


def jacobi_value(n, a, z):
    """P_n^(a,a)(z) and its z-derivative from the monomial coefficients."""
    coef = jacobi_coefficients(n, a)
    return npoly.polyval(z, coef), npoly.polyval(z, npoly.polyder(coef))


class TestJacobi:
    def test_degree_zero(self):
        value, dvalue = jacobi_value(0, 1.7, 0.3)
        assert value == 1.0
        assert dvalue == 0.0

    def test_pseudo_virtual_values(self):
        # P_2^(-4,-4)(z) = 1/2 + 5 z^2 / 2, expanded symbolically
        assert jacobi_value(2, -4.0, 0.0) == (0.5, 0.0)
        value, dvalue = jacobi_value(2, -4.0, 1.0)
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
        got = jacobi_coefficients(n, a)
        np.testing.assert_allclose(got, coeffs, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n, a", [(34, -60.0), (100, -101.5), (27, -12.3), (30, 24.0)])
    def test_symmetric_coefficients_at_high_degree(self, n, a):
        # deep seeds and bound states: every coefficient to rounding, against
        # the binomial sum in mpmath, and the wrong-parity ones exactly zero
        got = jacobi_coefficients(n, a)
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
        value, dvalue = jacobi_value(5, -3.5, 0.4)
        assert value == pytest.approx(-3 / 256 * 0.4, abs=1e-15)
        assert dvalue == pytest.approx(-3 / 256, abs=1e-15)

    def test_matches_scipy_for_classical_parameters(self):
        for _ in range(200):
            n = int(RNG.integers(0, 9))
            a = float(RNG.uniform(-0.9, 4.0))
            z = float(RNG.uniform(-1.0, 1.0))
            value, _ = jacobi_value(n, a, z)
            ref = float(sc.eval_jacobi(n, a, a, z))
            assert value == pytest.approx(ref, rel=1e-11, abs=1e-12)

    def test_parity_for_symmetric_parameters(self):
        for _ in range(100):
            n = int(RNG.integers(0, 9))
            a = float(RNG.uniform(-8.0, 4.0))
            z = float(RNG.uniform(0.0, 1.0))
            left, _ = jacobi_value(n, a, -z)
            right, _ = jacobi_value(n, a, z)
            assert left == pytest.approx((-1.0) ** n * right, rel=1e-12, abs=1e-12)

    def test_polynomial_degree_exactness(self):
        # (n+1)-th finite difference of a degree-n polynomial vanishes
        step = 0.3
        vals = np.array([jacobi_value(4, -7.0, -0.9 + step * k)[0] for k in range(6)])
        diff = vals
        for _ in range(5):
            diff = np.diff(diff)
        assert abs(diff[0]) <= 1e-10

    def test_derivative_matches_finite_differences(self):
        z, eps = 0.37, 1e-6
        _, dvalue = jacobi_value(5, -8.5, z)
        fd = (jacobi_value(5, -8.5, z + eps)[0] - jacobi_value(5, -8.5, z - eps)[0]) / (2 * eps)
        assert dvalue == pytest.approx(fd, rel=1e-8)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            jacobi_coefficients(-1, 0.0)
        with pytest.raises(ValueError):
            jacobi_coefficients(2.5, 0.0)
        with pytest.raises(ValueError):
            jacobi_coefficients(2, math.inf)


class TestLogGamma:
    def test_trivial_values(self):
        assert abs(log_gamma(1.0)) <= 1e-14
        assert log_gamma(5.0).real == pytest.approx(math.log(24.0), rel=1e-14)
        assert log_gamma(5.0).imag == 0.0

    def test_reflection_modulus_at_one_plus_i(self):
        # |Gamma(1+i)| = sqrt(pi / sinh pi), an identity independent of the algorithm
        expected = math.sqrt(math.pi / math.sinh(math.pi))
        assert abs(cmath.exp(log_gamma(1 + 1j))) == pytest.approx(expected, rel=1e-13)

    def test_recurrence_identity(self):
        for _ in range(100):
            z = complex(RNG.uniform(-20, 20), RNG.uniform(0.1, 20))
            lhs = log_gamma(z + 1)
            rhs = log_gamma(z) + cmath.log(z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestReciprocalGamma:
    def test_trivial_values(self):
        assert reciprocal_gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert reciprocal_gamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)

    def test_exact_zero_at_nonpositive_integers(self):
        for k in range(0, 21):
            assert reciprocal_gamma(-float(k)) == 0.0

    def test_product_with_exp_log_gamma(self):
        for _ in range(200):
            z = complex(RNG.uniform(-30, 30), RNG.uniform(-30, 30))
            if abs(z.imag) < 1e-2:
                continue
            prod = reciprocal_gamma(z) * cmath.exp(log_gamma(z))
            assert abs(prod - 1.0) <= 1e-12
