import cmath
import math
from itertools import combinations

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad, trapezoid

from darbouxkdv import darboux
from darbouxkdv.darboux import (
    NodalWronskianError,
    SystemSpec,
    bound_states,
    deformed_potential,
)

RNG = np.random.default_rng(7)


class TestSystemSpec:
    def test_valid(self):
        spec = SystemSpec(1.5, (2, 6))
        assert spec.h == 1.5
        assert spec.seeds == (2, 6)
        assert SystemSpec(1.0).n_base_states == 1
        assert SystemSpec(1.5).n_base_states == 2
        assert SystemSpec(2.0).n_base_states == 2
        # numpy real scalars are real numbers too, as numpy integer seeds are
        assert SystemSpec(np.int64(2), (2,)) == SystemSpec(2.0, (2,))
        assert SystemSpec(np.float32(1.5)) == SystemSpec(1.5)
        assert type(SystemSpec(np.float32(1.5)).h) is float

    @pytest.mark.parametrize("h", [0.0, -1.0, math.inf, math.nan])
    def test_bad_h(self, h):
        with pytest.raises(ValueError):
            SystemSpec(h)

    @pytest.mark.parametrize("seeds", [(3,), (0,), (-2,), (2, 2), (4, 2), (2.5,)])
    def test_bad_seeds(self, seeds):
        with pytest.raises(ValueError):
            SystemSpec(1.0, seeds)


class TestBasePotential:
    # with no seeds the deformed potential is the base well -h(h+1)/cosh^2 x
    def test_depths(self):
        assert deformed_potential(SystemSpec(1.0))(0.0) == -2.0
        assert deformed_potential(SystemSpec(2.0))(0.0) == -6.0

    def test_decay(self):
        assert abs(deformed_potential(SystemSpec(1.0))(20.0)) < 1e-16

    def test_vectorized(self):
        xs = np.linspace(-3, 3, 7)
        for h in (1.0, 2.5):
            np.testing.assert_allclose(
                deformed_potential(SystemSpec(h))(xs), -h * (h + 1) / np.cosh(xs) ** 2, rtol=1e-14
            )


class TestBaseBoundState:
    # the undeformed well's levels are (cosh x)^(-kappa) P_n^(kappa,kappa)(tanh x), kappa = h - n
    def test_ground_state(self):
        # sech(x)/sqrt(2), unit-normalized
        psi = bound_states(SystemSpec(1.0))[0].wavefunction
        assert psi(0.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
        xs = np.linspace(-8, 8, 401)
        vals = psi(xs)
        assert np.all(vals > 0)  # nodeless
        np.testing.assert_allclose(vals, 1.0 / (math.sqrt(2.0) * np.cosh(xs)), rtol=1e-13)

    def test_odd_state_vanishes_at_origin(self):
        states = {s.kappa: s for s in bound_states(SystemSpec(2.0))}
        assert states[1.0].wavefunction(0.0) == 0.0

    def test_index_range(self):
        # levels n = 0 .. ceil(h)-1, kappa = h - n
        assert [s.kappa for s in bound_states(SystemSpec(1.0))] == [1.0]
        assert [s.kappa for s in bound_states(SystemSpec(2.5))] == [2.5, 1.5, 0.5]


def seed_state(h, v):
    """The bound state that seed v adds: A/phi_v with tail +c e^(-(h+1+v) x)."""
    (state,) = [s for s in bound_states(SystemSpec(h, (v,))) if s.kappa == h + 1.0 + v]
    return state


def phi_2(h, x):
    """phi_2 = (h+1)/4 cosh(x)^(h+3) (1 + (2h+3) tanh(x)^2)."""
    return (h + 1) / 4 * np.cosh(x) ** (h + 3) * (1 + (2 * h + 3) * np.tanh(x) ** 2)


class TestSeedFunction:
    # seed phi_v reaches the public surface as its bound state A/phi_v; as
    # x -> inf phi_2 -> (h+1)(2h+4)/4 e^(gamma x)/2^gamma, so A = c (h+1)(2h+4)/2^(gamma+2)
    def test_value_at_origin(self):
        # phi_2(0) = (h+1)/4 gives psi(0) = c (2h+4)/2^gamma, and psi is even
        s = seed_state(1.0, 2)
        assert s.wavefunction(0.0) == pytest.approx(s.norming_constant * 6.0 / 16.0, rel=1e-14)
        assert s.wavefunction(0.3) == s.wavefunction(-0.3)

    @pytest.mark.parametrize("h", [1.0, 2.0, 1.5])
    def test_v2_closed_form(self, h):
        xs = np.linspace(-4, 4, 81)
        s = seed_state(h, 2)
        amplitude = s.norming_constant * (h + 1) * (2 * h + 4) / 2 ** (h + 5)
        np.testing.assert_allclose(s.wavefunction(xs) * phi_2(h, xs), amplitude, rtol=1e-13)

    def test_asymptotic_log_derivative(self):
        # (log phi_2)' -> h + 3 = 4, so psi = A/phi_2 decays like e^(-4x)
        psi, eps = seed_state(1.0, 2).wavefunction, 1e-4
        dlog = (math.log(psi(8.0 + eps)) - math.log(psi(8.0 - eps))) / (2 * eps)
        assert dlog == pytest.approx(-4.0, abs=1e-5)

    def test_second_log_derivative_vs_finite_differences(self):
        # phi'' = (U - E) phi turns into (log psi)'' = (E - U) + ((log psi)')^2 for psi = A/phi
        h, v, eps = 1.5, 4, 1e-3
        s = seed_state(h, v)
        base = deformed_potential(SystemSpec(h))
        for x in (-1.3, 0.2, 2.7):
            f = [math.log(s.wavefunction(x + k * eps)) for k in (-2, -1, 0, 1, 2)]
            d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * eps)
            d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * eps * eps)
            assert d2 == pytest.approx(s.energy - base(x) + d1 * d1, rel=1e-7, abs=1e-7)

    def test_nodeless(self):
        # A/phi_v is finite and positive exactly where phi_v has no node
        xs = np.linspace(-10, 10, 2001)
        for h, v in [(1.0, 2), (2.0, 4), (0.7, 6)]:
            assert not deformed_potential(SystemSpec(h, (v,))).is_singular
            assert np.all(seed_state(h, v).wavefunction(xs) > 0)

    def test_exponents(self):
        # phi_v grows like e^(+-(h+1+v) x) at +-inf, so its state decays like c e^(-(h+1+v)|x|)
        for h, v, d in [(1.0, 2, 4.0), (2.0, 2, 5.0), (1.0, 4, 6.0)]:
            s = seed_state(h, v)
            assert s.kappa == d
            for x in (-14.0, 14.0):
                tail = s.wavefunction(x) * math.exp(d * abs(x))
                assert tail == pytest.approx(s.norming_constant, rel=1e-9)


def profile_h1(x):
    c = np.cosh(x)
    return -30.0 * (4 * c**4 - 8 * c**2 + 5) / (c**2 * (36 * c**4 - 60 * c**2 + 25))


def profile_h2(x):
    c = np.cosh(x)
    return -4.0 * (144 * c**4 - 280 * c**2 + 147) / (c**2 * (64 * c**4 - 112 * c**2 + 49))


def seed_derivatives_mp(h, seeds, x, n):
    """[phi_v(x), phi_v'(x), ..., phi_v^(n)(x)] per seed v, by mpmath differentiation."""
    out = []
    for v in seeds:
        g = mp.mpf(h) + 1 + v
        out.append(list(mp.diffs(lambda y: mp.cosh(y) ** g * mp.jacobi(v, -g, -g, mp.tanh(y)), x, n)))
    return out


def wronskian_mp(h, seeds, x):
    """W[phi_v for v in seeds](x), in mpmath."""
    d = seed_derivatives_mp(h, seeds, mp.mpmathify(x), len(seeds) - 1)
    return mp.det(mp.matrix([[dj[i] for dj in d] for i in range(len(seeds))]))


def u_d_mp(h, seeds, x):
    """U - 2 (log W)'' at real or complex x from the seed definition, in mpmath.

    phi_v = cosh^g P_v^(-g,-g)(tanh), g = h + 1 + v; rows are mpmath derivatives
    of phi_v.  W' and W'' replace the last rows of the Wronskian matrix:
    W' = |rows 0..m-2, m| and W'' = |rows 0..m-2, m+1| + |rows 0..m-3, m-1, m|.
    """
    h, x = mp.mpf(h), mp.mpmathify(x)
    m = len(seeds)
    d = seed_derivatives_mp(h, seeds, x, m + 1)

    def det(rows):
        return mp.det(mp.matrix([[d[j][i] for j in range(m)] for i in rows]))

    w = det(range(m))
    dw = det([*range(m - 1), m])
    ddw = det([*range(m - 1), m + 1]) + det([*range(m - 2), m - 1, m])
    return -h * (h + 1) / mp.cosh(x) ** 2 - 2 * (ddw / w - (dw / w) ** 2)


def jacobi_mp(n, a):
    """z -> P_n^(a,a)(z) from the binomial sum in mpmath, its coefficients built once."""
    if n < 0:
        return lambda z: mp.mpf(0)
    coef = [mp.binomial(n + a, k) * mp.binomial(n + a, n - k) for k in range(n + 1)]
    return lambda z: mp.fsum(
        c * ((z - 1) / 2) ** (n - k) * ((z + 1) / 2) ** k for k, c in enumerate(coef)
    )


def phi_mp(gamma, n):
    """x -> (phi, phi') for phi = cosh^gamma P_n^(-gamma,-gamma)(tanh x), in mpmath.

    phi' = cosh^gamma (gamma u P + (1 - u^2) P') with P' = (n - 2 gamma + 1)/2
    P_(n-1)^(1-gamma,1-gamma), so no numerical differentiation enters.
    """
    p, dp = jacobi_mp(n, -gamma), jacobi_mp(n - 1, 1 - gamma)
    dfac = (n - 2 * gamma + 1) / 2

    def phi(x):
        u, c = mp.tanh(x), mp.cosh(x) ** gamma
        pu = p(u)
        return c * pu, c * (gamma * u * pu + (1 - u * u) * dfac * dp(u))

    return phi


def u_d_tail_mp(h, v, x):
    """U_D of the seed v (None for the base well) at real or complex x, in mpmath.

    Differentiated in u = tanh x, not in x: with s2 = sech^2 x from mpmath,
    U_D = -h(h+1) s2 - 2 s2 (g - 2u P'/P + s2 (P''/P - (P'/P)^2)) for
    P = P_v^(-g,-g), g = h + 1 + v, and P' and P'' by the rule
    d/du P_n^(a,a) = (n+2a+1)/2 P_(n-1)^(a+1,a+1).  mp.diff in x would need
    the tail digits of a function of size 1e-86 at |x| = 100.
    """
    h, x = mp.mpf(h), mp.mpmathify(x)
    s2, u = mp.sech(x) ** 2, mp.tanh(x)
    if v is None:
        return -h * (h + 1) * s2
    g = h + 1 + v
    a = -g
    p = jacobi_mp(v, a)(u)
    q = (v + 2 * a + 1) / 2 * jacobi_mp(v - 1, a + 1)(u) / p
    qq = (v + 2 * a + 1) / 2 * (v + 2 * a + 2) / 2 * jacobi_mp(v - 2, a + 2)(u) / p
    return -h * (h + 1) * s2 - 2 * s2 * (g - 2 * u * q + s2 * (qq - q * q))


def scan_for_nodes(w):
    """Numerical node test of W~(tanh x): the oracle for PotentialEvaluator.is_singular.

    A sign change on 40,001 points of [-20, 20], or a point where |W~| is within
    64 (deg+1) eps sum_k |a_k| |u|^k, the rounding bound of its Horner evaluation.
    """
    u = np.tanh(np.linspace(-20.0, 20.0, 40001))
    vals = npoly.polyval(u, w)
    rounding = npoly.polyval(np.abs(u), np.abs(w)) * len(w) * np.finfo(float).eps
    if np.any(np.abs(vals) <= 64.0 * rounding):
        return True
    sgn = np.sign(vals)
    return bool(np.any(sgn[1:] * sgn[:-1] < 0))


MULTI_SEED_SETS = [(1.0, (2, 4)), (3.7, (2, 6)), (1.6, (2, 4, 6)), (3.3, (2, 4, 6, 8))]


def horner(coef, u):
    """sum_k coef[k] u^k by Horner's rule, in pure Python."""
    out = 0.0
    for c in reversed(coef):
        out = out * u + c
    return out


def u_d_quotient(pot, u, e, w, dw, ddw):
    """U_D from u = tanh x, e = e^(-2|x|) and W~, W~', W~'' at u; scalars or arrays.

    The formula of PotentialEvaluator's docstring, written out apart from the
    code under test: sech^2 x = 4e/(1+e)^2, and Gamma sums the h+1+v of the seeds.
    """
    h, seeds = pot.spec.h, pot.spec.seeds
    s2 = 4.0 * e / ((1.0 + e) * (1.0 + e))
    q = dw / w
    gamma = sum(h + 1.0 + v for v in seeds)
    return -h * (h + 1.0) * s2 - 2.0 * s2 * (gamma - 2.0 * u * q + s2 * (ddw / w - q * q))


def w_and_derivatives(pot):
    """Coefficients of W~, W~' and W~'' in u, lowest power first."""
    return [npoly.polyder(pot._w, m).tolist() for m in range(3)]


def u_d_three_horners(pot, x):
    """U_D at one real or complex x from three separate Horner sums of W~, W~', W~''."""
    if isinstance(x, complex):
        u, e = cmath.tanh(x), cmath.exp(-2.0 * x if x.real >= 0.0 else 2.0 * x)
    else:
        u, e = math.tanh(x), math.exp(-2.0 * abs(x))
    try:
        return u_d_quotient(pot, u, e, *(horner(c, u) for c in w_and_derivatives(pot)))
    except ZeroDivisionError:
        return complex(math.nan, math.nan) if isinstance(u, complex) else math.nan


class TestDeformedPotential:
    def test_spot_values(self):
        assert deformed_potential(SystemSpec(1.0, (2,)))(0.0) == pytest.approx(-30.0, abs=1e-12)
        assert deformed_potential(SystemSpec(2.0, (2,)))(0.0) == pytest.approx(-44.0, abs=1e-12)
        assert deformed_potential(SystemSpec(1.0))(0.0) == -2.0

    def test_closed_form_profiles(self):
        xs = np.linspace(-6, 6, 241)
        u1 = deformed_potential(SystemSpec(1.0, (2,)))(xs)
        np.testing.assert_allclose(u1, profile_h1(xs), rtol=1e-11, atol=1e-12)
        u2 = deformed_potential(SystemSpec(2.0, (2,)))(xs)
        np.testing.assert_allclose(u2, profile_h2(xs), rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("spec", [SystemSpec(1.0, (2,)), SystemSpec(1.5, (4,)), SystemSpec(2.5, (6,))])
    def test_parity_and_decay(self, spec):
        pot = deformed_potential(spec)
        xs = RNG.uniform(0.0, 6.0, size=40)
        np.testing.assert_allclose(pot(xs), pot(-xs), rtol=0, atol=1e-12)
        assert abs(pot(18.0)) < 1e-12

    def test_scalar_path_matches_vectorized(self):
        specs = [SystemSpec(1.0), SystemSpec(1.5, (2,)), SystemSpec(2.0, (4,))]
        specs += [SystemSpec(h, seeds) for h, seeds in MULTI_SEED_SETS]
        for spec in specs:
            pot = deformed_potential(spec, allow_singular=True)
            xs = RNG.uniform(-8, 8, size=20)
            zs = 0.5 * np.exp(1j * RNG.uniform(0.0, np.pi, size=10))
            for x, vec in zip(xs, pot(xs)):
                assert pot.evaluate_scalar(float(x)) == pytest.approx(vec, rel=1e-13, abs=1e-13)
                assert pot(float(x)) == pot.evaluate_scalar(float(x))
            for z, vec in zip(zs, pot(zs)):
                got = pot.evaluate_scalar(complex(z))
                assert isinstance(got, complex) and got == pytest.approx(vec, rel=1e-13)

    @pytest.mark.parametrize(
        "h, seeds", [(1.0, ()), (1.0, (2,)), (2.5, (4,)), (6.0, (2,))] + MULTI_SEED_SETS, ids=str
    )
    def test_scalar_path_is_bitwise_three_horner_sums(self, h, seeds):
        # one Horner loop steps W~, W~' and W~'' together; each value, signed zeros
        # included, must be that of three separate sums, on the real line and off it
        pot = deformed_potential(SystemSpec(h, seeds), allow_singular=True)
        xs = [float(x) for x in np.linspace(-30.0, 30.0, 241)] + [0.0, -0.0, 1e-300, -1e-300]
        zs = [complex(x, c) for x in (-30.0, -12.5, -3.0, -0.4, 0.0, 0.7, 4.0, 19.0, 30.0)
              for c in (-0.45, -0.331, -0.05, 0.0, -0.0, 0.2, 0.331, 1.3)]
        zs += [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        for x in xs + zs:
            got, want = pot.evaluate_scalar(x), u_d_three_horners(pot, x)
            assert type(got) is type(want)
            assert np.array(got).tobytes() == np.array(want).tobytes(), x

    @pytest.mark.parametrize(
        "h, seeds", [(1.0, ()), (1.0, (2,)), (2.5, (4,)), (6.0, (2,))] + MULTI_SEED_SETS, ids=str
    )
    def test_array_path_is_bitwise_three_polyval_sums(self, h, seeds):
        # the array path shares its Horner loop with the scalar path; each value
        # must be that of three npoly.polyval sums, on the real line and off it
        pot = deformed_potential(SystemSpec(h, seeds), allow_singular=True)
        xs = np.concatenate([np.linspace(-30.0, 30.0, 241), [0.0, -0.0, 1e-300, -1e-300]])
        for x in [xs] + [xs + 1j * c for c in (-0.331, 0.331, 0.2)]:
            u = np.tanh(x)
            e = np.exp(-2.0 * (np.where(x.real >= 0.0, x, -x) if x.dtype.kind == "c" else abs(x)))
            sums = [npoly.polyval(u, c) for c in w_and_derivatives(pot)]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # the node at 0
                got, want = pot(x), u_d_quotient(pot, u, e, *sums)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_scalar_path_is_nan_at_a_node(self):
        # W~(0) = 0 exactly for h=1 [2,4]: real and complex x = 0 give nan, as the
        # three-Horner reference does
        pot = deformed_potential(SystemSpec(1.0, (2, 4)), allow_singular=True)
        for x in (0.0, -0.0, 0j, complex(-0.0, -0.0)):
            got = pot.evaluate_scalar(x)
            assert type(got) is type(x) and cmath.isnan(got)
            assert np.array(got).tobytes() == np.array(u_d_three_horners(pot, x)).tobytes()

    @pytest.mark.parametrize(
        "h, seeds", [(1.0, (2, 4)), (2.5, (2, 4, 6)), (1.0, (2, 6)), (3.0, (4, 8))], ids=str
    )
    def test_array_path_at_a_node_is_the_scalar_path_without_a_warning(self, h, seeds):
        # at and next to the node x = 0 the array path gives the scalar values, nan at
        # 0 and +inf at +-1e-300, and emits no numpy warning (an error under pytest)
        pot = deformed_potential(SystemSpec(h, seeds), allow_singular=True)
        xs = [-1.0, -1e-300, 0.0, 1e-300, 1e-8, 1.0]
        got, want = pot(np.array(xs)), np.array([pot.evaluate_scalar(x) for x in xs])
        assert np.array_equal(np.isnan(got), np.isnan(want)) and np.isnan(got[2])
        assert got[~np.isnan(want)].tobytes() == want[~np.isnan(want)].tobytes()

    @pytest.mark.parametrize(
        "h, seeds", [(1.0, ()), (1.0, (2,)), (2.5, (4,)), (0.3, (2,)), (3.7, (6,)), (25.0, (34,))]
    )
    def test_relative_accuracy_in_the_tails(self, h, seeds):
        # U_D decays like e^(-2|x|); each value is held relative to itself, not to
        # max |U_D|, out to |x| = 100, where 1 - tanh^2 x would give -0
        pot = deformed_potential(SystemSpec(h, seeds))
        mags = [0.5, 3.0, 6.0, 10.0, 15.0, 18.0, 20.0, 30.0, 50.0, 75.0, 100.0]
        xs = np.array([-m for m in mags] + mags)
        zs = np.array([complex(m, c) for m in (-100.0, -30.0, -15.0, 15.0, 30.0, 100.0)
                       for c in (-0.33, 0.33)])
        v = seeds[0] if seeds else None
        with mp.workdps(40):
            ref = np.array([float(u_d_tail_mp(h, v, x)) for x in xs])
            zref = np.array([complex(u_d_tail_mp(h, v, z)) for z in zs])
        assert np.max(np.abs(pot(xs) / ref - 1.0)) <= 1e-14
        assert max(abs(pot(float(x)) / r - 1.0) for x, r in zip(xs, ref)) <= 1e-14
        assert np.max(np.abs(pot(zs) / zref - 1.0)) <= 1e-14
        assert max(abs(pot(complex(z)) / r - 1.0) for z, r in zip(zs, zref)) <= 1e-14

    @pytest.mark.parametrize("h, seeds", MULTI_SEED_SETS)
    def test_multi_seed_matches_mpmath(self, h, seeds):
        pot = deformed_potential(SystemSpec(h, seeds), allow_singular=True)
        xs = np.array([0.5, 1.3, 3.0, 7.0])
        xs = np.concatenate([-xs, xs])
        with mp.workdps(30):
            ref = np.array([float(u_d_mp(h, seeds, x)) for x in xs])
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(pot(xs) - ref)) <= 1e-12 * scale
        assert max(abs(pot(float(x)) - r) for x, r in zip(xs, ref)) <= 1e-12 * scale

    def test_complex_detour_matches_mpmath(self):
        # complex x on the line Im x = 0.33 above the pole at x = 0 of h=1 [2,4],
        # below its poles at Im x = 0.461, as on the ODE oracle's detour line
        pot = deformed_potential(SystemSpec(1.0, (2, 4)), allow_singular=True)
        zs = [complex(s, 0.33) for s in np.linspace(-2.0, 2.0, 9)]
        with mp.workdps(30):
            ref = [complex(u_d_mp(1.0, (2, 4), z)) for z in zs]
        scale = max(abs(r) for r in ref)
        assert max(abs(pot(z) - r) for z, r in zip(zs, ref)) <= 1e-12 * scale

    @pytest.mark.parametrize("h, seeds", [(1.0, (2,)), *MULTI_SEED_SETS, (2.5, (2, 4, 6))])
    def test_poles_are_zeros_of_the_mpmath_wronskian(self, h, seeds):
        poles = deformed_potential(SystemSpec(h, seeds), allow_singular=True).poles()
        # the multiple root of W~ at u = 0 is the one pole x = 0, not a cluster of
        # tiny roots split off by the rounding noise of its lowest coefficients
        centre = [z for z in poles if abs(z) < 0.2]
        assert centre == ([0.0] if len(seeds) > 1 else [])
        # every pole inside |x| < 1 (the rest sit near +-i pi/2) is a zero of W; a
        # misplaced pole would leave |W| at the size of its value 0.05 away
        inner = [complex(z) for z in poles if 0.0 < abs(z) < 1.0]
        assert inner
        with mp.workdps(30):
            for z in inner:
                near = abs(wronskian_mp(h, seeds, z + 0.05))
                assert abs(wronskian_mp(h, seeds, z)) <= 1e-6 * near

    def test_exact_wronskian_zero_is_nan(self):
        # W~(0) is exactly zero for the even set [2,4]; no ZeroDivisionError
        pot = deformed_potential(SystemSpec(1.0, (2, 4)), allow_singular=True)
        assert math.isnan(pot(0.0))
        assert math.isnan(pot.evaluate_scalar(0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = pot(np.array([0.0, 1.0]))
        assert math.isnan(vals[0]) and math.isfinite(vals[1])

    def test_coefficient_overflow_raises(self):
        # P_600^(-1601,-1601) has coefficients beyond the float range: a typed
        # error, where nan and RuntimeWarnings came out before
        with pytest.raises(OverflowError):
            deformed_potential(SystemSpec(1000.0, (600,)))
        # at h = 300 W~ is finite, and U_D(0) = h(h+1) - 2 (h+1+v)^2
        vals = deformed_potential(SystemSpec(300.0, (600,)))(np.array([-1.0, 0.0, 1.0]))
        assert np.all(np.isfinite(vals))
        assert vals[1] == pytest.approx(-1533302.0, rel=1e-12)
        # the numerators of its bound states, of higher degree, are not; the
        # levels and norming constants need none, and a low level refuses to
        # evaluate its wavefunction
        states = bound_states(SystemSpec(300.0, (600,)))
        assert len(states) == 301
        assert all(math.isfinite(s.kappa) and math.isfinite(s.norming_constant) for s in states)
        (low,) = [s for s in states if s.kappa == 1.0]
        with pytest.raises(OverflowError, match="bound-state numerator"):
            low.wavefunction(0.0)

    @pytest.mark.parametrize("h", [500.0, 2500.0])
    def test_deep_well_norming_overflow_is_named(self, h):
        # these raised a bare "math range error"; at h = 2500 a RuntimeWarning from
        # the base-level columns came first
        with pytest.raises(OverflowError, match=rf"^norming constant at h = {h}, kappa = "):
            bound_states(SystemSpec(h))

    def test_even_multi_index_is_nodal(self):
        # the Wronskian of two or more even seeds vanishes at x = 0
        for seeds in [(2, 4), (2, 6), (2, 4, 6)]:
            with pytest.raises(NodalWronskianError):
                deformed_potential(SystemSpec(1.0, seeds))

    def test_singular_evaluator(self):
        pot = deformed_potential(SystemSpec(1.0, (2, 4)), allow_singular=True)
        assert pot.is_singular
        assert math.isfinite(pot(1.0))
        # symmetric, decaying, and evaluable at complex x for the contour oracle
        assert pot(1.3) == pytest.approx(pot(-1.3), abs=1e-12)
        assert abs(pot(18.0)) < 1e-12
        zval = pot(0.5j)
        assert isinstance(zval, complex) and math.isfinite(zval.real)

    def test_regular_evaluator_not_singular(self):
        assert not deformed_potential(SystemSpec(1.0, (2,))).is_singular

    def test_closed_form_verdict_matches_node_scan(self):
        degrees = [*range(2, 41, 2), 50, 70, 100]
        singles = [(h, (v,)) for h in (0.3, 1.0, 7.0, 25.0) for v in degrees]
        sets = [(1.5, seeds) for m in (2, 3, 4) for seeds in combinations(range(2, 13, 2), m)]
        verdicts = {}
        for h, seeds in singles + sets:
            pot = deformed_potential(SystemSpec(h, seeds), allow_singular=True)
            verdicts[h, seeds] = (pot.is_singular, scan_for_nodes(np.array(pot._w)))
        assert [key for key, (rule, scan) in verdicts.items() if rule != scan] == []
        assert sum(rule for rule, _ in verdicts.values()) == len(sets)


# seed sets the node verdict must reject, and deep single seeds it must accept
FLAGGED_SEED_SETS = [
    (1.0, (2, 4)), (1.0, (2, 4, 6)), (1.0, (2, 4, 6, 8)), (2.3, (4, 8)), (3.0, (2, 6, 10, 14)),
]
DEEP_SINGLE_SEEDS = [
    (1.0, (36,)), (1.0, (50,)), (5.0, (34,)), (8.0, (30,)),
    (25.0, (34,)), (1.0, (70,)), (0.5, (100,)),
]


class TestBoundStates:
    def test_h1_v2_spectrum_and_norming(self):
        states = bound_states(SystemSpec(1.0, (2,)))
        assert [s.energy for s in states] == [-16.0, -1.0]
        assert [s.kappa for s in states] == [4.0, 1.0]
        assert [s.index for s in states] == [0, 1]
        assert states[0].norming_constant == pytest.approx(math.sqrt(40.0 / 3.0), abs=1e-9)
        assert states[1].norming_constant == pytest.approx(math.sqrt(10.0 / 3.0), abs=1e-9)

    def test_h2_v2_spectrum(self):
        states = bound_states(SystemSpec(2.0, (2,)))
        assert [s.energy for s in states] == [-25.0, -4.0, -1.0]

    def test_half_integer_h(self):
        states = bound_states(SystemSpec(1.5, (2,)))
        assert [s.energy for s in states] == [-20.25, -2.25, -0.25]

    def test_undeformed_norming(self):
        states = bound_states(SystemSpec(1.0))
        assert len(states) == 1
        # sech(x)/sqrt(2) has tail sqrt(2) e^(-x)
        assert states[0].norming_constant == pytest.approx(math.sqrt(2.0), abs=1e-10)
        assert len(bound_states(SystemSpec(2.5))) == 3

    def test_unit_normalization(self):
        # the shallow states (kappa = 0.1, 0.2, 0.3) of the last three put weight
        # past |x| = 25, since psi^2 ~ e^(-2 kappa |x|); the window reaches 40/kappa_min
        specs = (SystemSpec(1.0, (2,)), SystemSpec(1.5, (2,)),
                 SystemSpec(2.1, (2,)), SystemSpec(1.2), SystemSpec(3.3, (4,)))
        for spec in specs:
            states = bound_states(spec)
            half_width = 40.0 / min(s.kappa for s in states)
            for s in states:
                norm, _ = quad(
                    lambda x: s.wavefunction(x) ** 2, -half_width, half_width,
                    epsabs=1e-12, epsrel=1e-12, limit=400, points=(-4.0, 0.0, 4.0),
                )
                assert norm == pytest.approx(1.0, abs=1e-9)

    def test_known_wavefunction_shapes_h1(self):
        # psi(kappa=1) ~ sech x tanh x (1 + 2 sech^2 x/(1+5 tanh^2 x));
        # psi(kappa=4) ~ 1/(cosh^4 x (1+5 tanh^2 x)); shapes checked by ratio
        states = {round(s.kappa): s for s in bound_states(SystemSpec(1.0, (2,)))}
        xs = np.array([0.4, 1.1, 2.3])

        def shape0(x):
            sech = 1 / np.cosh(x)
            return sech * np.tanh(x) * (1 + 2 * sech**2 / (1 + 5 * np.tanh(x) ** 2))

        def shape1(x):
            return 1.0 / (np.cosh(x) ** 4 * (1 + 5 * np.tanh(x) ** 2))

        got0 = states[1].wavefunction(xs)
        got1 = states[4].wavefunction(xs)
        np.testing.assert_allclose(got0 / got0[0], shape0(xs) / shape0(xs[0]), rtol=1e-11)
        np.testing.assert_allclose(got1 / got1[0], shape1(xs) / shape1(xs[0]), rtol=1e-11)

    @pytest.mark.parametrize("spec", [SystemSpec(1.0, (2,)), SystemSpec(1.5, (2,))])
    def test_schrodinger_residual(self, spec):
        # fourth-order finite differences, step 1e-3, on x in [-8, 8]
        pot = deformed_potential(spec)
        dx = 1e-3
        xs = np.linspace(-8, 8, 161)
        for s in bound_states(spec):
            psi = s.wavefunction
            stencil = (
                -psi(xs + 2 * dx) + 16 * psi(xs + dx) - 30 * psi(xs)
                + 16 * psi(xs - dx) - psi(xs - 2 * dx)
            ) / (12 * dx * dx)
            residual = -stencil + (pot(xs) - s.energy) * psi(xs)
            scale = np.max(np.abs(psi(xs)))
            assert np.max(np.abs(residual)) <= 1e-5 * scale

    @pytest.mark.parametrize(
        "h, v, tol", [(6.0, 2, 8.6e-15), (15.0, 4, 5.8e-12), (25.0, 34, 2.1e-8)]
    )
    def test_wavefunction_shapes_match_mpmath_crum_ratio(self, h, v, tol):
        # one seed phi_v: an original level is W[phi_v, phi_n]/phi_v, the seed
        # level 1/phi_v; a least-squares scale leaves the normalisation out
        xs = np.linspace(-4, 4, 17)
        with mp.workdps(50):
            hm = mp.mpf(h)
            seed = [phi_mp(hm + 1 + v, v)(mp.mpf(x)) for x in xs]
            for s in bound_states(SystemSpec(h, (v,))):
                if s.kappa == h + 1 + v:
                    ref = [1 / f for f, _ in seed]
                else:
                    base = phi_mp(-mp.mpf(s.kappa), round(h - s.kappa))
                    ref = []
                    for (f, df), x in zip(seed, xs):
                        g, dg = base(mp.mpf(x))
                        ref.append((f * dg - df * g) / f)
                ref = np.array([float(r) for r in ref])
                got = s.wavefunction(xs)
                scale = ref @ got / (ref @ ref)
                assert np.max(np.abs(got - scale * ref)) <= tol * np.max(np.abs(got))

    @pytest.mark.parametrize(
        "spec", [SystemSpec(1.0, (2,)), SystemSpec(2.0, (2,)), SystemSpec(3.0)]
    )
    def test_node_counts(self, spec):
        xs = np.linspace(-12, 12, 4001)
        for s in bound_states(spec):
            vals = s.wavefunction(xs)
            vals = vals[np.abs(vals) > 1e-9 * np.max(np.abs(vals))]
            flips = int(np.sum(np.sign(vals[1:]) * np.sign(vals[:-1]) < 0))
            assert flips == s.index

    def test_tail_extraction_is_reproducible(self):
        for s in bound_states(SystemSpec(1.0, (2,))):
            f12 = float(s.wavefunction(12.0)) * math.exp(12.0 * s.kappa)
            f14 = float(s.wavefunction(14.0)) * math.exp(14.0 * s.kappa)
            assert abs(f12 - f14) <= 1e-8
            assert f14 == pytest.approx(s.norming_constant, abs=1e-8)

    def test_multi_index_rejected(self):
        for h, seeds in FLAGGED_SEED_SETS:
            with pytest.raises(NodalWronskianError):
                bound_states(SystemSpec(h, seeds))

    @pytest.mark.parametrize("h, seeds", DEEP_SINGLE_SEEDS)
    def test_deep_single_seed_accepted(self, h, seeds):
        # one even seed is nodeless at any degree; U_D(0) = h(h+1) - 2 d^2
        # because (log phi)'(0) = 0 and phi'' = (U + d^2) phi, d = h + 1 + v
        pot = deformed_potential(SystemSpec(h, seeds))
        assert not pot.is_singular
        d = h + 1.0 + seeds[0]
        assert pot(0.0) == pytest.approx(h * (h + 1.0) - 2.0 * d * d, rel=1e-12)
        kappas = sorted(s.kappa for s in bound_states(SystemSpec(h, seeds)))
        assert kappas == sorted([h - n for n in range(math.ceil(h))] + [d])

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5, 6, 15])
    @pytest.mark.parametrize("seeds", [(), (2,), (4,)])
    def test_integer_h_norming_identity(self, h, seeds):
        # reflectionless wells: c_n^2 = 2 k_n prod_{m != n} (k_n + k_m)/|k_n - k_m|
        states = bound_states(SystemSpec(float(h), seeds))
        kappas = [s.kappa for s in states]
        for s in states:
            expected = 2.0 * s.kappa * math.prod(
                (s.kappa + k) / abs(s.kappa - k) for k in kappas if k != s.kappa
            )
            assert s.norming_constant**2 == pytest.approx(expected, rel=1e-12)

    def test_deep_well_states_normalized_or_refused(self):
        # h = 250 [500]: coefficients reach 1e290 and the tail scale 2^kappa
        # num(1) leaves the float range; kappa = 228 came back identically 0.
        # kappa = 1 sums coefficients near 1e285 to values near 1e80, beyond
        # double precision, so its wavefunction may refuse with OverflowError
        xs = np.linspace(-30.0, 30.0, 120001)
        states = {s.kappa: s for s in bound_states(SystemSpec(250.0, (500,)))}
        evaluated = set()
        for kappa in (751.0, 250.0, 228.0, 1.0):
            try:
                psi = states[kappa].wavefunction(xs)
            except OverflowError:
                continue
            evaluated.add(kappa)
            assert np.all(np.isfinite(psi)) and np.any(psi)
            assert trapezoid(psi * psi, xs) == pytest.approx(1.0, abs=1e-8)
        assert {751.0, 250.0, 228.0} <= evaluated

    def test_numerators_are_built_on_the_first_wavefunction_call(self, monkeypatch):
        calls = []
        wronskian_poly = darboux._wronskian_poly

        def counted(sols, magnitude=False):
            calls.append(magnitude)
            return wronskian_poly(sols, magnitude)

        monkeypatch.setattr(darboux, "_wronskian_poly", counted)
        states = bound_states(SystemSpec(6.0, (2,)))
        assert calls == [False]  # the seed Wronskian of deformed_potential
        states[3].wavefunction(0.5)
        assert calls == [False, False, True]  # its numerator and magnitude polynomial
        states[3].wavefunction(np.array([-1.0, 2.0]))
        assert calls == [False, False, True]

    def test_overflowing_numerator_is_built_once(self, monkeypatch):
        calls = []
        wronskian_poly = darboux._wronskian_poly

        def counted(sols, magnitude=False):
            calls.append(magnitude)
            return wronskian_poly(sols, magnitude)

        monkeypatch.setattr(darboux, "_wronskian_poly", counted)
        (low,) = [s for s in bound_states(SystemSpec(300.0, (600,))) if s.kappa == 1.0]
        assert calls == [False]  # the seed Wronskian of deformed_potential
        for x in (0.0, 0.5, np.array([-1.0, 2.0])):
            with pytest.raises(OverflowError, match="bound-state numerator at kappa = 1.0"):
                low.wavefunction(x)
        assert calls == [False, False]  # the numerator, once; it fails before its magnitude

    def test_wavefunction_vectorized(self):
        s = bound_states(SystemSpec(1.0, (2,)))[0]
        xs = np.linspace(-2, 2, 5)
        vals = s.wavefunction(xs)
        assert vals.shape == xs.shape
        assert vals[2] == pytest.approx(float(s.wavefunction(0.0)), rel=1e-14)
