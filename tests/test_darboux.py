import cmath
import math
from itertools import combinations

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad, trapezoid

from darbouxkdv.darboux import (
    NodalWronskianError,
    SystemSpec,
    base_bound_state,
    base_potential,
    bound_states,
    deformed_potential,
    seed_exponents,
    seed_function,
)

RNG = np.random.default_rng(7)


class TestSystemSpec:
    def test_valid(self):
        spec = SystemSpec(1.5, (2, 6))
        assert spec.h == 1.5
        assert spec.seeds == (2, 6)
        assert spec.n_steps == 2
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
    def test_depths(self):
        assert base_potential(1.0, 0.0) == -2.0
        assert base_potential(2.0, 0.0) == -6.0

    def test_decay(self):
        assert abs(base_potential(1.0, 20.0)) < 1e-16

    def test_vectorized(self):
        xs = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(base_potential(1.0, xs), -2.0 / np.cosh(xs) ** 2, rtol=1e-14)

    def test_bad_h(self):
        with pytest.raises(ValueError):
            base_potential(0.0, 1.0)


class TestBaseBoundState:
    def test_ground_state(self):
        assert base_bound_state(1.0, 0, 0.0) == 1.0
        xs = np.linspace(-8, 8, 401)
        vals = base_bound_state(1.0, 0, xs)
        assert np.all(vals > 0)  # nodeless

    def test_odd_state_vanishes_at_origin(self):
        assert base_bound_state(2.0, 1, 0.0) == 0.0

    def test_index_range(self):
        with pytest.raises(ValueError):
            base_bound_state(1.0, 1, 0.0)
        with pytest.raises(ValueError):
            base_bound_state(2.5, -1, 0.0)
        base_bound_state(2.5, 2, 0.0)  # ceil(2.5)-1 = 2 is allowed


class TestSeedFunction:
    def test_value_at_origin(self):
        value, dlog, _ = seed_function(1.0, 2, 0.0)
        assert value == 0.5
        assert dlog == 0.0

    @pytest.mark.parametrize("h", [1.0, 2.0, 1.5])
    def test_v2_closed_form(self, h):
        # phi_2 = (h+1)/4 cosh(x)^(h+3) (1 + (2h+3) tanh(x)^2)
        xs = np.linspace(-4, 4, 81)
        value, _, _ = seed_function(h, 2, xs)
        ref = (h + 1) / 4 * np.cosh(xs) ** (h + 3) * (1 + (2 * h + 3) * np.tanh(xs) ** 2)
        np.testing.assert_allclose(value, ref, rtol=1e-13)

    def test_asymptotic_log_derivative(self):
        _, dlog, _ = seed_function(1.0, 2, 8.0)
        assert dlog == pytest.approx(4.0, abs=1e-5)

    def test_second_log_derivative_vs_finite_differences(self):
        h, v, eps = 1.5, 4, 1e-5
        for x in (-1.3, 0.2, 2.7):
            _, _, d2 = seed_function(h, v, x)
            _, dp, _ = seed_function(h, v, x + eps)
            _, dm, _ = seed_function(h, v, x - eps)
            assert d2 == pytest.approx((dp - dm) / (2 * eps), rel=1e-7, abs=1e-7)

    def test_nodeless(self):
        xs = np.linspace(-10, 10, 2001)
        for h, v in [(1.0, 2), (2.0, 4), (0.7, 6)]:
            value, _, _ = seed_function(h, v, xs)
            assert np.all(value > 0)

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            seed_function(1.0, 3, 0.0)
        with pytest.raises(ValueError):
            seed_function(1.0, 0, 0.0)
        for h in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                seed_function(h, 2, 0.0)
            with pytest.raises(ValueError):
                seed_exponents(h, 2)

    def test_exponents(self):
        assert seed_exponents(1.0, 2) == (4.0, -4.0)
        assert seed_exponents(2.0, 2) == (5.0, -5.0)
        assert seed_exponents(1.0, 4) == (6.0, -6.0)


def profile_h1(x):
    c = np.cosh(x)
    return -30.0 * (4 * c**4 - 8 * c**2 + 5) / (c**2 * (36 * c**4 - 60 * c**2 + 25))


def profile_h2(x):
    c = np.cosh(x)
    return -4.0 * (144 * c**4 - 280 * c**2 + 147) / (c**2 * (64 * c**4 - 112 * c**2 + 49))


def u_d_mp(h, seeds, x):
    """U - 2 (log W)'' at real or complex x from the seed definition, in mpmath.

    phi_v = cosh^g P_v^(-g,-g)(tanh), g = h + 1 + v; rows are mpmath derivatives
    of phi_v.  W' and W'' replace the last rows of the Wronskian matrix:
    W' = |rows 0..m-2, m| and W'' = |rows 0..m-2, m+1| + |rows 0..m-3, m-1, m|.
    """
    h, x = mp.mpf(h), mp.mpmathify(x)
    m = len(seeds)
    d = []
    for v in seeds:
        g = h + 1 + v
        d.append(list(mp.diffs(lambda y: mp.cosh(y) ** g * mp.jacobi(v, -g, -g, mp.tanh(y)), x, m + 1)))

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
        # the ODE oracle's semicircle |x| = 0.5 around the pole of h=1 [2,4]
        pot = deformed_potential(SystemSpec(1.0, (2, 4)), allow_singular=True)
        zs = [0.5 * cmath.exp(1j * th) for th in np.linspace(0.0, np.pi, 9)]
        with mp.workdps(30):
            ref = [complex(u_d_mp(1.0, (2, 4), z)) for z in zs]
        scale = max(abs(r) for r in ref)
        assert max(abs(pot(z) - r) for z, r in zip(zs, ref)) <= 1e-12 * scale

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
        # but the numerators of its bound states, of higher degree, are not
        with pytest.raises(OverflowError):
            bound_states(SystemSpec(300.0, (600,)))

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

    def test_wavefunction_vectorized(self):
        s = bound_states(SystemSpec(1.0, (2,)))[0]
        xs = np.linspace(-2, 2, 5)
        vals = s.wavefunction(xs)
        assert vals.shape == xs.shape
        assert vals[2] == pytest.approx(float(s.wavefunction(0.0)), rel=1e-14)
