import math
from fractions import Fraction
import sys
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

import darbouxkdv.kdv as kdv_module
from darbouxkdv.darboux import SystemSpec, deformed_potential
from darbouxkdv.kdv import (
    SOLITON_LIMIT,
    TAU_CACHE_SIZE,
    OverflowDomainError,
    SolitonData,
    asymptotic_decomposition,
    conserved_quantities,
    field_u,
    kdv_residual,
    scattering_data_from_spec,
)

RNG = np.random.default_rng(3)
EPS = np.finfo(float).eps
# the uncached builder of the tau expansion, kept past any monkeypatch of _tau_groups
BUILD_TAU = kdv_module._tau_groups.__wrapped__

TWO_SOLITON = SolitonData((1.0, 4.0), (math.sqrt(10.0 / 3.0), math.sqrt(40.0 / 3.0)))
ONE_SOLITON = SolitonData((1.0,), (math.sqrt(2.0),))
# the largest soliton count at which field_u is checked against U_D to 1e-12;
# the positive-term tau sum reads <= 4e-15 up to it (h=15 [2])
N_MAX = 16


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

    def test_deep_well_data_need_no_numerator(self):
        # h = 300 [500]: bound-state numerators overflow the float range, but
        # (kappa, c) are closed forms; c^2 = |Res_{s=kappa} t_D| with s = -iK,
        # t_D = G(s-h) G(s+h+1) / (G(s+1) G(s)) (s+d)/(s-d), d = h+1+v, taken
        # here as eps t_D(kappa + eps) in 120-digit arithmetic.  The float closed
        # form is exp of a sum of log-Gammas as large as lgamma(kappa + h + 1),
        # 6.6e3 at kappa = 801, and carries their rounding (1.4e-12 there)
        data = scattering_data_from_spec(SystemSpec(300.0, (500,)))
        assert data.n == 301
        assert all(math.isfinite(k) and math.isfinite(c) for k, c in zip(data.kappas, data.c0))
        c2 = dict(zip(data.kappas, (c * c for c in data.c0)))
        with mp.workdps(120):
            h, d, eps = mp.mpf(300), mp.mpf(801), mp.mpf(10) ** -60
            for kappa in (1, 300, 801):
                s = kappa + eps
                t = (mp.gamma(s - h) * mp.gamma(s + h + 1) / (mp.gamma(s + 1) * mp.gamma(s))
                     * (s + d) / (s - d))
                rel = max(1e-12, 2.0 * EPS * float(mp.loggamma(kappa + h + 1)))
                assert c2[float(kappa)] == pytest.approx(float(abs(eps * t)), rel=rel)

    def test_non_integer_h_rejected(self):
        with pytest.raises(ValueError):
            scattering_data_from_spec(SystemSpec(1.5, (2,)))


def glm_field_mp(data, x, t):
    """-2 (log det A)'' from the textbook GLM matrix
    A_mn = delta_mn + c_m(t) c_n(t) e^(-(kappa_m+kappa_n) x)/(kappa_m+kappa_n), in mpmath."""
    kap = [mp.mpf(k) for k in data.kappas]
    c = [mp.mpf(c0) * mp.exp(4 * k**3 * t) for c0, k in zip(data.c0, kap)]

    def log_det(y):
        return mp.log(mp.det(mp.matrix([
            [(m == n) + c[m] * c[n] * mp.exp(-(kap[m] + kap[n]) * y) / (kap[m] + kap[n])
             for n in range(data.n)] for m in range(data.n)
        ])))

    return -2 * mp.diff(log_det, mp.mpf(x), 2)


def tau_sums_mp(data, x, t, nx, nt, alpha=None):
    """[d^k tau/dx^k for k < nx] and [d/dt d^k tau/dx^k for k < nt] in mpmath,
    from the float constants of the grouped tau expansion taken exactly, term
    by term (the sums do not depend on the term order); alpha replaces the
    expansion's own alpha, in its grouped order, when given."""
    own_alpha, beta, _, group, gam = BUILD_TAU(data.kappas, data.c0)
    alpha = own_alpha if alpha is None else alpha
    x, t = mp.mpf(x), mp.mpf(t)
    fx, ft = [mp.mpf(0)] * nx, [mp.mpf(0)] * nt
    for a, b, g in zip(alpha.tolist(), beta.tolist(), gam[group].tolist()):
        b, g = mp.mpf(b), mp.mpf(g)
        e = mp.exp(mp.mpf(a) + b * t + g * x)
        for k in range(nx):
            fx[k] += e
            if k < nt:
                ft[k] += b * e
            e *= g
    return fx, ft


def field_mp(data, x, t):
    """u = -2 (f f'' - f'^2) / f^2 from the mpmath tau sums."""
    (f, fx, fxx), _ = tau_sums_mp(data, x, t, 3, 0)
    return -2 * (fxx * f - fx * fx) / (f * f)


def residual_mp(data, x, t, alpha=None):
    """u_t - 6 u u_x + u_xxx from x-derivatives of the quotients f'/f and f_t/f,
    by the Leibniz rule, in the caller's mpmath precision."""

    def quotient_derivs(g, f):
        q = []
        for n in range(len(g)):
            q.append((g[n] - sum(math.comb(n, k) * q[k] * f[n - k] for k in range(n))) / f[0])
        return q

    fx, ft = tau_sums_mp(data, x, t, 6, 3, alpha)
    dlog = quotient_derivs(fx[1:], fx)  # (log f)^(k+1), k = 0..4
    dlog_t = quotient_derivs(ft, fx)    # d^k/dx^k of (log f)_t, k = 0..2
    return -2 * dlog_t[2] - 24 * dlog[1] * dlog[2] - 2 * dlog[4]


class TestGlmMatrix:
    # field_u sums the principal-minor expansion of det A; these check the field against A itself
    def test_reference_determinant(self):
        with mp.workdps(40):
            for x, t in [(-1.0, 0.0), (0.0, 0.0), (0.5, 0.02), (2.0, -0.03)]:
                ref = float(glm_field_mp(TWO_SOLITON, x, t))
                assert field_u(TWO_SOLITON, x, t) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_seven_solitons_off_the_initial_time(self):
        data = scattering_data_from_spec(SystemSpec(6.0, (2,)))
        assert data.n == 7
        with mp.workdps(40):
            for x, t in [(-1.5, 0.01), (-0.3, -0.02), (0.4, 0.015), (1.0, 0.02)]:
                ref = float(glm_field_mp(data, x, t))
                assert field_u(data, x, t) == pytest.approx(ref, rel=1e-12)

    def test_identity_limit(self):
        # A -> I far right, log det A -> tr(A - I) = sum c_n^2 e^(-2 kappa_n x)/(2 kappa_n)
        ref = -4.0 * sum(k * c * c * math.exp(-2.0 * k * 30.0)
                         for k, c in zip(TWO_SOLITON.kappas, TWO_SOLITON.c0))
        assert field_u(TWO_SOLITON, 30.0, 0.0) == pytest.approx(ref, rel=1e-12)

    def test_ggkm_time_scaling(self):
        # the flow only rescales c_n(t) = c_n(0) e^(4 kappa_n^3 t)
        dt = 0.01
        moved = SolitonData(
            TWO_SOLITON.kappas,
            tuple(c * math.exp(4.0 * k**3 * dt) for k, c in zip(TWO_SOLITON.kappas, TWO_SOLITON.c0)),
        )
        xs = np.linspace(-3.0, 3.0, 25)
        np.testing.assert_allclose(field_u(TWO_SOLITON, xs, dt), field_u(moved, xs, 0.0), rtol=1e-12)

    def test_overflow_domain(self):
        # at x = -200 the raw entries e^(2 theta) ~ e^800 overflow; the softmax
        # weights have no overflow or nan on the way and return the vacuum to
        # rounding (|u| reaches 30 at x = 0)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            u = field_u(TWO_SOLITON, -200.0, 0.0)
            arr = field_u(TWO_SOLITON, np.array([-200.0, -100.0]), 0.0)
        assert abs(u) <= 1e-12
        assert np.all(np.abs(arr) <= 1e-12)


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

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seeds", [(), (2,), (4,)])
    def test_reconstructs_up_to_n_max(self, h, seeds):
        # the field at t = 0 is U_D for every N <= N_MAX solitons
        spec = SystemSpec(float(h), seeds)
        data = scattering_data_from_spec(spec)
        assert data.n <= N_MAX
        xs = np.linspace(-10.0, 10.0, 2001)
        ref = deformed_potential(spec)(xs)
        assert np.max(np.abs(field_u(data, xs, 0.0) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("h, seeds", [
        (1, (2, 3)), (2, (2, 3)), (1, (2, 5)), (3, (4, 5)), (2, (2, 3, 4)), (1, (2, 3, 4, 5)),
    ])
    def test_reconstructs_regular_multi_seed_wells(self, h, seeds):
        # seeds alternating in parity give regular wells, and their closed-form data
        # (kappas {1..h} and h+1+v_j) rebuild U_D at t = 0 and solve KdV
        spec = SystemSpec(float(h), seeds)
        data = scattering_data_from_spec(spec)
        assert data.kappas == tuple(sorted([h - n for n in range(h)] + [h + 1 + v for v in seeds]))
        xs = np.linspace(-10.0, 10.0, 2001)
        ref = deformed_potential(spec)(xs)
        assert np.max(np.abs(field_u(data, xs, 0.0) - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert max(kdv_residual(data, x, t) for x in (-1.0, 0.7) for t in (-0.01, 0.01)) <= 1e-9

    @pytest.mark.parametrize("h, seeds", [(1, (2,)), (2, (2,)), (3, (4,)), (5, ()), (6, (2,))])
    def test_reconstructs_the_tails_relatively(self, h, seeds):
        # each value held relative to itself out to |x| = 30, where U_D ~ e^(-60);
        # the worst, 2.9e-13 at h = 6 [2], x = -20.1, is the field's, not U_D's
        spec = SystemSpec(float(h), seeds)
        xs = np.linspace(-30.0, 30.0, 601)
        ref = deformed_potential(spec)(xs)
        got = field_u(scattering_data_from_spec(spec), xs, 0.0)
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", [7, 9, 11, 13, N_MAX])
    def test_reconstructs_many_solitons(self, n):
        # h = N-1 [2]: the Cauchy block of A was Hilbert-like on the x < 0
        # side and cost 2e-8 at N = 7; the sum of positive terms loses nothing
        spec = SystemSpec(float(n - 1), (2,))
        data = scattering_data_from_spec(spec)
        assert data.n == n
        xs = np.linspace(-10.0, 10.0, 2001)
        ref = deformed_potential(spec)(xs)
        assert np.max(np.abs(field_u(data, xs, 0.0) - ref)) <= 1e-12 * np.max(np.abs(ref))

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
        # the float softmax sum vs the same tau expansion in mpmath,
        # including far-field points the raw matrix could never represent
        data = scattering_data_from_spec(SystemSpec(2.0, (2,)))
        points = [(0.3, 0.0), (-1.2, 0.04), (5.0, 1.0), (192.0, 3.0), (-50.0, -2.0)]
        with mp.workdps(40):
            for x, t in points:
                ref = float(field_mp(data, x, t))
                got = field_u(data, x, t)
                assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref))

    def test_scalar_and_array_agree(self):
        xs = np.linspace(-2, 2, 5)
        arr = field_u(TWO_SOLITON, xs, 0.01)
        for x, u in zip(xs, arr):
            assert field_u(TWO_SOLITON, float(x), 0.01) == pytest.approx(u, rel=1e-14)

    def test_blocked_equals_scalar_path(self):
        # 5,000 points span several blocks; every sum over the groups runs in
        # an order that the column count does not change, so blocking must
        # not change a single bit
        data = scattering_data_from_spec(SystemSpec(6.0, (2,)))
        xs = np.linspace(-30.0, 30.0, 5000)
        whole = field_u(data, xs, 0.01)
        scalar = np.array([field_u(data, float(x), 0.01) for x in xs])
        halves = np.concatenate([field_u(data, xs[:2500], 0.01), field_u(data, xs[2500:], 0.01)])
        assert np.array_equal(whole, scalar)
        assert np.array_equal(whole, halves)
        assert type(field_u(data, 0.5, 0.01)) is float

    def test_array_keeps_its_shape(self):
        # as U_D and BoundState.wavefunction do
        xs = np.linspace(-3.0, 3.0, 6)
        grid = field_u(TWO_SOLITON, xs.reshape(2, 3), 0.01)
        assert grid.shape == (2, 3)
        assert np.array_equal(grid, field_u(TWO_SOLITON, xs, 0.01).reshape(2, 3))
        assert field_u(TWO_SOLITON, xs[:1], 0.01).shape == (1,)

    @pytest.mark.parametrize("x, t, bad", [
        ([0.0, np.inf], 0.0, "x"), ([np.nan, 1.0], 0.0, "x"), (-np.inf, 0.0, "x"),
        (np.linspace(-1.0, 1.0, 5), np.nan, "t"), (0.5, -np.inf, "t"),
    ])
    def test_non_finite_point_raises(self, x, t, bad):
        # an infinite x gave a nan u, and a nan t a field of nan
        with pytest.raises(ValueError, match=f"^{bad} must be finite"):
            field_u(TWO_SOLITON, x, t)


class TestPrecisionDomain:
    # |4 kappa^3 t| + kappa |x| <= THETA_PRECISION_LIMIT = 1e12 for the largest kappa,
    # 4 here, so 4 kappa^3 = 256 and the bound is t = 3.90625e9 at x = 0, x = 2.5e11 at t = 0
    INSIDE = [(0.0, 3.906e9), (2.49e11, 0.0), (-1.85e11, -1e9)]
    OUTSIDE = [(0.0, 3.907e9), (2.51e11, 0.0), (-1.87e11, -1e9), (6.4e12, 1e11)]

    @pytest.mark.parametrize("x, t", INSIDE)
    def test_inside_the_bound(self, x, t):
        assert math.isfinite(field_u(TWO_SOLITON, x, t))
        assert np.all(np.isfinite(field_u(TWO_SOLITON, [0.0, x], t)))
        assert math.isfinite(kdv_residual(TWO_SOLITON, x, t))

    @pytest.mark.parametrize("x, t", OUTSIDE)
    def test_outside_the_bound_raises(self, x, t):
        # at t = 1e11 field_u about the kappa = 4 centre 6.4e12 was off by up to 0.037
        # against a 60-digit tau, with no error
        for call in (
            lambda: field_u(TWO_SOLITON, x, t),
            lambda: field_u(TWO_SOLITON, [0.0, 1.0, x, 2.0], t),  # one point past the bound
            lambda: field_u(TWO_SOLITON, x + np.linspace(-2.0, 2.0, 41), t),
            lambda: kdv_residual(TWO_SOLITON, x, t),
        ):
            with pytest.raises(OverflowDomainError, match="numeric stability domain"):
                call()

    def test_empty_array_inside(self):
        assert field_u(TWO_SOLITON, np.empty(0), 0.0).shape == (0,)


class TestSubnormalWeights:
    # np.exp takes about 200 times as long for a subnormal result as for a normal one
    DATA = SolitonData(tuple(float(k) for k in range(1, 8)), (1.0,) * 7)
    XS = np.linspace(-40.0, 40.0, 4001)  # the conserved-quantity window of DATA at t = 0

    @staticmethod
    def count_subnormal_exp(monkeypatch) -> list:
        counts = []
        exp = np.exp

        def counted(*args, **kwargs):
            out = exp(*args, **kwargs)
            size = np.abs(out)
            counts.append(int(np.count_nonzero((size > 0.0) & (size < sys.float_info.min))))
            return out

        monkeypatch.setattr(np, "exp", counted)
        return counts

    def test_no_subnormal_exponentials(self, monkeypatch):
        counts = self.count_subnormal_exp(monkeypatch)
        field_u(self.DATA, self.XS, 0.01)
        kdv_residual(TWO_SOLITON, 360.0, 0.0)  # e^(-2 x) of the kappa = 1 term is subnormal
        assert counts and not any(counts)

    def test_field_unchanged_where_it_is_not_tiny(self, monkeypatch):
        # the weights cut to 0 are below 2.2e-308, and no sum changes unless u itself is
        # that small: on 360,120 points of random data u differed only below 3.4e-293
        cut = field_u(self.DATA, self.XS, 0.01)
        monkeypatch.setattr(kdv_module, "_LOG_MIN", -np.inf)  # every weight kept
        full = field_u(self.DATA, self.XS, 0.01)
        big = np.abs(full) >= 1e-280
        assert big.sum() > 3000
        assert np.array_equal(cut[big], full[big])
        assert np.all(np.abs(cut[~big]) <= 1e-280)


class TestSolitonLimit:
    DATA = SolitonData(tuple(float(k) for k in range(1, SOLITON_LIMIT + 2)),
                       (1.0,) * (SOLITON_LIMIT + 1))

    @pytest.mark.parametrize("call", [
        lambda d: field_u(d, np.linspace(-1.0, 1.0, 5), 0.0),
        lambda d: kdv_residual(d, 0.0, 0.0),
    ], ids=["field_u", "kdv_residual"])
    def test_refused_before_allocating(self, call):
        # the count is refused before the 2^21-term expansion, 16 MB per
        # array, is built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"limit of {SOLITON_LIMIT}"):
                call(self.DATA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_at_the_limit(self):
        # h = 19 [2] has SOLITON_LIMIT solitons, 2^20 subsets in 213 groups
        spec = SystemSpec(float(SOLITON_LIMIT - 1), (2,))
        data = scattering_data_from_spec(spec)
        assert data.n == SOLITON_LIMIT
        xs = np.linspace(-4.0, 4.0, 41)
        ref = deformed_potential(spec)(xs)
        assert np.max(np.abs(field_u(data, xs, 0.0) - ref)) <= 1e-12 * np.max(np.abs(ref))


def wronskian_in_q(w, power):
    """Coefficients in q of (1+q)^power W~((1-q)/(1+q)), exact from W~'s float coefficients w."""
    out = [Fraction(0)] * (power + 1)
    for k, c in enumerate(w):  # c u^k becomes c (1-q)^k (1+q)^(power-k)
        for i in range(k + 1):
            for j in range(power - k + 1):
                out[i + j] += Fraction(c) * (-1) ** i * math.comb(k, i) * math.comb(power - k, j)
    return np.array([float(c) for c in out])


class TestTauIsTheWronskian:
    # In q = e^(-2x), the grouped tau expansion sum_m W_m q^m, built from the
    # closed-form kappa and c alone, is (1+q)^(p+d) W~((1-q)/(1+q)) up to a
    # constant: the Crum factorisation of tau into cosh^(h(h+1)/2) of the base
    # well and the seed Wronskian prod_j cosh^gamma_j W~(tanh x), with
    # p = h(h+1)/2 + M(h+1) and d = deg W~.  One identity checks every kappa,
    # every c and U_D, with no grid.
    @pytest.mark.parametrize("h, seeds", [
        (1, (2,)), (2, (2,)), (3, (4,)), (5, (8,)), (2, ()), (6, (2,)), (1, (4,)), (4, (2,)),
    ])
    def test_grouped_coefficients(self, h, seeds):
        spec = SystemSpec(float(h), seeds)
        data = scattering_data_from_spec(spec)
        alpha, _, starts, _, gam = BUILD_TAU(data.kappas, data.c0)
        tau = np.add.reduceat(np.exp(alpha), starts)  # W_m at t = 0, one per group
        powers = np.rint(-gam / 2.0).astype(int)
        assert np.array_equal(gam, -2.0 * powers)
        w = deformed_potential(spec)._w
        p = h * (h + 1) // 2 + len(seeds) * (h + 1)
        ref = wronskian_in_q(w, p + len(w) - 1)
        assert powers.max() == len(ref) - 1  # the degree, sum kappa, is p + d
        got = np.zeros(len(ref))
        got[powers] = tau
        top = np.argmax(got)
        scaled = ref * (got[top] / ref[top])
        assert np.max(np.abs(got - scaled)) <= 1e-13 * got[top]


class TestTauCache:
    def test_holds_at_most_the_cap(self):
        # one expansion at N = SOLITON_LIMIT holds 21 to 34 MB
        for n in range(1, TAU_CACHE_SIZE + 4):
            field_u(SolitonData(tuple(float(k) for k in range(1, n + 1)), (1.0,) * n), 0.0, 0.0)
        info = kdv_module._tau_groups.cache_info()
        assert info.maxsize == TAU_CACHE_SIZE == 4
        assert info.currsize == TAU_CACHE_SIZE

    @pytest.mark.parametrize("data", [
        scattering_data_from_spec(SystemSpec(6.0, (2,))),
        SolitonData((0.5, math.sqrt(2.0), math.sqrt(3.0)), (1.0, 2.0, 0.5)),
    ], ids=["integer", "general"])
    def test_int32_indices_change_no_value(self, data, monkeypatch):
        alpha, beta, starts, group, gam = kdv_module._tau_groups(data.kappas, data.c0)
        assert starts.dtype == group.dtype == np.int32
        xs = np.linspace(-3.0, 3.0, 61)
        u = field_u(data, xs, 0.1)
        res = [kdv_residual(data, x, 0.1) for x in (-1.0, 0.3)]
        wide = (alpha, beta, starts.astype(np.int64), group.astype(np.int64), gam)
        monkeypatch.setattr(kdv_module, "_tau_groups", lambda kappas, c0: wide)
        assert np.array_equal(field_u(data, xs, 0.1), u)
        assert [kdv_residual(data, x, 0.1) for x in (-1.0, 0.3)] == res


class TestKdvResidual:
    def test_one_soliton(self):
        assert kdv_residual(ONE_SOLITON, 0.3, 0.2) <= 1e-6

    @pytest.mark.parametrize("x, t, bad", [
        (np.inf, 0.0, "x"), (np.nan, 0.1, "x"), (0.5, np.nan, "t"), (0.5, np.inf, "t"),
    ])
    def test_non_finite_point_raises(self, x, t, bad):
        # these gave a nan residual
        with pytest.raises(ValueError, match=f"^{bad} must be finite"):
            kdv_residual(TWO_SOLITON, x, t)

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

    @staticmethod
    def bend(monkeypatch):
        """Scale the interaction term of TWO_SOLITON's tau expansion by e, past
        the cache of grouped terms; returns the bent alpha, in grouped order."""
        alpha, *rest = BUILD_TAU(TWO_SOLITON.kappas, TWO_SOLITON.c0)
        bent = alpha.copy()
        bent[0] += 1.0  # the full subset: the lone term of lowest gamma
        monkeypatch.setattr(kdv_module, "_tau_groups", lambda kappas, c0: (bent, *rest))
        return bent

    def test_detects_a_non_solution(self, monkeypatch):
        # scaling the interaction term of the tau expansion by e breaks the
        # Cauchy structure: the field is no longer a KdV solution
        assert kdv_residual(TWO_SOLITON, 0.3, 0.0) <= 1e-5
        self.bend(monkeypatch)
        assert kdv_residual(TWO_SOLITON, 0.3, 0.0) > 1.0

    @pytest.mark.parametrize("n", [9, 11, 13, N_MAX])
    def test_many_solitons(self, n):
        # 2^N terms: out of reach of a 40-digit sum at N = 13 (0.5 s a point);
        # the float rounding grows like kappa_max^5 = (n + 2)^5
        data = scattering_data_from_spec(SystemSpec(float(n - 1), (2,)))
        assert data.n == n
        rng = np.random.default_rng(n)
        for x, t in zip(rng.uniform(-2.0, 2.0, 4), rng.uniform(0.0, 0.02, 4)):
            assert kdv_residual(data, x, t) <= 1e-7

    @pytest.mark.parametrize("case", ["c06", "soliton_fields"])
    def test_matches_high_precision_route(self, case):
        # the float cumulants vs the 40-digit Leibniz quotients of the same
        # expansion: on the C06 9x5 grids (the three-soliton one is h=2 [2]),
        # and on the N <= 7 systems h=1 [], h=N-1 [2] at seeded points
        if case == "c06":
            systems = [ONE_SOLITON, TWO_SOLITON, scattering_data_from_spec(SystemSpec(2.0, (2,)))]
            points = [(x, t) for x in np.linspace(-2.0, 2.0, 9) for t in np.linspace(-0.05, 0.05, 5)]
        else:
            specs = [SystemSpec(1.0)] + [SystemSpec(float(n - 1), (2,)) for n in range(2, 8)]
            systems = [scattering_data_from_spec(spec) for spec in specs]
            rng = np.random.default_rng(7)
            points = list(zip(rng.uniform(-2.0, 2.0, 6), rng.uniform(0.0, 0.02, 6)))
        with mp.workdps(40):
            for data in systems:
                for x, t in points:
                    ref = float(abs(residual_mp(data, x, t)))
                    assert abs(kdv_residual(data, x, t) - ref) <= 1e-9

    def test_matches_high_precision_route_off_the_solution(self, monkeypatch):
        # the same comparison where the residual is large: the bent tau of
        # test_detects_a_non_solution, relative to the residual's size
        bent = self.bend(monkeypatch)
        with mp.workdps(40):
            refs = [(x, t, float(abs(residual_mp(TWO_SOLITON, x, t, alpha=bent))))
                    for x, t in [(0.3, 0.0), (0.0, 0.0), (0.6, 0.01), (0.1, -0.01)]]
        for x, t, ref in refs:
            assert ref > 1.0
            assert kdv_residual(TWO_SOLITON, x, t) == pytest.approx(ref, rel=1e-12)


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


@pytest.mark.parametrize("call, bad", [
    (lambda: field_u(TWO_SOLITON, 0.1, np.array([0.0, 1.0])), "t"),
    (lambda: kdv_residual(TWO_SOLITON, np.array([0.1, 0.2]), 0.0), "x"),
    (lambda: kdv_residual(TWO_SOLITON, 0.1, np.array([0.0])), "t"),
    (lambda: conserved_quantities(TWO_SOLITON, np.array([0.0])), "t"),
], ids=["field_u", "kdv_residual-x", "kdv_residual-t", "conserved_quantities"])
def test_array_where_a_scalar_is_due_raises(call, bad):
    # numpy's "truth value ... is ambiguous" or "only 0-dimensional arrays" came
    # out, and a one-element t passed silently
    with pytest.raises(ValueError, match=f"^{bad} must be a scalar"):
        call()


class TestConservedQuantities:
    def test_one_soliton(self):
        mass, momentum = conserved_quantities(ONE_SOLITON, 0.0)
        assert mass == pytest.approx(-4.0, abs=1e-10)
        assert momentum == pytest.approx(16.0 / 3.0, abs=1e-10)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_raises(self, t):
        # a nan t raised "cannot convert float NaN to integer" from the grid size
        with pytest.raises(ValueError, match="^t must be finite"):
            conserved_quantities(TWO_SOLITON, t)

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

    @pytest.mark.parametrize("h", [3.0, 4.0, 6.0])
    def test_many_solitons_no_warning(self, h):
        data = scattering_data_from_spec(SystemSpec(h, (2,)))
        assert data.n == int(h) + 1
        mass_ref = -4.0 * sum(data.kappas)
        momentum_ref = 16.0 / 3.0 * sum(k**3 for k in data.kappas)
        for t in (0.0, 0.02):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mass, momentum = conserved_quantities(data, t)
            assert mass == pytest.approx(mass_ref, rel=1e-10)
            assert momentum == pytest.approx(momentum_ref, rel=1e-10)

    def test_time_independence(self):
        m0, p0 = conserved_quantities(TWO_SOLITON, 0.0)
        m1, p1 = conserved_quantities(TWO_SOLITON, 0.05)
        assert abs(m1 - m0) <= 1e-9
        assert abs(p1 - p0) <= 1e-8

    @pytest.mark.parametrize("t", [-1e3, 1e3])
    def test_large_time_keeps_the_grid_small(self, t, monkeypatch):
        # windows about 0 and about each soliton centre 4 kappa^2 t: one window
        # spanning the centres took 1.7M field points at |t| = 1e3
        sizes = []

        def counted(data, x, t):
            sizes.append(np.size(x))
            return field_u(data, x, t)

        monkeypatch.setattr(kdv_module, "field_u", counted)
        mass, momentum = conserved_quantities(TWO_SOLITON, t)
        assert sum(sizes) <= 10_000
        # the C11 tolerance
        assert abs(mass - (-20.0)) <= 1e-8
        assert abs(momentum - 16.0 / 3.0 * 65.0) <= 1e-8

    def test_outside_the_precision_domain(self, monkeypatch):
        # at t = 1e10, 4 kappa^3 t = 2.6e12 for kappa = 4: the field is noise,
        # and one window spanning the centres would need 15.5 TiB
        def never(data, x, t):
            pytest.fail("the field was evaluated outside its precision domain")

        monkeypatch.setattr(kdv_module, "field_u", never)
        with pytest.raises(OverflowDomainError):
            conserved_quantities(TWO_SOLITON, 1e10)
