"""High-precision reference values, computed with mpmath from the definitions.

Nothing here imports darbouxkdv: every value is built from the paper's
formulas directly, so a check against it is independent of the code under
test.

- Seeds phi_v(x) = cosh(x)^(h+1+v) P_v^(a,a)(tanh x), a = -(h+1+v), with the
  Jacobi polynomial taken from its explicit binomial sum.
- U_D = -h(h+1)/cosh^2 x - 2 (log |W[seeds]|)'' with an mpmath Wronskian of
  mp.diffs derivatives and mp.diff for the outer second derivative.
- t_D, r_D from the Gamma products times the unimodular seed factors.
- c_n^2 = |Res_{K = i kappa_n} t_D(K)|, taken as the limit eps * t_D(i kappa + eps).
- The GLM field u = -2 (log det A)'' with an mpmath determinant and mp.diff.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp

DPS = 40
WEIGHT_DPS = 120  # the seeds' Jacobi weights, above the precision mp.diff works at


def kappa_set(h: float, seeds) -> list:
    """Decay rates {h - n : n < ceil(h)} and {h + 1 + v}, ascending."""
    return sorted([h - n for n in range(math.ceil(h))] + [h + 1.0 + v for v in seeds])


def jacobi_weights(n: int, alpha, beta) -> list:
    """C(n+alpha, k) C(n+beta, n-k), k = 0..n: the weights of the explicit sum."""
    return [mp.binomial(n + alpha, k) * mp.binomial(n + beta, n - k) for k in range(n + 1)]


def jacobi(n: int, alpha, beta, z, weights=None):
    """P_n^(alpha,beta)(z) = sum_k w_k ((z-1)/2)^(n-k) ((z+1)/2)^k."""
    weights = weights or jacobi_weights(n, alpha, beta)
    a, b = (z - 1) / 2, (z + 1) / 2
    return sum(w * a ** (n - k) * b**k for k, w in enumerate(weights))


@functools.lru_cache(maxsize=256)
def _seed_weights(h: float, v: int) -> tuple:
    with mp.workdps(WEIGHT_DPS):
        gamma = mp.mpf(h) + 1 + v
        return tuple(jacobi_weights(v, -gamma, -gamma))


def seed(h, v: int, x):
    """The pseudo-virtual seed phi_v(x) for real or complex x."""
    gamma = mp.mpf(h) + 1 + v
    return mp.cosh(x) ** gamma * jacobi(v, -gamma, -gamma, mp.tanh(x), _seed_weights(float(h), v))


def wronskian(h, seeds, x):
    """W[phi_v1, ..., phi_vm](x) with derivatives from mp.diffs."""
    m = len(seeds)
    cols = [list(mp.diffs(lambda y, v=v: seed(h, v, y), x, m - 1)) for v in seeds]
    return mp.det(mp.matrix([[cols[j][i] for j in range(m)] for i in range(m)]))


def deformed_potential(h: float, seeds, x: float, dps: int = DPS) -> float:
    """U_D(x) for a real x away from the zeros of the seed Wronskian."""
    with mp.workdps(dps):
        h = mp.mpf(h)
        x = mp.mpf(x)
        base = -h * (h + 1) / mp.cosh(x) ** 2
        if not seeds:
            return float(base)
        d2 = mp.diff(lambda y: mp.log(abs(wronskian(h, seeds, y))), x, 2)
        return float(base - 2 * d2)


def _transmission(h, seeds, K):
    s = -1j * K
    t = mp.gamma(s - h) * mp.gamma(s + h + 1) / (mp.gamma(s + 1) * mp.gamma(s))
    for v in seeds:
        d = h + 1 + v
        t *= (K + 1j * d) / (K - 1j * d)
    return t


def amplitudes(h: float, seeds, K: float, dps: int = DPS):
    """(t_D(K), r_D(K)) at real K > 0 as Python complex numbers.

    r_D carries 1/Gamma(-h), which is exactly zero at integer h.
    """
    with mp.workdps(dps):
        h = mp.mpf(h)
        K = mp.mpf(K)
        t = _transmission(h, seeds, K)
        r = t * mp.gamma(1j * K) * mp.gamma(1 - 1j * K) * mp.rgamma(1 + h) * mp.rgamma(-h)
        r *= (-1) ** len(seeds)
        return complex(t), complex(r)


def norming_constants_sq(h: float, seeds, dps: int = DPS) -> list:
    """[(kappa, c^2)] ascending in kappa, with c^2 = |Res_{K=i kappa} t_D|."""
    out = []
    with mp.workdps(dps):
        eps = mp.mpf(10) ** (-(dps // 2))
        hh = mp.mpf(h)
        # the pole positions in working precision, not rounded to doubles
        kappas = [hh - n for n in range(math.ceil(h))] + [hh + 1 + v for v in seeds]
        for kappa in sorted(kappas):
            res = eps * _transmission(hh, seeds, 1j * kappa + eps)
            out.append((float(kappa), float(abs(res))))
    return out


def norming_constants_sq_integer(h: int, seeds) -> list:
    """Integer-h closed form c_n^2 = 2 k_n prod_{m != n} (k_n + k_m) / |k_n - k_m|."""
    kap = kappa_set(float(h), seeds)
    out = []
    for n, kn in enumerate(kap):
        c2 = mp.mpf(2 * kn)
        for m, km in enumerate(kap):
            if m != n:
                c2 *= mp.mpf(kn + km) / abs(kn - km)
        out.append((kn, float(c2)))
    return out


def glm_field(kappas, c0, x: float, t: float) -> float:
    """u(x, t) = -2 (log det A)'' from an mpmath determinant.

    A_mn = delta_mn + c_m(t) c_n(t) e^(-(k_m + k_n) x) / (k_m + k_n) with
    c_n(t) = c_n e^(4 k_n^3 t).  Working precision is 2N + 40 digits plus the
    digits the large entries cancel in the determinant, about
    2 sum_n max(theta_n, 0) / ln 10 with theta_n = log c_n(t) - k_n x.
    """
    n = len(kappas)
    theta = [math.log(c) + 4 * k**3 * t - k * x for k, c in zip(kappas, c0)]
    cancelled = 2 * sum(max(th, 0.0) for th in theta) / math.log(10)
    with mp.workdps(2 * n + 40 + math.ceil(cancelled)):
        kap = [mp.mpf(k) for k in kappas]
        ct = [mp.mpf(c) * mp.exp(4 * k**3 * mp.mpf(t)) for k, c in zip(kap, c0)]

        def log_det(y):
            a = mp.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    s = kap[i] + kap[j]
                    a[i, j] = (1 if i == j else 0) + ct[i] * ct[j] * mp.exp(-s * y) / s
            return mp.log(mp.det(a))

        return float(-2 * mp.diff(log_det, mp.mpf(x), 2))
