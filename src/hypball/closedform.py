"""Closed-form route to the kernels for even n, served by one source: the
radial polynomial P_z(k) = F_k(z) Gamma(k+n/2+rho)/Gamma(k+n/2), of degree
rho in k. It gives the H-function remainder of the spectral coefficient, its
inverse Laplace weight w(v) over the roots of P_{r^2}, and the integral
representation of the Poisson kernel. That integral rests on F_k(r^2) having
no zero in k with Re k >= -n/2: w decays at minus the rightmost root, which
must exceed n/2. The Green functions (via the Kelvin point y* = r^2 y/|y|^2)
are for n in {4, 6}; the large-k expansion of F_k is probed directly."""

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import ball_rows, sphere_rows
from .specfun import F_k

# |c^2| below which LaplaceWeight.regime reads "critical"; a label only,
# the weight formula itself needs no band
_CRITICAL_BAND = 1e-12


@dataclass(frozen=True)
class QuadratureControl:
    """Policy for the semi-infinite v-integrals. Substitute u = exp(-beta v/6)
    onto (0, 1], with beta the integrand's net decay rate, so the integrand
    in u vanishes like u^5 at u = 0 and the panel touching 0 stays smooth
    enough for the rules. Each panel carries a 10- and a 21-point
    Gauss-Legendre rule; the 21-point sum is its value and the difference
    of the two its error estimate. Each round bisects, for every value
    whose summed estimate is above max(abs_tol, 1e-12 |value|), that
    value's worst panel; a value that would need more than _MAX_PANELS
    panels raises RuntimeError."""

    abs_tol: float = 1e-10

    def __post_init__(self):
        if not 0 < self.abs_tol < math.inf:
            raise ValueError("abs_tol must be positive and finite")


# node values evaluated at once; bounds the panel work arrays
_CHUNK_VALUES = 2**18
_MAX_PANELS = 200  # panels one quadrature may use before it raises


@functools.cache
def _panel_rule():
    """The 31 nodes of 10- and 21-point Gauss-Legendre rules, one weight row each."""
    (x10, w10), (x21, w21) = (np.polynomial.legendre.leggauss(m) for m in (10, 21))
    return np.concatenate([x10, x21]), np.block([[w10, np.zeros(21)], [np.zeros(10), w21]])


def _integrate_decaying(f, beta, ctl):
    """Integrals over (0, infinity) of the columns of f, where f maps nodes v
    of shape (k,) to values of shape (k, m) that decay like exp(-beta v) or
    faster. All columns share one set of panels; see QuadratureControl."""
    scale = 6.0 / beta  # v = -scale log u, dv = -scale du / u
    nodes, weights = _panel_rule()

    def rules(lo, hi):
        """(21-point value, error estimate) per panel and column."""
        half = 0.5 * (hi - lo)
        u = (lo + half)[:, None] + half[:, None] * nodes
        vals = f(-scale * np.log(u.ravel())).reshape(u.shape + (-1,))
        g = weights @ (vals * (scale * half[:, None] / u)[..., None])
        g10, g21 = g[:, 0], g[:, 1]
        return g21, np.abs(g21 - g10)

    lo, hi = np.array([0.0]), np.array([1.0])
    val, err = rules(lo, hi)
    step = max(1, _CHUNK_VALUES // (nodes.size * max(val.shape[1], 1)))  # panels per call
    while True:
        total, est = val.sum(axis=0), err.sum(axis=0)
        unmet = ~(est <= np.maximum(ctl.abs_tol, 1e-12 * np.abs(total)))
        if not unmet.any():
            return total
        worst = np.unique(np.argmax(err[:, unmet], axis=0))
        if lo.size + worst.size > _MAX_PANELS:
            raise RuntimeError(
                f"quadrature error estimate {est[unmet].max():.3e} above "
                f"requested {ctl.abs_tol:.3e} with {lo.size} panels"
            )
        mid = 0.5 * (lo[worst] + hi[worst])
        new_lo = np.concatenate([lo[worst], mid])
        new_hi = np.concatenate([mid, hi[worst]])
        parts = [rules(new_lo[s:s + step], new_hi[s:s + step])
                 for s in range(0, new_lo.size, step)]
        new_val = np.concatenate([p[0] for p in parts])
        new_err = np.concatenate([p[1] for p in parts])
        keep = np.ones(lo.size, dtype=bool)
        keep[worst] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])


@functools.cache
def _radial_terms(n):
    """Integer coefficients of P_z(k) = f_z(k) Gamma(k+n/2+rho) = sum_i (k)_i
    (-rho)_i z^i/i! (k+n/2+i)_(rho-i), even n: row m holds those of z^0..z^rho
    in the coefficient of k^(rho-m). Its roots are exactly the zeros of F_k(z)
    in k (the reciprocal-gamma zeros of f_z drop out)."""
    rho, half = n // 2 - 1, n // 2
    terms = []
    for i in range(rho + 1):
        poly = [(-1) ** i * math.comb(rho, i)]  # highest power of k first
        for a in (*range(i), *range(half + i, half + rho)):  # times (k + a)
            poly = [hi + a * lo for hi, lo in zip(poly + [0], [0] + poly)]
        terms.append(poly)
    return tuple(zip(*terms))


def _radial_polynomial(dim, r2, x2=0.0):
    """(exact, P, D): the coefficients of P_{r^2}, highest power of k first,
    as integers over one power of two and as the nearest floats, and the
    nearest floats to those of the polynomial (P_{|x|^2} - P_{r^2})/(|x|^2 - r^2)."""
    if not dim.is_even:
        raise ValueError("the radial polynomial exists for even n only")
    rho = int(dim.rho)
    (xn, xd), (rn, rd) = x2.as_integer_ratio(), r2.as_integer_ratio()
    den = max(xd, rd)  # both powers of two
    X, R = xn * (den // xd), rn * (den // rd)
    rows = _radial_terms(dim.n)
    # den^rho r^(2i) and den^(rho-1) (x^(2i) - r^(2i))/(x^2 - r^2)
    zs = [R**i * den ** (rho - i) for i in range(rho + 1)]
    hs = [sum(X**j * R ** (i - 1 - j) for j in range(i)) * den ** (rho - i)
          for i in range(rho + 1)]
    exact = [sum(t * z for t, z in zip(row, zs)) for row in rows]
    P = [c / den**rho for c in exact]
    D = [sum(t * h for t, h in zip(row, hs)) / den ** (rho - 1) for row in rows]
    return exact, P, D


def H_function(dim, x2, r2, k):
    """H_{|x|^2, r^2}(k) for even n: the O(1/k) remainder defined by

        (k+rho)/rho f_{x2}(k)/f_{r2}(k)
          = ((1-x2)/(1-r2))^rho ((k+rho)/rho - (n/2)(r2-x2)/((1-r2)(1-x2)))
            + (r2-x2)/(1-r2)^(n-2) H(k),

    solved for H, with f_{x2}/f_{r2} = P_{x2}/P_{r2}. It raises where
    |P_{r2}(k)| is below 1e-8 of its terms' sizes, whose rounding would then
    reach 1e-8 of its value. For n=4 it collapses to
    [2(1+r2)/(1-r2)] / (k + 2/(1-r2)), independent of x2.
    """
    if not 0 <= x2 < r2 < 1:
        raise ValueError("needs 0 <= x2 < r2 < 1")
    rho, n = dim.rho, dim.n
    _, P, D = _radial_polynomial(dim, r2, x2)
    pr = np.polyval(P, k)
    if not abs(pr) > 1e-8 * np.polyval(np.abs(P), abs(k)):
        raise ValueError("k is at (or too near) a zero of f_{r^2}")
    lhs = (k + rho) / rho * (1 + (x2 - r2) * np.polyval(D, k) / pr)
    leading = ((1 - x2) / (1 - r2)) ** rho * (
        (k + rho) / rho - (n / 2) * (r2 - x2) / ((1 - r2) * (1 - x2))
    )
    return float((lhs - leading) * (1 - r2) ** (n - 2) / (r2 - x2))


@dataclass(frozen=True)
class LaplaceWeight:
    """Inverse Laplace transform of (amp1 (k+b) + amp2)/((k+b)^2 - c2), one group
    of poles -b +- c of H(k) and the whole weight w(v) for n in {4, 6}:

        w(v) = exp(-b v) (amp1 cosh(c v) + amp2 sinh(c v)/c),  c = sqrt(c2),

    with c2 real and of either sign: imaginary c gives the cos/sin shape, c = 0
    the limit amp1 + amp2 v, and a lone real pole (n=4) is c2 = amp2 = 0. The
    call evaluates Re[exp((c-b) v) (amp1 (1 + m/2) - amp2 m/(2c))] with m =
    expm1(-2cv), so nothing overflows at large v and a small c does not cancel.
    b exceeds Re c, so w always decays. Calls take a float or an array of v
    (broadcast against array amplitudes)."""

    b: float
    c2: float
    amp1: float
    amp2: float

    @functools.cached_property
    def c(self):
        return cmath.sqrt(self.c2)

    def __call__(self, v):
        c = self.c
        decay = np.exp((c - self.b) * v)
        m = np.expm1(-2 * c * v)  # (1 + exp(-2cv))/2 = 1 + m/2
        cosh = (decay * (1 + m / 2)).real
        # sinh(cv)/c has a removable singularity at c = 0, where it is v
        sinh = (decay * (-m / (2 * c))).real if c else decay.real * v
        return self.amp1 * cosh + self.amp2 * sinh

    @property
    def decay_rate(self):
        """Slowest exponential decay rate of w."""
        return self.b - self.c.real

    @property
    def regime(self):
        """Label of the shape, read by reports only: single-exponential
        (c2 = amp2 = 0), critical (|c2| < _CRITICAL_BAND), cosh-sinh
        (c2 > 0) or oscillatory (c2 < 0)."""
        if self.c2 == 0 and not np.any(self.amp2):
            return "single-exponential"
        if abs(self.c2) < _CRITICAL_BAND:
            return "critical"
        return "cosh-sinh" if self.c2 > 0 else "oscillatory"


class WeightSum(tuple):
    """w(v) as the sum of a tuple of LaplaceWeight groups (one at n = 4, 6),
    decaying at the slowest group's rate; the regime joins them with '+'."""

    def __call__(self, v):
        return sum((g(v) for g in self[1:]), self[0](v))

    decay_rate = property(lambda self: min(g.decay_rate for g in self))
    regime = property(lambda self: "+".join(g.regime for g in self))


def _mod_quadratic(poly, b, e):
    """(u1, u0) with poly(k) = u1 k + u0 modulo k^2 + 2bk + e, poly with its
    highest power first (Horner's rule, reducing k^2 at each step)."""
    u1 = u0 = 0.0
    for coef in poly:
        u1, u0 = u0 - 2 * b * u1, coef - e * u1
    return u1, u0


@functools.lru_cache(maxsize=64)
def laplace_weight(dim, x2, r2):
    """w_{|x|^2, r^2}(v) = sum_j R_j exp(p_j v) for even n, p_j the roots of
    P_{r2} and R_j = (p_j+rho)/rho P_{x2}(p_j)/P_{r2}'(p_j) (1-r^2)^(n-2)/(r^2-x^2)
    the residues of H (transforming back gives H, a tested identity). The
    roots form conjugate pairs, real pairs of neighbours and at most one lone
    real pole, one LaplaceWeight each, in one WeightSum: n=4 has its lone pole,
    n=6 its pair, larger n more. A pair -b +- c takes c2 = -P_{r2}(-b)/(a_rho
    prod_others (-b - p)) with P_{r2}(-b) exact (its roundoff reaches w through
    v^2 c2 near a double root) and its amplitudes from the residue numerator
    modulo (k+b)^2 - c2, so nothing is divided by c. Cached and shared per
    (n, |x|^2, r^2): the groups are frozen; a failed build is not cached.
    """
    if not 0 <= x2 < r2 < 1:
        raise ValueError("needs 0 <= x2 < r2 < 1")
    rho = int(dim.rho)
    exact, P, D = _radial_polynomial(dim, r2, x2)
    # the residue numerator, with P_{x2} = (x^2 - r^2) D at a root of P_{r2}
    numer = np.convolve([1.0, rho], D) * (-(1 - r2) ** (2 * rho) / rho)
    roots = np.roots(P).tolist()
    real = sorted(p.real for p in roots if p.imag == 0)
    # an odd count leaves alone the end root farther from its neighbour
    end = 0 if len(real) < 3 or real[1] - real[0] > real[-1] - real[-2] else -1
    lone = [real.pop(end)] if len(real) % 2 else []
    pairs = [[p, p.conjugate()] for p in roots if p.imag > 0]
    pairs += [real[j:j + 2] for j in range(0, len(real), 2)]
    groups = [LaplaceWeight(-p, 0.0, np.polyval(numer, p) / np.polyval(np.polyder(P), p), 0.0)
              for p in lone]
    for pair in pairs:
        others = [p for g in pairs if g is not pair for p in g] + lone
        b = (P[1] / P[0] + sum(others).real) / 2
        bn, bd = (-b).as_integer_ratio()
        vertex = sum(c * bn ** (rho - m) * bd**m for m, c in enumerate(exact))
        c2 = -vertex / (exact[0] * bd**rho) / math.prod(-b - p for p in others).real
        e = b * b - c2
        # numer/Q modulo the pair's quadratic, where Q = P_{r2}/((k+b)^2 - c2)
        # and (g1 k + g0)^-1 = (g0 - 2b g1 - g1 k)/det
        g1, g0 = _mod_quadratic(P[0] * np.atleast_1d(np.poly(others)).real, b, e)
        det = g0 * (g0 - 2 * b * g1) + e * g1 * g1
        a1, a0 = _mod_quadratic(np.convolve(numer, [-g1, g0 - 2 * b * g1]), b, e)
        groups.append(LaplaceWeight(b, c2, a1 / det, (a0 - b * a1) / det))
    return WeightSum(groups)


def poisson_integral(D, x, y, qctl=QuadratureControl()):
    """Poisson kernel via the integral representation

        Gamma(n/2)/(2 pi^(n/2) r (1-r^2)^(n-2)) (r^2-|x|^2)/|x-y|^n
            * int_0^inf w(v) L(x,y,v) / |x e^{-v} - y|^(n-2) dv,

    for even n, with A = |x e^{-v/2} - y e^{v/2}|^2, h = A - |x-y|^2 =
    |x|^2 (e^{-v} - 1) + |y|^2 (e^v - 1) and L = A^rho rho h - |x-y|^2 (A^rho
    - |x-y|^(2 rho)) = h^2 sum_(m<rho) (m+1) A^m |x-y|^(2(rho-1-m)). The
    weight decays fast enough to leave a positive net decay exponent, checked
    before integrating. y is a Point (returns a float) or an (m, n) array of
    boundary points (returns shape (m,), one quadrature for all of them).
    """
    dim = D.dim
    n = dim.n
    rho = int(dim.rho)
    single, ax, _, xy = sphere_rows(D, x, y)
    x2 = ax**2
    r2 = D.r**2
    # the v = 0 value of the quadratic a below, as the integrand expands it
    d2 = x2 + r2 - 2 * xy
    w = laplace_weight(dim, x2, r2)
    if not w.decay_rate > rho + 1:
        raise RuntimeError("integrand does not decay; weight corrupt")
    # with e = e^{-v}, g = e h = (r^2 - |x|^2 e)(1 - e) and a = e A =
    # |x e^{-v} - y|^2, L = e^{(rho+1)v} g^2 sum_(m<rho) (m+1) a^m (e d^2)^(rho-1-m);
    # that growth goes into the weight's rates, so nothing overflows
    w_net = WeightSum(replace(g, b=g.b - rho - 1) for g in w)

    def integrand(v):
        e = np.exp(-v)[:, None]
        g = (r2 - x2 * e) * -np.expm1(-v)[:, None]
        a = x2 * e * e - 2 * e * xy + r2
        # the sum in L by Horner's rule in e d^2, from its leading term
        s = e * d2 + 2 * a if rho > 1 else 1.0
        for m in range(2, rho):
            s = s * (e * d2) + (m + 1) * a**m
        return w_net(v)[:, None] * (g * g * s) / a**rho

    pref = (
        math.gamma(n / 2)
        / (2 * math.pi ** (n / 2) * D.r * (1 - r2) ** (n - 2))
        * (r2 - x2)
        / d2 ** (n / 2)
    )
    out = pref * _integrate_decaying(integrand, w_net.decay_rate, qctl)
    return float(out[0]) if single else out


def _green_args(D, n, x, y):
    """Shared inputs of the closed Green formulas: (single, X, Y, x.y, d^2,
    r^2, K0), with Y, x.y, d^2 and K0 one entry per point y; d^2 = |x-y|^2
    from ball_rows, so 1/d^2 and the log stay accurate as y -> x."""
    if D.dim.n != n:
        raise ValueError(f"needs n = {n}")
    single, ax, nys, xy, d2 = ball_rows(D, x, y)
    r2, x2, y2 = D.r**2, ax**2, nys**2
    k0 = x2 * y2 - 2 * r2 * xy + r2 * r2
    return single, x2, y2, xy, d2, r2, k0


def _kelvin_quadratic(x2, y2, xy, r2, v):
    """|y|^2 |x e^{-v} - y*|^2 with y* = r^2 y / |y|^2, in the symmetric
    form x^2 y^2 e^{-2v} - 2 r^2 e^{-v} (x.y) + r^4 (positive definite):
    one row per node v, one column per point y."""
    emv = np.exp(-v)[:, None]
    return x2 * y2 * emv * emv - 2 * r2 * emv * xy + r2 * r2


def green_closed_n4(D, x, y, qctl=QuadratureControl()):
    """Green function of the ball for n=4:

        (1/(4 pi^2)) [ (1-|x|^2)(1-|y|^2) (1/d^2 - r^2/(|y|^2 D^2))
                       - 4 log(|y| D / (r d))
                       + (r^2-|x|^2)(r^2-|y|^2)
                         int_0^inf w(v) / (|y|^2 |x e^{-v} - y*|^2) dv ]

    with d = |x-y|, D = |x-y*|, y* = r^2 y/|y|^2 and the n=4 weight w.
    The Kelvin combination |y|^2 |x e^{-v} - y*|^2 is evaluated in its
    symmetric quadratic form, so the expression is symmetric in (x, y)
    by construction. y is a Point or an (m, n) array, as in
    poisson_integral.
    """
    single, x2, y2, xy, d2, r2, k0 = _green_args(D, 4, x, y)
    w = laplace_weight(D.dim, 0.0, r2)  # n=4 weight is x-independent
    integral = _integrate_decaying(
        lambda v: w(v)[:, None] / _kelvin_quadratic(x2, y2, xy, r2, v),
        w.decay_rate,
        qctl,
    )
    direct = (1 - x2) * (1 - y2) * (1 / d2 - r2 / k0)
    logterm = -2 * np.log(k0 / (r2 * d2))
    tail = (r2 - x2) * (r2 - y2) * integral
    out = (direct + logterm + tail) / (4 * math.pi**2)
    return float(out[0]) if single else out


def _green6_weight(x2, y2, r2):
    """Amplitudes (f1, f2) of the W-weight in the n=6 Green formula:

        W(v) = f1 e^{-bv} cosh(cv) + f2 e^{-bv} sinh(cv)/(2 (1-r^2) c),

    the one LaplaceWeight group of laplace_weight at this r^2 with amp1 =
    f1 and amp2 = f2/(2 (1-r^2)), so one evaluator serves real, zero and
    imaginary c."""
    f1 = (
        r2 * (1 + r2) / (1 - r2) * (1 - x2) * (1 - y2)
        + 2 * (1 - x2 * y2)
        - 2 * (1 - r2 * r2)
    )
    f2 = (
        -3 * r2 * (1 + r2) ** 2 / (1 - r2) * (1 - x2) * (1 - y2)
        - 2 * (1 - 5 * r2 - 2 * r2 * r2) * (1 - x2 * y2)
        + 2 * (1 - r2) ** 3
    )
    return f1, f2


def green_closed_n6(D, x, y, qctl=QuadratureControl()):
    """Green function of the ball for n=6:

        (1/(4 pi^3)) [ (1-X)^2 (1-Y)^2 (1/d^4 - r^4/K0^2)
                       - 6 (1-X)(1-Y) (1/d^2 - r^2/K0)
                       + 12 log(K0/(r^2 d^2))
                       - 12 (r^2-X)(r^2-Y)/K0
                       + 6 (r^2-X)(r^2-Y) int_0^inf W(v)/K(v)^2 dv ]

    where X = |x|^2, Y = |y|^2, d = |x-y|, K(v) = X Y e^{-2v}
    - 2 r^2 e^{-v} (x.y) + r^4 (the symmetric Kelvin quadratic, K0 = K(0))
    and W shares b and c2 with the Poisson weight. y is a Point or an
    (m, n) array, as in poisson_integral.
    """
    single, x2, y2, xy, d2, r2, k0 = _green_args(D, 6, x, y)
    f1, f2 = _green6_weight(x2, y2, r2)
    W = replace(laplace_weight(D.dim, 0.0, r2)[0], amp1=f1, amp2=f2 / (2 * (1 - r2)))
    integral = _integrate_decaying(
        lambda v: W(v[:, None]) / _kelvin_quadratic(x2, y2, xy, r2, v) ** 2,
        W.decay_rate,
        qctl,
    )
    parts = (
        (1 - x2) ** 2 * (1 - y2) ** 2 * (1 / d2**2 - r2 * r2 / k0**2)
        - 6 * (1 - x2) * (1 - y2) * (1 / d2 - r2 / k0)
        + 12 * np.log(k0 / (r2 * d2))
        - 12 * (r2 - x2) * (r2 - y2) / k0
        + 6 * (r2 - x2) * (r2 - y2) * integral
    )
    out = parts / (4 * math.pi**3)
    return float(out[0]) if single else out


def conjecture1_residual(dim, z, k):
    """k^2 |F_k(z) - (1-z)^rho - (n/2) rho z (1-z)^(rho-1)/(k+n/2)|: the
    scaled residual of the large-k expansion of F_k at a positive integer
    k. Identically zero for n=4 (the expansion is exact there); bounded in
    k for even n."""
    if not 0 < z < 1:
        raise ValueError("needs z in (0, 1)")
    if k <= 0:
        raise ValueError("needs k > 0")
    rho = dim.rho
    n = dim.n
    f = F_k(dim, k, z)
    expansion = (1 - z) ** rho + (n / 2) * rho / (k + n / 2) * z * (1 - z) ** (
        rho - 1
    )
    return k * k * abs(f - expansion)

