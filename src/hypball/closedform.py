"""Closed-form route to the kernels for n in {4, 6}: the entire function
f_z(k) = F_k(z)/Gamma(k+n/2), the H-function remainder of the spectral
coefficient, its inverse Laplace weight w(v), integral representations of
the Poisson kernel and the Green functions (via the Kelvin point
y* = r^2 y/|y|^2), and numerical probes of the two hypotheses behind the
construction (the large-k expansion of F_k and zero-freeness of F_k in a
complex-k half-plane).
"""

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import as_rows
from .specfun import F_k

# |c^2| below which LaplaceWeight.regime reads "critical"; a label only,
# the weight formula itself needs no band
_CRITICAL_BAND = 1e-12

# boundary nodes of a first winding count, doubled until two windings agree
_WINDING_NODES = 4096


@dataclass(frozen=True)
class QuadratureControl:
    """Policy for the semi-infinite v-integrals. Substitute u = exp(-beta v/6)
    onto (0, 1], with beta the integrand's net decay rate, so the integrand
    in u vanishes like u^5 at u = 0 and the panel touching 0 stays smooth
    enough for the rules. Each panel carries a 10- and a 21-point
    Gauss-Legendre rule; the 21-point sum is its value and the difference
    of the two its error estimate. Each round bisects, for every value
    whose summed estimate is above max(abs_tol, 1e-12 |value|), that
    value's worst panel; a value that would need more than
    max_subdivisions panels raises RuntimeError."""

    abs_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        if not 0 < self.abs_tol < math.inf:
            raise ValueError("abs_tol must be positive and finite")


# node values evaluated at once; bounds the panel work arrays
_CHUNK_VALUES = 2**18


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
    step = max(1, _CHUNK_VALUES // (nodes.size * val.shape[1]))  # panels per call
    while True:
        total, est = val.sum(axis=0), err.sum(axis=0)
        unmet = ~(est <= np.maximum(ctl.abs_tol, 1e-12 * np.abs(total)))
        if not unmet.any():
            return total
        worst = np.unique(np.argmax(err[:, unmet], axis=0))
        if lo.size + worst.size > ctl.max_subdivisions:
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


def _cleared_polynomial(dim, z, k):
    """F_k(z) with its k-denominators cleared: f_z(k) Gamma(k+n/2+rho) =
    sum_i (k)_i (-rho)_i z^i/i! (k+n/2+i)_(rho-i), a polynomial in k of
    degree rho whose roots are exactly the meaningful zeros of F_k(z)
    (the reciprocal-gamma zeros of f_z drop out). Even n only."""
    rho = int(dim.rho)
    half_n = dim.n / 2
    k = np.asarray(k, dtype=complex)
    total = np.zeros_like(k)
    for i in range(rho + 1):
        coef = math.prod((-rho + j) / (j + 1) for j in range(i))
        term = math.prod((k + j for j in range(i)), start=np.ones_like(k)) * (coef * z**i)
        for j in range(i, rho):
            term = term * (k + half_n + j)
        total = total + term
    return total


def f_entire(dim, z, k):
    """f_z(k) = F_k(z)/Gamma(k+n/2) as an entire function of complex k:

        sum_i (k)_i (-rho)_i z^i / (i! Gamma(k + n/2 + i)),

    each reciprocal gamma factor is entire, so no pole is ever divided by.
    For even n the sum terminates at i = rho and equals
    _cleared_polynomial(k) / Gamma(k + n/2 + rho), the finite sum the zero
    counter uses; for odd n the prefactor of each term is carried in log
    space (the pochhammer and factorial factors overflow separately near
    i ~ 170 even though the terms themselves keep shrinking) and the
    series is summed to roundoff.
    """
    from scipy.special import loggamma, rgamma  # slow to import, so only here
    if not 0 <= z < 1:
        raise ValueError("needs z in [0, 1)")
    rho = dim.rho
    half_n = dim.n / 2
    if dim.is_even:
        total = complex(rgamma(k + half_n + rho) * _cleared_polynomial(dim, z, k))
    else:
        kc = complex(k)
        total = complex(rgamma(kc + half_n))
        # compare terms against the largest seen, not against the sum: the
        # sum can be arbitrarily small (near a zero in k, or at large k
        # where every term carries a tiny reciprocal gamma)
        peak = abs(total)
        log_pref = 0j
        i = 0
        while z > 0:
            if kc + i == 0:
                break
            log_pref += (
                cmath.log(kc + i)
                + cmath.log(complex(i - rho))
                + math.log(z)
                - math.log(i + 1)
            )
            i += 1
            if i > 10000:
                raise RuntimeError("f_z series did not converge")
            w = kc + half_n + i
            if w.imag == 0 and w.real <= 0 and w.real.is_integer():
                continue
            term = cmath.exp(log_pref - loggamma(w))
            total += term
            peak = max(peak, abs(term))
            if i > 3 and abs(term) < 1e-17 * peak:
                break
    if isinstance(k, complex):
        return total
    return total.real


def H_function(dim, x2, r2, k):
    """H_{|x|^2, r^2}(k): the O(1/k) remainder defined by

        (k+rho)/rho f_{x2}(k)/f_{r2}(k)
          = ((1-x2)/(1-r2))^rho ((k+rho)/rho - (n/2)(r2-x2)/((1-r2)(1-x2)))
            + (r2-x2)/(1-r2)^(n-2) H(k),

    solved for H. For n=4 this collapses to
    [2(1+r2)/(1-r2)] / (k + 2/(1-r2)), independent of x2.
    """
    if not 0 <= x2 < r2 < 1:
        raise ValueError("needs 0 <= x2 < r2 < 1")
    rho = dim.rho
    n = dim.n
    fr = f_entire(dim, r2, k)
    if abs(fr) < 1e-15:
        raise ValueError("k is at (or too near) a zero of f_{r^2}")
    lhs = (k + rho) / rho * f_entire(dim, x2, k) / fr
    leading = ((1 - x2) / (1 - r2)) ** rho * (
        (k + rho) / rho - (n / 2) * (r2 - x2) / ((1 - r2) * (1 - x2))
    )
    return (lhs - leading) * (1 - r2) ** (n - 2) / (r2 - x2)


@dataclass(frozen=True)
class LaplaceWeight:
    """Inverse Laplace transform w(v) of H(k), one formula for every n and r:

        w(v) = exp(-b v) (amp1 cosh(c v) + amp2 sinh(c v)/c),  c = sqrt(c2),

    with c2 real and of either sign: imaginary c gives the cos/sin shape,
    c = 0 the limit amp1 + amp2 v, and n=4 is c2 = amp2 = 0. The call
    evaluates Re[exp((c-b) v) (amp1 (1 + m/2) - amp2 m/(2c))] with
    m = expm1(-2cv), so nothing overflows at large v and a small c does
    not cancel. b exceeds Re c, so w always decays. Calls take a float or
    an array of v (broadcast against array amplitudes).
    """

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


def laplace_weight(dim, x2, r2):
    """Build w_{|x|^2, r^2} for n in {4, 6}.

    n=4: b = 2/(1-r^2), c2 = 0, amp1 = 2(1+r^2)/(1-r^2), amp2 = 0. n=6:
    b = (7-r^2)/(2(1-r^2)) and c2 = (r^4-14r^2+1)/(2(1-r^2))^2, which
    changes sign as r^2 crosses 7-4 sqrt(3); amplitudes

        amp1 = 3 (1 - r^2 x^2 + 3(r^2 - x^2))
        amp2 = (3/2) (1 + x^2 r^2 + 5(x^2 + r^2))

    fixed by the residues of H at its two poles -b +- c. Laplace-transforming
    back reproduces H(k) (a tested identity).
    """
    if dim.n not in (4, 6):
        raise ValueError("weights are only available for n in {4, 6}")
    if not 0 <= x2 < r2 < 1:
        raise ValueError("needs 0 <= x2 < r2 < 1")
    if dim.n == 4:
        return LaplaceWeight(2 / (1 - r2), 0.0, 2 * (1 + r2) / (1 - r2), 0.0)
    return LaplaceWeight(
        (7 - r2) / (2 * (1 - r2)),
        (r2 * r2 - 14 * r2 + 1) / (2 * (1 - r2)) ** 2,
        3 * (1 - r2 * x2 + 3 * (r2 - x2)),
        1.5 * (1 + x2 * r2 + 5 * (x2 + r2)),
    )


def poisson_integral(D, x, y, qctl=QuadratureControl()):
    """Poisson kernel via the integral representation

        Gamma(n/2)/(2 pi^(n/2) r (1-r^2)^(n-2)) (r^2-|x|^2)/|x-y|^n
            * int_0^inf w(v) L(x,y,v) / |x e^{-v} - y|^(n-2) dv,

    for n in {4, 6}, with A = |x e^{-v/2} - y e^{v/2}|^2, h = A - |x-y|^2
    = |x|^2 (e^{-v} - 1) + |y|^2 (e^v - 1) and L = A^rho rho h -
    |x-y|^2 (A^rho - |x-y|^(2 rho)), which reduces to h^2 for n=4 and to
    h^2 (2A + |x-y|^2) for n=6. The weight decays fast enough to leave a
    positive net decay exponent, checked before integrating. y is a Point
    (returns a float) or an (m, n) array of boundary points (returns shape
    (m,), one quadrature for all of them).
    """
    dim = D.dim
    n = dim.n
    if n not in (4, 6):
        raise ValueError("integral representation only for n in {4, 6}")
    r = D.r
    ax = x.norm
    if not ax < r:
        raise ValueError("x must lie inside the ball")
    ys, single = as_rows(n, x, y)
    if not np.all(np.abs(np.linalg.norm(ys, axis=1) - r) <= 1e-12):
        raise ValueError("y must lie on the sphere |y| = r")
    x2 = ax**2
    r2 = r**2
    xy = ys @ x.coords
    d2 = x2 + r2 - 2 * xy
    w = laplace_weight(dim, x2, r2)
    if not w.decay_rate > dim.rho + 1:
        raise RuntimeError("integrand does not decay; weight corrupt")
    # with e = e^{-v}, g = e h = (r^2 - |x|^2 e)(1 - e) and a = e A =
    # |x e^{-v} - y|^2, L = e^{(rho+1)v} g^2 (1, or 2a + |x-y|^2 e for n=6);
    # that growth goes into the weight's rate, so nothing overflows
    w_net = replace(w, b=w.b - dim.rho - 1)

    def integrand(v):
        e = np.exp(-v)[:, None]
        g = (r2 - x2 * e) * -np.expm1(-v)[:, None]
        a = x2 * e * e - 2 * e * xy + r2
        L = g * g if n == 4 else g * g * (2 * a + d2 * e)
        return w_net(v)[:, None] * L / a ** (n // 2 - 1)

    pref = (
        math.gamma(n / 2)
        / (2 * math.pi ** (n / 2) * r * (1 - r2) ** (n - 2))
        * (r2 - x2)
        / d2 ** (n / 2)
    )
    out = pref * _integrate_decaying(integrand, w_net.decay_rate, qctl)
    return float(out[0]) if single else out


def _green_args(D, n, x, y):
    """Shared inputs of the closed Green formulas: (single, X, Y, x.y, d^2,
    r^2, K0), with Y, x.y, d^2 and K0 one entry per point y."""
    if D.dim.n != n:
        raise ValueError(f"needs n = {n}")
    ys, single = as_rows(n, x, y)
    r2 = D.r**2
    x2 = x.norm**2
    y2 = np.linalg.norm(ys, axis=1) ** 2
    if not (x2 < r2 and np.all(y2 < r2)):
        raise ValueError("both points must lie inside the ball")
    xy = ys @ x.coords
    d2 = x2 + y2 - 2 * xy
    if np.any(d2 == 0.0):
        raise ValueError("green function is singular at x = y")
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

    the LaplaceWeight with the b and c2 of laplace_weight at this r^2 and
    amp1 = f1, amp2 = f2/(2 (1-r^2)), so one evaluator serves real,
    zero and imaginary c."""
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
    W = replace(laplace_weight(D.dim, 0.0, r2), amp1=f1, amp2=f2 / (2 * (1 - r2)))
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


def conjecture2_zero_count(dim, z, rect):
    """Count zeros of F_k(z), as a function of complex k, inside the
    rectangle rect = (re_lo, re_hi, im_lo, im_hi) by the argument
    principle (phase winding along the boundary, node count doubled from
    _WINDING_NODES until the winding number stabilizes near an integer).

    For even n the Gamma-cleared polynomial form is used, so the trivial
    zeros that 1/Gamma factors contribute to f_z are not counted; they are
    not zeros of F_k(z). The zero-freeness hypothesis concerns
    Re k >= -n/2 - eps (probing convention eps = 0.1).
    """
    if not 0 < z < 1:
        raise ValueError("needs z in (0, 1)")
    re_lo, re_hi, im_lo, im_hi = rect
    if not (re_lo < re_hi and im_lo < im_hi):
        raise ValueError("degenerate rectangle")

    def boundary(m):
        per_edge = max(m // 4, 8)
        t = np.arange(per_edge) / per_edge
        bottom = re_lo + (re_hi - re_lo) * t + 1j * im_lo
        right = re_hi + 1j * (im_lo + (im_hi - im_lo) * t)
        top = re_hi - (re_hi - re_lo) * t + 1j * im_hi
        left = re_lo + 1j * (im_hi - (im_hi - im_lo) * t)
        loop = np.concatenate([bottom, right, top, left])
        return np.append(loop, loop[0])

    def values(ks):
        if dim.is_even:
            return _cleared_polynomial(dim, z, ks)
        return np.array([f_entire(dim, z, complex(kk)) for kk in ks])

    m = _WINDING_NODES
    prev = None
    while m <= 2**20:
        vals = values(boundary(m))
        mags = np.abs(vals)
        if mags.min() < 1e-12 * mags.max():
            raise RuntimeError(
                "contour passes too near a zero; perturb the rectangle "
                "edges (e.g. shift by 1e-3)"
            )
        phase = np.unwrap(np.angle(vals))
        winding = (phase[-1] - phase[0]) / (2 * math.pi)
        rounded = round(winding)
        if abs(winding - rounded) < 0.25 and prev == rounded:
            return int(rounded)
        prev = rounded
        m *= 2
    raise RuntimeError("winding number did not stabilize")
