"""Special-function substrate: Pochhammer symbols, the Gauss hypergeometric
series (including the truncated series used when the lower parameter is a
non-positive integer), the radial solutions F_k and G_k of the hyperbolic
Laplacian on the ball, Gegenbauer polynomials, and the Wronskian-type
identity that ties F_k and G_k together."""

import math
from dataclasses import dataclass

import numpy as np

# tolerance used for the non-terminating series behind F_k/G_k
_SERIES_TOL = 1e-15

# branch cache for the k=0 second solution in even dimensions, keyed by n
_G0_BRANCH = {}


@dataclass(frozen=True)
class Dimension:
    """Space dimension n of the ball model, n >= 3."""

    n: int

    def __post_init__(self):
        if self.n != int(self.n) or int(self.n) < 3:
            raise ValueError("dimension must be an integer >= 3")
        object.__setattr__(self, "n", int(self.n))

    @property
    def rho(self):
        # exactly (n-2)/2; a half-integer for odd n
        return (self.n - 2) / 2

    @property
    def is_even(self):
        return self.n % 2 == 0


@dataclass(frozen=True)
class HypParams:
    """Parameters (alpha, beta; gamma; z) of the hypergeometric series.

    When gamma is a non-positive integer -m the series only makes sense in
    the truncated form F(-l, beta; -m; z), which requires alpha to be a
    non-positive integer -l with l <= m; anything else is rejected.
    """

    alpha: float
    beta: float
    gamma: float
    z: float

    def __post_init__(self):
        if not abs(self.z) < 1:
            raise ValueError("hypergeometric argument must satisfy |z| < 1")
        if _nonpos_int(self.gamma):
            m = int(round(-self.gamma))
            if not (_nonpos_int(self.alpha) and -self.alpha <= m):
                raise ValueError(
                    "gamma is a non-positive integer; need alpha a "
                    "non-positive integer -l with l <= -gamma"
                )


def _nonpos_int(x):
    return (x <= 0) & (x == np.round(x))


def pochhammer(a, i):
    """Rising factorial (a)_i = a (a+1) ... (a+i-1) as a direct product.

    The product form is exact at non-positive integer bases, where the
    gamma-function quotient would hit poles.
    """
    if i < 0 or i != int(i):
        raise ValueError("pochhammer index must be a non-negative integer")
    out = 1.0
    for j in range(int(i)):
        out *= a + j
    return out


def _series_stop(alpha, beta, gamma):
    """Truncation index for the hypergeometric series, elementwise over
    parameter arrays; -1 where the series does not terminate."""
    na, nb = _nonpos_int(alpha), _nonpos_int(beta)
    if np.any(_nonpos_int(gamma) & ~(na & (alpha >= gamma))):
        # the truncated definition needs alpha = -l with l <= -gamma
        raise ValueError("non-positive integer gamma outside the truncated case")
    return np.rint(np.where(na, -alpha, np.where(nb, -beta, -1))).astype(int)


def _hyp_series(alpha, beta, gamma, z, tol):
    """Forward hypergeometric sum; returns (value, d/dz value).

    Terminating cases are summed exactly. Otherwise terms are added until
    the current term plus a geometric tail bound (the term ratio approaches
    z) drops below tol.
    """
    stop = int(_series_stop(alpha, beta, gamma))
    total = 1.0
    dtotal = 0.0
    term = 1.0
    i = 0
    while True:
        if 0 <= stop <= i:
            break
        denom = (gamma + i) * (1 + i)
        term = term * (alpha + i) * (beta + i) * z / denom
        i += 1
        total += term
        if z != 0.0:
            dtotal += i * term / z
        else:
            if i == 1:
                dtotal += alpha * beta / gamma
        if stop < 0:
            ratio = abs((alpha + i) * (beta + i) * z / ((gamma + i) * (1 + i)))
            q = max(abs(z), ratio)
            if q < 1 and abs(term) * (1 + q / (1 - q)) < tol:
                break
            if i > 100000:
                raise RuntimeError("hypergeometric series did not converge")
    return total, dtotal


def _hyp_sweep(alpha, beta, gamma, z, tol):
    """Value of _hyp_series for 1-d parameter arrays at one z.

    Element j does the float operations of the scalar loop for (alpha[j],
    beta[j], gamma[j]) in the same order, and its value is taken where that
    loop would stop, so the result matches it bit for bit."""
    params = (np.asarray(p, dtype=float) for p in (alpha, beta, gamma))
    a, b, g = np.broadcast_arrays(*params)
    stop = _series_stop(a, b, g)
    out = np.ones(a.shape)
    live = np.arange(a.size)
    term = total = np.ones(a.shape)
    left = a.size
    i = 0
    # elements past their stop run on until the arrays are compacted; their
    # values are unused, so their overflows and divisions by zero are too
    # (a live element overflows to inf silently, as a Python float does)
    with np.errstate(all="ignore"):
        while left:
            ended = stop == i
            if ended.any():
                out[live[ended]] = total[ended]
                left -= np.count_nonzero(ended)
                if 2 * left <= live.size:
                    keep = (stop < 0) | (stop > i)
                    live, a, b, g, stop, term, total = (
                        v[keep] for v in (live, a, b, g, stop, term, total)
                    )
            term = term * (a + i) * (b + i) * z / ((g + i) * (1 + i))
            i += 1
            total = total + term
            # the stop test needs |term| < tol, as its tail factor is >= 1
            if (stop < 0).any() and (np.abs(term) < tol).any():
                ratio = np.abs((a + i) * (b + i) * z / ((g + i) * (1 + i)))
                q = np.maximum(abs(z), ratio)
                done = (stop < 0) & (q < 1) & (np.abs(term) * (1 + q / (1 - q)) < tol)
                stop = np.where(done, i, stop)
            if i > 100000 and (stop < 0).any():
                raise RuntimeError("hypergeometric series did not converge")
    return out


def hyp2f1(p, tol):
    """Gauss hypergeometric function F(alpha, beta; gamma; z) for |z| < 1.

    Parameters
    ----------
    p : HypParams
        Validated parameter set.
    tol : float
        Absolute tolerance for the non-terminating series.

    Returns
    -------
    float
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    value, _ = _hyp_series(p.alpha, p.beta, p.gamma, p.z, tol)
    return value


def _as_order(k):
    """k as a non-negative integer order: an int, or an int array for an array k."""
    ka = np.asarray(k)
    if np.any(ka < 0) or np.any(ka != np.round(ka)):
        raise ValueError("k must be a non-negative integer")
    return ka.astype(int) if ka.ndim else int(ka)


def _f_params(dim, k):
    return k, -dim.rho, k + dim.n / 2


def _f_pair(dim, k, z):
    """(F_k(z), F_k'(z)) via the termwise-differentiated series."""
    return _hyp_series(*_f_params(dim, k), z, _SERIES_TOL)


def F_k(dim, k, z):
    """Bounded radial solution F_k(z) = F(k, -rho; k + n/2; z).

    Terminates after rho+1 terms for even n; for odd n the series is summed
    to tolerance. F_k(0) = 1 for every k. An integer array k gives the
    array of F_k(z), equal bit for bit to the scalar values.
    """
    k = _as_order(k)
    if not 0 <= z < 1:
        raise ValueError("F_k needs z in [0, 1)")
    if np.ndim(k):
        return _hyp_sweep(*_f_params(dim, k), z, _SERIES_TOL)
    value, _ = _f_pair(dim, k, z)
    return value


def _g0_terms(dim, flip_last):
    """Coefficients of the finite part of G_0 for even n, plus the log-term
    amplitude. flip_last negates the i = n-2 coefficient (the alternative
    branch resolved at runtime)."""
    n = dim.n
    rho = int(round(dim.rho))
    coeffs = {}
    for i in range(n - 1):
        if i == rho:
            continue
        c = 2 * rho * math.comb(n - 2, i) * (-1) ** (i + 1) / (2 * (i - rho))
        coeffs[i] = c
    if flip_last:
        coeffs[n - 2] = -coeffs[n - 2]
    logamp = rho * math.comb(n - 2, rho) * (-1) ** (n // 2)
    return coeffs, logamp


def _g0_pair(dim, z, flip_last=None):
    """(G_0(z), G_0'(z)) for even n, with the z^rho log z term."""
    if z <= 0:
        raise ValueError("the k=0 branch with the log term needs z > 0")
    if flip_last is None:
        flip_last = _resolve_g0_branch(dim) == "flipped-tail"
    coeffs, logamp = _g0_terms(dim, flip_last)
    rho = int(round(dim.rho))
    lz = math.log(z)
    val = sum(c * z**i for i, c in coeffs.items()) + logamp * z**rho * lz
    dval = sum(i * c * z ** (i - 1) for i, c in coeffs.items() if i > 0)
    dval += logamp * (rho * z ** (rho - 1) * lz + z ** (rho - 1))
    return val, dval


def _resolve_g0_branch(dim):
    """Select the G_0 branch for even n by checking the k=0 Wronskian
    identity on a small z grid; exactly one candidate satisfies it."""
    n = dim.n
    if n in _G0_BRANCH:
        return _G0_BRANCH[n]
    rho = dim.rho
    best = {}
    for name, flip in (("series", False), ("flipped-tail", True)):
        worst = 0.0
        for z in (0.2, 0.5, 0.8):
            g, dg = _g0_pair(dim, z, flip_last=flip)
            resid = rho * g - z * dg - rho * (1 - z) ** (n - 2)
            worst = max(worst, abs(resid))
        best[name] = worst
    passing = [name for name, w in best.items() if w < 1e-8 * rho]
    if len(passing) != 1:
        raise RuntimeError(f"G_0 branch selection inconclusive: residuals {best}")
    _G0_BRANCH[n] = passing[0]
    return passing[0]


def g0_branch(dim):
    """Name of the runtime-selected G_0 branch for even n ('series' is the
    general finite-sum formula, 'flipped-tail' negates its last term)."""
    if not dim.is_even:
        raise ValueError("the special k=0 branch only exists for even n")
    return _resolve_g0_branch(dim)


def _g_params(dim, k):
    return -dim.rho, 2 - k - dim.n, 2 - k - dim.n / 2


def _g_pair(dim, k, z):
    """(G_k(z), G_k'(z)); dispatches the even-n k=0 log branch."""
    if k == 0 and dim.is_even:
        return _g0_pair(dim, z)
    return _hyp_series(*_g_params(dim, k), z, _SERIES_TOL)


def G_k(dim, k, z):
    """Second radial solution G_k(z) = F(-rho, 2-k-n; 2-k-n/2; z).

    For even n and k >= 1 the lower parameter is a non-positive integer and
    the truncated series (rho+1 terms) applies; for odd n the series
    terminates through the upper parameter 2-k-n. The k=0, even-n case uses
    the explicit finite sum plus a z^rho log z term, with the branch picked
    at runtime by the Wronskian identity. An integer array k gives the
    array of G_k(z), equal bit for bit to the scalar values.
    """
    k = _as_order(k)
    if not 0 < z < 1:
        raise ValueError("G_k needs z in (0, 1)")
    if np.ndim(k) == 0:
        value, _ = _g_pair(dim, k, z)
        return value
    log = (k == 0) & dim.is_even
    out = np.empty(k.shape)
    out[~log] = _hyp_sweep(*_g_params(dim, k[~log]), z, _SERIES_TOL)
    if log.any():
        out[log] = _g0_pair(dim, z)[0]
    return out


def gegenbauer(v, k, x):
    """Gegenbauer polynomial C_k^(v)(x) by the three-term recurrence.

    The v=0 convention is the Chebyshev limit: C_0^(0) = 1 and
    C_k^(0)(x) = 2 T_k(x)/k for k >= 1.
    """
    if v < 0:
        raise ValueError("needs v >= 0")
    return float(gegenbauer_sequence(v, _as_order(k), x)[-1])


def gegenbauer_sequence(v, kmax, x):
    """All of C_0^(v)(x) .. C_kmax^(v)(x) in one sweep.

    x may be a scalar or an array; the result has shape (kmax+1,) + x.shape.
    A scalar x runs the recurrence on Python floats.
    """
    x = float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)
    out = np.empty((kmax + 1,) + np.shape(x))
    out[0] = 1.0
    if kmax < 1:
        return out
    if v == 0:
        # 2 T_k / k with T_k by its own recurrence
        t_prev, t = 1.0, x
        out[1] = 2.0 * t
        for k in range(2, kmax + 1):
            t_prev, t = t, 2 * x * t - t_prev
            out[k] = 2.0 * t / k
        return out
    c_prev, c = 1.0, 2 * v * x
    out[1] = c
    for k in range(2, kmax + 1):
        c_prev, c = c, (2 * x * (k + v - 1) * c - (k + 2 * v - 2) * c_prev) / k
        out[k] = c
    return out


def gegenbauer_at_one(v, k):
    """C_k^(v)(1) = (2v)_k / k!, accumulated as a product of ratios so large
    k stays in range."""
    if v <= 0:
        raise ValueError("needs v > 0")
    if k < 0 or k != int(k):
        raise ValueError("k must be a non-negative integer")
    out = 1.0
    for j in range(1, int(k) + 1):
        out *= (2 * v + j - 1) / j
    return out


def wronskian_residual(dim, k, z):
    """Residual of the cross-solution identity

        (k+rho) F_k G_k + z F_k' G_k - z F_k G_k' = (k+rho)(1-z)^(n-2),

    evaluated with termwise-differentiated series; should vanish to
    roundoff for all admissible (n, k, z)."""
    if not 0 < z < 1:
        raise ValueError("needs z in (0, 1)")
    k = int(k)
    f, df = _f_pair(dim, k, z)
    g, dg = _g_pair(dim, k, z)
    lhs = (k + dim.rho) * f * g + z * df * g - z * f * dg
    return lhs - (k + dim.rho) * (1 - z) ** (dim.n - 2)
