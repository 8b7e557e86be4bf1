"""Spectral evaluation of the Poisson kernel and Green function of the ball
|x| < r for hyperbolic Brownian motion.

The Poisson kernel is a Gegenbauer series in cos(angle) with radial
coefficients built from F_k. The Green function is the whole-space Green
function, closed form through G_0, minus a Gegenbauer series for its Kelvin
image, which converges geometrically for every pair of points. Truncation
is controlled by an angle-free majorant (Gegenbauer polynomials evaluated
at 1) whose tail has a proven geometric bound.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Point, _cosines, as_rows, row_norms, sphere_area
from .specfun import F_k, G_k, _as_order, _block_end, _g0_values, gegenbauer_sequence


class SeriesTruncationError(RuntimeError):
    """Raised when the spectral tail bound cannot be pushed below tol
    within k_max terms; carries the achieved bound."""

    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


# smallest k_max a SeriesControl accepts
_MIN_TERMS = 10


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the spectral sums.

    tol is the target absolute error of the returned kernel value; the
    proven majorant tail bound is pushed below it within k_max terms.
    """

    k_max: int = 2000
    tol: float = 1e-10

    def __post_init__(self):
        if not self.k_max >= _MIN_TERMS:
            raise ValueError(f"need k_max >= {_MIN_TERMS}")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")


def _green_prefactor(dim):
    # C_n = Gamma(n/2 - 1) / (4 pi^(n/2))
    return math.gamma(dim.n / 2 - 1) / (4 * math.pi ** (dim.n / 2))


def _powers(q, k):
    """q**k by Python float powers (np.power can differ in the last bit)."""
    return q**k if np.ndim(k) == 0 else np.array([q**j for j in k.tolist()])


class _Boundary:
    """The boundary values of the ball |x| < r at the orders k0..k1, z = r^2:
    F_k(z), checked once not to vanish, kappa_k = F_k(z)/(1-z)^rho, and
    G_k(z) on first use, as only the Green function reads it. _boundary
    keeps one record per ball and block of orders, as the tables revisit the
    same blocks at every |x|, |y|; a build that raised is not kept."""

    def __init__(self, dim, z, k0, k1):
        self.dim, self.z, self.k0, self.k1 = dim, z, k0, k1
        self.f = F_k(dim, np.arange(k0, k1 + 1), z)
        if np.any(np.abs(self.f) < 1e-14):
            raise RuntimeError("F_k(r^2) vanished; radial solution is corrupt")
        self.kappa = self.f / (1 - z) ** dim.rho

    @functools.cached_property
    def g(self):
        return G_k(self.dim, np.arange(self.k0, self.k1 + 1), self.z)


_boundary = functools.lru_cache(maxsize=256)(_Boundary)


def _at_boundary(D, k):
    """The boundary record of D at the orders min(k)..max(k) of an order k or
    int array k (order 0's for an empty array), and the index of k in it."""
    k1 = int(np.max(k, initial=0))
    k0 = int(np.min(k, initial=k1))
    return _boundary(D.dim, D.r**2, k0, k1), k - k0


@functools.lru_cache(maxsize=64)
def _orders(n, k0, k1):
    """What a table block of the orders k0..k1 needs from n alone: k,
    (k+rho)/rho, C_k(1) = binom(k+n-3, n-3), the mask k >= 1, and per series
    the k-factors of its step-ratio bound q_k = base A B / C, with (A, B, C)
    = (k+1+rho, k+n-2, (k+rho)(k+1)) for the Poisson series (base |x|/r) and
    (k+n-2, k+n-1, (k+1)(k+n/2-1)) for the image series (base |x||y|/r^2)."""
    ks = np.arange(k0, k1 + 1)
    ks.flags.writeable = False  # handed to the coefficient functions
    rho = (n - 2) / 2
    steps = {"poisson": (ks + 1 + rho, ks + n - 2, (ks + rho) * (ks + 1)),
             "green": (ks + n - 2, ks + n - 1, (ks + 1) * (ks + n / 2 - 1))}
    c_at_1 = np.prod([(ks + j) / j for j in range(1, n - 2)], axis=0)
    return ks, (ks + rho) / rho, c_at_1, ks >= 1, steps


def poisson_coefficient(D, k, ax):
    """Gegenbauer coefficient of harmonic measure seen from |x| = ax:

        (ax/r)^k F_k(ax^2) / F_k(r^2).

    Equals the expectation of C_k(cos angle at exit) / C_k(1). An integer
    array k gives the array of coefficients. At ax = 0 it is exactly 1 at
    k = 0 and 0 above, as 0.0**0 = F_k(0) = F_0(r^2) = 1.
    """
    k = _as_order(k)
    if not 0 <= ax < D.r:
        raise ValueError("needs 0 <= ax < r")
    b, i = _at_boundary(D, k)
    value = _powers(ax / D.r, k) * F_k(D.dim, k, ax**2) / b.f[i]
    return float(value) if np.ndim(k) == 0 else value


def _series_table(name, D, coefficient, base, scale, ctl):
    """Terms 0..K-1 of a_k = (k+rho)/rho * coefficient(k), K >= 1 the first
    order whose proven bound on the tail sum_(k >= K) m_k, m_k = |a_k| C_k(1)
    >= |a_k C_k(cos)|, is below ctl.tol * scale. The coefficients come in
    the blocks of orders of _block_end, and each block is cut at once. A
    table computes coefficient(k) and the cut; what depends on n alone comes
    from _orders, kappa_k from the boundary record of the block.

    For j >= k >= 1, m_j <= m_k kappa_k q_k^(j-k) with kappa_k =
    F_k(r^2)/(1-r^2)^rho and q_k the step-ratio bound of series `name` in
    _orders at this base, which decreases in k; so the tail from K is at
    most m_K kappa_K / (1 - q_K) when q_K < 1. Proof: by Euler's integral
    (DLMF 15.6.1) F_k(z) = E[(1 - zT)^rho], T ~ Beta(k, n/2), so (1-z)^rho
    <= F_(k+1)(z) <= F_k(z); G_k(z) = (1-z)^(n-1) E[p_B] / p_(k-1), B ~
    Bin(k-1, 1-z), with p_i = (n/2)_i/(n)_i decreasing, so G_(k+1)/G_k <=
    p_(k-1)/p_k = (n+k-1)/(n/2+k-1); and C_(k+1)(1)/C_k(1) = (k+n-2)/(k+1).
    Raises SeriesTruncationError, with the bound over scale, when k_max is
    reached first."""
    dim, z, target = D.dim, D.r**2, ctl.tol * scale
    blocks, k0 = [], 0
    while k0 <= ctl.k_max:
        k1 = min(_block_end(k0), ctl.k_max)
        ks, weight, c_at_1, after_0, steps = _orders(dim.n, k0, k1)
        block = weight * coefficient(ks)
        a, b, c = steps[name]
        q = base * a * b / c
        with np.errstate(divide="ignore"):
            bound = (np.abs(block) * c_at_1 * _boundary(dim, z, k0, k1).kappa
                     / np.where(q < 1, 1 - q, 0.0))
        met = after_0 & (bound < target)
        if met.any():
            return np.concatenate(blocks + [block[: np.argmax(met)]])
        blocks.append(block)
        k0 = k1 + 1
    raise SeriesTruncationError(
        f"{name} series tail bound {bound[-1] / scale:.3e} exceeds tol "
        f"{ctl.tol:.3e} at k_max={ctl.k_max}",
        bound[-1] / scale,
    )


@functools.lru_cache(maxsize=64)
def _poisson_table(D, ax, ctl):
    """Coefficients a_k = (k+rho)/rho * poisson_coefficient(k) up to the
    truncation point, cached per (domain, |x|, control). Both table caches
    keep 64: a CLI command revisits a few tables, a new |x| none."""
    return _series_table(
        "poisson", D, lambda ks: poisson_coefficient(D, ks, ax), ax / D.r,
        sphere_area(D.dim, D.r), ctl,
    )


def _gegenbauer_sums(rho, a, c):
    """sum_k a_k C_k^(rho)(c) for a cosine c (a float back), or for each of
    an array of cosines (an array back): one recurrence, then one np.vecdot
    that takes the dot of a single cosine per contiguous row, bit for bit."""
    ck = gegenbauer_sequence(rho, len(a) - 1, c)
    if isinstance(c, float):
        return float(a @ ck)
    return np.vecdot(np.ascontiguousarray(ck.T), a)


def poisson_kernel(D, x, y, ctl=SeriesControl()):
    """Poisson kernel P_r(x,y): density of the exit law from the ball of
    radius r started at x, with respect to Euclidean surface measure on
    the sphere |y| = r.

    Summed as 1/(omega_{n-1} r^{n-1}) * sum_k (k+rho)/rho *
    poisson_coefficient(k) * C_k^{(rho)}(cos theta). y is a Point (returns
    a float) or an (m, n) array of points on the sphere (returns shape
    (m,)); all of them share the one table of |x|.
    """
    ys, single = as_rows(D.dim.n, x, y)
    r, ax, nys = D.r, x.norm, row_norms(ys)
    if not ax < r:
        raise ValueError("x must lie inside the ball")
    if not all(abs(ny - r) <= 1e-12 for ny in nys.tolist()):
        raise ValueError("y must lie on the sphere |y| = r")
    area = sphere_area(D.dim, r)
    if ax == 0.0:
        return 1.0 / area if single else np.full(len(ys), 1.0 / area)
    a = _poisson_table(D, ax, ctl)
    return _gegenbauer_sums(D.dim.rho, a, _cosines(x.coords, ax, ys, nys, single)) / area


def _image_coefficient(D, k, ax, ay):
    """Gegenbauer coefficient of the Kelvin image in the Green function,

        C_n rho/(k+rho) F_k(ax^2) F_k(ay^2) s^k G_k(r^2) / (F_k(r^2) r^(2 rho)),

    s = ax ay / r^2 < 1, for an integer k or array of k."""
    dim, rho, r = D.dim, D.dim.rho, D.r
    b, i = _at_boundary(D, k)
    radial = F_k(dim, k, ax**2) * F_k(dim, k, ay**2) * _powers(ax * ay / r**2, k)
    value = (
        _green_prefactor(dim) * rho / (k + rho) * radial
        * b.g[i] / (b.f[i] * r ** (2 * rho))
    )
    return float(value) if np.ndim(k) == 0 else value


def green_coefficient(D, k, ax, R):
    """Gegenbauer coefficient of the Green function on the sphere |y| = R:

        C_n rho/(k+rho) ax^k F_k(ax^2) R^k
            [ G_k(R^2)/R^(2k+2rho) - G_k(r^2)/r^(2k+2rho) F_k(R^2)/F_k(r^2) ]

    evaluated in the ratio form (ax/R)^k and (ax R/r^2)^k so large k never
    overflows; the second half is _image_coefficient. The bracket is the
    same for every second solution G_k + c z^(k+rho) F_k. Symmetric in
    (ax, R); arguments are ordered internally. An integer array k gives the
    array of coefficients.
    """
    k = _as_order(k)
    r, dim, rho = D.r, D.dim, D.dim.rho
    if not (0 <= ax < r and 0 < R < r):
        raise ValueError("needs 0 <= ax < r and 0 < R < r")
    if ax > R:
        ax, R = R, ax
    free = (
        _green_prefactor(dim) * rho / (k + rho) * F_k(dim, k, ax**2)
        * _powers(ax / R, k) * G_k(dim, k, R**2) / R ** (2 * rho)
    )
    return free - _image_coefficient(D, k, ax, R)


@functools.lru_cache(maxsize=64)
def _image_table(D, ax, ay, ctl):
    """Terms (k+rho)/rho * _image_coefficient(k, ax, ay) up to truncation;
    their step ratio bound has base s = ax ay / r^2 < 1 and tends to it."""
    return _series_table(
        "green", D, lambda ks: _image_coefficient(D, ks, ax, ay), ax * ay / D.r**2,
        1.0, ctl,
    )


def green_function(D, x, y, ctl=SeriesControl()):
    """Green function G_D(x,y) of the ball |x| < r: the whole-space Green
    function minus its Kelvin image,

        C_n G_0(z) / z^rho
            - sum_k (k+rho)/rho * _image_coefficient(k, |x|, |y|) * C_k(cos theta),

    z = |x-y|^2 / (1 - 2 x.y + |x|^2 |y|^2) = tanh^2 d(x, y). The image
    series has ratio |x||y|/r^2 < 1 for every pair, |x| = |y| included; a
    tail bound not met within k_max terms raises SeriesTruncationError.
    x = 0 (or y = 0) reduces to the k = 0 coefficient by rotational symmetry.
    y is a Point (returns a float) or an (m, n) array of points (returns
    shape (m,)), with one image table per distinct |y| and one _g0_values
    call that evaluates G_0 for all the rows, each with a Point call's bits.
    """
    ys, single = as_rows(D.dim.n, x, y)
    diffs = x.coords - ys
    # Python floats from here on: float ** is what a Point call takes
    nys = row_norms(ys)
    ax, ays, d2s = x.norm, nys.tolist(), np.vecdot(diffs, diffs).tolist()
    if not (ax < D.r and all(ay < D.r for ay in ays)):
        raise ValueError("both points must lie inside the ball")
    if 0.0 in d2s:
        raise ValueError("green function is singular at x = y")
    dim, rho, pref = D.dim, D.dim.rho, _green_prefactor(D.dim)
    rows_at, values = {}, [None] * len(ays)
    for i, ay in enumerate(ays):
        rows_at.setdefault(ay, []).append(i)
    rows, zs, images = [], [], []  # of the rows off the origin
    for ay, idx in rows_at.items():
        lo, hi = min(ax, ay), max(ax, ay)
        if lo == 0.0:
            g = green_coefficient(D, 0, lo, hi)
            for i in idx:
                values[i] = g
            continue
        b = _image_table(D, lo, hi, ctl)
        at = slice(None) if single else idx
        image = _gegenbauer_sums(rho, b, _cosines(x.coords, ax, ys[at], nys[at], single))
        # 1 - 2 x.y + |x|^2 |y|^2 = (1 - |x|^2)(1 - |y|^2) + |x - y|^2
        q = (1 - ax**2) * (1 - ay**2)
        zs += [d2s[i] / (q + d2s[i]) for i in idx]
        images += [image] if single else image.tolist()
        rows += idx
    for i, z, s, g0 in zip(rows, zs, images, _g0_values(dim, zs)):
        values[i] = pref * g0 / z**rho - s
    return values[0] if single else np.array(values)


def poisson_from_green_derivative(D, x, u, h, ctl=SeriesControl()):
    """Independent Poisson kernel estimate from the one-sided normal
    derivative of the Green function at the boundary:

        P_r(x, r u) ~ G_D(x, (r-h) u) / (h (1-r^2)^(n-2)),

    first-order accurate in h. u is a direction (normalized internally)."""
    direction = u.coords if isinstance(u, Point) else np.asarray(u, dtype=float)
    nu = np.linalg.norm(direction)
    if nu == 0:
        raise ValueError("direction must be nonzero")
    direction = direction / nu
    if not 0 < h < D.r - x.norm:
        raise ValueError("need 0 < h < r - |x|")
    g = green_function(D, x, Point((D.r - h) * direction), ctl)
    return g / (h * (1 - D.r**2) ** (D.dim.n - 2))
