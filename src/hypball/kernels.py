"""Spectral evaluation of the Poisson kernel and Green function of the ball
|x| < r for hyperbolic Brownian motion.

The Poisson kernel is a Gegenbauer series in cos(angle) with radial
coefficients built from F_k. The Green function is the whole-space Green
function, closed form through G_0, minus a Gegenbauer series for its Kelvin
image, which converges geometrically for every pair of points, the center
included. Every coefficient reads F_k(z) and G_k(z) from one cached record
per (n, z, block of orders). Truncation is controlled by an angle-free
majorant (Gegenbauer polynomials evaluated at 1) whose tail has a proven
geometric bound.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Point, _cosines, ball_rows, sphere_area, sphere_rows
from .specfun import F_k, G_k, _as_order, _block_end, _g0_values, gegenbauer_series
from .specfun import gegenbauer_sequence  # noqa: F401 (hypbench/layers.py traces it here)


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
        if not isinstance(self.k_max, (int, np.integer)) or isinstance(self.k_max, bool):
            raise ValueError("k_max must be an int")
        object.__setattr__(self, "k_max", int(self.k_max))
        if not self.k_max >= _MIN_TERMS:
            raise ValueError(f"need k_max >= {_MIN_TERMS}")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")


def _green_prefactor(dim):
    # C_n = Gamma(n/2 - 1) / (4 pi^(n/2))
    return math.gamma(dim.n / 2 - 1) / (4 * math.pi ** (dim.n / 2))


class _Radial:
    """Read-only radial values at z of the orders k0..k1: F_k(z), checked once
    to be positive (F_k(z) >= (1-z)^rho > 0, see _series_table), and G_k(z) on
    first use, which the tables read at z = r^2 and green_coefficient also at
    |y|^2. _records keeps one per (n, z, block of orders) in two caches, so the
    tables of one ball share F_k(r^2) and those of one |x| F_k(|x|^2); a build
    that raised is not kept. These records are the only readers of F_k and
    G_k here, and they ask F_k for a range, its one-block request."""

    def __init__(self, dim, z, k0, k1):
        self.dim, self.z, self.k0, self.k1 = dim, z, k0, k1
        self.f = F_k(dim, range(k0, k1 + 1), z)
        self.f.flags.writeable = False
        if not self.f.min() >= 1e-14:
            raise RuntimeError(f"F_k({z!r}) vanished; radial solution is corrupt")

    @functools.cached_property
    def g(self):
        g = G_k(self.dim, np.arange(self.k0, self.k1 + 1), self.z)
        g.flags.writeable = False
        return g


_radial = functools.lru_cache(maxsize=512)(_Radial)
# the r^2 records apart, so that the many |x|^2 records do not evict them
_ball_radial = functools.lru_cache(maxsize=64)(_Radial)


def _records(D, k0, k1, radii):
    """The k0..k1 records of r^2 (_ball_radial) and of each radius^2 (_radial)."""
    return [_ball_radial(D.dim, D.r**2, k0, k1), *(_radial(D.dim, a**2, k0, k1) for a in radii)]


def _at_orders(D, terms, k, radii):
    """A table's terms(D, ks, *radii, *records) at an order k (a float back) or
    int array k: on the orders ks = min(k)..max(k) (0..0 if empty), taken at k."""
    k1 = int(np.max(k, initial=0))
    k0 = int(np.min(k, initial=k1))
    value = terms(D, np.arange(k0, k1 + 1), *radii, *_records(D, k0, k1, radii))[k - k0]
    return float(value) if np.ndim(k) == 0 else value


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
    return _at_orders(D, _poisson_terms, k, (ax,))


def _poisson_terms(D, ks, ax, b, x):
    """The Poisson coefficients at the orders ks of the records b of r^2 and x
    of ax^2: the one formula of the table blocks and poisson_coefficient."""
    return np.power(ax / D.r, ks) * x.f / b.f


def _series_table(name, D, terms, radii, base, scale, ctl):
    """Terms 0..K-1 of a_k = (k+rho)/rho * c_k, K >= 1 the first
    order whose proven bound on the tail sum_(k >= K) m_k, m_k = |a_k| C_k(1)
    >= |a_k C_k(cos)|, is below ctl.tol * scale, in the blocks of orders ks
    of _block_end, each cut at once: c_k = terms(D, ks, *radii, *records) of
    their _records, and what depends on n alone comes from _orders.

    For j >= k >= 1, m_j <= m_k kappa_k q_k^(j-k) with kappa_k =
    F_k(r^2)/(1-r^2)^rho and q_k the step-ratio bound of series `name` in
    _orders at this base, which decreases in k; so the tail from K is at
    most m_K kappa_K / (1 - q_K) when q_K < 1 (inf where q_K >= 1). Proof:
    by Euler's integral (DLMF 15.6.1) F_k(z) = E[(1 - zT)^rho], T ~ Beta(k,
    n/2), so (1-z)^rho <= F_(k+1)(z) <= F_k(z); G_k(z) = (1-z)^(n-1) E[p_B] /
    p_(k-1), B ~ Bin(k-1, 1-z), with p_i = (n/2)_i/(n)_i decreasing, so
    G_(k+1)/G_k <= p_(k-1)/p_k = (n+k-1)/(n/2+k-1); and C_(k+1)(1)/C_k(1) =
    (k+n-2)/(k+1). Raises SeriesTruncationError, with the bound over scale,
    when k_max is reached first."""
    dim, target, edge = D.dim, ctl.tol * scale, (1 - D.r**2) ** D.dim.rho
    blocks, k0 = [], 0
    while k0 <= ctl.k_max:
        k1 = min(_block_end(k0), ctl.k_max)
        ks, weight, c_at_1, after_0, steps = _orders(dim.n, k0, k1)
        records = _records(D, k0, k1, radii)
        block = weight * terms(D, ks, *radii, *records)
        a, b, c = steps[name]
        q = base * a * b / c
        bound = np.divide(np.abs(block) * c_at_1 * (records[0].f / edge), 1 - q,
                          out=np.full(q.shape, np.inf), where=q < 1)
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
    return _series_table("poisson", D, _poisson_terms, (ax,), ax / D.r,
                         sphere_area(D.dim, D.r), ctl)


def poisson_kernel(D, x, y, ctl=SeriesControl()):
    """Poisson kernel P_r(x,y): density of the exit law from the ball of
    radius r started at x, with respect to Euclidean surface measure on
    the sphere |y| = r.

    Summed as 1/(omega_{n-1} r^{n-1}) * sum_k (k+rho)/rho *
    poisson_coefficient(k) * C_k^{(rho)}(cos theta) by gegenbauer_series.
    y is a Point (a float back) or an (m, n) array of points with |y| = r
    to 1e-12 (shape (m,) back, each row with its Point call's bits); all of
    them share the one table of |x|, which at the center is the one term 1.
    """
    single, ax, nys, xy = sphere_rows(D, x, y)
    a, area = _poisson_table(D, ax, ctl), sphere_area(D.dim, D.r)
    return gegenbauer_series(D.dim.rho, a, _cosines(xy, ax, nys, single)) / area


def _image_terms(D, ks, ax, ay, b, x, y):
    """Gegenbauer coefficients of the Kelvin image in the Green function,

        C_n rho/(k+rho) F_k(ax^2) F_k(ay^2) s^k G_k(r^2) / (F_k(r^2) r^(2 rho)),

    s = ax ay / r^2 < 1, at the orders ks of the records b of r^2, x of ax^2
    and y of ay^2: the one formula of the table blocks and green_coefficient."""
    dim, rho, r = D.dim, D.dim.rho, D.r
    radial = x.f * y.f * np.power(ax * ay / r**2, ks)
    return (_green_prefactor(dim) * rho / (ks + rho) * radial
            * b.g / (b.f * r ** (2 * rho)))


def green_coefficient(D, k, ax, R):
    """Gegenbauer coefficient of the Green function on the sphere |y| = R:

        C_n rho/(k+rho) ax^k F_k(ax^2) R^k
            [ G_k(R^2)/R^(2k+2rho) - G_k(r^2)/r^(2k+2rho) F_k(R^2)/F_k(r^2) ]

    evaluated in the ratio form (ax/R)^k and (ax R/r^2)^k so large k never
    overflows, on the radial records (_green_terms). The bracket is the same
    for every second solution G_k + c z^(k+rho) F_k. Symmetric in (ax, R);
    arguments are ordered internally. An integer array k gives the array of
    coefficients. green_function sums the image half alone.
    """
    k = _as_order(k)
    if not (0 <= ax < D.r and 0 < R < D.r):
        raise ValueError("needs 0 <= ax < r and 0 < R < r")
    return _at_orders(D, _green_terms, k, (min(ax, R), max(ax, R)))


def _green_terms(D, ks, lo, hi, b, x, y):
    """green_coefficient at the orders ks of the records b of r^2, x of lo^2
    and y of hi^2, lo <= hi: the free half, then _image_terms."""
    rho = D.dim.rho
    free = (_green_prefactor(D.dim) * rho / (ks + rho) * x.f
            * np.power(lo / hi, ks) * y.g / hi ** (2 * rho))
    return free - _image_terms(D, ks, lo, hi, b, x, y)


@functools.lru_cache(maxsize=64)
def _image_table(D, ax, ay, ctl):
    """Terms (k+rho)/rho * _image_terms(k, ax, ay) up to truncation;
    their step ratio bound has base s = ax ay / r^2 < 1 and tends to it."""
    return _series_table("green", D, _image_terms, (ax, ay), ax * ay / D.r**2, 1.0, ctl)


def green_function(D, x, y, ctl=SeriesControl()):
    """Green function G_D(x,y) of the ball |x| < r: the whole-space Green
    function minus its Kelvin image,

        C_n G_0(z) / z^rho
            - sum_k (k+rho)/rho * _image_terms(k, |x|, |y|) * C_k(cos theta),

    z = |x-y|^2 / (1 - 2 x.y + |x|^2 |y|^2) = tanh^2 d(x, y). The image
    series has ratio |x||y|/r^2 < 1 for every pair, |x| = |y| included; a
    tail bound not met within k_max terms raises SeriesTruncationError. At
    x = 0 or y = 0 the ratio is 0 and the image table is its k = 0 term.
    y is a Point (returns a float) or an (m, n) array of points (returns
    shape (m,)), with one image table per distinct |y| summed by
    gegenbauer_series and one _g0_values call for G_0 of all the rows, each
    with a Point call's bits.
    """
    single, ax, nys, xy, d2 = ball_rows(D, x, y)
    ays, rho, wx = nys.tolist(), D.dim.rho, 1 - ax**2
    # Python floats for z and z^rho: float ** is what a Point call takes;
    # 1 - 2 x.y + |x|^2 |y|^2 = (1 - |x|^2)(1 - |y|^2) + |x - y|^2
    zs = [d / (wx * (1 - ay**2) + d) for ay, d in zip(ays, d2.tolist())]
    images = np.empty(len(ays))
    for ay in dict.fromkeys(ays):
        at = slice(None) if single else nys == ay
        b = _image_table(D, min(ax, ay), max(ax, ay), ctl)
        images[at] = gegenbauer_series(rho, b, _cosines(xy[at], ax, nys[at], single))
    pref = _green_prefactor(D.dim)
    values = [pref * g0 / z**rho for z, g0 in zip(zs, _g0_values(D.dim, zs))] - images
    return float(values[0]) if single else values


def poisson_from_green_derivative(D, x, u, h, ctl=SeriesControl()):
    """Independent Poisson kernel estimate from the one-sided normal
    derivative of the Green function at the boundary:

        P_r(x, r u) ~ G_D(x, (r-h) u) / (h (1-r^2)^(n-2)),

    first-order accurate in h. u is a direction (normalized internally)."""
    direction = u.coords if isinstance(u, Point) else np.asarray(u, dtype=float)
    nu = math.sqrt(direction.dot(direction))
    if nu == 0:
        raise ValueError("direction must be nonzero")
    direction = direction / nu
    if not 0 < h < D.r - x.norm:
        raise ValueError("need 0 < h < r - |x|")
    g = green_function(D, x, Point((D.r - h) * direction), ctl)
    return g / (h * (1 - D.r**2) ** (D.dim.n - 2))
