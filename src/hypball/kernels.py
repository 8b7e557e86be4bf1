"""Spectral evaluation of the Poisson kernel and Green function of the ball
|x| < r for hyperbolic Brownian motion.

Both kernels are Gegenbauer series in cos(angle) with radial coefficients
built from F_k and G_k; truncation is controlled by an angle-free majorant
(Gegenbauer polynomials evaluated at 1) with an empirically fitted
geometric tail.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import BallDomain, Point, cos_angle, sphere_area, unit_sphere_area
from .specfun import (
    Dimension,
    F_k,
    G_k,
    _as_order,
    gegenbauer_at_one,
    gegenbauer_sequence,
)


class SeriesTruncationError(RuntimeError):
    """Raised when the spectral tail bound cannot be pushed below tol
    within k_max terms; carries the achieved bound."""

    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the spectral sums.

    tol is the target absolute error of the returned kernel value; the
    majorant-based tail bound is pushed below it. min_terms terms are always
    summed before the tail fit is trusted.
    """

    k_max: int = 2000
    tol: float = 1e-10
    min_terms: int = 10

    def __post_init__(self):
        if not (self.k_max >= self.min_terms >= 1):
            raise ValueError("need k_max >= min_terms >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class GegenbauerSpectrum:
    """Gegenbauer transform of an axially symmetric function on a sphere:
    coefficients c_k with C_k(1) c_k = integral of C_k(cos theta) against
    the function times surface measure."""

    dim: Dimension
    coefficients: tuple

    @property
    def kmax(self):
        return len(self.coefficients) - 1


def _green_prefactor(dim):
    # C_n = Gamma(n/2 - 1) / (4 pi^(n/2))
    return math.gamma(dim.n / 2 - 1) / (4 * math.pi ** (dim.n / 2))


def _powers(q, k):
    """q**k by Python float powers (np.power can differ in the last bit)."""
    if np.ndim(k) == 0:
        return q**k
    return np.array([q**j for j in k.tolist()])


@functools.lru_cache(maxsize=256)
def _boundary_block(fn, dim, z, k0, k1):
    values = fn(dim, np.arange(k0, k1), z)
    values.flags.writeable = False  # shared by every caller
    return values


def _at_boundary(fn, dim, k, z):
    """fn(dim, k, z) at the boundary z = r^2. A block of consecutive orders
    is cached: the tables revisit the same blocks at every |x|, |y|."""
    if np.ndim(k) and k.size and np.all(np.diff(k) == 1):
        return _boundary_block(fn, dim, z, int(k[0]), int(k[-1]) + 1)
    return fn(dim, k, z)


def poisson_coefficient(D, k, ax):
    """Gegenbauer coefficient of harmonic measure seen from |x| = ax:

        (ax/r)^k F_k(ax^2) / F_k(r^2).

    Equals the expectation of C_k(cos angle at exit) / C_k(1). An integer
    array k gives the array of coefficients.
    """
    k = _as_order(k)
    if not 0 <= ax < D.r:
        raise ValueError("needs 0 <= ax < r")
    fr = _at_boundary(F_k, D.dim, k, D.r**2)
    if np.any(np.abs(fr) < 1e-14):
        raise RuntimeError("F_k(r^2) vanished; radial solution is corrupt")
    if ax == 0.0:
        return float(k == 0) if np.ndim(k) == 0 else (k == 0).astype(float)
    return _powers(ax / D.r, k) * F_k(D.dim, k, ax**2) / fr


def _fit_tail(majorants, base_ratio):
    """Geometric tail bound from the last few majorant magnitudes: the
    stepwise ratio decreases toward base_ratio, so max(recent) * q/(1-q)
    with q = max(base_ratio, observed) dominates the remainder."""
    recent = majorants[-5:]
    c = max(recent)
    q = base_ratio
    if len(majorants) >= 2 and majorants[-2] > 0:
        q = max(q, majorants[-1] / majorants[-2])
    if q >= 1:
        return math.inf
    return c * q / (1 - q)


def _series_table(dim, coefficient, base, target, ctl):
    """Terms (k+rho)/rho * coefficient(k) up to the first k >= min_terms - 1
    whose fitted tail bound is below target, with that bound (or the last
    bound reached at k_max). The coefficients come in blocks of k, but the
    cut is the one a term-by-term loop makes."""
    if base >= 1:
        # the geometric tail bound can never be met
        return np.empty(0), math.inf
    coeffs = []
    majorants = []
    c_at_1 = 1.0
    bound = math.inf
    k0, size = 0, 64  # each block of orders is twice as long as the last
    while k0 <= ctl.k_max:
        ks = np.arange(k0, min(k0 + size, ctl.k_max + 1))
        block = (ks + dim.rho) / dim.rho * coefficient(ks)
        for k, a in zip(ks.tolist(), block.tolist()):
            if k > 0:
                c_at_1 *= (k + dim.n - 3) / k
            coeffs.append(a)
            majorants.append(abs(a) * c_at_1)
            if k + 1 >= ctl.min_terms:
                bound = _fit_tail(majorants, base)
                if bound < target:
                    return np.array(coeffs), bound
        k0, size = k0 + size, 2 * size
    return np.array(coeffs), bound


@functools.lru_cache(maxsize=256)
def _poisson_table(D, ax, ctl):
    """Coefficients a_k = (k+rho)/rho * poisson_coefficient(k) up to the
    truncation point, cached per (domain, |x|, control)."""
    area = sphere_area(D.dim, D.r)
    coeffs, bound = _series_table(
        D.dim, lambda ks: poisson_coefficient(D, ks, ax), ax / D.r, ctl.tol * area, ctl
    )
    if not bound < ctl.tol * area:
        raise SeriesTruncationError(
            f"poisson series tail bound {bound / area:.3e} exceeds tol "
            f"{ctl.tol:.3e} at k_max={ctl.k_max}",
            bound / area,
        )
    return coeffs


def poisson_kernel(D, x, y, ctl=SeriesControl()):
    """Poisson kernel P_r(x,y): density of the exit law from the ball of
    radius r started at x, with respect to Euclidean surface measure on
    the sphere |y| = r.

    Summed as 1/(omega_{n-1} r^{n-1}) * sum_k (k+rho)/rho *
    poisson_coefficient(k) * C_k^{(rho)}(cos theta).
    """
    r = D.r
    ax = x.norm
    if ax >= r:
        raise ValueError("x must lie inside the ball")
    if abs(y.norm - r) > 1e-12:
        raise ValueError("y must lie on the sphere |y| = r")
    area = sphere_area(D.dim, r)
    if ax == 0.0:
        return 1.0 / area
    ct = cos_angle(x, y)
    a = _poisson_table(D, ax, ctl)
    ck = gegenbauer_sequence(D.dim.rho, len(a) - 1, ct)
    return float(a @ ck) / area


def green_coefficient(D, k, ax, R):
    """Gegenbauer coefficient of the Green function on the sphere |y| = R:

        C_n rho/(k+rho) ax^k F_k(ax^2) R^k
            [ G_k(R^2)/R^(2k+2rho) - G_k(r^2)/r^(2k+2rho) F_k(R^2)/F_k(r^2) ]

    evaluated in the ratio form (ax/R)^k and (ax R/r^2)^k so large k never
    overflows. Symmetric in (ax, R); arguments are ordered internally. An
    integer array k gives the array of coefficients.
    """
    k = _as_order(k)
    r = D.r
    if not (0 <= ax < r and 0 < R < r):
        raise ValueError("needs 0 <= ax < r and 0 < R < r")
    if ax > R:
        ax, R = R, ax
    if ax == 0.0 and np.ndim(k) == 0 and k >= 1:
        return 0.0
    dim = D.dim
    rho = dim.rho
    t = ax / R
    s = ax * R / r**2
    fr = _at_boundary(F_k, dim, k, r**2)
    if np.any(np.abs(fr) < 1e-14):
        raise RuntimeError("F_k(r^2) vanished; radial solution is corrupt")
    bracket = _powers(t, k) * G_k(dim, k, R**2) / R ** (2 * rho) - _powers(
        s, k
    ) * _at_boundary(G_k, dim, k, r**2) * F_k(dim, k, R**2) / (fr * r ** (2 * rho))
    return (
        _green_prefactor(dim) * rho / (k + rho) * F_k(dim, k, ax**2) * bracket
    )


@functools.lru_cache(maxsize=256)
def _green_table(D, ax, ay, ctl):
    """Series terms b_k = (k+rho)/rho * green_coefficient(k, ax, ay) up to
    truncation, with the achieved tail bound. For ax = ay the geometric
    bound degenerates (term ratio 1) and no term is built."""
    base = max(ax / ay, ax * ay / D.r**2)
    return _series_table(
        D.dim, lambda ks: green_coefficient(D, ks, ax, ay), base, ctl.tol, ctl
    )


def green_function(D, x, y, ctl=SeriesControl()):
    """Green function G_D(x,y) of the ball |x| < r, summed as

        sum_k (k+rho)/rho * green_coefficient(k, |x|, |y|) * C_k(cos theta).

    x = 0 (or y = 0) reduces to the k = 0 coefficient alone by rotational
    symmetry. Raises SeriesTruncationError when the tail bound is not met
    within k_max terms, which includes every pair at equal radii
    |x| = |y|, where the geometric bound degenerates.
    """
    ax = x.norm
    ay = y.norm
    r = D.r
    if ax >= r or ay >= r:
        raise ValueError("both points must lie inside the ball")
    if np.array_equal(x.coords, y.coords):
        raise ValueError("green function is singular at x = y")
    if ax == 0.0 or ay == 0.0:
        if ax == 0.0 and ay == 0.0:
            raise ValueError("green function is singular at x = y")
        return green_coefficient(D, 0, min(ax, ay), max(ax, ay))
    if ax > ay:
        x, y = y, x
        ax, ay = ay, ax
    ct = cos_angle(x, y)
    b, bound = _green_table(D, ax, ay, ctl)
    if not bound < ctl.tol:
        raise SeriesTruncationError(
            f"green series tail bound {bound:.3e} exceeds tol "
            f"{ctl.tol:.3e} at k_max={ctl.k_max}",
            bound,
        )
    ck = gegenbauer_sequence(D.dim.rho, len(b) - 1, ct)
    return float(b @ ck)


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
    y_in = Point((D.r - h) * direction)
    g = green_function(D, x, y_in, ctl)
    return g / (h * (1 - D.r**2) ** (D.dim.n - 2))


def spectrum_of(fn, dim, R, K, tol=1e-10):
    """Gegenbauer transform of an axially symmetric function on the sphere
    of radius R, treated as a density against surface measure:

        C_k(1) c_k = omega_{n-2} R^{n-1}
                     * int_0^pi fn(theta) C_k(cos theta) sin^{n-2}(theta) dtheta.

    Applied to a Poisson kernel this returns the poisson_coefficient
    sequence. Gauss-Legendre in theta with node doubling until the
    coefficients stabilize below tol.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    rho = dim.rho
    weight = unit_sphere_area(dim.n - 2) * R ** (dim.n - 1)
    m = max(64, 4 * (K + 1))
    prev = None
    while m <= 65536:
        nodes, w = np.polynomial.legendre.leggauss(m)
        theta = 0.5 * math.pi * (nodes + 1)
        w = 0.5 * math.pi * w
        vals = np.array([fn(t) for t in theta])
        ck = gegenbauer_sequence(rho, K, np.cos(theta))
        integrand = vals * np.sin(theta) ** (dim.n - 2) * w
        raw = ck @ integrand
        cone = np.array([gegenbauer_at_one(rho, k) for k in range(K + 1)])
        coeffs = weight * raw / cone
        if prev is not None and np.max(np.abs(coeffs - prev)) < tol:
            return GegenbauerSpectrum(dim, tuple(coeffs))
        prev = coeffs
        m *= 2
    raise RuntimeError("gegenbauer transform quadrature did not stabilize")


def synthesize(spectrum, R, theta):
    """Evaluate the axially symmetric density with the given transform:
    1/(omega_{n-1} R^{n-1}) sum_k (k+rho)/rho c_k C_k(cos theta)."""
    dim = spectrum.dim
    rho = dim.rho
    c = np.asarray(spectrum.coefficients)
    k = np.arange(len(c))
    ck = gegenbauer_sequence(rho, len(c) - 1, np.cos(theta))
    return float((k + rho) / rho * c @ ck) / sphere_area(dim, R)
