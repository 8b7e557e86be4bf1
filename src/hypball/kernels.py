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


def poisson_coefficient(D, k, ax):
    """Gegenbauer coefficient of harmonic measure seen from |x| = ax:

        (ax/r)^k F_k(ax^2) / F_k(r^2).

    Equals the expectation of C_k(cos angle at exit) / C_k(1).
    """
    if k < 0 or k != int(k):
        raise ValueError("k must be a non-negative integer")
    if not 0 <= ax < D.r:
        raise ValueError("needs 0 <= ax < r")
    k = int(k)
    fr = F_k(D.dim, k, D.r**2)
    if abs(fr) < 1e-14:
        raise RuntimeError("F_k(r^2) vanished; radial solution is corrupt")
    if ax == 0.0:
        return 1.0 if k == 0 else 0.0
    return (ax / D.r) ** k * F_k(D.dim, k, ax**2) / fr


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


@functools.lru_cache(maxsize=256)
def _poisson_table(D, ax, ctl):
    """Coefficients a_k = (k+rho)/rho * poisson_coefficient(k) up to the
    truncation point, cached per (domain, |x|, control)."""
    dim = D.dim
    rho = dim.rho
    area = sphere_area(dim, D.r)
    target = ctl.tol * area
    q = ax / D.r
    coeffs = []
    majorants = []
    c_at_1 = 1.0
    bound = math.inf
    for k in range(ctl.k_max + 1):
        if k > 0:
            c_at_1 *= (k + dim.n - 3) / k
        a = (k + rho) / rho * poisson_coefficient(D, k, ax)
        coeffs.append(a)
        majorants.append(abs(a) * c_at_1)
        if k + 1 >= ctl.min_terms:
            bound = _fit_tail(majorants, q)
            if bound < target:
                break
    if not bound < target:
        raise SeriesTruncationError(
            f"poisson series tail bound {bound / area:.3e} exceeds tol "
            f"{ctl.tol:.3e} at k_max={ctl.k_max}",
            bound / area,
        )
    return np.array(coeffs)


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
    overflows. Symmetric in (ax, R); arguments are ordered internally.
    """
    if k < 0 or k != int(k):
        raise ValueError("k must be a non-negative integer")
    k = int(k)
    r = D.r
    if not (0 <= ax < r and 0 < R < r):
        raise ValueError("needs 0 <= ax < r and 0 < R < r")
    if ax > R:
        ax, R = R, ax
    if ax == 0.0 and k >= 1:
        return 0.0
    dim = D.dim
    rho = dim.rho
    t = ax / R
    s = ax * R / r**2
    fr = F_k(dim, k, r**2)
    if abs(fr) < 1e-14:
        raise RuntimeError("F_k(r^2) vanished; radial solution is corrupt")
    bracket = t**k * G_k(dim, k, R**2) / R ** (2 * rho) - s**k * G_k(
        dim, k, r**2
    ) * F_k(dim, k, R**2) / (fr * r ** (2 * rho))
    return (
        _green_prefactor(dim) * rho / (k + rho) * F_k(dim, k, ax**2) * bracket
    )


@functools.lru_cache(maxsize=256)
def _green_table(D, ax, ay, ctl):
    """Series terms b_k = (k+rho)/rho * green_coefficient(k, ax, ay) up to
    truncation, with the achieved tail bound. For ax = ay the geometric
    bound degenerates (term ratio tends to 1) and is never met."""
    dim = D.dim
    rho = dim.rho
    t = ax / ay
    s = ax * ay / D.r**2
    base = max(t, s)
    coeffs = []
    majorants = []
    c_at_1 = 1.0
    bound = math.inf
    for k in range(ctl.k_max + 1):
        if k > 0:
            c_at_1 *= (k + dim.n - 3) / k
        b = (k + rho) / rho * green_coefficient(D, k, ax, ay)
        coeffs.append(b)
        majorants.append(abs(b) * c_at_1)
        if k + 1 >= ctl.min_terms:
            bound = _fit_tail(majorants, base)
            if bound < ctl.tol:
                break
    return np.array(coeffs), bound


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
