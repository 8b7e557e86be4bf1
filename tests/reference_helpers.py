"""Test-side reference helpers: the scalar Gegenbauer polynomial, the
hyperbolic distance of the ball model and the Gegenbauer transform of
axially symmetric boundary data by quadrature. The package computes none
of these on its own paths; the tests use them to check what it does."""

import math
from dataclasses import dataclass

import numpy as np

from hypball.geometry import unit_sphere_area
from hypball.specfun import Dimension, _as_order, gegenbauer_at_one, gegenbauer_sequence


def gegenbauer(v, k, x):
    """Gegenbauer polynomial C_k^(v)(x) by the three-term recurrence.

    The package needs v > 0 only. The logarithmic expansion of
    test_accept_08 also takes v = 0, here in the Chebyshev limit:
    C_0^(0) = 1 and C_k^(0)(x) = 2 T_k(x)/k for k >= 1, with T_k by its
    own recurrence.
    """
    k, x = _as_order(k), float(x)
    if v != 0:
        c_prev, c = 0.0, 1.0
        for j in range(1, k + 1):
            c_prev, c = c, (2 * x * (j + v - 1) * c - (j + 2 * v - 2) * c_prev) / j
        return c
    if k == 0:
        return 1.0
    t_prev, t = 1.0, x
    for _ in range(k - 1):
        t_prev, t = t, 2 * x * t - t_prev
    return 2.0 * t / k


def hyperbolic_distance(x, y):
    """Hyperbolic distance between interior points of the ball model:
    cosh(2 d(x,y)) = 1 + 2|x-y|^2 / ((1-|x|^2)(1-|y|^2)), taken as
    sinh d = |x-y| / sqrt((1-|x|^2)(1-|y|^2)), which keeps its precision for
    close points (acosh of 1 + 2e-18 reads 0)."""
    dx = x.coords - y.coords
    return math.asinh(math.sqrt(float(dx @ dx) / ((1 - x.norm**2) * (1 - y.norm**2))))


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
