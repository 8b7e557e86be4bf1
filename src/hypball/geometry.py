"""Ball-model geometry: interior points, ball domains, sphere areas, and the
checks and row quantities (norms, dots, |x-y|^2, cosines) of kernel points."""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import Dimension


@dataclass(frozen=True)
class Point:
    """Point of the open unit ball, stored as a dense coordinate vector."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coords, dtype=float))
        if c.ndim != 1:
            raise ValueError("coords must be a flat vector")
        object.__setattr__(self, "coords", c)
        if not self.norm < 1:
            raise ValueError("point must lie strictly inside the unit ball")

    @property
    def norm(self):
        return math.sqrt(self.coords.dot(self.coords))


@dataclass(frozen=True)
class BallDomain:
    """Ball of Euclidean radius r centered at the origin, 0 < r < 1."""

    dim: Dimension
    r: float

    def __post_init__(self):
        if not 0 < self.r < 1:
            raise ValueError("ball radius must satisfy 0 < r < 1")


def unit_sphere_area(j):
    """Area of the unit sphere S^j in R^(j+1): 2 pi^((j+1)/2) / Gamma((j+1)/2)."""
    if j < 1:
        raise ValueError("needs j >= 1")
    return 2 * math.pi ** ((j + 1) / 2) / math.gamma((j + 1) / 2)


def sphere_area(dim, R):
    """Surface area of the sphere of radius R in R^n: omega_{n-1} R^(n-1)."""
    if R <= 0:
        raise ValueError("needs R > 0")
    return unit_sphere_area(dim.n - 1) * R ** (dim.n - 1)


def _rows(D, x, y):
    """(ys, single, |x|, row norms, row dots with x) of x and y, a Point or an
    (m, n) array; raises ValueError unless both have D's n and x is in D."""
    single = isinstance(y, Point)
    ys = y.coords[None, :] if single else np.ascontiguousarray(y, dtype=float)
    if ys.ndim != 2:
        raise ValueError("y must be a Point or an (m, n) array of points")
    if not x.coords.size == ys.shape[1] == D.dim.n:
        raise ValueError(f"points must have {D.dim.n} coordinates")
    if not (ax := x.norm) < D.r:
        raise ValueError("x must lie inside the ball")
    return ys, single, ax, row_norms(ys), np.vecdot(ys, x.coords)


def sphere_rows(D, x, y):
    """(single, |x|, |y|, x.y) of x inside the ball D and rows y on its sphere
    to 1e-12 (one row checked as a Python float), as the Poisson kernels take them."""
    _, single, ax, nys, xy = _rows(D, x, y)
    off = abs(nys.item() - D.r) if single else np.abs(nys - D.r).max(initial=0.0)
    if not off <= 1e-12:
        raise ValueError("y must lie on the sphere |y| = r")
    return single, ax, nys, xy


def ball_rows(D, x, y):
    """(single, |x|, |y|, x.y, |x-y|^2) of x != y and rows y inside the ball
    D; |x-y|^2 sums squared coordinate differences, so it stays accurate as
    y -> x. The checks read Python floats, faster on one row than NumPy."""
    ys, single, ax, nys, xy = _rows(D, x, y)
    diffs = x.coords - ys
    d2 = np.vecdot(diffs, diffs)
    if not all(ay < D.r for ay in nys.tolist()):
        raise ValueError("y must lie inside the ball")
    if 0.0 in d2.tolist():
        raise ValueError("green function is singular at x = y")
    return single, ax, nys, xy, d2


def row_norms(ys):
    """[Point.norm of each row] of an (m, n) array, bit for bit: np.vecdot
    takes ndarray.dot's dot per row (test_vecdot_matches_row_dots)."""
    return np.sqrt(np.vecdot(ys, ys))


def _cosines(xy, nx, nys, single):
    """cos of the angle at the origin between x and each row y, clamped to
    [-1, 1] for the Gegenbauer argument, from the dots xy and the nonzero
    norms nx and nys. A float back when single, else an array."""
    c = np.minimum(1.0, np.maximum(-1.0, xy / (nx * nys)))
    return float(c[0]) if single else c
