"""Ball-model geometry: interior points, ball domains, sphere areas and the
angle cosine used as Gegenbauer argument."""

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
        if not np.linalg.norm(c) < 1:
            raise ValueError("point must lie strictly inside the unit ball")
        object.__setattr__(self, "coords", c)

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


def as_rows(n, x, y):
    """y as a C-contiguous (m, n) coordinate array, and whether it was a
    single Point; raises ValueError unless the Point x and every row of y
    have n coordinates."""
    single = isinstance(y, Point)
    ys = y.coords[None, :] if single else np.ascontiguousarray(y, dtype=float)
    if ys.ndim != 2:
        raise ValueError("y must be a Point or an (m, n) array of points")
    if not x.coords.size == ys.shape[1] == n:
        raise ValueError(f"points must have {n} coordinates")
    return ys, single


def row_norms(ys):
    """[Point.norm of each row] of an (m, n) array, bit for bit: np.vecdot
    takes ndarray.dot's dot per row (test_vecdot_matches_row_dots)."""
    return np.sqrt(np.vecdot(ys, ys))


def cos_angle(x, y):
    """cos of the angle at the origin between x and y, clamped to [-1, 1]
    so downstream Gegenbauer arguments stay in range. y is a Point (a float
    back) or an (m, n) array (an array back, each row the Point call's bits)."""
    ys, single = as_rows(x.coords.size, x, y)
    nx, nys = x.norm, row_norms(ys)
    if nx == 0 or 0.0 in nys.tolist():
        raise ValueError("angle at the origin undefined for the zero vector")
    return _cosines(x.coords, nx, ys, nys, single)


def _cosines(xc, nx, ys, nys, single):
    """cos_angle from what a caller already holds: the coordinates xc of x,
    its nonzero norm nx, the C-contiguous rows ys and their nonzero norms nys."""
    c = np.minimum(1.0, np.maximum(-1.0, np.vecdot(ys, xc) / (nx * nys)))
    return float(c[0]) if single else c
