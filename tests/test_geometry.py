import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from reference_helpers import hyperbolic_distance

from hypball.geometry import (
    BallDomain,
    Point,
    _cosines,
    ball_rows,
    sphere_area,
    unit_sphere_area,
)
from hypball.specfun import Dimension


def interior_points(dim_n):
    return (
        st.lists(
            st.floats(-0.6, 0.6, allow_nan=False), min_size=dim_n, max_size=dim_n
        )
        .map(np.array)
        .filter(lambda c: 1e-6 < np.linalg.norm(c) < 0.95)
        .map(Point)
    )


def test_point_validation():
    with pytest.raises(ValueError):
        Point(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        Point(np.zeros((2, 2)))
    p = Point([0.25, 0.0, 0.0])
    assert p.norm == 0.25


def test_ball_domain_validation():
    dim = Dimension(4)
    with pytest.raises(ValueError):
        BallDomain(dim, 0.0)
    with pytest.raises(ValueError):
        BallDomain(dim, 1.0)
    assert BallDomain(dim, 0.6).r == 0.6


@pytest.mark.parametrize(
    "j, area",
    [
        (1, 2 * math.pi),
        (2, 4 * math.pi),
        (3, 2 * math.pi**2),
        (5, math.pi**3),
    ],
)
def test_unit_sphere_areas(j, area):
    assert unit_sphere_area(j) == pytest.approx(area, rel=1e-14)


def test_unit_sphere_area_rejects_j0():
    with pytest.raises(ValueError):
        unit_sphere_area(0)


def test_sphere_area_scaling():
    dim = Dimension(4)
    assert sphere_area(dim, 0.5) == pytest.approx(
        unit_sphere_area(3) * 0.5**3, rel=1e-14
    )
    with pytest.raises(ValueError):
        sphere_area(dim, 0.0)


def test_distance_from_origin_is_atanh():
    for t in (0.1, 0.3, 0.6, 0.9):
        x = Point([t, 0.0, 0.0])
        o = Point([0.0, 0.0, 0.0])
        assert hyperbolic_distance(o, x) == pytest.approx(math.atanh(t), rel=1e-13)


@given(interior_points(3), interior_points(3), st.integers(0, 2**31 - 1))
def test_distance_rotation_invariant(x, y, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    xr, yr = Point(Q @ x.coords), Point(Q @ y.coords)
    d = hyperbolic_distance(x, y)
    assert hyperbolic_distance(xr, yr) == pytest.approx(d, abs=1e-12)


@given(interior_points(4), interior_points(4), interior_points(4))
def test_triangle_inequality(x, y, z):
    dxz = hyperbolic_distance(x, z)
    dxy = hyperbolic_distance(x, y)
    dyz = hyperbolic_distance(y, z)
    assert dxz <= dxy + dyz + 1e-12


def test_distance_additive_along_ray():
    # points on a common ray through the origin: distances add
    o = Point([0.0, 0.0])
    a = Point([0.3, 0.0])
    b = Point([0.8, 0.0])
    assert hyperbolic_distance(o, a) + hyperbolic_distance(a, b) == pytest.approx(
        hyperbolic_distance(o, b), rel=1e-13
    )


def test_cos_angle():
    def cosine(x, y):
        single, ax, nys, xy, _ = ball_rows(BallDomain(Dimension(3), 0.6), x, y)
        return _cosines(xy, ax, nys, single)

    x = Point([0.5, 0.0, 0.0])
    assert cosine(x, Point([0.0, 0.25, 0.0])) == 0.0
    assert cosine(x, Point([0.25, 0.0, 0.0])) == 1.0
    assert cosine(x, Point([-0.1, 0.0, 0.0])) == -1.0


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_vecdot_matches_row_dots():
    # _rows takes its norms and dots by np.vecdot over an array where a Point
    # takes ndarray.dot; the two must agree bit for bit on coordinate rows of
    # every n the CLI takes. The sums of every length up to past the table
    # block edges 63, 191 and 447 check the same of long dot products, which
    # the kernels' Gegenbauer sums do not take (see gegenbauer_series)
    rng = np.random.default_rng(7)
    for n in range(3, 9):
        ys = rng.uniform(-0.5, 0.5, (257, n))
        x = ys[0].copy()
        assert same_bits(np.vecdot(ys, ys), [row.dot(row) for row in ys]), n
        assert same_bits(np.vecdot(ys, x), [x.dot(row) for row in ys]), n
    for size in [*range(1, 41), 63, 64, 191, 192, 447, 448, 2001]:
        a = rng.standard_normal(size)
        cols = np.ascontiguousarray(rng.standard_normal((size, 257)).T)
        assert same_bits(np.vecdot(cols, a), [a @ col for col in cols]), size
