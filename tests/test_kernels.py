import math

import numpy as np
import pytest

from hypball.geometry import BallDomain, Point, sphere_area
from hypball.kernels import (
    GegenbauerSpectrum,
    SeriesControl,
    SeriesTruncationError,
    _green_table,
    _poisson_table,
    green_coefficient,
    green_function,
    poisson_coefficient,
    poisson_from_green_derivative,
    poisson_kernel,
    spectrum_of,
    synthesize,
)
from hypball.specfun import Dimension


def ball(n, r=0.6):
    return BallDomain(Dimension(n), r)


def on_sphere(r, theta, n):
    c = np.zeros(n)
    c[0] = r * math.cos(theta)
    c[1] = r * math.sin(theta)
    return Point(c * (1 - 1e-15))


def test_series_control_validation():
    with pytest.raises(ValueError):
        SeriesControl(k_max=5, min_terms=10)
    with pytest.raises(ValueError):
        SeriesControl(tol=0.0)


def test_poisson_coefficient_oracle():
    # (0.3/0.6) F_1(0.09)/F_1(0.36) = 0.5 * 0.97/0.88, fixed by hand
    D = ball(4)
    assert poisson_coefficient(D, 1, 0.3) == pytest.approx(
        0.5 * 0.97 / 0.88, abs=1e-15
    )


def test_poisson_coefficient_edges():
    D = ball(5)
    assert poisson_coefficient(D, 0, 0.37) == 1.0
    assert poisson_coefficient(D, 0, 0.0) == 1.0
    assert poisson_coefficient(D, 4, 0.0) == 0.0
    with pytest.raises(ValueError):
        poisson_coefficient(D, -1, 0.3)
    with pytest.raises(ValueError):
        poisson_coefficient(D, 2, 0.6)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_poisson_coefficient_in_unit_interval(n):
    D = ball(n)
    for k in range(9):
        for ax in (0.05, 0.2, 0.45, 0.59):
            p = poisson_coefficient(D, k, ax)
            assert 0 < p <= 1


def test_poisson_kernel_at_center():
    D = ball(4)
    y = on_sphere(0.6, 1.1, 4)
    assert poisson_kernel(D, Point(np.zeros(4)), y) == pytest.approx(
        1.0 / sphere_area(D.dim, 0.6), rel=1e-14
    )


def test_poisson_kernel_validation():
    D = ball(4)
    y = on_sphere(0.6, 0.5, 4)
    with pytest.raises(ValueError):
        poisson_kernel(D, Point([0.61, 0, 0, 0]), y)
    with pytest.raises(ValueError):
        poisson_kernel(D, Point([0.3, 0, 0, 0]), Point([0.5, 0, 0, 0]))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_poisson_kernel_positive_and_normalized(n):
    D = ball(n)
    x = Point([0.25] + [0.0] * (n - 1))
    vals = []
    nodes, wts = np.polynomial.legendre.leggauss(128)
    theta = 0.5 * math.pi * (nodes + 1)
    wts = 0.5 * math.pi * wts
    for t in theta:
        vals.append(poisson_kernel(D, x, on_sphere(0.6, t, n)))
    vals = np.array(vals)
    assert (vals > 0).all()
    from hypball.geometry import unit_sphere_area

    mass = unit_sphere_area(n - 2) * 0.6 ** (n - 1) * np.sum(
        wts * vals * np.sin(theta) ** (n - 2)
    )
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_spectrum_round_trip():
    D = ball(4)
    x = Point([0.3, 0.0, 0.0, 0.0])
    spec = spectrum_of(
        lambda t: poisson_kernel(D, x, on_sphere(0.6, t, 4)), D.dim, 0.6, 12
    )
    for k in range(13):
        assert spec.coefficients[k] == pytest.approx(
            poisson_coefficient(D, k, 0.3), abs=1e-8
        )
    # and back: synthesis reproduces the kernel pointwise
    big = spectrum_of(
        lambda t: poisson_kernel(D, x, on_sphere(0.6, t, 4)), D.dim, 0.6, 40
    )
    for t in (0.4, 1.3, 2.6):
        assert synthesize(big, 0.6, t) == pytest.approx(
            poisson_kernel(D, x, on_sphere(0.6, t, 4)), rel=1e-8
        )


def test_spectrum_of_validation():
    with pytest.raises(ValueError):
        spectrum_of(lambda t: 1.0, Dimension(4), 0.6, -1)


def test_green_coefficient_symmetric():
    D = ball(6)
    for k in (0, 1, 3):
        assert green_coefficient(D, k, 0.2, 0.45) == pytest.approx(
            green_coefficient(D, k, 0.45, 0.2), rel=1e-14
        )


def test_green_coefficient_validation():
    D = ball(4)
    with pytest.raises(ValueError):
        green_coefficient(D, 2, 0.6, 0.3)
    with pytest.raises(ValueError):
        green_coefficient(D, 2, 0.3, 0.0)
    assert green_coefficient(D, 3, 0.0, 0.3) == 0.0


def test_green_at_center_reduces_to_radial_term():
    D = ball(5)
    y = Point([0.0, 0.3, 0.0, 0.0, 0.0])
    g0 = green_function(D, Point(np.zeros(5)), y)
    assert g0 == pytest.approx(green_coefficient(D, 0, 0.0, 0.3), rel=1e-14)
    # continuity as x -> 0
    near = green_function(D, Point([1e-8, 0, 0, 0, 0]), y)
    assert near == pytest.approx(g0, rel=1e-6)


def test_green_validation():
    D = ball(4)
    x = Point([0.3, 0, 0, 0])
    with pytest.raises(ValueError):
        green_function(D, x, x)
    with pytest.raises(ValueError):
        green_function(D, Point(np.zeros(4)), Point(np.zeros(4)))
    with pytest.raises(ValueError):
        green_function(D, x, Point([0.0, 0.7, 0.0, 0.0]))


def test_green_swap_symmetry():
    D = ball(6)
    x = Point([0.15, 0.1, 0, 0, 0, 0])
    y = Point([-0.2, 0.33, 0, 0, 0, 0])
    assert green_function(D, x, y) == pytest.approx(
        green_function(D, y, x), rel=1e-12
    )


def test_green_positive_and_vanishing_at_boundary():
    D = ball(4)
    x = Point([0.2, 0, 0, 0])
    mid = green_function(D, x, Point([0.0, 0.35, 0, 0]))
    assert mid > 0
    edge = green_function(D, x, Point([0.0, 0.6 - 1e-5, 0, 0]))
    assert 0 < edge < 1e-3 * mid


def test_green_equal_radii_raises():
    # at |x| = |y| the geometric tail bound degenerates; the truncated sum
    # is far off the closed form, so it must not be returned
    D = ball(4)
    x = Point([0.3, 0, 0, 0])
    y = Point([0.0, 0.3, 0, 0])
    ctl = SeriesControl(k_max=300, tol=1e-10)
    with pytest.raises(SeriesTruncationError) as err:
        green_function(D, x, y, ctl)
    assert err.value.achieved == math.inf


def test_green_equal_radii_raises_before_summing():
    # odd n: every Green coefficient is a long series, yet none is built
    D = ball(5)
    x = Point([0.3, 0, 0, 0, 0])
    y = Point([0.0, 0.3, 0, 0, 0])
    ctl = SeriesControl()
    with pytest.raises(SeriesTruncationError) as err:
        green_function(D, x, y, ctl)
    assert err.value.achieved == math.inf
    assert _green_table(D, 0.3, 0.3, ctl)[0].size == 0


@pytest.mark.parametrize(
    "n, r, ax, ay",
    [(4, 0.6, 0.3, 0.2), (5, 0.95, 0.9, 0.8), (3, 0.6, 0.55, 0.4), (6, 0.3, 0.25, 0.1)],
)
def test_tables_match_scalar_coefficients(n, r, ax, ay):
    # blocks of orders give the term-by-term values; six of these eight
    # tables are longer than the first block of 64 orders
    D = ball(n, r)
    rho = D.dim.rho
    ctl = SeriesControl()
    a = _poisson_table(D, ax, ctl)
    b, _ = _green_table(D, ay, ax, ctl)
    assert len(a) > 10 and len(b) > 10
    assert np.array_equal(
        a, [(k + rho) / rho * poisson_coefficient(D, k, ax) for k in range(len(a))]
    )
    assert np.array_equal(
        b, [(k + rho) / rho * green_coefficient(D, k, ay, ax) for k in range(len(b))]
    )


def test_green_truncation_error():
    D = ball(4)
    x = Point([0.5, 0, 0, 0])
    y = Point([0.0, 0.52, 0, 0])
    with pytest.raises(SeriesTruncationError):
        green_function(D, x, y, SeriesControl(k_max=12, tol=1e-12))


def test_poisson_from_green_derivative_first_order():
    D = ball(4)
    x = Point([0.25, 0, 0, 0])
    u = np.array([math.cos(0.9), math.sin(0.9), 0.0, 0.0])
    exact = poisson_kernel(D, x, Point(0.6 * u * (1 - 1e-15)))
    errs = [
        abs(poisson_from_green_derivative(D, x, u, h) - exact)
        for h in (2e-3, 1e-3)
    ]
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.3)
    with pytest.raises(ValueError):
        poisson_from_green_derivative(D, x, np.zeros(4), 1e-3)
    with pytest.raises(ValueError):
        poisson_from_green_derivative(D, x, u, 0.4)


def test_spectrum_kmax():
    spec = GegenbauerSpectrum(Dimension(4), (1.0, 0.5, 0.2))
    assert spec.kmax == 2
