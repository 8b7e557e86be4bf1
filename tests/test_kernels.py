import hashlib
import math

import mp_reference
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import example, given, settings, strategies as st
from kernel_caches import clear_kernel_caches, record_misses
from reference_helpers import GegenbauerSpectrum, spectrum_of

from hypball import kernels
from hypball.closedform import green_closed_n4, green_closed_n6
from hypball.geometry import BallDomain, Point, sphere_area
from hypball.kernels import (
    SeriesControl,
    SeriesTruncationError,
    _at_orders,
    _image_table,
    _image_terms,
    _poisson_table,
    green_coefficient,
    green_function,
    poisson_coefficient,
    poisson_from_green_derivative,
    poisson_kernel,
)
from hypball.specfun import Dimension, gegenbauer_sequence, gegenbauer_series


def ball(n, r=0.6):
    return BallDomain(Dimension(n), r)


def on_sphere(r, theta, n):
    c = np.zeros(n)
    c[0] = r * math.cos(theta)
    c[1] = r * math.sin(theta)
    return Point(c * (1 - 1e-15))


def test_cold_odd_tables_call_the_traced_F_k(monkeypatch):
    # the benchmark's tracer counts F_k calls through the name bound in
    # kernels; a table that reached F_k another way would read 0 calls. The
    # radial records are shared, so from cold caches a Poisson call and then
    # a Green call at the same x reach it once per (|x|^2, block of orders):
    # here the Poisson table spans 4 blocks and the image table 2 of them
    seen = []
    real = kernels.F_k

    def counting(dim, k, z):
        seen.append((z, int(k[0])))
        return real(dim, k, z)

    monkeypatch.setattr(kernels, "F_k", counting)
    clear_kernel_caches()
    D = ball(5, 0.95)
    x, y = Point([0.9, 0, 0, 0, 0]), Point([0, 0.85, 0, 0, 0])
    poisson_kernel(D, x, on_sphere(0.95, 1.0, 5))
    at_x = [k0 for z, k0 in seen if z == x.norm**2]
    assert at_x == [0, 64, 192, 448] and (0.95**2, 448) in seen
    seen.clear()
    green_function(D, x, y)
    assert [k0 for z, k0 in seen] == [0, 64] and {z for z, _ in seen} == {y.norm**2}


def test_traced_names_do_not_rebuild_boundary_records(monkeypatch):
    # the tracer wraps kernels.F_k and kernels.G_k; a boundary record is kept
    # per (n, r^2, orders), whatever those names are bound to, so tables at a
    # new |x| in a warm ball read F_k(r^2) and G_k(r^2) from their records
    D, z = ball(5, 0.95), 0.95**2
    y, on = Point([0, 0.611, 0, 0, 0]), on_sphere(0.95, 1.0, 5)
    warm = Point([0.437, 0, 0, 0, 0])
    clear_kernel_caches()
    poisson_kernel(D, warm, on)
    green_function(D, warm, y)
    seen, misses = [], record_misses()
    for name in ("F_k", "G_k"):

        def wrapper(dim, k, z, fn=getattr(kernels, name)):
            seen.append(z)
            return fn(dim, k, z)

        monkeypatch.setattr(kernels, name, wrapper)
    x = Point([0.431, 0, 0, 0, 0])
    poisson_kernel(D, x, on)
    green_function(D, x, y)
    # every record miss, and only a miss, reaches the traced F_k
    assert x.norm**2 in seen and z not in seen
    assert record_misses() - misses == len(seen)


def test_repeated_green_coefficient_reads_its_records(monkeypatch):
    # green_coefficient reads F_k and G_k from the radial records alone: a
    # cold call reaches the traced F_k once per record miss and G_k once per
    # record whose G_k it reads (r^2 and R^2), and a second call neither
    D = ball(5, 0.95)
    seen = {"F_k": [], "G_k": []}
    for name in seen:

        def wrapper(dim, k, z, fn=getattr(kernels, name), calls=seen[name]):
            calls.append(z)
            return fn(dim, k, z)

        monkeypatch.setattr(kernels, name, wrapper)
    clear_kernel_caches()
    for k in (3, np.arange(40)):
        first = green_coefficient(D, k, 0.3, 0.7)
        misses = record_misses()
        assert len(seen["F_k"]) == misses and sorted(seen["G_k"]) == [0.7**2, 0.95**2]
        for calls in seen.values():
            calls.clear()
        assert np.array_equal(green_coefficient(D, k, 0.3, 0.7), first)
        assert seen == {"F_k": [], "G_k": []}
        assert record_misses() == misses
        clear_kernel_caches()


def test_ball_records_outlive_the_request_records(monkeypatch):
    # the F_k(r^2) records have their own cache: after more than 512 records
    # at fresh |x|, which fill the request cache, a table of the same ball
    # reaches F_k only at its own |x|^2
    D, ctl = ball(5, 0.95), SeriesControl()
    clear_kernel_caches()
    _poisson_table(D, 0.9 * D.r, ctl)  # r^2 records of three blocks
    for j in range(520):
        _poisson_table(D, 0.5 * D.r + j * 1e-6, ctl)  # one block each
    assert kernels._radial.cache_info().misses > 512
    seen, real = [], kernels.F_k
    monkeypatch.setattr(kernels, "F_k", lambda dim, k, z: seen.append(z) or real(dim, k, z))
    ax = 0.9 * D.r + 1e-6
    _poisson_table(D, ax, ctl)
    assert seen and set(seen) == {ax**2}


def test_order_arrays_match_scalar_calls():
    # any int array of orders reads the record of min(k)..max(k): unsorted,
    # repeated, gapped (across the odd-n blocks of F_k) and empty arrays give
    # the bits of the scalar calls, and a scalar order gives a Python float
    for n in (4, 5):
        D = ball(n, 0.95)
        coefficients = [
            lambda k: poisson_coefficient(D, k, 0.5),
            lambda k: green_coefficient(D, k, 0.3, 0.7),
            lambda k: _at_orders(D, _image_terms, k, (0.3, 0.7)),
        ]
        for coefficient in coefficients:
            for ks in ([7, 2, 5], [3, 3, 0, 3], [0, 64, 200, 1500], []):
                clear_kernel_caches()
                values = coefficient(np.array(ks, dtype=int))
                scalars = [coefficient(k) for k in ks]
                assert all(type(v) is float for v in scalars)
                assert values.tobytes() == np.array(scalars, dtype=float).tobytes()


@given(st.integers(3, 8), st.floats(0.1, 0.95), st.floats(0.05, 0.9), st.floats(0.05, 1.0))
@settings(max_examples=40, deadline=None)
@example(5, 0.95, 0.92 / 0.95, 0.9 / 0.92)  # tables of 5 and 3 blocks of orders
@example(3, 0.95, 0.93 / 0.95, 0.92 / 0.93)  # 5 and 3
@example(7, 0.6, 0.55 / 0.6, 0.5 / 0.55)  # 4 and 2
def test_table_blocks_equal_the_per_order_coefficients(n, r, q, f):
    # a table block and a per-order call evaluate the same formula on the
    # same records, so the tables hold (k+rho)/rho times the per-order
    # coefficients bit for bit, whichever of them built the records
    D, rho, ctl = ball(n, r), (n - 2) / 2, SeriesControl()
    ax = q * r
    ay = f * ax
    clear_kernel_caches()
    poisson, image = _poisson_table(D, ax, ctl), _image_table(D, ay, ax, ctl)
    for table, coefficient in (
        (poisson, lambda ks: poisson_coefficient(D, ks, ax)),
        (image, lambda ks: _at_orders(D, _image_terms, ks, (ay, ax))),
    ):
        ks = np.arange(len(table))
        assert table.tobytes() == ((ks + rho) / rho * coefficient(ks)).tobytes()


def test_radial_records_are_read_only():
    # the records are shared by every table of their z: none may be written
    record = kernels._radial(Dimension(5), 0.95**2, 64, 191)
    for values in (record.f, record.g):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0


def test_vanishing_boundary_values_raise(monkeypatch):
    # F_k(z) >= (1-z)^rho > 0 for every z, so only a corrupt radial layer
    # trips the guard, at r^2 or at |x|^2; a record whose build raised is
    # not kept, so every call is finite once the layer is sound again
    D = ball(5, 0.95)
    x, y = Point([0.437, 0, 0, 0, 0]), Point([0, 0.611, 0, 0, 0])
    on, real = on_sphere(0.95, 1.0, 5), kernels.F_k
    calls = [
        lambda: poisson_coefficient(D, 3, 0.5),
        lambda: poisson_kernel(D, x, on),
        lambda: green_function(D, x, y),
    ]
    for corrupt in ({D.r**2}, {0.5**2, x.norm**2}):
        monkeypatch.setattr(
            kernels, "F_k", lambda dim, k, z: real(dim, k, z) * (z not in corrupt)
        )
        clear_kernel_caches()
        for call in calls:
            with pytest.raises(RuntimeError, match="vanished"):
                call()
        monkeypatch.undo()
        assert all(math.isfinite(call()) for call in calls)


def test_series_control_validation():
    for k_max in (5, 20.5, True, "40"):
        with pytest.raises(ValueError):
            SeriesControl(k_max=k_max)
    SeriesControl(k_max=10)
    ctl = SeriesControl(k_max=np.int64(40))
    assert type(ctl.k_max) is int and ctl == SeriesControl(k_max=40)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SeriesControl(tol=tol)


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
    # |y| = r is checked to 1e-12, and a NaN row fails the check
    with pytest.raises(ValueError):
        poisson_kernel(D, Point([0.3, 0, 0, 0]), Point([0.6 + 1e-9, 0, 0, 0]))
    with pytest.raises(ValueError):
        poisson_kernel(D, Point([0.3, 0, 0, 0]), np.array([y.coords, np.full(4, np.nan)]))


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


@pytest.mark.parametrize("n", range(3, 9))
def test_green_at_center_matches_mpmath(n):
    # at the center the image table is its k = 0 term: with the center as x
    # and as y, the value is within 1e-12 of the 40-digit radial reference
    origin = Point(np.zeros(n))
    for r in (0.3, 0.6, 0.95):
        D = ball(n, r)
        for f in (0.05, 0.7, 0.999):
            y = on_sphere(f * r, 1.0, n)
            ref = mp_reference.green_at_center(n, r, y.coords)
            for value in (green_function(D, origin, y), green_function(D, y, origin)):
                assert abs(value - ref) <= 1e-12 * abs(ref), (r, f)


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
    # symmetric by construction: the image table is keyed on the ordered
    # radii, and every other quantity commutes
    D = ball(6)
    x = Point([0.15, 0.1, 0, 0, 0, 0])
    y = Point([-0.2, 0.33, 0, 0, 0, 0])
    assert green_function(D, x, y) == green_function(D, y, x)


def test_green_positive_and_vanishing_at_boundary():
    D = ball(4)
    x = Point([0.2, 0, 0, 0])
    mid = green_function(D, x, Point([0.0, 0.35, 0, 0]))
    assert mid > 0
    edge = green_function(D, x, Point([0.0, 0.6 - 1e-5, 0, 0]))
    assert 0 < edge < 1e-3 * mid


def test_green_equal_radii_matches_closed_form():
    # at |x| = |y| the image series still has ratio |x||y|/r^2 = 0.25, so
    # the sum meets its absolute tolerance
    D = ball(4)
    x = Point([0.3, 0, 0, 0])
    y = Point([0.0, 0.3, 0, 0])
    ctl = SeriesControl(k_max=300, tol=1e-10)
    assert abs(green_function(D, x, y, ctl) - green_closed_n4(D, x, y)) < ctl.tol


def test_green_equal_radii_odd_n_matches_mpmath():
    D = ball(5)
    x = Point([0.3, 0, 0, 0, 0])
    y = Point([0.0, 0.3, 0, 0, 0])
    ctl = SeriesControl()
    ref = mp_reference.green(5, 0.6, x.coords, y.coords)
    assert abs(green_function(D, x, y, ctl) - ref) < ctl.tol


# near the diagonal: |x| = r/2, |y|/|x| in {1, 1.003, 1.01}; the image
# tail is summed to 1e-14 absolute, so the relative error is the split's
NEAR_DIAGONAL = [(r, ratio, theta) for r in (0.3, 0.6, 0.95)
                 for ratio in (1.0, 1.003, 1.01) for theta in (0.05, 0.5, 2.0)]


@pytest.mark.parametrize("n, closed", [(4, green_closed_n4), (6, green_closed_n6)])
def test_green_near_diagonal_matches_closed_forms(n, closed):
    ctl = SeriesControl(tol=1e-14)
    for r, ratio, theta in NEAR_DIAGONAL:
        D = ball(n, r)
        x, y = on_sphere(0.5 * r, 0.0, n), on_sphere(0.5 * r * ratio, theta, n)
        ref = closed(D, x, y)
        assert abs(green_function(D, x, y, ctl) - ref) < 1e-10 * abs(ref)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_green_near_diagonal_odd_n_matches_mpmath(n):
    ctl = SeriesControl(tol=1e-14)
    for r, ratio, theta in NEAR_DIAGONAL:
        D = ball(n, r)
        x, y = on_sphere(0.5 * r, 0.0, n), on_sphere(0.5 * r * ratio, theta, n)
        ref = mp_reference.green(n, r, x.coords, y.coords)
        assert abs(green_function(D, x, y, ctl) - ref) < 1e-10 * abs(ref)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_green_split_matches_coefficient_series(n):
    # at split radii the plain series of green_coefficient converges (ratio
    # |x|/|y| = 1/2), and its free halves must sum to the whole-space part;
    # the image tail is summed to 1e-14 absolute, below the compared 1e-12
    D = ball(n)
    rho = D.dim.rho
    ks = np.arange(80)
    terms = (ks + rho) / rho * green_coefficient(D, ks, 0.2, 0.4)
    series = terms @ gegenbauer_sequence(rho, 79, math.cos(1.0))
    x, y = on_sphere(0.2, 0.0, n), on_sphere(0.4, 1.0, n)
    ctl = SeriesControl(tol=1e-14)
    assert green_function(D, x, y, ctl) == pytest.approx(series, rel=1e-12)


@pytest.mark.parametrize(
    "n, r, ax, ay",
    [(4, 0.6, 0.3, 0.2), (5, 0.95, 0.9, 0.8), (3, 0.6, 0.55, 0.4), (6, 0.3, 0.25, 0.1)],
)
def test_tables_match_scalar_coefficients(n, r, ax, ay):
    # blocks of orders give the term-by-term values; four of these eight
    # tables are longer than the first block of 64 orders
    D = ball(n, r)
    rho = D.dim.rho
    ctl = SeriesControl()
    a = _poisson_table(D, ax, ctl)
    b = _image_table(D, ay, ax, ctl)
    assert len(a) > 10 and len(b) > 10
    assert np.array_equal(
        a, [(k + rho) / rho * poisson_coefficient(D, k, ax) for k in range(len(a))]
    )
    assert np.array_equal(
        b, [(k + rho) / rho * _at_orders(D, _image_terms, k, (ay, ax)) for k in range(len(b))]
    )


def majorant_tail(D, terms, table):
    """sum of |a_k| C_k(1) over the 4000 orders past the table, with terms(ks)
    giving a_k."""
    ks = np.arange(len(table), len(table) + 4000)
    return float(np.abs(terms(ks)) @ sps.binom(ks + D.dim.n - 3, D.dim.n - 3))


@pytest.mark.parametrize("n", range(3, 9))
def test_tables_stop_where_the_majorant_tail_meets_tol(n):
    # the proven cut: past every Poisson and image table, the summed
    # majorant tail is within tol * scale
    ctl = SeriesControl()
    for r in (0.3, 0.6, 0.95):
        D = ball(n, r)
        rho = D.dim.rho
        for ax in (0.2 * r, 0.7 * r, 0.9 * r):
            a = _poisson_table(D, ax, ctl)
            tail = majorant_tail(
                D, lambda ks: (ks + rho) / rho * poisson_coefficient(D, ks, ax), a
            )
            assert tail <= ctl.tol * sphere_area(D.dim, r)
            for ay in (ax, 0.5 * ax):
                b = _image_table(D, ay, ax, ctl)
                tail = majorant_tail(
                    D, lambda ks: (ks + rho) / rho * _at_orders(D, _image_terms, ks, (ay, ax)), b
                )
                assert tail <= ctl.tol


# the scan of 96 Poisson tables (n = 3..8, r, |x|/r in _SCAN_RATIOS): each
# table's length K, or for the 29 that raise at k_max = 2000 the achieved
# bound, a float; pinned when the tail bound divided under np.errstate
_SCAN_RATIOS = (0.5, 0.9, 0.97, 0.99)
_SCAN_CUTS = {
    (3, 0.3): (41, 301, 1122, 0.0006943689564385396),
    (3, 0.6): (39, 288, 1076, 0.00017441888157806456),
    (3, 0.9): (39, 282, 1051, 8.039201205803648e-05),
    (3, 0.95): (39, 283, 1051, 7.54914731804101e-05),
    (4, 0.3): (47, 359, 1368, 1.5572166049485967),
    (4, 0.6): (44, 339, 1297, 0.1965323350076277),
    (4, 0.9): (44, 332, 1262, 0.06267894018169683),
    (4, 0.95): (45, 335, 1264, 0.05839602087019536),
    (5, 0.3): (53, 418, 1616, 2752.5622352303844),
    (5, 0.6): (49, 391, 1521, 174.56311215417807),
    (5, 0.9): (49, 382, 1474, 38.553661752851895),
    (5, 0.95): (50, 386, 1478, 35.670896661562935),
    (6, 0.3): (59, 477, 1867, 4146109.070688015),
    (6, 0.6): (54, 443, 1746, 132140.18487559623),
    (6, 0.9): (54, 433, 1688, 20226.960004621476),
    (6, 0.95): (56, 439, 1694, 18602.684440369292),
    (7, 0.3): (65, 537, 2.8638605630158584e-09, 5542050062.313291),
    (7, 0.6): (59, 496, 1974, 88775263.76597305),
    (7, 0.9): (60, 484, 1905, 9425989.946128855),
    (7, 0.95): (62, 491, 1912, 8625376.33904022),
    (8, 0.3): (71, 598, 3.3184656307696147e-06, 6739953361281.874),
    (8, 0.6): (64, 549, 2.8173034018371825e-08, 54269297826.89133),
    (8, 0.9): (65, 535, 2.9808293071342774e-09, 4000230040.476796),
    (8, 0.95): (68, 545, 3.908428028430304e-09, 3645450640.058056),
}


@pytest.mark.parametrize("n", range(3, 9))
def test_tail_bound_keeps_every_cut(n):
    # the bound divides only where q < 1 and reads inf elsewhere: every
    # table of the scan stops at its pinned K, and every one that raises
    # carries its pinned achieved bound
    ctl = SeriesControl()
    for r in (0.3, 0.6, 0.9, 0.95):
        D, got = ball(n, r), []
        for q in _SCAN_RATIOS:
            try:
                got.append(len(_poisson_table(D, q * r, ctl)))
            except SeriesTruncationError as e:
                got.append(float(e.achieved))
        assert got == list(_SCAN_CUTS[n, r])
        assert [type(v) for v in got] == [type(v) for v in _SCAN_CUTS[n, r]]


@pytest.mark.parametrize("n, r, q", [
    *[(n, 0.6, q) for n in (3, 5, 6, 7) for q in (0.95, 0.96, 0.97)], (8, 0.3, 16 / 17),
])
def test_long_table_sums_match_mpmath(n, r, q):
    # Clenshaw's sum of a long Poisson table against a 40-digit sum of the
    # same float terms: within 256 eps S, S = sum_k |a_k C_k(x)|, everywhere,
    # and within 0.06 eps S at x = -0.999, where the terms cancel to a value
    # 5e4-5e11 times below S (a dot product with the C_k(x) sequence is off
    # by 0.08-0.43 eps S there)
    D = ball(n, r)
    a = _poisson_table(D, q * r, SeriesControl())
    assert len(a) > 600
    eps = np.finfo(float).eps
    for x in (-0.999, -0.99, math.cos(7 * math.pi / 9), 0.0, 0.5, 0.999):
        ref, size = mp_reference.gegenbauer_sum(D.dim.rho, a.tolist(), x)
        err = float(abs(ref - gegenbauer_series(D.dim.rho, a, x)))
        assert err <= 256 * eps * float(size), x
        if x == -0.999:
            assert err <= 0.06 * eps * float(size)


@pytest.mark.parametrize("r", [0.3, 0.6, 0.95])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_array_rows_match_single_points(n, r):
    # each row of an array call gives the bits of the Point call for it
    D = ball(n, r)
    x, origin = on_sphere(0.6 * r, 0.4, n), Point(np.zeros(n))
    thetas = [(j + 0.5) * math.pi / 24 for j in range(24)]
    sphere = [on_sphere(r, t, n).coords for t in thetas]
    # several |y|, one of them |x|, and y = 0
    inner = [on_sphere(f * r, t, n).coords for f in (0.2, 0.6, 0.9) for t in thetas[::4]]
    cases = [
        (poisson_kernel, x, sphere),
        (poisson_kernel, origin, sphere[:3]),
        (green_function, x, inner + [np.zeros(n)]),
        (green_function, origin, inner[::3]),
    ]
    for fn, x0, rows in cases:
        table = fn(D, x0, np.array(rows))
        assert isinstance(table, np.ndarray) and table.shape == (len(rows),)
        # column-major rows are strided; they must give the same bits
        assert fn(D, x0, np.asfortranarray(rows)).tobytes() == table.tobytes()
        for row, value in zip(rows, table.tolist()):
            single = fn(D, x0, Point(row))
            assert type(single) is float and single == value
    near = on_sphere(0.5 * r, 0.1, n).coords
    with pytest.raises(ValueError):
        poisson_kernel(D, x, np.array([sphere[0], 0.99 * sphere[1]]))
    with pytest.raises(ValueError):
        green_function(D, x, np.array([near, x.coords]))
    with pytest.raises(ValueError):
        green_function(D, x, np.array([near, 1.05 * sphere[0]]))


# SHA-256 prefixes of the one-Point values of each n: 3 radii r, 3 ratios
# |x|/r, 3 angles, and |y| in {|x|/2, |x|}; see test_point_values_are_pinned
_POINT_DIGESTS = {
    3: "21d123f0dc222abb",
    4: "e4648b6eb5528393",
    5: "19c87e7781f905fd",
    6: "555922a542351b1a",
    7: "1727f9800042bc40",
    8: "11a817772b9ef20e",
}


def point_values(n):
    """poisson_kernel and green_function at one Point at a time, each table
    first cold (every kernel cache cleared) and then warm; a Poisson table
    that misses tol within k_max gives its achieved tail bound."""
    values = []
    for r in (0.3, 0.6, 0.95):
        D = ball(n, r)
        for q in (0.2, 0.7, 0.97):
            x = on_sphere(q * r, 0.3, n)
            clear_kernel_caches()
            for _ in ("cold", "warm"):
                for theta in (0.4, 1.9, 3.0):
                    try:
                        values.append(poisson_kernel(D, x, on_sphere(r, 0.3 + theta, n)))
                    except SeriesTruncationError as exc:
                        values.append(exc.achieved)
                    for f in (0.5, 1.0):
                        y = on_sphere(f * x.norm, 0.3 + theta, n)
                        values.append(green_function(D, x, y))
    return values


@pytest.mark.parametrize("n", range(3, 9))
def test_point_values_are_pinned(n):
    # the cold one-Point path keeps its bits; at n = 4, r = 0.3, |x|/r =
    # 0.97 the Poisson table runs into its fifth block of orders (960..)
    values = point_values(n)
    assert all(math.isfinite(v) for v in values)
    if n == 4:
        x = on_sphere(0.97 * 0.3, 0.3, n)
        assert len(_poisson_table(ball(4, 0.3), x.norm, SeriesControl())) > 960
    data = np.array(values).tobytes()
    assert hashlib.sha256(data).hexdigest()[:16] == _POINT_DIGESTS[n]


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
