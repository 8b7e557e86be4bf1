import math
import subprocess
import sys
import warnings

import mp_reference
import mpmath as mp
import numpy as np
import pytest
import scipy.integrate

from hypball import closedform
from hypball.closedform import (
    H_function,
    QuadratureControl,
    conjecture1_residual,
    green_closed_n4,
    green_closed_n6,
    laplace_weight,
    poisson_integral,
)
from hypball.geometry import BallDomain, Point
from hypball.kernels import SeriesControl, green_function, poisson_kernel
from hypball.specfun import Dimension, F_k

R2_CRIT = 7 - 4 * math.sqrt(3)


def ball(n, r=0.6):
    return BallDomain(Dimension(n), r)


def on_sphere(r, theta, n):
    c = np.zeros(n)
    c[0] = r * math.cos(theta)
    c[1] = r * math.sin(theta)
    return Point(c * (1 - 1e-15))


def test_quadrature_control_validation():
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            QuadratureControl(abs_tol=tol)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_radial_polynomial_matches_F_k(n):
    # P_z(k) = F_k(z) Gamma(k+n/2+rho)/Gamma(k+n/2), from its coefficients
    dim = Dimension(n)
    rho = dim.rho
    for z in (0.0, 0.3, 0.8):
        P = closedform._radial_polynomial(dim, z)[1]
        for k in (0, 1, 3, 10):
            expect = F_k(dim, k, z) * math.gamma(k + n / 2 + rho) / math.gamma(k + n / 2)
            assert np.polyval(P, k) == pytest.approx(expect, rel=1e-12)


def test_commands_import_no_scipy(tmp_path):
    # SciPy is a test dependency only: the closed forms, the laplace suite
    # and both conjecture probes run on NumPy alone
    code = (
        "import sys\n"
        "from hypball.cli import parse_config, run\n"
        "for argv in (['pk-closed', '--n', '6'],\n"
        "             ['identity-check', '--suite', 'laplace', '--n', '4..8'],\n"
        "             ['conjecture-scan', '--n', '4..8']):\n"
        f"    assert run(parse_config(argv + ['--output', {str(tmp_path / 'out.csv')!r}])) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_import_leaves_numpy_polynomial_unloaded():
    # the Gauss-Legendre rules of the quadrature, the crossing fraction and
    # the normalization suite are built on first use, not at import
    code = "import sys, hypball; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_H_n4_closed_form_and_x_independence():
    dim = Dimension(4)
    r2 = 0.36
    closed = lambda k: 2 * (1 + r2) / (1 - r2) / (k + 2 / (1 - r2))
    for k in (0.0, 0.5, 1.0, 3.7, 10.0):
        vals = [H_function(dim, x2, r2, k) for x2 in (0.0, 0.09, 0.2, 0.3)]
        for v in vals:
            assert v == pytest.approx(closed(k), abs=1e-12 * abs(closed(k)) + 1e-12)
        assert max(vals) - min(vals) < 1e-12


@pytest.mark.parametrize("n", [4, 6, 8])
def test_H_matches_mpmath_at_large_k(n):
    # F_k decays like 1/Gamma(k), but H is a ratio of polynomials in k:
    # no absolute threshold on F may read large k as a zero
    x2, r2 = 0.09, 0.36
    for k in (15, 17, 20, 50):
        with mp.workdps(40):
            X, R, rho = mp.mpf(x2), mp.mpf(r2), mp.mpf(n - 2) / 2
            ratio = mp_reference.f_value(n, k, X) / mp_reference.f_value(n, k, R)
            leading = ((1 - X) / (1 - R)) ** rho * (
                (k + rho) / rho - mp.mpf(n) / 2 * (R - X) / ((1 - R) * (1 - X)))
            ref = float(((k + rho) / rho * ratio - leading) * (1 - R) ** (n - 2) / (R - X))
        assert H_function(Dimension(n), x2, r2, k) == pytest.approx(ref, rel=1e-10)


def test_H_rejects_zero_of_radial_solution():
    # F_k(0.5) at n=4 vanishes at k = -4
    with pytest.raises(ValueError, match="zero"):
        H_function(Dimension(4), 0.2, 0.5, -4.0)


def test_H_validation():
    with pytest.raises(ValueError):
        H_function(Dimension(4), 0.5, 0.3, 1.0)


@pytest.mark.parametrize(
    "n, r2",
    [(4, 0.36), (6, 0.04), (6, R2_CRIT), (6, 0.36), (8, 0.04), (8, 0.36), (8, 0.81)],
)
def test_weight_transforms_back_to_H(n, r2):
    # int_0^inf w(v) e^{-k v} dv = H(k), all four regimes
    dim = Dimension(n)
    x2 = r2 / 4
    w = laplace_weight(dim, x2, r2)
    for k in (0, 1, 2, 3, 5, 10):
        val, _ = scipy.integrate.quad(
            lambda v: w(v) * math.exp(-k * v), 0, 200, limit=200
        )
        assert val == pytest.approx(H_function(dim, x2, r2, k), abs=1e-8)


@pytest.mark.parametrize(
    "n, r2",
    [(4, 0.36), (4, 0.81), (6, 0.04), (6, R2_CRIT), (6, 0.36), (8, 0.04), (8, 0.36),
     (8, 0.81)],
)
def test_weight_moments(n, r2):
    # first moment = H(-rho) with value (n/2)(1-x2)^(rho-1)(1-r2)^(rho-1);
    # the h-weighted moment integrates to (1-x2)^rho (1-r2)^rho / rho
    dim = Dimension(n)
    rho = dim.rho
    x2 = r2 / 4
    w = laplace_weight(dim, x2, r2)
    m0, _ = scipy.integrate.quad(lambda v: w(v) * math.exp(rho * v), 0, 200, limit=200)
    expect0 = (n / 2) * ((1 - x2) * (1 - r2)) ** (rho - 1)
    assert m0 == pytest.approx(expect0, abs=1e-9 * max(1, expect0))
    assert m0 == pytest.approx(H_function(dim, x2, r2, -rho), abs=1e-9 * max(1, m0))

    def h(v):
        return x2 * math.expm1(-v) + r2 * math.expm1(v)

    m1, _ = scipy.integrate.quad(
        lambda v: w(v) * h(v) * math.exp(rho * v), 0, 200, limit=200
    )
    expect1 = ((1 - x2) * (1 - r2)) ** rho / rho
    assert m1 == pytest.approx(expect1, abs=1e-9 * max(1, expect1))


def test_weight_regimes_and_decay():
    dim = Dimension(6)
    assert laplace_weight(dim, 0.0, 0.04).regime == "cosh-sinh"
    assert laplace_weight(dim, 0.0, R2_CRIT).regime == "critical"
    assert laplace_weight(dim, 0.0, 0.36).regime == "oscillatory"
    assert laplace_weight(Dimension(4), 0.0, 0.36).regime == "single-exponential"
    for n in (4, 6):
        d = Dimension(n)
        for r2 in (0.01, 0.04, R2_CRIT, 0.36, 0.81, 0.95):
            w = laplace_weight(d, 0.0, r2)
            assert w.decay_rate > d.rho + 1


def test_weight_continuous_across_critical_radius():
    dim = Dimension(6)
    lo = laplace_weight(dim, 0.02, R2_CRIT - 1e-9)
    hi = laplace_weight(dim, 0.02, R2_CRIT + 1e-9)
    mid = laplace_weight(dim, 0.02, R2_CRIT)
    assert {lo.regime, mid.regime, hi.regime} == {
        "cosh-sinh",
        "critical",
        "oscillatory",
    }
    for v in (0.0, 0.3, 1.0, 4.0):
        assert lo(v) == pytest.approx(mid(v), rel=1e-6)
        assert hi(v) == pytest.approx(mid(v), rel=1e-6)


@pytest.mark.parametrize(
    "n, r2",
    [(6, R2_CRIT + d) for d in (0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-9, -1e-9,
                                 1e-8, -1e-8, 1e-6, -1e-6)]
    + [(4, 0.36), (4, 0.81)],
)
def test_weight_matches_mpmath_across_critical_radius(n, r2):
    # one formula for real, zero and imaginary c: no band around the
    # critical radius and no cancellation for small c; a reference that
    # underflows to 0 must be matched exactly
    w = laplace_weight(Dimension(n), 0.02, r2)
    for v in (0.0, 0.1, 1.0, 4.0, 20.0, 100.0):
        ref = mp_reference.laplace_weight(n, 0.02, r2, v)
        assert abs(float(w(v)) - ref) <= 1e-12 * abs(ref), (v, w(v), ref)


def test_weight_validation():
    with pytest.raises(ValueError):
        laplace_weight(Dimension(5), 0.0, 0.36)
    with pytest.raises(ValueError):
        laplace_weight(Dimension(4), 0.4, 0.36)


def test_weight_is_cached_and_shared_unchanged():
    # one weight per (n, |x|^2, r^2): the Green and Poisson evaluators take
    # copies with other amplitudes or rates and leave the shared groups as
    # they were; a failed build raises again rather than being cached
    D6, D8 = ball(6), ball(8)
    x8 = Point([0.2] + [0.0] * 7)
    w6 = laplace_weight(D6.dim, 0.0, D6.r**2)
    w8 = laplace_weight(D8.dim, x8.norm**2, D8.r**2)
    assert laplace_weight(Dimension(6), 0.0, D6.r**2) is w6
    before = [(g.b, g.c2, g.amp1, g.amp2) for g in (*w6, *w8)]
    x = Point([0.2] + [0.0] * 5)
    ys = np.array([[0.0, 0.3, 0, 0, 0, 0], [-0.1, 0.1, 0, 0, 0, 0]])
    green_closed_n6(D6, x, ys)
    green_closed_n6(D6, x, Point(ys[0]))
    poisson_integral(D8, x8, on_sphere(0.6, 1.0, 8))
    assert laplace_weight(D6.dim, 0.0, D6.r**2) is w6
    assert laplace_weight(D8.dim, x8.norm**2, D8.r**2) is w8
    assert [(g.b, g.c2, g.amp1, g.amp2) for g in (*w6, *w8)] == before
    for args in ((Dimension(5), 0.0, 0.36), (Dimension(6), 0.36, 0.36),
                 (Dimension(6), 0.4, 0.36)):
        for _ in range(2):
            with pytest.raises(ValueError):
                laplace_weight(*args)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_poisson_integral_matches_series(n):
    D = ball(n)
    for ax, theta in ((0.15, 0.5), (0.3, 1.9), (0.5, 2.9)):
        x = Point([ax] + [0.0] * (n - 1))
        y = on_sphere(0.6, theta, n)
        assert poisson_integral(D, x, y) == pytest.approx(
            poisson_kernel(D, x, y), abs=1e-9
        )


def test_poisson_integral_validation():
    with pytest.raises(ValueError):
        poisson_integral(ball(5), Point([0.1] * 5), on_sphere(0.6, 1.0, 5))
    D = ball(4)
    with pytest.raises(ValueError):
        poisson_integral(D, Point([0.3, 0, 0, 0]), Point([0.3, 0, 0, 0]))


@pytest.mark.parametrize(
    "evaluator, n",
    [(poisson_kernel, 5), (green_function, 5), (poisson_integral, 6),
     (green_closed_n4, 4), (green_closed_n6, 6)],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_empty_row_array_gives_empty_values(evaluator, n):
    # no rows, no values: the closed forms' quadrature has no columns to
    # size its panel chunks by
    out = evaluator(ball(n), Point([0.2] + [0.0] * (n - 1)), np.zeros((0, n)))
    assert type(out) is np.ndarray and out.dtype == float and out.shape == (0,)


def test_green_closed_n4_matches_series():
    D = ball(4)
    ctl = SeriesControl(k_max=4000, tol=1e-9)
    pairs = [
        ((0.1, 0.0), (0.0, 0.4)),
        ((0.3, 0.1), (-0.2, 0.35)),
        ((0.05, 0.02), (0.45, 0.1)),
    ]
    for (x1, x2), (y1, y2) in pairs:
        x = Point([x1, x2, 0.0, 0.0])
        y = Point([y1, y2, 0.0, 0.0])
        assert green_closed_n4(D, x, y) == pytest.approx(
            green_function(D, x, y, ctl), abs=1e-9
        )
    with pytest.raises(ValueError):
        green_closed_n4(ball(6), Point([0.1] * 6), Point([0.2] * 6))


@pytest.mark.parametrize("r", [0.2, math.sqrt(R2_CRIT), 0.6])
def test_green_closed_n6_matches_series_all_regimes(r):
    D = ball(6, r)
    ctl = SeriesControl(k_max=4000, tol=1e-9)
    scale = r / 0.6
    pairs = [
        ((0.1, 0.0), (0.0, 0.4)),
        ((0.3, 0.1), (-0.2, 0.35)),
    ]
    for (x1, x2), (y1, y2) in pairs:
        x = Point([x1 * scale, x2 * scale, 0, 0, 0, 0])
        y = Point([y1 * scale, y2 * scale, 0, 0, 0, 0])
        assert green_closed_n6(D, x, y) == pytest.approx(
            green_function(D, x, y, ctl), abs=1e-9
        )


# the first, middle and last midpoints of the 256-row theta grid
GRID_THETAS = [(j + 0.5) * math.pi / 256 for j in (0, 128, 255)]
REGIMES = [(4, 0.6), (6, 0.2), (6, math.sqrt(R2_CRIT)), (6, 0.6)]


def plane_points(n, radius, thetas):
    ys = np.zeros((len(thetas), n))
    ys[:, 0] = [radius * math.cos(t) for t in thetas]
    ys[:, 1] = [radius * math.sin(t) for t in thetas]
    return ys


def integrals(monkeypatch, fn, *args):
    """The quadrature results fn computes before its prefactor."""
    seen = []
    real = closedform._integrate_decaying

    def spy(f, beta, ctl):
        seen.append(real(f, beta, ctl))
        return seen[-1]

    monkeypatch.setattr(closedform, "_integrate_decaying", spy)
    fn(*args)
    assert len(seen) == 1
    return seen[0]


def mp_weight(n, r2, amp1, amp2):
    """The Laplace weight in mpmath from its defining rates: n=4 a single
    exponential; n=6 exp(-bv)(amp1 cosh(cv) + amp2 sinh(cv)/c) with c real,
    zero or imaginary."""
    if n == 4:
        b = 2 / (1 - r2)
        return lambda v: amp1 * mp.exp(-b * v)
    b = (7 - r2) / (2 * (1 - r2))
    c = mp.sqrt(mp.mpc(r2 * r2 - 14 * r2 + 1)) / (2 * (1 - r2))
    if c == 0:
        return lambda v: mp.exp(-b * v) * (amp1 + amp2 * v)
    return lambda v: mp.re(
        mp.exp(-b * v) * (amp1 * mp.cosh(c * v) + amp2 * mp.sinh(c * v) / c)
    )


def mp_integral(f):
    with mp.workdps(30):
        return mp.quad(f, [0] + [2**j for j in range(7)] + [mp.inf])


def assert_meets_tolerance(got, refs):
    for value, ref in zip(got, refs):
        assert abs(value - ref) <= max(1e-10, 1e-12 * abs(ref)), (value, ref)


@pytest.mark.parametrize("n, r", REGIMES)
def test_poisson_integral_against_mpmath(monkeypatch, n, r):
    D = ball(n, r)
    for q in (0.3, 0.97):
        x = Point([q * r] + [0.0] * (n - 1))
        ys = plane_points(n, r, GRID_THETAS)
        got = integrals(monkeypatch, poisson_integral, D, x, ys)
        with mp.workdps(30):
            x2, r2 = mp.mpf(q * r) ** 2, mp.mpf(r) ** 2
            rho = (n - 2) // 2
            if n == 4:
                w = mp_weight(4, r2, 2 * (1 + r2) / (1 - r2), 0)
            else:
                w = mp_weight(6, r2, 3 * (1 - r2 * x2 + 3 * (r2 - x2)),
                              mp.mpf(3) / 2 * (1 + x2 * r2 + 5 * (x2 + r2)))
            refs = []
            for y in ys:
                xy = mp.mpf(q * r) * mp.mpf(y[0])
                d2 = x2 + r2 - 2 * xy

                def f(v):
                    # L in the paper's unreduced form
                    a = x2 * mp.exp(-v) + r2 * mp.exp(v) - 2 * xy
                    h = a - d2
                    L = a**rho * rho * h - d2 * (a**rho - d2**rho)
                    den = x2 * mp.exp(-2 * v) - 2 * xy * mp.exp(-v) + r2
                    return w(v) * L / den ** (n // 2 - 1)

                refs.append(mp_integral(f))
        assert_meets_tolerance(got, refs)


@pytest.mark.parametrize("n, r", REGIMES)
def test_green_closed_against_mpmath(monkeypatch, n, r):
    D = ball(n, r)
    fn = green_closed_n4 if n == 4 else green_closed_n6
    for q in (0.3, 0.97):
        x = Point([q * r] + [0.0] * (n - 1))
        for p in (0.2, 0.9):
            ys = plane_points(n, p * r, GRID_THETAS)
            got = integrals(monkeypatch, fn, D, x, ys)
            refs = []
            with mp.workdps(30):
                r2 = mp.mpf(r) ** 2
                X = mp.mpf(q * r) ** 2
                for y in ys:
                    Y = mp.mpf(y[0]) ** 2 + mp.mpf(y[1]) ** 2
                    xy = mp.mpf(q * r) * mp.mpf(y[0])
                    if n == 4:
                        w = mp_weight(4, r2, 2 * (1 + r2) / (1 - r2), 0)
                    else:
                        f1 = (r2 * (1 + r2) / (1 - r2) * (1 - X) * (1 - Y)
                              + 2 * (1 - X * Y) - 2 * (1 - r2 * r2))
                        f2 = (-3 * r2 * (1 + r2) ** 2 / (1 - r2) * (1 - X) * (1 - Y)
                              - 2 * (1 - 5 * r2 - 2 * r2 * r2) * (1 - X * Y)
                              + 2 * (1 - r2) ** 3)
                        w = mp_weight(6, r2, f1, f2 / (2 * (1 - r2)))

                    def f(v):
                        e = mp.exp(-v)
                        K = X * Y * e * e - 2 * r2 * e * xy + r2 * r2
                        return w(v) / K ** (n // 2 - 1)

                    refs.append(mp_integral(f))
            assert_meets_tolerance(got, refs)


@pytest.mark.parametrize(
    "fn, n, r, radius",
    [
        (poisson_integral, 6, 0.6, 0.6),
        (green_closed_n4, 4, 0.6, 0.25),
        (green_closed_n6, 6, math.sqrt(R2_CRIT), 0.1),
    ],
)
def test_array_rows_match_single_points(fn, n, r, radius):
    D = ball(n, r)
    x = Point([0.75 * r] + [0.0] * (n - 1))
    thetas = [(j + 0.5) * math.pi / 256 for j in range(256)]
    ys = plane_points(n, radius, thetas)
    table = fn(D, x, ys)
    assert isinstance(table, np.ndarray) and table.shape == (256,)
    for y, row in zip(ys, table):
        single = fn(D, x, Point(y))
        assert type(single) is float
        assert single == pytest.approx(row, rel=1e-9)


def test_quadrature_failure_raises_without_warning(monkeypatch):
    D = ball(6, 0.6)
    x = Point([0.5, 0, 0, 0, 0, 0])
    hard, easy = plane_points(6, 0.6, [0.05, 1.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        monkeypatch.setattr(closedform, "_MAX_PANELS", 1)
        with pytest.raises(RuntimeError, match="quadrature error estimate"):
            poisson_integral(D, x, Point(hard))
        # four panels meet the tolerance at theta = 1.5 alone, but not at
        # 0.05, and one point that misses it fails the whole table
        monkeypatch.setattr(closedform, "_MAX_PANELS", 4)
        poisson_integral(D, x, Point(easy))
        with pytest.raises(RuntimeError):
            poisson_integral(D, x, np.array([easy, hard, easy]))


def test_green_closed_singularity_guard():
    # at the second point the expanded |x|^2 + |x|^2 - 2 x.x rounds to
    # -2.8e-17, not 0; the coordinate differences give 0 exactly
    for c in ([0.1, 0.2, 0], [0.2, -0.1, 0.25]):
        for fn, n in ((green_closed_n4, 4), (green_closed_n6, 6)):
            x = Point(c + [0.0] * (n - 3))
            with pytest.raises(ValueError, match="x = y"):
                fn(ball(n), x, x)


@pytest.mark.parametrize("fn, n", [(green_closed_n4, 4), (green_closed_n6, 6)])
def test_green_closed_near_the_diagonal_matches_series(fn, n):
    # 1/|x-y|^2 and log(K0/(r^2 |x-y|^2)) are as accurate as |x-y|^2, which
    # |x|^2 + |y|^2 - 2 x.y loses to cancellation as y -> x
    D = ball(n)
    x = Point([0.3] + [0.0] * (n - 1))
    for eps in (1e-7, 1e-8):
        y = Point([0.3, eps] + [0.0] * (n - 2))
        assert fn(D, x, y) == pytest.approx(green_function(D, x, y), rel=1e-12)


@pytest.mark.parametrize(
    "fn, n, radius, match",
    [
        (poisson_integral, 4, 0.6, "sphere"),
        (poisson_integral, 6, 0.6, "sphere"),
        (green_closed_n4, 4, 0.4, "inside the ball"),
        (green_closed_n6, 6, 0.4, "inside the ball"),
        (poisson_kernel, 4, 0.6, "sphere"),
        (green_function, 4, 0.4, "inside the ball"),
    ],
)
def test_nan_rows_and_points_are_rejected(fn, n, radius, match):
    # NaN fails every comparison, so each check must be one NaN cannot pass;
    # otherwise the row reaches the quadrature and fails there, or reads
    # as x = y. The five evaluators share these checks (geometry.sphere_rows
    # and ball_rows), so they also reject alike an x outside the ball and a
    # row 1e-9 off the sphere (Poisson) or outside the ball (Green)
    D = ball(n)
    x = Point([0.3] + [0.0] * (n - 1))
    ys = plane_points(n, radius, [0.5, 1.5])
    with pytest.raises(ValueError, match="inside the ball"):
        fn(D, Point([0.61] + [0.0] * (n - 1)), ys)
    with pytest.raises(ValueError, match=match):
        fn(D, x, plane_points(n, 0.6 + 1e-9, [0.5]))
    ys[1, 0] = math.nan
    with pytest.raises(ValueError, match=match):
        fn(D, x, ys)
    # a Point validates its coordinates when built; these are set after
    x.coords[0] = math.nan
    with pytest.raises(ValueError, match="inside the ball"):
        fn(D, x, ys[:1])


@pytest.mark.parametrize(
    "fn",
    [poisson_kernel, green_function, poisson_integral, green_closed_n4, green_closed_n6],
)
def test_points_of_another_dimension_are_rejected(fn):
    # a 3-vector in a 4-ball is a usage error, not a point whose missing
    # coordinate reads as 0; x and y are checked alike
    n = 6 if fn is green_closed_n6 else 4
    D = ball(n)
    x, x_short = Point([0.3] + [0.0] * (n - 1)), Point([0.3] + [0.0] * (n - 2))
    y, y_short = on_sphere(0.6, 1.0, n), on_sphere(0.6, 1.0, n - 1)
    for a, b in ((x, y_short), (x_short, y_short), (x_short, y), (x, y_short.coords[None, :])):
        with pytest.raises(ValueError, match=f"{n} coordinates"):
            fn(D, a, b)


def test_conjecture1_residual_n4_vanishes():
    dim = Dimension(4)
    for k in (1, 2, 7, 25, 50):
        for z in (0.05, 0.4, 0.95):
            assert abs(conjecture1_residual(dim, z, k)) < 1e-12


@pytest.mark.parametrize("n", [6, 8])
def test_conjecture1_residual_bounded(n):
    # not an identity beyond n=4; observed sup ~ 10.7 over this range
    dim = Dimension(n)
    worst = max(
        abs(conjecture1_residual(dim, z, k))
        for k in (1, 2, 5, 20, 100, 500)
        for z in (0.05, 0.3, 0.6, 0.9)
    )
    assert worst < 16


def test_conjecture1_validation():
    with pytest.raises(ValueError):
        conjecture1_residual(Dimension(4), 0.0, 3)
    with pytest.raises(ValueError):
        conjecture1_residual(Dimension(4), 0.5, 0)


# root layout fixed by independent Newton scans of the radial solutions; the
# zeros of F_k(z) in k are the poles of laplace_weight's groups at r^2 = z
@pytest.mark.parametrize(
    "n, z, rect, count",
    [
        (4, 0.5, (-5.0, -3.0, -1.0, 1.0), 1),
        (4, 0.5, (-3.0, -0.1, -1.0, 1.0), 0),
        (4, 0.5, (-2.1, 5.0, -2.0, 2.0), 0),
        (6, 0.25, (-6.2, -3.0, -2.0, 2.0), 2),
        (6, 0.25, (-3.0, -0.1, -2.0, 2.0), 0),
        (6, 0.04, (-5.0, -3.2, -1.0, 1.0), 2),
        (6, 0.04, (-3.2, -0.1, -1.0, 1.0), 0),
        (6, R2_CRIT, (-4.5, -3.0, -1.0, 1.0), 2),
        (6, R2_CRIT, (-3.0, -0.1, -1.0, 1.0), 0),
        (8, 0.36, (-8.5, -7.5, -1.0, 1.0), 1),
        # mp.polyroots of the exact P_0.36 at n=8: -7.9901 and -6.8800 +- 3.1556i
        (8, 0.36, (-8.5, -6.0, -4.0, 4.0), 3),
        (8, 0.36, (-7.5, -6.0, -4.0, 4.0), 2),
        # n=6 zeros solve (1-z)^2 k^2 + (7-8z+z^2) k + 12 = 0: the double
        # zero -2-sqrt(3) at the critical radius, -4.5 +- i sqrt(39)/6 at
        # z = 0.25, where the rectangle's left edge runs through both
        (6, R2_CRIT, (-4.5, -2 - math.sqrt(3) + 1e-3, -1.0, 1.0), 2),
        (6, 0.25, (-4.5, -3.0, -2.0, 2.0), None),
    ],
)
def test_conjecture2_zero_counts(n, z, rect, count):
    poles = []
    for g in laplace_weight(Dimension(n), 0.0, z):  # a lone pole -b or a pair -b +- c
        poles += [-g.b] if g.regime == "single-exponential" else [-g.b + g.c, -g.b - g.c]
    assert len(poles) == n // 2 - 1
    re_lo, re_hi, im_lo, im_hi = rect
    gaps = [min(p.real - re_lo, re_hi - p.real, p.imag - im_lo, im_hi - p.imag)
            for p in map(complex, poles)]
    if count is None:  # an edge runs through a zero
        assert min(abs(gap) for gap in gaps) <= 1e-12
    else:
        assert sum(gap > 1e-7 for gap in gaps) == count
        assert all(abs(gap) > 1e-7 for gap in gaps)
