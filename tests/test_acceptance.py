"""Release gate: every numerical guarantee the package advertises, one
test per guarantee, each at its advertised tolerance and runtime budget.
Everything here runs against public API only (plus the scalar Gegenbauer
polynomial and the mpmath radial zeros of the test helpers); the unit
modules cover the internals."""

import json
import math
import time

import mpmath as mp
import numpy as np
import pytest
from mp_reference import radial_zeros
from reference_helpers import gegenbauer

from hypball.cli import parse_config, run
from hypball.closedform import (
    H_function,
    conjecture1_residual,
    green_closed_n4,
    green_closed_n6,
    laplace_weight,
    poisson_integral,
)
from hypball.geometry import BallDomain, Point, unit_sphere_area
from hypball.kernels import (
    SeriesControl,
    green_function,
    poisson_coefficient,
    poisson_from_green_derivative,
    poisson_kernel,
)
from hypball.mc_sim import (
    SdeConfig,
    estimate_gauge,
    exit_coefficients,
    simulate_cartesian,
    simulate_polar,
)
from hypball.specfun import (
    Dimension,
    wronskian_residual,
)
from scipy import integrate

R2_CRIT = 7 - 4 * math.sqrt(3)


def axis_point(n, radius):
    v = np.zeros(n)
    v[0] = radius
    return Point(v)


def plane_point(n, radius, theta):
    v = np.zeros(n)
    v[0] = radius * math.cos(theta)
    v[1] = radius * math.sin(theta)
    return Point(v)


def test_accept_01_wronskian_residuals():
    # F_k G_(k+1) - z a_k F_(k+1) G_k = (1-z)^(n-1) to 1e-12 relative to
    # the terms, every dimension, k = 1..30, z across (0, 1)
    t0 = time.perf_counter()
    zs = [0.05 * j for j in range(1, 20)]
    worst = 0.0
    for n in range(3, 9):
        dim = Dimension(n)
        for k in range(1, 31):
            for z in zs:
                worst = max(worst, abs(wronskian_residual(dim, k, z)) / 1e-12)
    elapsed = time.perf_counter() - t0
    assert worst <= 1.0
    assert elapsed < 5.0
    print(f"wronskian residuals: PASS (worst {worst:.2e} of bound, {elapsed:.1f}s)")


def test_accept_02_poisson_normalization():
    # omega_{n-2} r^{n-1} int_0^pi P sin^{n-2} = 1 +- 1e-6
    t0 = time.perf_counter()
    nodes, wts = np.polynomial.legendre.leggauss(192)
    theta = 0.5 * math.pi * (nodes + 1.0)
    worst = 0.0
    for n in (3, 4, 5, 6):
        dim = Dimension(n)
        for r in (0.3, 0.6, 0.9):
            D = BallDomain(dim, r)
            for frac in (0.0, 1.0 / 3.0, 2.0 / 3.0):
                x = axis_point(n, frac * r)
                vals = np.array(
                    [poisson_kernel(D, x, plane_point(n, r, t)) for t in theta]
                )
                mass = (
                    unit_sphere_area(n - 2) * r ** (n - 1) * 0.5 * math.pi
                    * float(np.sum(wts * vals * np.sin(theta) ** (n - 2)))
                )
                worst = max(worst, abs(mass - 1.0))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 30.0
    print(f"poisson normalization: PASS (worst {worst:.2e}, {elapsed:.1f}s)")


def test_accept_03_series_vs_closed_form():
    # spectral series and integral representations agree to 1e-6 absolute:
    # Poisson on a 16 x 8 grid (n=4, n=6 in all three weight regimes, the
    # critical radius hit exactly, and n=8), Green on 50 random pairs each
    t0 = time.perf_counter()
    worst_p = 0.0
    for n, r in ((4, 0.6), (6, 0.2), (6, math.sqrt(R2_CRIT)), (6, 0.6), (8, 0.3), (8, 0.6)):
        D = BallDomain(Dimension(n), r)
        for i in range(16):
            x = axis_point(n, r * (i + 1) / 17)
            for j in range(8):
                y = plane_point(n, r, (j + 1) * math.pi / 9)
                diff = abs(poisson_kernel(D, x, y) - poisson_integral(D, x, y))
                worst_p = max(worst_p, diff)
    assert worst_p <= 1e-6

    ctl = SeriesControl(k_max=4000, tol=1e-9)
    rng = np.random.default_rng(20250815)
    worst_g = 0.0

    def pairs(n, r, count):
        D = BallDomain(Dimension(n), r)
        made = 0
        while made < count:
            ax, ay = rng.uniform(0.05 * r, 0.95 * r, size=2)
            ang = rng.uniform(0.0, math.pi)
            # separated arguments; equal and near-equal radii are allowed
            x, y = axis_point(n, ax), plane_point(n, ay, ang)
            if np.linalg.norm(x.coords - y.coords) < 0.05 * r:
                continue
            made += 1
            yield D, x, y

    for D, x, y in pairs(4, 0.6, 50):
        worst_g = max(
            worst_g, abs(green_function(D, x, y, ctl) - green_closed_n4(D, x, y))
        )
    for r, count in ((0.2, 17), (math.sqrt(R2_CRIT), 17), (0.6, 16)):
        for D, x, y in pairs(6, r, count):
            worst_g = max(
                worst_g, abs(green_function(D, x, y, ctl) - green_closed_n6(D, x, y))
            )
    elapsed = time.perf_counter() - t0
    assert worst_g <= 1e-6
    assert elapsed < 120.0
    print(f"series vs closed form: PASS (poisson {worst_p:.2e}, "
          f"green {worst_g:.2e}, {elapsed:.1f}s)")


def test_accept_04_laplace_and_moment_identities():
    # int_0^inf w(v) e^{-kv} dv = H(k) to 1e-8; the k = -rho moment and the
    # h-weighted moment to 1e-9; the n=4 rational H and its x-independence
    # to 1e-12
    worst_lap = worst_mom = 0.0
    for n, r2 in ((4, 0.36), (6, 0.04), (6, R2_CRIT), (6, 0.36)):
        dim = Dimension(n)
        x2 = r2 / 4
        w = laplace_weight(dim, x2, r2)
        for k in (0, 1, 2, 3, 5, 10):
            val, _ = integrate.quad(
                lambda v: w(v) * math.exp(-k * v), 0, 200, limit=200
            )
            worst_lap = max(worst_lap, abs(val - H_function(dim, x2, r2, k)))
        rho = dim.rho
        vcut = 650.0 / rho
        m0, _ = integrate.quad(
            lambda v: w(v) * math.exp(rho * v) if v < vcut else 0.0,
            0, np.inf, limit=400,
        )
        expect0 = (n / 2) * ((1 - x2) * (1 - r2)) ** (rho - 1)
        worst_mom = max(worst_mom, abs(m0 - expect0))
        worst_mom = max(worst_mom, abs(m0 - H_function(dim, x2, r2, -rho)))
        def h(v):
            return x2 * math.expm1(-v) + r2 * math.expm1(v)

        mh, _ = integrate.quad(
            lambda v: w(v) * h(v) * math.exp(rho * v) if v < vcut else 0.0,
            0, np.inf, limit=400,
        )
        worst_mom = max(worst_mom, abs(mh - ((1 - x2) * (1 - r2)) ** rho / rho))
    assert worst_lap <= 1e-8
    assert worst_mom <= 1e-9

    dim = Dimension(4)
    r2 = 0.36
    worst_n4 = 0.0
    for k in (0.0, 0.5, 1.0, 3.7, 10.0):
        closed = 2 * (1 + r2) / (1 - r2) / (k + 2 / (1 - r2))
        vals = [H_function(dim, x2, r2, k) for x2 in (0.0, 0.09, 0.2, 0.3)]
        worst_n4 = max(worst_n4, max(abs(v - closed) for v in vals))
        worst_n4 = max(worst_n4, max(vals) - min(vals))
    assert worst_n4 <= 1e-12
    print(f"laplace identities: PASS (transform {worst_lap:.2e}, "
          f"moments {worst_mom:.2e}, n=4 closed {worst_n4:.2e})")


def test_accept_05_green_structure():
    # boundary vanishing below 1e-5 of mid-domain, exact swap symmetry,
    # first-order h-convergence of the normal-derivative link
    for n in (3, 4, 5, 6):
        dim = Dimension(n)
        D = BallDomain(dim, 0.6)
        x = axis_point(n, 0.24)
        mid = max(
            green_function(D, x, plane_point(n, rad * 0.6, ang))
            for rad, ang in ((0.45, 0.3), (0.5, 0.5), (0.5, 1.0))
        )
        edge = green_function(D, x, plane_point(n, 0.6 - 1e-4, 2.0))
        assert abs(edge / mid) < 1e-5

        a = plane_point(n, 0.21, 0.7)
        b = plane_point(n, 0.33, 2.1)
        gab = green_function(D, a, b)
        assert gab == green_function(D, b, a)

        u = plane_point(n, 0.6, 1.1)
        exact = poisson_kernel(D, x, u)
        err = [
            abs(poisson_from_green_derivative(D, x, u, h) - exact)
            for h in (1e-3, 5e-4)
        ]
        assert err[0] / err[1] == pytest.approx(2.0, abs=0.3)
    print("green structure: PASS (vanishing, symmetry, derivative link; n=3..6)")


@pytest.mark.slow
def test_accept_06_monte_carlo_exit_law():
    # 1e6 paths, dt = 5e-4, start |x| = 0.3 in the r = 0.6 ball: both
    # schemes match the analytic coefficients to k = 5 within 3 standard
    # errors and each other within 3 combined; the radial gauge matches to
    # k = 3; censoring below 0.1%
    t0 = time.perf_counter()
    worst = 0.0
    for n in (4, 6):
        dim = Dimension(n)
        D = BallDomain(dim, 0.6)
        x0 = axis_point(n, 0.3)
        targets = [poisson_coefficient(D, k, 0.3) for k in range(6)]
        cfg_c = SdeConfig(dt=5e-4, n_paths=10**6, seed=42)
        cfg_p = SdeConfig(dt=5e-4, n_paths=10**6, seed=42, scheme="polar")
        sc = simulate_cartesian(dim, x0, D, cfg_c)
        sp = simulate_polar(dim, 0.09, D, cfg_p)
        assert sc.censored_fraction < 1e-3
        assert sp.censored_fraction < 1e-3
        ec, sec = exit_coefficients(sc, dim, 5)
        ep, sep = exit_coefficients(sp, dim, 5)
        assert ec[0] == 1.0 and ep[0] == 1.0
        for k in range(1, 6):
            z_c = abs(ec[k] - targets[k]) / sec[k]
            z_p = abs(ep[k] - targets[k]) / sep[k]
            z_m = abs(ec[k] - ep[k]) / math.hypot(sec[k], sep[k])
            worst = max(worst, z_c, z_p, z_m)
            assert z_c < 3.0 and z_p < 3.0 and z_m < 3.0
        assert estimate_gauge(dim, 0, 0.09, D, cfg_p) == (1.0, 0.0)
        for k in (1, 2, 3):
            g, gse = estimate_gauge(dim, k, 0.09, D, cfg_p)
            z_g = abs(g - targets[k]) / gse
            worst = max(worst, z_g)
            assert z_g < 3.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"monte carlo exit law: PASS (worst |z| {worst:.2f}, {elapsed:.0f}s)")


def test_accept_07_conjecture_probes(tmp_path):
    # the n=4 large-k expansion residual is exactly zero (float rounding
    # grows like k^2 ulp, so the raw 1e-12 bound applies through k = 50 and
    # the rounding envelope beyond); n in {6, 8} stay bounded to k = 500;
    # zero counts match the known roots and vanish right of them
    zs = [0.1 * j for j in range(1, 10)]
    for k in (1, 2, 5, 10, 20, 50, 100, 200, 500):
        res = max(conjecture1_residual(Dimension(4), z, k) for z in zs)
        assert res <= max(1e-12, k * k * 5e-16)
    for n in (6, 8):
        for k in (1, 2, 5, 10, 20, 50, 100, 200, 500):
            res = max(conjecture1_residual(Dimension(n), z, k) for z in zs)
            assert res <= 16.0

    out = tmp_path / "conj.json"
    for r in (0.05, 0.2, 0.6, 0.95):
        argv = ["conjecture-scan", "--n", "4..8", "--r", repr(r), "--x", "0",
                "--format", "json", "--output", str(out)]
        assert run(parse_config(argv)) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["pass"] is True
        rows = {row["n"]: row for row in doc["rows"] if row["probe"] == "conj2"}
        assert rows[4]["value"] == pytest.approx(2 / (1 - r * r), rel=1e-15, abs=0)
        for n in (6, 8):
            exact = -max(mp.re(p) for p in radial_zeros(n, r * r))
            assert rows[n]["value"] == pytest.approx(float(exact), rel=1e-12, abs=0)
        for n, row in rows.items():
            assert row["parameter"] == n / 2 and row["value"] > n / 2 and row["pass"]
    print("conjecture probes: PASS (expansion residuals, zero-free half-plane)")


def test_accept_08_generating_function_suite():
    # the four Euclidean expansions behind the closed forms, summed to
    # k = 400, reproduce their kernels to 1e-8 up to ratio |x|/|y| = 0.7
    K = 400
    rng = np.random.default_rng(7)
    worst = 0.0
    for t in (0.2, 0.5, 0.7):
        for c in rng.uniform(-1.0, 1.0, 8):
            ay = 0.9
            ax = t * ay
            d2 = ax * ax + ay * ay - 2 * ax * ay * c
            # |x-y|^(2-n) = |y|^(2-n) sum t^k C_k^(rho)(c)
            for n in (3, 4, 5, 6):
                rho = (n - 2) / 2
                s = sum(t**k * gegenbauer(rho, k, c) for k in range(K + 1))
                worst = max(worst, abs(d2 ** ((2 - n) / 2) - ay ** (2 - n) * s))
            # (r^2-|x|^2)/|x-y|^n = r^(2-n) sum (k+rho)/rho t^k C_k^(rho)(c)
            for n in (3, 4, 5, 6):
                rho = (n - 2) / 2
                s = sum(
                    (k + rho) / rho * t**k * gegenbauer(rho, k, c)
                    for k in range(K + 1)
                )
                worst = max(
                    worst,
                    abs((ay**2 - ax**2) / d2 ** (n / 2) - ay ** (2 - n) * s),
                )
            # log|x-y|^-1 = log|y|^-1 + 1/2 sum_{k>=1} t^k C_k^(0)(c)
            s = sum(t**k * gegenbauer(0.0, k, c) for k in range(1, K + 1))
            worst = max(
                worst, abs(-0.5 * math.log(d2) - (-math.log(ay) + 0.5 * s))
            )
            # 4 log|x-y|^-1 = 4 log|y|^-1 - t^2
            #   - 2 sum_{k>=1} t^k (t^2/(k+2) - 1/k) C_k^(1)(c)
            s = sum(
                t**k * (t * t / (k + 2) - 1.0 / k) * gegenbauer(1.0, k, c)
                for k in range(1, K + 1)
            )
            worst = max(
                worst,
                abs(-2.0 * math.log(d2) - (-4.0 * math.log(ay) - t * t - 2.0 * s)),
            )
    assert worst <= 1e-8
    print(f"generating functions: PASS (worst {worst:.2e})")


def test_accept_09_byte_identical_reruns(tmp_path):
    # identical resolved configs (seed included) rewrite identical bytes
    coeff = tmp_path / "coeffs.csv"
    argv = ["coeffs", "--kmax", "12", "--output", str(coeff)]
    assert run(parse_config(argv)) == 0
    first = coeff.read_bytes()
    assert run(parse_config(argv)) == 0
    assert coeff.read_bytes() == first

    mc = tmp_path / "mc.json"
    argv = ["mc-validate", "--paths", "20000", "--dt", "1e-3", "--kmax", "3",
            "--format", "json", "--output", str(mc)]
    assert run(parse_config(argv)) == 0
    first = mc.read_bytes()
    assert run(parse_config(argv)) == 0
    assert mc.read_bytes() == first
    assert json.loads(first.decode())["meta"]["pass"] is True
    print("byte-identical reruns: PASS (csv and json, mc seeded)")
