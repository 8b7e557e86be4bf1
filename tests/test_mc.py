import hashlib
import math
import warnings

import numpy as np
import pytest

from exit_histogram import empirical_exit_density
from hypball import mc_sim
from hypball.geometry import BallDomain, Point
from hypball.kernels import poisson_coefficient, poisson_kernel
from hypball.mc_sim import (
    Potential,
    SdeConfig,
    estimate_gauge,
    exit_coefficients,
    simulate_cartesian,
    simulate_polar,
)
from hypball.specfun import Dimension

DIM4 = Dimension(4)
BALL4 = BallDomain(DIM4, 0.6)
X0 = Point((0.3, 0.0, 0.0, 0.0))


@pytest.fixture
def made(monkeypatch):
    """Every ExitSamples the simulators build, caught at construction (as
    estimate_gauge returns only the mean)."""
    made = []

    class Recorded(mc_sim.ExitSamples):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(mc_sim, "ExitSamples", Recorded)
    return made


def test_config_validation():
    for dt in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt"):
            SdeConfig(dt=dt, n_paths=10, seed=1)
    with pytest.raises(ValueError, match="n_paths"):
        SdeConfig(dt=1e-3, n_paths=0, seed=1)
    with pytest.raises(ValueError, match="n_paths"):
        SdeConfig(dt=1e-3, n_paths=10, seed=1, max_steps=0)
    with pytest.raises(ValueError, match="r_floor"):
        SdeConfig(dt=1e-3, n_paths=10, seed=1, r_floor=1.0)
    with pytest.raises(ValueError, match="scheme"):
        SdeConfig(dt=1e-3, n_paths=10, seed=1, scheme="milstein")
    with pytest.raises(ValueError, match="exit_mode"):
        SdeConfig(dt=1e-3, n_paths=10, seed=1, exit_mode="reflect")


def test_config_rejects_aliased_seeds_and_non_int_counts():
    # the seed keys the Philox stream as it is: -1 and 2**64 + 5 would
    # alias 2**64 - 1 and 5 under a 64-bit mask, so they are refused, as
    # are counts a step loop could not use
    for seed in (-1, 2**64, 2**64 + 5):
        with pytest.raises(ValueError, match="seed must lie"):
            SdeConfig(dt=1e-3, n_paths=10, seed=seed)
    SdeConfig(dt=1e-3, n_paths=10, seed=2**64 - 1)
    for field in ("seed", "n_paths", "max_steps"):
        for bad in (10.0, True, "10"):
            with pytest.raises(ValueError, match=f"{field} must be an int"):
                SdeConfig(**{"dt": 1e-3, "n_paths": 10, "seed": 1, field: bad})


def test_potential():
    q = Potential(2, DIM4)
    # k (k+n-2) (1-x)^2 / x at k=2, n=4: 8 (1-x)^2 / x
    assert q(0.5) == pytest.approx(8 * 0.25 / 0.5)
    assert Potential(0, DIM4)(0.3) == 0.0
    with pytest.raises(ValueError):
        Potential(-1, DIM4)


def test_simulate_cartesian_start_validation():
    cfg = SdeConfig(dt=1e-3, n_paths=4, seed=1)
    with pytest.raises(ValueError, match="nonzero"):
        simulate_cartesian(DIM4, Point((0.0, 0.0, 0.0, 0.0)), BALL4, cfg)
    with pytest.raises(ValueError, match="inside"):
        simulate_cartesian(DIM4, Point((0.7, 0.0, 0.0, 0.0)), BALL4, cfg)


def test_simulate_polar_start_validation():
    cfg = SdeConfig(dt=1e-3, n_paths=4, seed=1, scheme="polar")
    with pytest.raises(ValueError, match="R0"):
        simulate_polar(DIM4, 0.36, BALL4, cfg)
    with pytest.raises(ValueError, match="phi0"):
        simulate_polar(DIM4, 0.09, BALL4, cfg, phi0=1.5)


def test_simulators_reject_mismatched_dimensions():
    # checked before any path is stepped: a 4-D start in a 6-D ball, and a
    # start with too few coordinates, used to run or fail inside the loop
    cfg = SdeConfig(dt=1e-3, n_paths=4, seed=1)
    ball6 = BallDomain(Dimension(6), 0.6)
    with pytest.raises(ValueError, match="does not match"):
        simulate_cartesian(DIM4, X0, ball6, cfg)
    with pytest.raises(ValueError, match="4 coordinates"):
        simulate_cartesian(DIM4, Point((0.3, 0.0, 0.0)), BALL4, cfg)
    with pytest.raises(ValueError, match="does not match"):
        simulate_polar(DIM4, 0.09, ball6, cfg)
    with pytest.raises(ValueError, match="does not match"):
        estimate_gauge(DIM4, 1, 0.09, ball6, cfg)


def test_cartesian_replays_bit_identically():
    cfg = SdeConfig(dt=1e-3, n_paths=2000, seed=7)
    s1 = simulate_cartesian(DIM4, X0, BALL4, cfg)
    s2 = simulate_cartesian(DIM4, X0, BALL4, cfg)
    assert np.array_equal(s1.phi_exit, s2.phi_exit)
    assert np.array_equal(s1.tau_steps, s2.tau_steps)
    # frozen run signature: every path exits and the summary statistics
    # pin the scheme (they move if the stepping or stream keying changes)
    assert len(s1) == 2000
    assert s1.phi_exit.mean() == pytest.approx(0.5552267110542618, rel=1e-9)
    assert s1.tau_steps.mean() == pytest.approx(40.531, rel=1e-9)


def test_polar_bridge_replays_bit_identically():
    cfg = SdeConfig(dt=1e-3, n_paths=2000, seed=7, scheme="polar")
    s1 = simulate_polar(DIM4, 0.09, BALL4, cfg)
    s2 = simulate_polar(DIM4, 0.09, BALL4, cfg)
    assert np.array_equal(s1.phi_exit, s2.phi_exit)
    assert len(s1) == 2000
    assert s1.phi_exit.mean() == pytest.approx(0.5372170339426707, rel=1e-9)
    assert s1.tau_steps.mean() == pytest.approx(41.946, rel=1e-9)


def test_polar_grid_replays_bit_identically():
    cfg = SdeConfig(dt=1e-3, n_paths=2000, seed=7, scheme="polar",
                    exit_mode="grid")
    s1 = simulate_polar(DIM4, 0.09, BALL4, cfg)
    s2 = simulate_polar(DIM4, 0.09, BALL4, cfg)
    assert np.array_equal(s1.phi_exit, s2.phi_exit)
    assert len(s1) == 2000
    assert s1.phi_exit.mean() == pytest.approx(0.537726578722332, rel=1e-9)


def test_coord_sum_keeps_numpy_row_sum_order():
    # the Cartesian step sums the coordinates of its (n, m) state with
    # _coord_sum; each sum must keep the bits np.sum gives the path-major
    # rows, in the order this NumPy adds a row (left to right below 8
    # terms, eight running sums paired up to 128, halves above). Magnitudes
    # over 30 decades make any other order visible; the first columns are
    # all -0.0, which NumPy sums to +0.0
    rng = np.random.default_rng(5)
    for n in [*range(1, 41), 129, 300]:
        p = rng.choice([-1.0, 1.0], (n, 500)) * 10.0 ** rng.uniform(-15, 15, (n, 500))
        p[:, :3] = -0.0
        want = np.sum(np.ascontiguousarray(p.T), axis=1)
        assert np.array_equal(mc_sim._coord_sum(p).view(np.int64), want.view(np.int64)), n


# SHA-256 prefixes of everything a seeded run returns (exit steps, exit
# cosines, gauge integrals, path-step and floor-clamp counts) over two
# blocks of paths, the second one short. A change to any draw, rounding
# step or summation order of a step kernel moves them. They hold for one
# NumPy build, whose exp, tanh and BLAS kernels take part in the bits.
_STREAM_DIGESTS = {
    ("cartesian", 3): "cc08c2df57f95caf",
    ("cartesian", 4): "f2d1ae103f9ed99c",
    ("cartesian", 6): "3c80d8e31a30d9f3",
    ("cartesian", 8): "90f778a138035822",
    ("bridge", 3): "1c3a9df4c51b249c",
    ("bridge", 4): "501aca79ad59d1ac",
    ("bridge", 6): "98976d09bd4ced20",
    ("bridge", 8): "21e8ec33bc615f93",
    ("grid", 3): "679fe02161e93e1b",
    ("grid", 4): "e794cc841a3fa076",
    ("grid", 6): "93d238ffc3ef6795",
    ("grid", 8): "8576b1522b81ce60",
    ("gauge", 3): "5754af908958abee",
    ("gauge", 4): "e88c5b843671661a",
    ("gauge", 6): "3cfbb044a45bbf41",
    ("gauge", 8): "5ad59c9f3411d5ce",
}


def _pinned_run(kind, n):
    dim = Dimension(n)
    D = BallDomain(dim, 0.6)
    cfg = SdeConfig(dt=1e-3, n_paths=2**14 + 77, seed=42, r_floor=0.01,
                    scheme="cartesian" if kind == "cartesian" else "polar",
                    exit_mode="grid" if kind == "grid" else "bridge")
    if kind == "cartesian":
        x = np.zeros(n)
        x[:2], x[-1] = 0.2, -0.1  # |x| = 0.3, off every axis
        simulate_cartesian(dim, Point(x), D, cfg)
    elif kind == "gauge":
        estimate_gauge(dim, 2, 0.09, D, cfg)
    else:
        simulate_polar(dim, 0.09, D, cfg)


def _digest(samples):
    h = hashlib.sha256()
    for a in (samples.tau_steps, samples.phi_exit, samples.gauge_integral):
        h.update(b"" if a is None else a.tobytes())
    h.update(f"{samples.total_steps} {samples.clamped_steps}".encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("kind, n", list(_STREAM_DIGESTS))
def test_seeded_streams_are_pinned(kind, n, made):
    _pinned_run(kind, n)
    (s,) = made
    assert s.censored == 0
    # the polar floor at R = 0.01 is hit, so its clamp branch is pinned too
    assert (s.clamped_steps > 0) == (kind != "cartesian")
    assert _digest(s) == _STREAM_DIGESTS[kind, n]


def test_gauge_replays_and_decorrelates():
    cfg = SdeConfig(dt=1e-3, n_paths=2000, seed=7, scheme="polar")
    assert estimate_gauge(DIM4, 1, 0.09, BALL4, cfg) == estimate_gauge(
        DIM4, 1, 0.09, BALL4, cfg
    )
    other = SdeConfig(dt=1e-3, n_paths=2000, seed=8, scheme="polar")
    assert estimate_gauge(DIM4, 1, 0.09, BALL4, cfg) != estimate_gauge(
        DIM4, 1, 0.09, BALL4, other
    )


def test_seed_decorrelates_paths():
    a = simulate_cartesian(DIM4, X0, BALL4, SdeConfig(dt=1e-3, n_paths=500, seed=1))
    b = simulate_cartesian(DIM4, X0, BALL4, SdeConfig(dt=1e-3, n_paths=500, seed=2))
    assert not np.array_equal(a.phi_exit, b.phi_exit)


def test_gauge_at_k0_is_exactly_one():
    cfg = SdeConfig(dt=1e-3, n_paths=256, seed=9, scheme="polar")
    assert estimate_gauge(DIM4, 0, 0.09, BALL4, cfg) == (1.0, 0.0)


def test_censoring_is_counted_not_dropped():
    # a horizon near the median exit time censors a large minority
    cfg = SdeConfig(dt=1e-3, n_paths=400, seed=13, max_steps=40)
    s = simulate_cartesian(DIM4, X0, BALL4, cfg)
    assert 0 < len(s) < 400
    assert s.censored == 400 - len(s)
    assert s.censored_fraction == pytest.approx(s.censored / 400)


@pytest.mark.parametrize("kind", ["cartesian", "bridge", "grid", "gauge"])
def test_total_steps_counts_every_path_step(kind, made):
    # every exited path took tau_steps steps, every censored one max_steps
    cfg = SdeConfig(dt=1e-3, n_paths=400, seed=13, max_steps=40,
                    scheme="cartesian" if kind == "cartesian" else "polar",
                    exit_mode="grid" if kind == "grid" else "bridge")
    if kind == "cartesian":
        simulate_cartesian(DIM4, X0, BALL4, cfg)
    elif kind == "gauge":
        with pytest.warns(RuntimeWarning, match="censored"):
            estimate_gauge(DIM4, 1, 0.09, BALL4, cfg)
    else:
        simulate_polar(DIM4, 0.09, BALL4, cfg)
    (s,) = made
    assert s.censored > 0
    assert s.total_steps == s.tau_steps.sum() + s.censored * cfg.max_steps
    # exit cosines stay in range; only the gauge run carries its integral
    assert np.all(np.abs(s.phi_exit) <= 1.0)
    assert (s.gauge_integral is None) == (kind != "gauge")


def test_heavy_censoring_warns_on_gauge():
    cfg = SdeConfig(dt=1e-3, n_paths=400, seed=13, max_steps=40, scheme="polar")
    with pytest.warns(RuntimeWarning, match="censored"):
        estimate_gauge(DIM4, 1, 0.09, BALL4, cfg)


def test_all_censored_gauge_is_nan():
    cfg = SdeConfig(dt=1e-8, n_paths=64, seed=13, max_steps=1, scheme="polar")
    with pytest.warns(RuntimeWarning, match="censored"):
        est, se = estimate_gauge(DIM4, 1, 0.09, BALL4, cfg)
    assert math.isnan(est)
    assert se == math.inf


def test_floor_clamping_warns_when_dominant():
    # started just above a high floor, the grid chain clamps on far more
    # than 1% of its steps
    cfg = SdeConfig(dt=1e-3, n_paths=500, seed=3, max_steps=4000,
                    r_floor=0.05, scheme="polar", exit_mode="grid")
    with pytest.warns(RuntimeWarning, match="floor"):
        s = simulate_polar(DIM4, 0.055, BALL4, cfg)
    assert s.clamped_steps > 0.01 * s.total_steps


def test_cartesian_exit_law_matches_harmonic_measure():
    # 3e4 paths resolve the coefficients to ~2e-3; the weak second-order
    # step with bridge exits leaves discretization bias below that at
    # dt = 1e-3, so a fixed-seed 4 sigma gate is loose
    cfg = SdeConfig(dt=1e-3, n_paths=30000, seed=11)
    s = simulate_cartesian(DIM4, X0, BALL4, cfg)
    assert s.censored == 0
    est, se = exit_coefficients(s, DIM4, 3)
    assert est[0] == 1.0 and se[0] == 0.0
    for k in (1, 2, 3):
        target = poisson_coefficient(BALL4, k, 0.3)
        assert abs(est[k] - target) < 4 * se[k]


def test_exit_coefficients_need_two_samples():
    # one exit has no standard error: raise before numpy warns and returns nan
    one = simulate_polar(DIM4, 0.09, BALL4, SdeConfig(dt=1e-3, n_paths=1, seed=11))
    assert len(one) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="2 exit samples"):
            exit_coefficients(one, DIM4, 3)
        with pytest.raises(RuntimeError, match="2 exit samples"):
            exit_coefficients(mc_sim.ExitSamples([], [], None, 5), DIM4, 3)


def test_polar_exit_law_matches_harmonic_measure():
    cfg = SdeConfig(dt=1e-3, n_paths=30000, seed=11, scheme="polar")
    s = simulate_polar(DIM4, 0.09, BALL4, cfg)
    est, se = exit_coefficients(s, DIM4, 3)
    for k in (1, 2, 3):
        target = poisson_coefficient(BALL4, k, 0.3)
        assert abs(est[k] - target) < 4 * se[k]


def test_schemes_agree_mutually():
    cfg_c = SdeConfig(dt=1e-3, n_paths=30000, seed=11)
    cfg_p = SdeConfig(dt=1e-3, n_paths=30000, seed=11, scheme="polar")
    est_c, se_c = exit_coefficients(simulate_cartesian(DIM4, X0, BALL4, cfg_c),
                                    DIM4, 3)
    est_p, se_p = exit_coefficients(simulate_polar(DIM4, 0.09, BALL4, cfg_p),
                                    DIM4, 3)
    for k in (1, 2, 3):
        assert abs(est_c[k] - est_p[k]) < 4 * math.hypot(se_c[k], se_p[k])


def test_gauge_matches_poisson_coefficient():
    cfg = SdeConfig(dt=1e-3, n_paths=30000, seed=11, scheme="polar")
    est, se = estimate_gauge(DIM4, 1, 0.09, BALL4, cfg)
    assert abs(est - poisson_coefficient(BALL4, 1, 0.3)) < 4 * se


def test_grid_exit_bias_shrinks_with_dt():
    # the plain first-grid-crossing scheme undershoots the k=1 coefficient
    # by O(sqrt(dt)); quartering dt repeatedly must walk the bias toward 0
    target = poisson_coefficient(BALL4, 1, 0.3)
    biases = []
    for dt in (2e-3, 5e-4, 1.25e-4):
        cfg = SdeConfig(dt=dt, n_paths=60000, seed=2024, scheme="polar",
                        exit_mode="grid", max_steps=int(40 / dt))
        s = simulate_polar(DIM4, 0.09, BALL4, cfg)
        assert s.censored == 0
        est, _ = exit_coefficients(s, DIM4, 1)
        biases.append(est[1] - target)
    assert biases[0] < biases[1] < biases[2] < 0
    assert biases[0] < -0.03
    assert abs(biases[2]) < 0.01


def test_exit_histogram_estimates_poisson_kernel():
    cfg = SdeConfig(dt=1e-3, n_paths=20000, seed=17, scheme="polar")
    s = simulate_polar(DIM4, 0.09, BALL4, cfg)
    hist = empirical_exit_density(s, DIM4, BALL4.r, bins=200)
    assert hist.counts.sum() == len(s)
    assert hist.n_samples == len(s)
    # fine binning at 2e4 samples leaves some far-side bins empty: those
    # are NaN (missing), never zero
    empty = hist.counts == 0
    assert empty.any()
    assert np.isnan(hist.density[empty]).all()
    assert np.isfinite(hist.density[~empty]).all()
    # occupied-bin masses add back to the sample count
    mass = np.nansum(
        np.where(empty, 0.0, hist.density)
        * _bin_weights(hist, DIM4, BALL4.r)
    )
    assert mass == pytest.approx(1.0, abs=1e-12)
    # against the kernel, 5 sigma per populated mid-range bin
    for i in range(0, 120, 7):
        if empty[i]:
            continue
        y = Point(BALL4.r * (1 - 1e-15) * np.array(
            [math.cos(hist.theta_mid[i]), math.sin(hist.theta_mid[i]), 0.0, 0.0]
        ))
        k = poisson_kernel(BALL4, X0, y)
        assert abs(hist.density[i] - k) < 5 * hist.std_error[i]


def _bin_weights(hist, dim, r):
    from hypball.geometry import unit_sphere_area

    nodes, wts = np.polynomial.legendre.leggauss(32)
    half = 0.5 * np.diff(hist.bin_edges)
    t = hist.theta_mid[:, None] + half[:, None] * nodes[None, :]
    return (
        unit_sphere_area(dim.n - 2)
        * r ** (dim.n - 1)
        * half
        * (np.sin(t) ** (dim.n - 2) @ wts)
    )


def test_exit_histogram_validation():
    cfg = SdeConfig(dt=1e-3, n_paths=512, seed=5, scheme="polar")
    small = simulate_polar(DIM4, 0.09, BALL4, cfg)
    with pytest.raises(ValueError, match="1e4"):
        empirical_exit_density(small, DIM4, BALL4.r, bins=32)
    cfg_big = SdeConfig(dt=2e-3, n_paths=10**4, seed=5, scheme="polar")
    big = simulate_polar(DIM4, 0.09, BALL4, cfg_big)
    with pytest.raises(ValueError, match="bin"):
        empirical_exit_density(big, DIM4, BALL4.r, bins=0)
