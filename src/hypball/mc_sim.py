"""Monte Carlo validation of the exit law. Hyperbolic Brownian motion is
run to the exit of a centered ball with Euler-Maruyama in two independent
coordinates (the full Cartesian SDE and the polar (R, Phi) pair), using
the variance-2t Brownian convention throughout: every increment is
sqrt(2 dt) xi. Exit-law Gegenbauer statistics and the Feynman-Kac gauge
functional E exp(-int q(R_s) ds) are estimated with standard errors.

One driver, _simulate, runs every scheme: paths are simulated in
fixed-size blocks, each block driven by its own counter-based Philox
stream keyed on (seed, scheme, block index), so runs replay
bit-identically and blocks could execute in any order. A scheme supplies
only its per-step update.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import unit_sphere_area
from .specfun import Dimension, gegenbauer_at_one, gegenbauer_sequence

_BLOCK = 1 << 14

# scheme discriminators folded into the Philox key so the three kinds of
# simulation never share a stream even under the same seed
_STREAM_CARTESIAN = 0
_STREAM_POLAR = 1
_STREAM_GAUGE = 2


@dataclass(frozen=True)
class SdeConfig:
    """Simulation parameters. dt * max_steps must be generous enough that
    the per-path exit probability exceeds 0.999 (the censored fraction in
    the results is the check). exit_mode 'bridge' applies the per-step
    Brownian-bridge crossing probability, removing the O(sqrt(dt))
    first-crossing bias; 'grid' is plain first grid crossing, kept for
    dt-refinement bias studies."""

    dt: float
    n_paths: int
    seed: int
    max_steps: int = 20000
    r_floor: float = 1e-8
    scheme: str = "cartesian"
    exit_mode: str = "bridge"

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if self.n_paths < 1 or self.max_steps < 1:
            raise ValueError("n_paths and max_steps must be >= 1")
        if not 0 < self.r_floor < 1:
            raise ValueError("r_floor must be in (0, 1)")
        if self.scheme not in ("cartesian", "polar"):
            raise ValueError("scheme must be 'cartesian' or 'polar'")
        if self.exit_mode not in ("bridge", "grid"):
            raise ValueError("exit_mode must be 'bridge' or 'grid'")


class ExitSamples:
    """Exit events of the paths that left the ball, one array entry per
    path: tau_steps (step count at exit), phi_exit (exit cosine
    cos(angle(x0, X_tau)), in [-1, 1]) and gauge_integral (the accumulated
    potential int_0^tau q(R_s) ds, or None when no potential was run), plus
    censoring, floor-clamp and path-step accounting."""

    def __init__(self, tau_steps, phi_exit, gauge_integral, n_requested,
                 clamped_steps=0, total_steps=0):
        self.tau_steps = np.asarray(tau_steps, dtype=np.int64)
        self.phi_exit = np.asarray(phi_exit, dtype=float)
        self.gauge_integral = (
            None if gauge_integral is None else np.asarray(gauge_integral, float)
        )
        self.n_requested = int(n_requested)
        self.clamped_steps = int(clamped_steps)
        self.total_steps = int(total_steps)

    def __len__(self):
        return len(self.phi_exit)

    @property
    def censored(self):
        return self.n_requested - len(self)

    @property
    def censored_fraction(self):
        return self.censored / self.n_requested


@dataclass(frozen=True)
class Potential:
    """Radial Feynman-Kac potential q(x) = k (k+n-2) (1-x)^2 / x, positive
    on (0,1); its gauge is the normalized Gegenbauer exit coefficient."""

    k: int
    n: Dimension

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be >= 0")

    def __call__(self, x):
        return self.k * (self.k + self.n.n - 2) * (1 - x) ** 2 / x


def _block_sizes(n_paths):
    sizes = [_BLOCK] * (n_paths // _BLOCK)
    if n_paths % _BLOCK:
        sizes.append(n_paths % _BLOCK)
    return sizes


def _check_ball(dim, D):
    if dim != D.dim:
        raise ValueError(f"dimension n={dim.n} does not match the ball's n={D.dim.n}")


def _rng(seed, stream, block):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, (stream << 48) | block],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _simulate(cfg, stream, start, step, gauge=False):
    """Block driver shared by every scheme. Paths run in blocks, each
    with its own Philox stream keyed on (seed, stream, block index). A
    block starts every path from start, one value (scalar or vector) per
    state array. step(state, rng) advances the state tuple by one time
    step and returns (state, exited, exit_value, clamps); exit_value holds
    one entry per exited path (the exit cosine, or the gauge integral when
    gauge is set) and is read only when some path exited. Exited paths are
    recorded with their step count and dropped; paths still inside after
    max_steps are censored. Floor clamps beyond 1% of the path-steps
    warn."""
    taus, values = [], []
    clamped = 0
    total_steps = 0
    for block, m0 in enumerate(_block_sizes(cfg.n_paths)):
        rng = _rng(cfg.seed, stream, block)
        state = tuple(np.full((m0,) + np.shape(v), v, dtype=float) for v in start)
        for i in range(1, cfg.max_steps + 1):
            m = len(state[0])
            if m == 0:
                break
            total_steps += m
            state, exited, value, clamps = step(state, rng)
            clamped += clamps
            if exited.any():
                taus.append(np.full(int(exited.sum()), i, dtype=np.int64))
                values.append(value)
                keep = ~exited
                state = tuple(a[keep] for a in state)
    taus = np.concatenate(taus) if taus else np.empty(0, dtype=np.int64)
    values = np.concatenate(values) if values else np.empty(0)
    # a gauge chain does not simulate Phi; its exit cosine is unused
    phis, gauges = (np.ones(len(taus)), values) if gauge else (values, None)
    out = ExitSamples(taus, phis, gauges, cfg.n_paths, clamped, total_steps)
    if total_steps and clamped / total_steps > 0.01:
        warnings.warn(
            f"R hit the floor on {clamped}/{total_steps} steps; "
            "dt is too coarse for this start",
            RuntimeWarning,
        )
    return out


def simulate_cartesian(dim, x0, D, cfg):
    """Weak second-order step for the Cartesian SDE

        dX = (1 - |X|^2) (sqrt(2) dB + 2 (n-2) X dt),

    stopped at the exit of the ball of radius r: the Euler-Maruyama
    increment X <- X + (1-|X|^2)(sqrt(2 dt) xi + 2 (n-2) X dt) plus the
    Milstein and dt*dW / dt^2 terms of the simplified order-2 weak Taylor
    scheme (Gaussian increments; the Levy areas replaced by antisymmetric
    two-point variables, which is enough for weak convergence). Plain
    Euler leaves an O(dt) bias in the exit law that grows like (n-2)^2
    and is visible against the 10^6-path validation resolution at n = 6.
    In bridge mode a step that stays inside still exits with the
    Brownian-bridge probability exp(-2 (r-rho0)(r-rho1)/s^2) for the
    radial component, s^2 = 2 dt (1-|X|^2)^2. The exit cosine is read at
    the estimated crossing point of the step segment (interpolated for a
    step ending outside, the conditional-mean fraction for a bridge
    exit). Censored paths (no exit within max_steps) are counted, not
    dropped."""
    _check_ball(dim, D)
    n = dim.n
    r = D.r
    x0v = np.asarray(x0.coords, dtype=float)
    if x0v.shape != (n,):
        raise ValueError(f"x0 needs {n} coordinates, got {x0v.size}")
    ax0 = float(np.linalg.norm(x0v))
    if ax0 == 0.0:
        raise ValueError("x0 must be nonzero (it fixes the reference axis)")
    if ax0 >= r:
        raise ValueError("x0 must lie inside the ball of radius r")
    dt = cfg.dt
    root = math.sqrt(dt)
    pairs = [(j, l) for j in range(n) for l in range(j + 1, n)]

    def step(state, rng):
        x, rho = state
        m = len(rho)
        r2 = rho * rho
        sig = (1.0 - r2)[:, None]
        dw = root * rng.standard_normal((m, n))
        # antisymmetric two-point V: V_jl = +-dt (j<l), V_jj = -dt;
        # M_l = sum_j X_j V_jl stands in for the Ito double integrals
        signs = dt * (2.0 * rng.integers(0, 2, (m, len(pairs))) - 1.0)
        mcol = -dt * x
        for idx, (j, l) in enumerate(pairs):
            mcol[:, l] += x[:, j] * signs[:, idx]
            mcol[:, j] -= x[:, l] * signs[:, idx]
        xdw = np.sum(x * dw, axis=1, keepdims=True)
        coef = ((n - 2) * r2 + 1.0 - r2)[:, None]
        x_new = (
            x
            + sig * (math.sqrt(2) * dw + (2 * (n - 2) * dt) * x)
            - 2 * sig * (xdw * dw + mcol)
            - 2 * math.sqrt(2) * dt * sig * (coef * dw + (n - 2) * xdw * x)
            - (4 * (n - 2) * dt * dt) * sig * (2 * (1.0 - r2) + (n - 2) * r2)[
                :, None
            ] * x
        )
        rho1 = np.linalg.norm(x_new, axis=1)
        grid_hit = rho1 >= r
        exited = grid_hit
        if cfg.exit_mode == "bridge":
            u = rng.random(m)
            s2 = 2 * dt * (1.0 - r2) ** 2
            p = np.exp(-2 * (r - rho) * np.maximum(r - rho1, 0.0) / s2)
            exited = grid_hit | (u < p)
        phi = None
        if exited.any():
            # exit direction read at the estimated crossing point on the
            # step segment, not at the endpoint: the endpoint has diffused
            # past the crossing and biases C_k(Phi) low
            gh = grid_hit[exited]
            seg = x_new[exited] - x[exited]
            a = np.sum(seg * seg, axis=1)
            b = 2 * np.sum(x[exited] * seg, axis=1)
            c = rho[exited] ** 2 - r * r
            lam_grid = (-b + np.sqrt(b * b - 4 * a * c)) / (2 * a)
            d0 = r - rho[exited]
            d1 = np.maximum(r - rho1[exited], 0.0)
            lam = np.where(gh, lam_grid, d0 / (d0 + d1))
            hit = x[exited] + lam[:, None] * seg
            phi = np.clip(hit @ x0v / (np.linalg.norm(hit, axis=1) * ax0), -1.0, 1.0)
        return (x_new, rho1), exited, phi, 0

    return _simulate(cfg, _STREAM_CARTESIAN, (x0v, ax0), step)


def _polar_grid_core(dim, R0, phi0, D, cfg, potential, stream):
    """Plain Euler-Maruyama loop for the polar pair (R, Phi), exit at the
    first grid crossing; when a potential is given, Phi is not simulated
    (the gauge only needs R) and the left-endpoint Riemann sum of q(R) dt
    is accumulated in its place."""
    n = dim.n
    r2 = D.r**2
    root = math.sqrt(2 * cfg.dt)
    gauge = potential is not None

    def step(state, rng):
        R, phi = state  # phi holds the gauge integral J when gauge is set
        xi = rng.standard_normal((len(R), 1 if gauge else 2))
        one_m = 1.0 - R
        Rn = R + 2 * one_m * (
            np.sqrt(R) * root * xi[:, 0] + ((n - 4) * R + n) * cfg.dt
        )
        clamps = int((Rn < cfg.r_floor).sum())
        Rn = np.maximum(Rn, cfg.r_floor)
        if gauge:
            phi = phi + potential(R) * cfg.dt
        else:
            phi = phi + one_m * np.sqrt(
                np.clip(1 - phi * phi, 0, None) / R
            ) * root * xi[:, 1] - (n - 1) * one_m * one_m / R * phi * cfg.dt
            phi = np.clip(phi, -1.0, 1.0)
        exited = Rn >= r2
        return (Rn, phi), exited, phi[exited], clamps

    return _simulate(cfg, stream, (R0, 0.0 if gauge else phi0), step, gauge)


def _cot_minus_inv(x):
    """cot x - 1/x, regular at the origin."""
    small = x < 0.05
    xs = np.where(small, x, 1.0)
    series = -xs / 3.0 - xs**3 / 45.0
    xd = np.where(small, 1.0, x)
    return np.where(small, series, 1.0 / np.tan(xd) - 1.0 / xd)


_CROSS_NODES, _CROSS_WTS = np.polynomial.legendre.leggauss(96)
_CROSS_TAN = np.tan(0.25 * math.pi * (_CROSS_NODES + 1.0))
_CROSS_WTS = 0.25 * math.pi * _CROSS_WTS


def _mean_crossing_fraction(delta0, delta1):
    """Conditional mean of the fraction of a step at which a Brownian
    bridge first crosses the barrier, given the start and end distances
    delta0, delta1 in units of the step deviation (the end distance
    unsigned: overshoot and shortfall enter alike). The fraction u has
    density ~ u^-3/2 (1-u)^-1/2 exp(-delta0^2/(2u) - delta1^2/(2(1-u)));
    substituting tan(t)^2 = (1-u)/u collapses its mean to

        E[u] = delta0 sqrt(2/pi)
               int_0^{pi/2} exp(-(delta0 tan t - delta1 cot t)^2 / 2) dt,

    which a fixed Gauss-Legendre rule integrates to float accuracy."""
    g = np.outer(delta0, _CROSS_TAN) - np.outer(delta1, 1.0 / _CROSS_TAN)
    est = delta0 * math.sqrt(2.0 / math.pi) * (np.exp(-0.5 * g * g) @ _CROSS_WTS)
    return np.clip(est, 0.0, 1.0)


def _sphere_angle_step(theta, f_dt, rng, n, m_sub=4):
    """One weak step of the polar angle of a sphere Brownian motion run
    for rate-time f_dt (one entry per path): theta solves
    dtheta = sqrt(2f) dW + (n-2) f cot(theta) dt. Away from the poles the
    cot drift is handled by a predictor-corrector (weak second order, the
    diffusion coefficient being constant); within five standard
    deviations of a pole, where cot is stiff, the step is taken as m_sub
    flat (n-1)-dimensional embedding substeps with the curvature drift
    correction (n-2) f dt (cot theta - 1/theta), regular at the pole.
    Mirror symmetry folds everything onto [0, pi/2] first."""
    s = np.sqrt(2.0 * f_dt)
    upper = theta > 0.5 * math.pi
    th = np.where(upper, math.pi - theta, theta)
    near = th < 5.0 * s
    far = np.nonzero(~near)[0]
    pole = np.nonzero(near)[0]
    if far.size:
        xi = rng.standard_normal(far.size)
        t0 = th[far]
        drift = (n - 2) * f_dt[far]
        b0 = drift / np.tan(t0)
        pred = np.abs(t0 + b0 + s[far] * xi)
        b1 = drift / np.tan(np.maximum(pred, 1e-12))
        th[far] = np.abs(t0 + 0.5 * (b0 + b1) + s[far] * xi)
    if pole.size:
        t0 = th[pole]
        fm = f_dt[pole] / m_sub
        sm = np.sqrt(2.0 * fm)
        for _ in range(m_sub):
            xi = rng.standard_normal((pole.size, n - 1))
            flat = np.sqrt(
                (t0 + sm * xi[:, 0]) ** 2 + sm * sm * (xi[:, 1:] ** 2).sum(axis=1)
            )
            t0 = np.abs(flat + (n - 2) * fm * _cot_minus_inv(t0))
        th[pole] = t0
    th = np.minimum(th, math.pi - 1e-12)
    return np.where(upper, math.pi - th, th)


def _polar_bridge_core(dim, R0, theta0, D, cfg, potential, stream):
    """Exit-bias-corrected polar simulation. The radial motion runs in the
    geodesic coordinate S = atanh(sqrt(R)), where the diffusion
    coefficient is constant (dS = sqrt(2) dW + 2(n-1) coth(2S) dt), so
    the per-step Brownian-bridge crossing probability against
    S_r = atanh(r) is exact. The steeply state-dependent coth drift is
    advanced by a predictor-corrector step, weak second order under
    additive noise; freezing the drift at the step start instead leaves
    an O(dt) error in the exit law that is visible at 10^6 paths. The
    squared angular rate f(R) = (1-R)^2/R is accrued trapezoidally over
    each step and drives either the gauge integral or the sphere-angle
    step, keeping the two estimates consistent. An exit step is charged
    only up to the crossing: the trapezoid endpoint sits on the barrier
    and the charge is scaled by the conditional mean crossing fraction
    given the step endpoints. Charging the full step would bias both
    estimates low by about rate * dt/2 per path, and the straight-line
    crossing fraction still overcharges: conditioned on crossing, the
    bridge typically crosses earlier than the chord does."""
    n = dim.n
    S_bar = math.atanh(D.r)
    S_floor = math.atanh(math.sqrt(cfg.r_floor))
    root = math.sqrt(2 * cfg.dt)
    gauge = potential is not None

    def rate(R):
        return (1 - R) ** 2 / R

    def step(state, rng):
        S, theta = state  # theta holds the gauge integral J when gauge is set
        m = len(S)
        xi = rng.standard_normal(m)
        u = rng.random(m)
        R = np.tanh(S) ** 2
        drift = (2 * (n - 1)) / np.tanh(2 * S)
        pred = np.maximum(S + root * xi + drift * cfg.dt, S_floor)
        Sn = S + root * xi + (0.5 * cfg.dt) * (
            drift + (2 * (n - 1)) / np.tanh(2 * pred)
        )
        grid_hit = Sn >= S_bar
        d0 = S_bar - S
        d1 = np.maximum(S_bar - Sn, 0.0)
        p = np.exp(-d0 * d1 / cfg.dt)
        exited = grid_hit | (u < p)
        # crossing fraction of the exit step; 1 on interior steps
        lam = np.ones(m)
        if exited.any():
            lam[exited] = _mean_crossing_fraction(
                d0[exited] / root, np.abs(S_bar - Sn)[exited] / root
            )
        R_end = np.where(exited, D.r**2, np.tanh(np.minimum(Sn, S_bar)) ** 2)
        if gauge:
            theta = theta + (0.5 * cfg.dt) * (potential(R) + potential(R_end)) * lam
            value = theta[exited]
        else:
            f_dt = (0.5 * cfg.dt) * (rate(R) + rate(R_end)) * lam
            theta = _sphere_angle_step(theta, f_dt, rng, n)
            value = np.cos(theta[exited])
        # the floor is counted only on paths that go on
        clamps = int(np.count_nonzero((Sn < S_floor) & ~exited))
        return (np.maximum(Sn, S_floor), theta), exited, value, clamps

    S0 = math.atanh(math.sqrt(R0))
    return _simulate(cfg, stream, (S0, 0.0 if gauge else theta0), step, gauge)


def simulate_polar(dim, R0, D, cfg, phi0=1.0):
    """Simulates the polar pair

        dR   = 2 (1-R) (sqrt(R) dW1 + ((n-4) R + n) dt)
        dPhi = (1-R) sqrt((1-Phi^2)/R) dW2 - (n-1) (1-R)^2 / R Phi dt

    to the exit R >= r^2. In grid mode this is the plain Euler-Maruyama
    discretization with variance-2dt increments, R floored at cfg.r_floor
    (floor hits counted; > 1% of steps warns), Phi clamped to [-1, 1] and
    exit taken at the first grid crossing; its O(sqrt(dt)) exit bias
    makes it the reference scheme for dt-refinement studies. Bridge mode
    (the default) integrates the same pair in exit-corrected form: the
    radial part in the geodesic coordinate S = atanh(sqrt(R)) with
    predictor-corrector drift, Brownian-bridge exit tests and exit steps
    charged to the mean crossing fraction, the angle theta = arccos(Phi)
    by a weak second-order sphere step driven by the trapezoidal accrual
    of the rate (1-R)^2/R. The axial start Phi0 = 1 needs no special casing: the
    angular diffusion vanishes there and the drift points inward."""
    _check_ball(dim, D)
    if not -1 <= phi0 <= 1:
        raise ValueError("phi0 must lie in [-1, 1]")
    r2 = D.r**2
    if not 0 < R0 < r2:
        raise ValueError("needs R0 in (0, r^2)")
    if cfg.exit_mode == "grid":
        return _polar_grid_core(dim, R0, phi0, D, cfg, None, _STREAM_POLAR)
    return _polar_bridge_core(dim, R0, math.acos(phi0), D, cfg, None, _STREAM_POLAR)


def estimate_gauge(dim, k, R0, D, cfg):
    """Mean and standard error of exp(-int_0^tau q(R_s) ds) over paths of
    the radial SDE alone, q from Potential(k). Equals the normalized
    Gegenbauer coefficient of the exit law, so the analytic target is
    (sqrt(R0)/r)^k F_k(R0)/F_k(r^2). Grid mode accumulates the
    left-endpoint Riemann sum of q(R) dt along the Euler chain (q is
    bounded on [r_floor, r^2], so the sum is well defined); bridge mode
    accrues the trapezoid of q between step endpoints along the
    geodesic-coordinate chain. Censored paths are excluded from the mean
    (and warned about beyond 0.1%)."""
    _check_ball(dim, D)
    if not 0 < R0 < D.r**2:
        raise ValueError("needs R0 in (0, r^2)")
    q = Potential(k, dim)
    core = _polar_grid_core if cfg.exit_mode == "grid" else _polar_bridge_core
    samples = core(dim, R0, None, D, cfg, q, _STREAM_GAUGE + k)
    if samples.censored_fraction > 1e-3:
        warnings.warn(
            f"censored fraction {samples.censored_fraction:.2e} exceeds 1e-3",
            RuntimeWarning,
        )
    vals = np.exp(-samples.gauge_integral)
    if len(vals) == 0:
        return math.nan, math.inf
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else math.inf
    return est, se


def exit_coefficients(samples, dim, k_max):
    """Empirical normalized Gegenbauer coefficients of the exit law,
    mean of C_k(phi_exit)/C_k(1) for k = 0..k_max, with standard errors.
    k=0 is exactly 1 by construction; fewer than 2 exits raise RuntimeError."""
    if len(samples) < 2:
        raise RuntimeError(f"standard errors need 2 exit samples, got {len(samples)}")
    vals = gegenbauer_sequence(dim.rho, k_max, samples.phi_exit)
    norms = np.array([gegenbauer_at_one(dim.rho, k) for k in range(k_max + 1)])
    scaled = vals / norms[:, None]
    est = scaled.mean(axis=1)
    se = scaled.std(axis=1, ddof=1) / math.sqrt(scaled.shape[1])
    return est, se


@dataclass(frozen=True)
class ExitHistogram:
    """Angular exit density estimate: bin midpoints, the density values
    against surface measure (NaN where a bin is empty), Poisson error
    bars, raw counts and the bin edges used."""

    theta_mid: np.ndarray
    density: np.ndarray
    std_error: np.ndarray
    counts: np.ndarray
    bin_edges: np.ndarray
    n_samples: int


def empirical_exit_density(samples, dim, r, bins):
    """Histogram estimate of the exit density over theta in [0, pi]:
    bins arccos(phi_exit) and divides each bin's frequency by its exact
    surface weight omega_{n-2} r^{n-1} int_bin sin^{n-2}theta dtheta, so
    the values estimate the Poisson kernel. Empty bins get NaN density
    (missing, not zero)."""
    if len(samples) < 10**4:
        raise ValueError("needs at least 1e4 samples")
    if bins < 1:
        raise ValueError("needs at least one bin")
    theta = np.arccos(samples.phi_exit)
    edges = np.linspace(0.0, math.pi, bins + 1)
    counts, _ = np.histogram(theta, bins=edges)
    nodes, wts = np.polynomial.legendre.leggauss(32)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = mid[:, None] + half[:, None] * nodes[None, :]
    # exact bin weights omega_{n-2} r^{n-1} int_bin sin^{n-2}theta dtheta
    prefactor = unit_sphere_area(dim.n - 2) * r ** (dim.n - 1)
    band = prefactor * (half * (np.sin(t) ** (dim.n - 2) @ wts))
    freq = counts / len(samples)
    with np.errstate(divide="ignore", invalid="ignore"):
        density = np.where(counts > 0, freq / band, np.nan)
        err = np.sqrt(freq * (1 - freq) / len(samples)) / band
        err = np.where(counts > 0, err, np.nan)
    return ExitHistogram(mid, density, err, counts, edges, len(samples))
