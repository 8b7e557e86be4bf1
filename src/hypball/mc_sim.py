"""Monte Carlo validation of the exit law. Hyperbolic Brownian motion is
run to the exit of a centered ball with Euler-Maruyama in two independent
coordinates (the full Cartesian SDE and the polar (R, Phi) pair), using
the variance-2t Brownian convention throughout: every increment is
sqrt(2 dt) xi. Exit-law Gegenbauer statistics and the Feynman-Kac gauge
E exp(-k(k+n-2) J), J = int (1-R_s)^2/R_s ds the clock that also drives the
sphere-angle step, are estimated with standard errors.

One driver, _simulate, runs every scheme: paths are simulated in
fixed-size blocks, each block driven by its own counter-based Philox
stream keyed on (seed, scheme, block index), so runs replay
bit-identically and blocks could execute in any order. A scheme supplies
only its per-step update. The Cartesian state is coordinate-major, (n, m),
and its coordinate sums keep NumPy's path-major row order (_coord_sum).
The steps update a few arrays in place, in the float operations of the
plain expressions; the bridge chain carries its end rate (1-R)^2/R into
the next step. mc-validate reports the path-step, clamp and bridge-exit counts.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .specfun import _as_order, gegenbauer_at_one, gegenbauer_sequence

_BLOCK = 1 << 14
_POLE_SUBSTEPS = 4  # pole substeps; each draws n-1 normals of the seeded stream
_R_FLOOR = 1e-8  # the polar chains floor R here (hits counted)

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
    dt-refinement bias studies. Only the CLI's dispatch reads scheme."""

    dt: float
    n_paths: int
    seed: int
    max_steps: int = 20000
    scheme: str = "cartesian"
    exit_mode: str = "bridge"

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        for name in ("seed", "n_paths", "max_steps"):
            if not isinstance(v := getattr(self, name), int) or isinstance(v, bool):
                raise ValueError(f"{name} must be an int")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64)")
        if self.n_paths < 1 or self.max_steps < 1:
            raise ValueError("n_paths and max_steps must be >= 1")
        if self.scheme not in ("cartesian", "polar"):
            raise ValueError("scheme must be 'cartesian' or 'polar'")
        if self.exit_mode not in ("bridge", "grid"):
            raise ValueError("exit_mode must be 'bridge' or 'grid'")


class ExitSamples:
    """Exit events of the paths that left the ball, one array entry per
    path: tau_steps (step count at exit), phi_exit (exit cosine
    cos(angle(x0, X_tau)), in [-1, 1]) and gauge_integral (the clock
    J = int_0^tau (1-R_s)^2/R_s ds of a gauge chain, or None on an exit-law
    chain), plus censoring, floor-clamp, path-step and bridge-exit accounting
    (exits taken by the bridge test with the step's end still inside)."""

    def __init__(self, tau_steps, phi_exit, gauge_integral, n_requested,
                 clamped_steps=0, total_steps=0, bridge_exits=0):
        self.tau_steps = np.asarray(tau_steps, dtype=np.int64)
        self.phi_exit = np.asarray(phi_exit, dtype=float)
        self.gauge_integral = (
            None if gauge_integral is None else np.asarray(gauge_integral, float)
        )
        self.n_requested = int(n_requested)
        self.clamped_steps = int(clamped_steps)
        self.total_steps = int(total_steps)
        self.bridge_exits = int(bridge_exits)

    def __len__(self):
        return len(self.phi_exit)

    @property
    def censored(self):
        return self.n_requested - len(self)

    @property
    def censored_fraction(self):
        return self.censored / self.n_requested


def _block_sizes(n_paths):
    sizes = [_BLOCK] * (n_paths // _BLOCK)
    if n_paths % _BLOCK:
        sizes.append(n_paths % _BLOCK)
    return sizes


def _check_ball(dim, D):
    if dim != D.dim:
        raise ValueError(f"dimension n={dim.n} does not match the ball's n={D.dim.n}")


def _rng(seed, stream, block):
    key = np.array([seed, (stream << 48) | block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _simulate(cfg, stream, start, step, gauge=False):
    """Block driver shared by every scheme. Paths run in blocks, each
    with its own Philox stream keyed on (seed, stream, block index). A
    block starts every path from start, one value per state array; the
    path axis is last, so a vector start gives a (len(v), m) array.
    step(state, rng) advances the state tuple by one time step and returns
    (state, exited, exit_value, clamps, bridged); exit_value holds one entry
    per exited path (the exit cosine, or the clock J when gauge is set)
    and is read only when some path exited, and bridged counts the exits
    taken by the bridge test alone. Exited paths are recorded with
    their step count and dropped; paths still inside after max_steps are
    censored. Floor clamps beyond 1% of the path-steps warn."""
    exit_steps, exit_counts, values = [], [], []
    clamped = total_steps = bridged = 0
    for block, m0 in enumerate(_block_sizes(cfg.n_paths)):
        rng = _rng(cfg.seed, stream, block)
        state = tuple(np.full(np.shape(v) + (m0,), np.asarray(v, float)[..., None])
                      for v in start)
        for i in range(1, cfg.max_steps + 1):
            m = state[0].shape[-1]
            if m == 0:
                break
            total_steps += m
            state, exited, value, clamps, bridge_exits = step(state, rng)
            clamped += clamps
            bridged += bridge_exits
            if exited.any():
                exit_steps.append(i)
                exit_counts.append(np.count_nonzero(exited))
                values.append(value)
                keep = ~exited  # 2-D state takes one index: 3x faster than a mask
                idx = np.flatnonzero(keep) if state[0].ndim == 2 else None
                state = tuple(a.take(idx, axis=1) if a.ndim == 2 else a[keep]
                              for a in state)
    taus = np.repeat(np.array(exit_steps, dtype=np.int64), exit_counts)
    values = np.concatenate(values) if values else np.empty(0)
    # a gauge chain does not simulate Phi; its exit cosine is unused
    phis, gauges = (np.ones(len(taus)), values) if gauge else (values, None)
    out = ExitSamples(taus, phis, gauges, cfg.n_paths, clamped, total_steps, bridged)
    if total_steps and clamped / total_steps > 0.01:
        warnings.warn(
            f"R hit the floor on {clamped}/{total_steps} steps; "
            "dt is too coarse for this start",
            RuntimeWarning,
        )
    return out


def _coord_sum(p):
    """Column sums of a coordinate-major (n, m) array, bit for bit NumPy's
    np.sum(axis=1) of the path-major (m, n) C-contiguous copy: left to right
    below 8 terms; up to 128, eight running sums over strides of 8 paired
    ((0+1)+(2+3))+((4+5)+(6+7)), then the leftover terms. Each sum starts
    from NumPy's identity 0.0, so -0.0 terms add up to 0.0."""
    n = len(p)
    if n > 128:  # NumPy cuts a longer row in halves at a multiple of 8
        return _coord_sum(p[:n // 16 * 8]) + _coord_sum(p[n // 16 * 8:])
    if n < 8:
        s, rest = p[0] + 0.0, p[1:]
    else:
        a = p[:8] + 0.0
        for i in range(8, n - n % 8, 8):
            a += p[i:i + 8]
        s = (a[0] + a[1] + (a[2] + a[3])) + (a[4] + a[5] + (a[6] + a[7]))
        rest = p[n - n % 8:]
    for row in rest:
        s += row
    return s


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
    step ending outside; for a bridge exit the linear fraction d0/(d0+d1)
    of the step, d0 = r - rho0 and d1 = r - rho1, not the conditional mean
    of the polar scheme). Censored paths (no exit within max_steps) are
    counted, not dropped."""
    _check_ball(dim, D)
    n = dim.n
    r = D.r
    x0v = np.asarray(x0.coords, dtype=float)
    if x0v.shape != (n,):
        raise ValueError(f"x0 needs {n} coordinates, got {x0v.size}")
    ax0 = x0.norm
    if ax0 == 0.0:
        raise ValueError("x0 must be nonzero (it fixes the reference axis)")
    if ax0 >= r:
        raise ValueError("x0 must lie inside the ball of radius r")
    dt = cfg.dt
    root = math.sqrt(dt)
    pairs = [(j, l) for j in range(n) for l in range(j + 1, n)]

    def step(state, rng):
        x, rho = state  # x is coordinate-major: x[j] is coordinate j of every path
        m = len(rho)
        r2 = rho * rho
        sig = 1.0 - r2
        # the draws keep their path-major shapes and are transposed once
        dw = np.multiply(root, rng.standard_normal((m, n)).T, order="C")
        # antisymmetric two-point V: V_jl = +-dt = 2dt b - dt (j<l, b in {0, 1}),
        # V_jj = -dt; M_l = sum_j X_j V_jl stands in for the Ito double integrals
        signs = np.multiply(2 * dt, rng.integers(0, 2, (m, len(pairs)), np.int32).T,
                            order="C")
        signs -= dt
        mcol = -dt * x
        tmp = np.empty_like(x)
        for idx, (j, l) in enumerate(pairs):
            mcol[l] += np.multiply(x[j], signs[idx], out=tmp[0])
            mcol[j] -= np.multiply(x[l], signs[idx], out=tmp[0])
        xdw = _coord_sum(np.multiply(x, dw, out=tmp))
        # x_new = x + sig (sqrt2 dw + 2(n-2)dt x) - 2 sig (xdw dw + M) - 2 sqrt2 dt sig
        #   (((n-2) r2 + 1 - r2) dw + (n-2) xdw x) - damp x, one term at a time
        x_new = math.sqrt(2) * dw
        x_new += np.multiply(2 * (n - 2) * dt, x, out=tmp)
        x_new *= sig
        x_new += x
        mcol += np.multiply(xdw, dw, out=tmp)
        mcol *= 2 * sig
        x_new -= mcol
        np.multiply((n - 2) * r2 + 1.0 - r2, dw, out=mcol)
        mcol += np.multiply((n - 2) * xdw, x, out=tmp)
        mcol *= 2 * math.sqrt(2) * dt * sig
        x_new -= mcol
        damp = (4 * (n - 2) * dt * dt) * sig * (2 * (1.0 - r2) + (n - 2) * r2)
        x_new -= np.multiply(damp, x, out=tmp)
        rho1 = np.sqrt(_coord_sum(np.multiply(x_new, x_new, out=tmp)))
        exited = grid_hit = rho1 >= r
        if cfg.exit_mode == "bridge":
            u = rng.random(m)
            s2 = 2 * dt * (1.0 - r2) ** 2
            p = np.exp(-2 * (r - rho) * np.maximum(r - rho1, 0.0) / s2)
            exited = grid_hit | (u < p)
        phi = None
        ex = np.flatnonzero(exited)
        if ex.size:
            # exit direction read at the estimated crossing point on the
            # step segment, not at the endpoint: the endpoint has diffused
            # past the crossing and biases C_k(Phi) low (exits gathered path-major)
            xe = x.T[ex]
            seg = x_new.T[ex] - xe
            a = np.sum(seg * seg, axis=1)
            b = 2 * np.sum(xe * seg, axis=1)
            c = rho[ex] ** 2 - r * r
            lam_grid = (-b + np.sqrt(b * b - 4 * a * c)) / (2 * a)
            d0 = r - rho[ex]
            d1 = np.maximum(r - rho1[ex], 0.0)
            lam = np.where(grid_hit[ex], lam_grid, d0 / (d0 + d1))
            hit = xe + lam[:, None] * seg
            # not geometry's cosine and row norm: the pinned stream bits depend on `@`
            phi = hit @ x0v
            phi /= np.sqrt(np.add.reduce(hit * hit, axis=1)) * ax0
            np.minimum(np.maximum(phi, -1.0, out=phi), 1.0, out=phi)
        bridged = ex.size - int(np.count_nonzero(grid_hit[ex]))
        return (x_new, rho1), exited, phi, 0, bridged

    return _simulate(cfg, _STREAM_CARTESIAN, (x0v, ax0), step)


def _polar_grid_core(dim, R0, D, cfg):
    """Plain Euler-Maruyama loop for the polar pair (R, Phi) from (R0, 1),
    exit at the first grid crossing."""
    n = dim.n
    r2 = D.r**2
    root = math.sqrt(2 * cfg.dt)

    def step(state, rng):
        R, phi = state
        xi = rng.standard_normal((len(R), 2))
        one_m = 1.0 - R
        Rn = R + 2 * one_m * (
            np.sqrt(R) * root * xi[:, 0] + ((n - 4) * R + n) * cfg.dt
        )
        clamps = 0
        if Rn.min() < _R_FLOOR:
            clamps = int(np.count_nonzero(Rn < _R_FLOOR))
            Rn = np.maximum(Rn, _R_FLOOR)
        phi = phi + one_m * np.sqrt(
            np.clip(1 - phi * phi, 0, None) / R
        ) * root * xi[:, 1] - (n - 1) * one_m * one_m / R * phi * cfg.dt
        phi = np.clip(phi, -1.0, 1.0)
        exited = Rn >= r2
        return (Rn, phi), exited, phi[exited], clamps, 0

    return _simulate(cfg, _STREAM_POLAR, (R0, 1.0), step)


def _cot_minus_inv(x):
    """cot x - 1/x, regular at the origin."""
    small = x < 0.05
    xd = np.where(small, 1.0, x) if small.any() else x
    out = 1.0 / np.tan(xd) - 1.0 / xd
    if xd is not x:  # the series below 0.05
        out[small] = -x[small] / 3.0 - x[small] ** 3 / 45.0
    return out


@functools.cache
def _crossing_rule():
    """tan, cot and weights of a 96-node Gauss-Legendre rule on (0, pi/2)."""
    nodes, wts = np.polynomial.legendre.leggauss(96)
    tan = np.tan(0.25 * math.pi * (nodes + 1.0))
    return tan, 1.0 / tan, 0.25 * math.pi * wts


def _mean_crossing_fraction(delta0, delta1):
    """Conditional mean of the fraction of a step at which a Brownian
    bridge first crosses the barrier, given the start and end distances
    delta0, delta1 in units of the step deviation (the end distance
    unsigned: overshoot and shortfall enter alike). The fraction u has
    density ~ u^-3/2 (1-u)^-1/2 exp(-delta0^2/(2u) - delta1^2/(2(1-u)));
    substituting tan(t)^2 = (1-u)/u collapses its mean to

        E[u] = delta0 sqrt(2/pi)
               int_0^{pi/2} exp(-(delta0 tan t - delta1 cot t)^2 / 2) dt,

    which a fixed Gauss-Legendre rule integrates to float accuracy. At
    arguments of at most -746 the exponential is 0.0 without calling exp:
    its value there is exactly 0.0, but NumPy's exp leaves its fast path
    (13 % of the arguments of a gauge run). A NaN argument still goes
    through exp, so it is not hidden as 0."""
    tan, cot, wts = _crossing_rule()
    g = np.multiply.outer(delta0, tan)
    h = np.multiply.outer(delta1, cot)
    g -= h
    np.multiply(-0.5, g, out=h)
    h *= g
    e = np.exp(h, out=np.zeros_like(h), where=~(h <= -746.0))
    est = delta0 * math.sqrt(2.0 / math.pi) * (e @ wts)
    return np.clip(est, 0.0, 1.0)


def _sphere_angle_step(theta, f_dt, rng, n):
    """One weak step of the polar angle of a sphere Brownian motion run
    for rate-time f_dt (one entry per path): theta solves
    dtheta = sqrt(2f) dW + (n-2) f cot(theta) dt. Away from the poles the
    cot drift is handled by a predictor-corrector (weak second order, the
    diffusion coefficient being constant); within five standard
    deviations of a pole, where cot is stiff, the step is taken as
    _POLE_SUBSTEPS flat (n-1)-dimensional embedding substeps with the
    curvature drift correction (n-2) f dt (cot theta - 1/theta), regular
    at the pole. Mirror symmetry folds everything onto [0, pi/2] first;
    theta is stepped in its own array, which is returned."""
    s = np.sqrt(2.0 * f_dt)
    upper = theta > 0.5 * math.pi
    th = np.subtract(math.pi, theta, out=theta, where=upper)
    near = th < 5.0 * s
    far = np.flatnonzero(~near)
    pole = np.flatnonzero(near)
    if far.size:
        sxi = s[far] * rng.standard_normal(far.size)
        t0 = th[far]
        drift = (n - 2) * f_dt[far]
        b0 = drift / np.tan(t0)
        pred = np.abs(t0 + b0 + sxi)
        b1 = drift / np.tan(np.maximum(pred, 1e-12))
        th[far] = np.abs(t0 + 0.5 * (b0 + b1) + sxi)
    if pole.size:
        t0 = th[pole]
        fm = f_dt[pole] / _POLE_SUBSTEPS
        sm = np.sqrt(2.0 * fm)
        # one draw for all substeps, in stream order, laid out coordinate-major;
        # the theta-free parts of every substep, sm z_0 and sm^2 |z_1..|^2, at once
        xi = rng.standard_normal((_POLE_SUBSTEPS, pole.size, n - 1)).transpose(2, 0, 1)
        shift, spread = sm * xi[0], (sm * sm) * _coord_sum(xi[1:] ** 2)
        drift = (n - 2) * fm
        for k in range(_POLE_SUBSTEPS):
            flat = np.sqrt((t0 + shift[k]) ** 2 + spread[k])
            t0 = np.abs(flat + drift * _cot_minus_inv(t0))
        th[pole] = t0
    np.minimum(th, math.pi - 1e-12, out=th)
    return np.subtract(math.pi, th, out=th, where=upper)


def _rate(S):
    """The rate f = (1-R)^2/R at R = tanh(S)^2, in that expression's float ops."""
    R = np.tanh(S)
    R *= R
    f = np.subtract(1.0, R)
    f *= f
    return np.divide(f, R, out=f)


def _polar_bridge_core(dim, R0, D, cfg, stream, gauge=False):
    """Exit-bias-corrected polar simulation. The radial motion runs in the
    geodesic coordinate S = atanh(sqrt(R)), where the diffusion
    coefficient is constant (dS = sqrt(2) dW + 2(n-1) coth(2S) dt), so
    the per-step Brownian-bridge crossing probability against
    S_r = atanh(r) is exact. The steeply state-dependent coth drift is
    advanced by a predictor-corrector step, weak second order under
    additive noise; freezing the drift at the step start instead leaves
    an O(dt) error in the exit law that is visible at 10^6 paths. The
    squared angular rate f(R) = (1-R)^2/R is accrued trapezoidally over
    each step and drives the sphere-angle step from theta = 0, or, with
    gauge set (no angle step), adds up to the clock J. An exit step is
    charged only up to the crossing: the trapezoid endpoint sits on the
    barrier and the charge is scaled by the conditional mean crossing
    fraction given the step endpoints. Charging the full step would bias
    both estimates low by about rate * dt/2 per path, and the
    straight-line crossing fraction still overcharges: conditioned on
    crossing, the bridge typically crosses earlier than the chord does.
    The step's end rate is carried in the state as the next step's start
    rate; it is recomputed only where the floor moved R."""
    n = dim.n
    S_bar = math.atanh(D.r)
    S_floor = math.atanh(math.sqrt(_R_FLOOR))
    half_dt = 0.5 * cfg.dt
    root = math.sqrt(2 * cfg.dt)
    c = 2.0 * (n - 1)  # the drift is c coth(2S)
    f_exit = (1.0 - D.r**2) * (1.0 - D.r**2) / D.r**2  # the rate at R = r^2

    def step(state, rng):
        S, theta, f = state  # theta holds the clock J on a gauge chain
        m = len(S)
        noisy = rng.standard_normal(m)
        u = rng.random(m)
        drift = np.multiply(S, 2.0)
        np.divide(c, np.tanh(drift, out=drift), out=drift)
        noisy *= root
        noisy += S
        Sn = np.multiply(drift, cfg.dt)
        Sn += noisy
        np.maximum(Sn, S_floor, out=Sn)  # the predictor
        Sn *= 2.0
        np.divide(c, np.tanh(Sn, out=Sn), out=Sn)
        Sn += drift
        Sn *= half_dt
        Sn += noisy
        d0 = np.subtract(S_bar, S, out=S)
        gap = np.subtract(S_bar, Sn, out=drift)
        p = np.maximum(gap, 0.0, out=noisy)
        p *= d0
        p /= -cfg.dt
        grid_hit = Sn >= S_bar
        exited = grid_hit | (u < np.exp(p, out=p))
        ex = np.flatnonzero(exited)
        f_end = _rate(Sn)  # Sn < S_bar on every path that goes on
        f_end[ex] = f_exit
        # the exit step is charged up to its mean crossing fraction
        charge = np.add(f, f_end, out=u)
        charge *= half_dt
        if ex.size:
            charge[ex] *= _mean_crossing_fraction(d0[ex] / root, np.abs(gap[ex]) / root)
        if gauge:
            theta += charge
            value = theta[ex]
        else:
            theta = _sphere_angle_step(theta, charge, rng, n)
            value = np.cos(theta[ex])
        # the floor is counted only on paths that go on
        clamps = 0
        if Sn.min() < S_floor:
            low = Sn < S_floor
            clamps = int(np.count_nonzero(low & ~exited))
            Sn[low] = S_floor
            f_end[low] = _rate(Sn[low])
        bridged = ex.size - int(np.count_nonzero(grid_hit[ex]))
        return (Sn, theta, f_end), exited, value, clamps, bridged

    S0 = math.atanh(math.sqrt(R0))
    return _simulate(cfg, stream, (S0, 0.0, _rate(np.full(1, S0))[0]), step, gauge)


def simulate_polar(dim, R0, D, cfg):
    """Simulates the polar pair

        dR   = 2 (1-R) (sqrt(R) dW1 + ((n-4) R + n) dt)
        dPhi = (1-R) sqrt((1-Phi^2)/R) dW2 - (n-1) (1-R)^2 / R Phi dt

    to the exit R >= r^2. In grid mode this is the plain Euler-Maruyama
    discretization with variance-2dt increments, R floored at _R_FLOOR
    (floor hits counted; > 1% of steps warns), Phi clamped to [-1, 1] and
    exit taken at the first grid crossing; its O(sqrt(dt)) exit bias
    makes it the reference scheme for dt-refinement studies. Bridge mode
    (the default) integrates the same pair in exit-corrected form: the
    radial part in the geodesic coordinate S = atanh(sqrt(R)) with
    predictor-corrector drift, Brownian-bridge exit tests and exit steps
    charged to the mean crossing fraction, the angle theta = arccos(Phi)
    by a weak second-order sphere step driven by the trapezoidal accrual
    of the rate (1-R)^2/R. The start on the axis, Phi = 1, needs no special
    casing: the angular diffusion vanishes there and the drift points in."""
    _check_ball(dim, D)
    r2 = D.r**2
    if not 0 < R0 < r2:
        raise ValueError("needs R0 in (0, r^2)")
    if cfg.exit_mode == "grid":
        return _polar_grid_core(dim, R0, D, cfg)
    return _polar_bridge_core(dim, R0, D, cfg, _STREAM_POLAR)


def estimate_gauge(dim, k, R0, D, cfg):
    """Mean and standard error of exp(-k(k+n-2) J) over paths of the radial
    SDE alone, J = int_0^tau (1-R_s)^2/R_s ds accrued by the bridge chain
    (grid mode raises ValueError), k an integer order >= 0 with its own
    stream. Equals the normalized Gegenbauer coefficient of the exit law,
    so the analytic target is (sqrt(R0)/r)^k F_k(R0)/F_k(r^2). Censored
    paths are excluded from the mean (and warned about beyond 0.1%); fewer
    than 2 exits raise RuntimeError."""
    _check_ball(dim, D)
    k = _as_order(k)
    if not 0 < R0 < D.r**2:
        raise ValueError("needs R0 in (0, r^2)")
    if cfg.exit_mode != "bridge":
        raise ValueError("the gauge needs exit_mode 'bridge'")
    samples = _polar_bridge_core(dim, R0, D, cfg, _STREAM_GAUGE + k, gauge=True)
    if samples.censored_fraction > 1e-3:
        warnings.warn(
            f"censored fraction {samples.censored_fraction:.2e} exceeds 1e-3",
            RuntimeWarning,
        )
    if len(samples) < 2:
        raise RuntimeError(f"standard errors need 2 exit samples, got {len(samples)}")
    vals = np.exp(-(k * (k + dim.n - 2)) * samples.gauge_integral)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))


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
