"""Command-line surface: kernel/coefficient tables, closed-form tables,
identity and conjecture suites, and Monte Carlo validation reports.

One flat RunConfig drives everything; it can come from flags, from a
key=value config file, or both (flags win). Output is a single CSV or
JSON table per run, prefixed with a header block carrying the tool
version and the full resolved config (including the RNG seed), so any
result file can be reproduced byte-for-byte by re-running its header.
CSV cells are reals at 17 significant digits (%.17g), true/false, or str
of the cell; JSON is the text of json.dumps(doc, indent=2), so reals are
Python's shortest round-trip repr. Nothing in the output depends on the
clock."""

import argparse
import functools
import json
import locale
import math
import os
import stat
import sys
from dataclasses import dataclass, fields, replace
from itertools import chain

import numpy as np

from . import __version__
from .closedform import (
    H_function,
    QuadratureControl,
    _integrate_decaying,
    conjecture1_residual,
    green_closed_n4,
    green_closed_n6,
    laplace_weight,
    poisson_integral,
)
from .geometry import BallDomain, Point, unit_sphere_area
from .kernels import (
    SeriesControl,
    green_function,
    poisson_coefficient,
    poisson_from_green_derivative,
    poisson_kernel,
)
from .mc_sim import SdeConfig, exit_coefficients, simulate_cartesian, simulate_polar
from .specfun import Dimension, wronskian_residual

_OUTDIR_ENV = "HYPBALL_OUTDIR"

# per-command k_max when neither flags nor config file give one
_KMAX_DEFAULT = {"coeffs": 10, "mc-validate": 5}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters; validated before dispatch."""

    command: str
    n: str = "4"
    r: float = 0.6
    x: float = 0.3
    y: float = None
    theta_grid: int = 64
    k_max: int = 2000
    series_tol: float = 1e-10
    quad_tol: float = 1e-10
    dt: float = 5e-4
    n_paths: int = 100000
    seed: int = 12345
    max_steps: int = 20000
    scheme: str = "cartesian"
    exit_mode: str = "bridge"
    suite: str = "wronskian"
    output: str = None
    format: str = "csv"

    def __post_init__(self):
        if self.command not in _HANDLERS:
            raise ValueError(f"unknown command {self.command!r}")
        self.dims()
        if not 0 < self.r < 1:
            raise ValueError("r must lie in (0, 1)")
        if not 0 <= self.x < self.r:
            raise ValueError("|x| must lie in [0, r)")
        if self.y is not None and not 0 < self.y < self.r:
            raise ValueError("|y| must lie in (0, r)")
        if self.theta_grid < 1:
            raise ValueError("theta-grid must be >= 1")
        if self.k_max < 1:
            raise ValueError("kmax must be >= 1")
        if not (0 < self.series_tol < math.inf and 0 < self.quad_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.suite not in _SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        self.sde()  # fail before simulating anything

    def dims(self):
        """Dimensions selected by the n spec: '5' or a range '3..8'."""
        spec = self.n
        try:
            if ".." in spec:
                lo, hi = (int(s) for s in spec.split("..", 1))
            else:
                lo = hi = int(spec)
        except ValueError:
            raise ValueError(f"bad n spec {spec!r}; use an integer or lo..hi")
        if not 3 <= lo <= hi <= 8:
            raise ValueError("n must lie in 3..8")
        return [Dimension(n) for n in range(lo, hi + 1)]

    def dim(self):
        dims = self.dims()
        if len(dims) != 1:
            raise ValueError(f"{self.command} needs a single n, got {self.n!r}")
        return dims[0]

    def series(self):
        return SeriesControl(k_max=self.k_max, tol=self.series_tol)

    def quadrature(self):
        return QuadratureControl(abs_tol=self.quad_tol)

    def sde(self):
        return SdeConfig(
            dt=self.dt,
            n_paths=self.n_paths,
            seed=self.seed,
            max_steps=self.max_steps,
            scheme=self.scheme,
            exit_mode=self.exit_mode,
        )


def _axis_point(n, radius):
    v = np.zeros(n)
    v[0] = radius
    return Point(v)


@functools.lru_cache(maxsize=32)
def _unit_circle(n, thetas):
    """(m, n) array of the points (cos theta, sin theta, 0, ...) for a tuple of
    m angles, from math.cos and math.sin: a radius times a row takes one IEEE
    product per coordinate, as radius * math.cos(theta) does."""
    rows = np.zeros((len(thetas), n))
    rows[:, 0] = [math.cos(theta) for theta in thetas]
    rows[:, 1] = [math.sin(theta) for theta in thetas]
    rows.flags.writeable = False  # shared by every caller
    return rows


def _theta_table(cfg, radius, fn, ctl):
    """(columns, rows) of fn(D, x, ys, ctl) at one y per theta midpoint, on
    the circle of the given radius in the (e1, e2) plane, x on the e1 axis."""
    dim = cfg.dim()
    D = BallDomain(dim, cfg.r)
    x = _axis_point(dim.n, cfg.x)
    # open grid; the poles are either trivial (sin weight 0) or singular
    thetas = ((np.arange(cfg.theta_grid) + 0.5) * math.pi / cfg.theta_grid).tolist()
    ys = radius * _unit_circle(dim.n, tuple(thetas))
    return ("theta", "value"), list(zip(thetas, fn(D, x, ys, ctl).tolist()))


def _pk_table(cfg, fn, ctl):
    return _theta_table(cfg, cfg.r, fn, ctl) + ({},)


def _green_table(cfg, fn, ctl):
    ay = cfg.y if cfg.y is not None else 0.5 * cfg.r
    return _theta_table(cfg, ay, fn, ctl) + ({"y_radius": ay},)


def _cmd_pk_eval(cfg):
    return _pk_table(cfg, poisson_kernel, cfg.series())


def _cmd_pk_closed(cfg):
    return _pk_table(cfg, poisson_integral, cfg.quadrature())


def _cmd_green_eval(cfg):
    return _green_table(cfg, green_function, cfg.series())


def _cmd_green_closed(cfg):
    dim = cfg.dim()
    if dim.n not in (4, 6):
        raise ValueError("green-closed needs n in {4, 6}")
    fn = green_closed_n4 if dim.n == 4 else green_closed_n6
    return _green_table(cfg, fn, cfg.quadrature())


def _cmd_coeffs(cfg):
    dim = cfg.dim()
    D = BallDomain(dim, cfg.r)
    coeffs = poisson_coefficient(D, np.arange(cfg.k_max + 1), cfg.x)
    return ("k", "coefficient"), list(enumerate(coeffs.tolist())), {}


def _cmd_mc_validate(cfg):
    dim = cfg.dim()
    D = BallDomain(dim, cfg.r)
    sde = cfg.sde()
    if cfg.scheme == "cartesian":
        samples = simulate_cartesian(dim, _axis_point(dim.n, cfg.x), D, sde)
    else:
        samples = simulate_polar(dim, cfg.x**2, D, sde)
    emp, se = exit_coefficients(samples, dim, cfg.k_max)
    analytics = poisson_coefficient(D, np.arange(cfg.k_max + 1), cfg.x).tolist()
    rows = []
    worst = 0.0
    for k, analytic in enumerate(analytics):
        z = (emp[k] - analytic) / se[k] if se[k] > 0 else 0.0
        worst = max(worst, abs(z))
        rows.append((k, analytic, float(emp[k]), float(se[k]), z))
    meta = {
        "pass": bool(worst < 3.0 and samples.censored_fraction < 1e-3),
        "max_abs_z": worst,
        "censored_fraction": samples.censored_fraction,
        "path_steps": samples.total_steps,
        "bridge_exits": samples.bridge_exits,
        "floor_clamps": samples.clamped_steps,
    }
    return ("k", "analytic", "empirical", "std_error", "z_score"), rows, meta


# suites and probes that cover even n only (the others cover 3..8): laplace
# and conj2 need the radial polynomial P_z, which exists for even n only;
# conj1 since the paper claims boundedness only for even n (at n = 3, 5, 7
# the residual's maximum over z levels off at 11.6, 8.2 and 8.4 by k = 500)
_EVEN_ONLY = ("laplace", "conj1", "conj2")


def _covered(cfg, name, skipped=False):
    """The requested dimensions that suite or probe name covers (or skips)."""
    return [d for d in cfg.dims() if (d.is_even or name not in _EVEN_ONLY) != skipped]


def _skipped(cfg, names):
    """Meta naming each requested n that a selected suite or probe skips."""
    s = ",".join(f"{name}:{d.n}" for name in names for d in _covered(cfg, name, True))
    return {"skipped": s} if s else {}


def _suite_wronskian(cfg):
    # k = 0 is exact by construction (F_0 = 1, G_1 = (1-z)^(n-1), a_0 = 0)
    rows = []
    ks, zs = np.arange(1, 31), [0.05 * j for j in range(1, 20)]
    for dim in cfg.dims():
        worst = np.max([np.abs(wronskian_residual(dim, ks, z)) for z in zs], axis=0)
        for k, w in zip(ks.tolist(), worst.tolist()):
            rows.append((dim.n, k, w, 1e-12, w <= 1e-12))
    return ("n", "k", "max_residual", "bound", "pass"), rows


@functools.cache
def _half_turn_rule():
    """Shared 192-node Gauss-Legendre nodes on (0, pi), weights on (-1, 1)."""
    nodes, wts = np.polynomial.legendre.leggauss(192)
    return 0.5 * math.pi * (nodes + 1.0), wts


def _suite_normalization(cfg):
    theta, wts = _half_turn_rule()
    angles = tuple(theta.tolist())
    ctl = cfg.series()
    rows = []
    for dim in _covered(cfg, "normalization"):
        for r in (0.3, 0.6, 0.9):
            D = BallDomain(dim, r)
            ys = r * _unit_circle(dim.n, angles)
            for frac in (0.0, 1.0 / 3.0, 2.0 / 3.0):
                x = _axis_point(dim.n, frac * r)
                vals = poisson_kernel(D, x, ys, ctl)
                integral = (
                    unit_sphere_area(dim.n - 2) * r ** (dim.n - 1)
                    * 0.5 * math.pi
                    * float(np.sum(wts * vals * np.sin(theta) ** (dim.n - 2)))
                )
                err = abs(integral - 1.0)
                rows.append((dim.n, r, frac, integral, err, err <= 1e-6))
    return ("n", "r", "x_over_r", "integral", "error", "pass"), rows


def _suite_laplace(cfg):
    rows = []
    radii = {4: (0.6,), 6: (0.2, math.sqrt(7 - 4 * math.sqrt(3)), 0.6), 8: (0.1, 0.6, 0.9)}
    qctl = QuadratureControl(abs_tol=1e-12)
    for dim in _covered(cfg, "laplace"):
        # the gamma-free point k = -rho still lies in the convergence strip
        # because w decays faster than exp(rho v) grows
        ks = [0, 1, 2, 3, 5, 10, -dim.rho]
        for r in radii[dim.n]:
            r2 = r * r
            x2 = 0.25 * r2
            w = laplace_weight(dim, x2, r2)
            lhs = _integrate_decaying(
                lambda v: w(v)[:, None] * np.exp(-np.outer(v, ks)),
                w.decay_rate - dim.rho,
                qctl,
            )
            for k, val in zip(ks, lhs.tolist()):
                err = abs(val - H_function(dim, x2, r2, k))
                bound = 1e-8 if k >= 0 else 1e-9
                rows.append((dim.n, w.regime, float(k), err, bound, err <= bound))
    return ("n", "regime", "k", "residual", "bound", "pass"), rows


def _suite_green(cfg):
    ctl = cfg.series()
    rows = []
    for dim in cfg.dims():
        D = BallDomain(dim, cfg.r)
        x = _axis_point(dim.n, 0.4 * cfg.r)
        # scale of G over the middle of the domain, sampled off-diagonal,
        # against G next to the boundary
        radii = np.array([[0.45 * cfg.r], [0.5 * cfg.r], [0.5 * cfg.r], [cfg.r - 1e-4]])
        ys = radii * _unit_circle(dim.n, (0.3, 0.5, 1.0, 2.0))
        *middle, edge = green_function(D, x, ys, ctl).tolist()
        ratio = abs(edge / max(middle))
        rows.append((dim.n, "boundary_vanishing", ratio, 1e-5, ratio < 1e-5))
        u = Point(cfg.r * _unit_circle(dim.n, (1.1,))[0])
        exact = poisson_kernel(D, x, u, ctl)
        errs = [
            abs(poisson_from_green_derivative(D, x, u, h, ctl) - exact)
            for h in (1e-3, 5e-4)
        ]
        ratio = errs[0] / errs[1]
        rows.append(
            (dim.n, "derivative_halving_ratio", ratio, 2.0, abs(ratio - 2) <= 0.3)
        )
    return ("n", "check", "value", "reference", "pass"), rows


_SUITES = {
    "wronskian": _suite_wronskian,
    "normalization": _suite_normalization,
    "laplace": _suite_laplace,
    "green": _suite_green,
}


def _cmd_identity_check(cfg):
    columns, rows = _SUITES[cfg.suite](cfg)
    ok = all(row[-1] for row in rows)
    return columns, rows, {"pass": ok, "suite": cfg.suite, **_skipped(cfg, [cfg.suite])}


def _cmd_conjecture_scan(cfg):
    rows = []
    zs = [0.1 * j for j in range(1, 10)]
    for dim in _covered(cfg, "conj1"):
        for k in (1, 2, 5, 10, 20, 50, 100, 200, 500):
            worst = max(conjecture1_residual(dim, z, k) for z in zs)
            # the n=4 identity is exact; the k^2 factor amplifies the
            # one-ulp rounding of F_k past 1e-12 beyond k ~ 60, so the
            # strict bound applies below that and boundedness above
            bound = 1e-12 if dim.n == 4 and k <= 50 else 100.0
            rows.append(("conj1", dim.n, float(k), worst, worst <= bound))
    for dim in _covered(cfg, "conj2"):
        # F_k(r^2) has no zero with Re k >= -n/2 iff the weight, as poisson_integral
        # checks, decays faster than n/2; a double zero of P_{r^2} (n = 6 at r^2 =
        # 7 - 4 sqrt 3) moves by sqrt(eps) relative as its coefficients round
        rate, half = laplace_weight(dim, 0.0, cfg.r**2).decay_rate, dim.n / 2
        if not abs(rate - half) > math.sqrt(sys.float_info.epsilon) * rate:
            raise RuntimeError(f"conj2 n={dim.n}: rate {rate!r} is within its rounding of n/2")
        rows.append(("conj2", dim.n, half, rate, rate > half))
    meta = {"pass": all(row[-1] for row in rows), **_skipped(cfg, ("conj1", "conj2"))}
    return ("probe", "n", "parameter", "value", "pass"), rows, meta


_HANDLERS = {
    "pk-eval": _cmd_pk_eval,
    "green-eval": _cmd_green_eval,
    "coeffs": _cmd_coeffs,
    "pk-closed": _cmd_pk_closed,
    "green-closed": _cmd_green_closed,
    "mc-validate": _cmd_mc_validate,
    "identity-check": _cmd_identity_check,
    "conjecture-scan": _cmd_conjecture_scan,
}


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _config_echo(cfg):
    return " ".join(f"{f.name}={_fmt(getattr(cfg, f.name))}" for f in fields(cfg))


def _write_text(path, text):
    """Write text to path in the bytes of open(path, "w", newline="\n"), the
    locale encoding, but without truncating an existing file to zero first:
    the file is rewritten in place and a regular file is then cut to the
    written length (a pipe or device such as /dev/stdout is only written).
    On a failure after the open a regular file is truncated to 0, so no old
    bytes survive behind new ones, and the error propagates."""
    data = text.encode(locale.getpreferredencoding(False))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            rest = memoryview(data)
            while rest:  # os.write may write less than asked
                rest = rest[os.write(fd, rest) :]
            if regular:
                os.ftruncate(fd, len(data))
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


def _write_csv(path, cfg, columns, rows, meta):
    lines = [f"# hypball {__version__}", f"# {_config_echo(cfg)}"]
    lines += [f"# {key}={_fmt(meta[key])}" for key in sorted(meta)]
    lines += [",".join(columns)]
    # one %-template for every row, the rows all of one length: %.17g in a column
    # of floats, which is format(v, ".17g"), and the _fmt text of other cells
    specs, cells = [], []
    for col in zip(*rows, strict=True):
        floats = all(issubclass(t, float) for t in set(map(type, col)))
        specs.append("%.17g" if floats else "%s")
        cells.append(col if floats else map(_fmt, col))
    template = (",".join(specs) + "\n") * len(rows)
    _write_text(path, "\n".join(lines) + "\n" + template % tuple(chain.from_iterable(zip(*cells))))


def _json_rows(columns, rows):
    """The "rows" value of json.dumps(doc, indent=2) for the dicts dict(zip(columns,
    row)) of rows all of one length. One C-encoder call writes the keys and values
    as a list joined by "\n", which no JSON token holds (strings escape it), and
    one %-template of the indent=2 layout takes the value tokens."""
    if not rows:
        return "[]"
    last = {c: j for j, c in enumerate(columns)}  # a repeated key: first place, last cell
    cols = list(zip(*rows, strict=True))
    values = chain.from_iterable(zip(*[cols[j] for j in last.values()]))
    text = json.dumps([*last, *values], separators=("\n", ": "))[1:-1]
    tokens = text.split("\n") if text else []
    keys = [k.replace("%", "%%") for k in tokens[: len(last)]]
    layout = "    {\n" + ",\n".join(f"      {k}: %s" for k in keys) + "\n    }" if keys else "    {}"
    return "[\n" + ",\n".join([layout] * len(rows)) % tuple(tokens[len(keys) :]) + "\n  ]"


def _write_json(path, cfg, columns, rows, meta):
    meta = {
        "tool": "hypball",
        "version": __version__,
        "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
        **meta,
    }
    # json.dumps(indent=2) of {"meta": meta, "rows": rows} with the rows
    # from the C encoder: the pure-Python indent encoder is slow per cell
    head = json.dumps({"meta": meta}, indent=2)[: -len("\n}")]
    rows = _json_rows(columns, rows)
    _write_text(path, f'{head},\n  "rows": {rows}\n}}\n')


# flag and config-file spellings that are not the field name
_ALIASES = {"kmax": "k_max", "paths": "n_paths"}
_FLAGS = {field: alias for alias, field in _ALIASES.items()}
_HELP = {
    "n": "dimension, or a range like 3..8",
    "r": "ball radius in (0, 1)",
    "x": "|x| of the axis start point",
    "y": "|y| radius for green tables",
    "theta_grid": "number of angle rows",
    "k_max": "series cutoff / table length",
    "dt": "SDE step size",
    "scheme": "cartesian or polar",
    "exit_mode": "bridge or grid",
    "suite": "identity-check suite: " + ", ".join(_SUITES),
    "output": "output file path",
    "format": "csv or json",
}


class _Parser(argparse.ArgumentParser):
    # usage errors leave with the JSON error record and status 2, like
    # every other invalid value
    def error(self, message):
        raise ValueError(message)


@functools.cache
def _build_parser():
    """One flag per RunConfig field but command, typed by the field. Built once
    and shared by every parse_config call: callers must not mutate it."""
    p = _Parser(
        prog="hypball",
        description="Poisson kernels and Green functions of balls for "
        "hyperbolic Brownian motion: tables, identity suites, Monte Carlo "
        "validation.",
    )
    p.add_argument("command", nargs="?", help=", ".join(_HANDLERS))
    p.add_argument("--config", help="key=value config file; flags override it")
    for f in fields(RunConfig)[1:]:
        flag = _FLAGS.get(f.name, f.name.replace("_", "-"))
        p.add_argument(f"--{flag}", type=f.type, dest=f.name, help=_HELP.get(f.name))
    return p


def _read_config_file(path):
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


_FILE_CONVERTERS = {f.name: f.type for f in fields(RunConfig)}


def parse_config(argv):
    """Resolve flags plus optional config file into a RunConfig."""
    ns = _build_parser().parse_args(argv)
    merged = {}
    if ns.config:
        for key, raw in _read_config_file(ns.config).items():
            name = _ALIASES.get(key, key)
            if name not in _FILE_CONVERTERS:
                raise ValueError(f"unknown config key {key!r}")
            merged[name] = _FILE_CONVERTERS[name](raw)
    for f in fields(RunConfig):
        flag = getattr(ns, f.name, None)
        if flag is not None:
            merged[f.name] = flag
    if "command" not in merged or merged["command"] is None:
        raise ValueError("no command given (flag or config file)")
    if "k_max" not in merged and merged["command"] in _KMAX_DEFAULT:
        merged["k_max"] = _KMAX_DEFAULT[merged["command"]]
    cfg = RunConfig(**merged)
    if cfg.output is None:
        outdir = os.environ.get(_OUTDIR_ENV, ".")
        name = cfg.command.replace("-", "_") + "." + cfg.format
        cfg = replace(cfg, output=os.path.join(outdir, name))
    # fail before computing, not after a long run
    if os.path.isdir(cfg.output):
        raise ValueError(f"output {cfg.output!r} is a directory")
    if not os.path.isdir(os.path.dirname(cfg.output) or "."):
        raise ValueError(f"output directory of {cfg.output!r} does not exist")
    return cfg


def _error_record(status, exc):
    rec = {"error": type(exc).__name__, "status": status, "message": str(exc)}
    print(json.dumps(rec), file=sys.stderr)
    return status


def run(cfg):
    """Execute one resolved RunConfig; returns the process exit status."""
    try:
        columns, rows, meta = _HANDLERS[cfg.command](cfg)
        if not rows:  # an empty table would read as a pass
            raise ValueError(f"no {cfg.command} row applies to n={cfg.n}")
    except ValueError as exc:
        return _error_record(2, exc)
    except (ArithmeticError, RuntimeError) as exc:
        return _error_record(3, exc)
    writer = _write_csv if cfg.format == "csv" else _write_json
    try:
        writer(cfg.output, cfg, columns, rows, meta)
    except OSError as exc:
        return _error_record(2, exc)
    summary = f"wrote {cfg.output}"
    if "pass" in meta:
        summary += " pass" if meta["pass"] else " FAIL"
    try:  # in stdout's own file (--output /dev/stdout) it would overwrite the table
        same = os.path.samestat(os.fstat(sys.stdout.fileno()), os.stat(cfg.output))
    except (OSError, ValueError):  # a stdout without a descriptor, as io.StringIO
        same = False
    print(summary, file=sys.stderr if same else sys.stdout)
    return 0


def main(argv=None):
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except (ValueError, OSError) as exc:
        sys.exit(_error_record(2, exc))
    sys.exit(run(cfg))
