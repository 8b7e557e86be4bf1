"""The three workloads: seeded inputs, timed execution, and output checks.

A workload's fixed work is one *cycle*: a list of requests generated from the
seed (and, for series-cold, the cycle index). The runner repeats cycles until
the time budget is spent. Each request is timed on its own; checks run after
the timed loop and never abort it.

Every workload drives hypball only through public names: the kernel and
closed-form functions, the Monte Carlo simulators, and the in-process CLI
(``hypball.cli.parse_config`` + ``hypball.cli.run``). They are looked up on
their modules at call time so the traced run's wrappers see the calls.
"""

import contextlib
import csv
import io
import json
import math
import os
import time
import warnings
from dataclasses import dataclass, field

import mpmath
import numpy as np

from hypball import cli, closedform, kernels, mc_sim
from hypball.geometry import BallDomain, Point
from hypball.specfun import Dimension

import oracle

# test_accept_03's tolerance, applied as absolute-or-relative so a kernel value
# of 3.7e8 is judged at its own scale
TOL = 1e-6

# critical n=6 radius r^2 = 7 - 4 sqrt(3), where the weight regime switches
R_CRIT = math.sqrt(7 - 4 * math.sqrt(3))


def close(value, reference):
    return math.isfinite(value) and abs(value - reference) <= TOL * max(1.0, abs(reference))


def axis_point(n, radius):
    v = np.zeros(n)
    v[0] = radius
    return Point(v)


def plane_point(n, radius, theta):
    v = np.zeros(n)
    v[0] = radius * math.cos(theta)
    v[1] = radius * math.sin(theta)
    return Point(v)


# golden-ratio step between the positions a slot takes in consecutive cycles
PHI = (math.sqrt(5) - 1) / 2


def offset(start, c):
    """Position in [0, 1) of a slot in cycle c, from its seeded start: cycles
    step by the golden ratio, so over any run the positions spread evenly
    across [0, 1) and the typical cycle costs the same for every seed."""
    return (start + c * PHI) % 1.0


def stratified(rng, m, lo, hi):
    """m draws from [lo, hi), one per equal-width stratum, in shuffled order:
    the total work of a cycle barely depends on the seed."""
    u = (np.arange(m) + rng.random(m)) / m
    rng.shuffle(u)
    return lo + (hi - lo) * u


@dataclass
class Request:
    rid: int
    cycle: int
    label: str
    spec: tuple
    slot: tuple = None
    seconds: float = 0.0
    adjusted: float = 0.0  # seconds, scaled for the machine's speed at the time
    values: list = field(default_factory=list)
    error: str = None
    warned: int = 0
    failed: bool = False
    reason: str = ""
    known_defect: bool = False
    extra: dict = field(default_factory=dict)


def timed_call(request, fn):
    """Run fn() as the request's timed body; exceptions become the request's
    error, warnings are counted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the program's failure is a data point
            result = None
            request.error = type(exc).__name__
        request.seconds = time.perf_counter() - start
    request.warned = len(caught)
    return result


def fail(request, reason):
    if not request.failed:
        request.failed = True
        request.reason = reason


# --------------------------------------------------------------------------
# series-cold


class SeriesCold:
    """A stream of cold table requests. Each draw picks (n, r, |x|) and asks
    poisson_kernel at a few angles and green_function at a few split-radius
    |y|, so nearly every call builds a new table. r comes from a small set
    (F_k(r^2) repeats across requests); |x| is continuous (the table cache
    never hits across requests)."""

    name = "series-cold"
    N_SET = (3, 4, 5, 6)
    R_SET = (0.3, 0.6, 0.95)
    DRAWS = 3  # per (n, r) and cycle
    # 1 - |x|/r is log-uniform on [0.03, 0.9]: |x|/r up to 0.97, with equal
    # numbers of draws per decade of series length
    ONE_MINUS_Q = (math.log(0.9), math.log(0.03))
    POISSON_ANGLES = 3
    GREEN_ANGLES = 2
    # ROADMAP's measured cold cases, in every cycle
    ROADMAP_CASES = ((4, 0.6, 0.3), (5, 0.6, 0.55), (5, 0.95, 0.9))
    # odd-n requests checked against the mpmath oracle per run, besides the
    # two odd ROADMAP cases
    ODD_POISSON_CHECKS = 2
    ODD_GREEN_CHECKS = 3

    def __init__(self, seed):
        self.seed = seed
        rng = np.random.default_rng([seed, 0x5EED])
        self.starts = {}
        for n in self.N_SET:
            for r in self.R_SET:
                for i in range(self.DRAWS):
                    self.starts["q", n, r, i] = rng.random()
                    for j in range(2):
                        self.starts["y", n, r, i, j] = rng.random()
                self.starts["near", n, r] = rng.random()
                self.starts["near-x", n, r] = rng.random()

    def _at(self, key, c):
        return offset(self.starts[key], c)

    def cycle(self, c):
        rng = np.random.default_rng([self.seed, c])

        def angles(m):
            return tuple(rng.uniform(0.05, math.pi - 0.05, m))

        slots = []
        for i, (n, r, ax) in enumerate(self.ROADMAP_CASES):
            # shifted by 1e-12 relative per cycle: the same case, still cold
            slots.append((("roadmap", i), ("poisson", n, r, ax * (1 - 1e-12 * c), angles(self.POISSON_ANGLES))))
        even = [(n, r) for n in self.N_SET for r in self.R_SET if n % 2 == 0]
        for n in self.N_SET:
            for r in self.R_SET:
                lo, hi = self.ONE_MINUS_Q
                for i in range(self.DRAWS):
                    u = (i + self._at(("q", n, r, i), c)) / self.DRAWS
                    ax = float(r * (1 - math.exp(lo + (hi - lo) * u)))
                    slots.append((("poisson", n, r, i), ("poisson", n, r, ax, angles(self.POISSON_ANGLES))))
                    # split radii |y| < |x|: an outer |y| would crowd the
                    # diagonal whenever |x|/r is close to 1
                    for j, (a, b) in enumerate(((0.3, 0.6), (0.6, 0.9))):
                        ay = ax * (a + (b - a) * self._at(("y", n, r, i, j), c))
                        slots.append((("green", n, r, i, j), ("green", n, r, ax, ay, angles(self.GREEN_ANGLES))))
                if (n, r) in even:
                    # near-equal Green radii |y|/|x| in [1, 1.01], n in {4, 6}
                    # only (ROADMAP item 2): the closed forms judge them, and at
                    # odd n one such request runs all k_max = 2000 terms at O(k)
                    # per G_k (about 1.4 s). One of them per cycle is exactly 1.
                    ratio = 1 + 0.01 * self._at(("near", n, r), c)
                    if even.index((n, r)) == c % len(even):
                        ratio = 1.0
                    ax = float(r * (0.3 + 0.6 * self._at(("near-x", n, r), c)))
                    slots.append((("near", n, r), ("green", n, r, ax, ax * ratio, angles(self.GREEN_ANGLES))))
        return [slots[i] for i in rng.permutation(len(slots))]

    def execute(self, request, tracer):
        spec = request.spec
        n, r, ax = spec[1], spec[2], spec[3]
        D = BallDomain(Dimension(n), r)
        x = axis_point(n, ax)
        if spec[0] == "poisson":
            ys = [plane_point(n, r, t) for t in spec[4]]
            fn = kernels.poisson_kernel
        else:
            ys = [plane_point(n, spec[4], t) for t in spec[5]]
            fn = kernels.green_function
            request.known_defect = request.slot[0] == "near"
        with tracer.request(request.rid, request.label):
            values = timed_call(request, lambda: [fn(D, x, y) for y in ys])
        request.values = values or []

    def label(self, spec):
        return f"{spec[0]}.n{spec[1]}"

    def check(self, requests, seed):
        odd = {"poisson": [], "green": []}
        for req in requests:
            if req.error:
                fail(req, f"raised {req.error}")
                continue
            kind, n, r, ax = req.spec[:4]
            angles = req.spec[-1]
            if n % 2 == 1:
                if not all(math.isfinite(v) for v in req.values):
                    fail(req, "non-finite value")
                elif req.slot[0] == "roadmap" and req.cycle == 0:
                    self._check_odd(req)
                else:
                    odd[kind].append(req)
                continue
            D = BallDomain(Dimension(n), r)
            x = axis_point(n, ax)
            for t, v in zip(angles, req.values):
                if kind == "poisson":
                    ref = closedform.poisson_integral(D, x, plane_point(n, r, t))
                else:
                    closed = closedform.green_closed_n4 if n == 4 else closedform.green_closed_n6
                    ref = closed(D, x, plane_point(n, req.spec[4], t))
                if not close(v, ref):
                    fail(req, f"{v!r} vs closed form {ref!r}")
        rng = np.random.default_rng([seed, 0xC4EC])
        for kind, count in (("poisson", self.ODD_POISSON_CHECKS), ("green", self.ODD_GREEN_CHECKS)):
            pool = odd[kind]
            for i in rng.permutation(len(pool))[:count]:
                self._check_odd(pool[i])

    def _check_odd(self, req):
        kind, n, r, ax = req.spec[:4]
        cosines = [math.cos(t) for t in req.spec[-1]]
        if kind == "poisson":
            refs = oracle.poisson_reference(n, r, ax, cosines)
        else:
            refs = oracle.green_reference(n, r, ax, req.spec[4], cosines)
        for v, ref in zip(req.values, refs):
            if not close(v, ref):
                fail(req, f"{v!r} vs mpmath {ref!r}")


# --------------------------------------------------------------------------
# series-sweep


class SeriesSweep:
    """README-shaped CLI commands over a small fixed set of tables, cycled so
    most commands hit the table cache: the warm per-point path, closed-form
    quadrature and CLI formatting do the work."""

    name = "series-sweep"
    TABLES = ((4, 0.6), (6, 0.2), (6, R_CRIT), (6, 0.6))  # n=4 and the three n=6 weight regimes
    THETA_GRID = 256
    COEFF_KMAX = 40
    SUITES = (("normalization", "5"), ("green", "3..6"))

    def __init__(self, seed, outdir):
        self.seed = seed
        self.outdir = outdir
        rng = np.random.default_rng([seed, 0x5EE9])
        qs = stratified(rng, len(self.TABLES), 0.6, 0.8)
        ys = stratified(rng, len(self.TABLES), 0.2, 0.45)
        self.tables = [(n, r, float(q * r), float(y * r)) for (n, r), q, y in zip(self.TABLES, qs, ys)]
        commands = []
        for i, (n, r, ax, ay) in enumerate(self.tables):
            base = ["--n", str(n), "--r", repr(r), "--x", repr(ax)]
            grid = ["--theta-grid", str(self.THETA_GRID)]
            commands += [
                ("pk-eval", i, base + grid, "csv"),
                ("pk-closed", i, base + grid + ["--format", "json"], "json"),
                ("green-eval", i, base + grid + ["--y", repr(ay)], "csv"),
                ("green-closed", i, base + grid + ["--y", repr(ay)], "csv"),
                ("coeffs", i, base + ["--kmax", str(self.COEFF_KMAX)], "csv"),
            ]
        for suite, nspec in self.SUITES:
            commands.append(("identity-check", None, ["--suite", suite, "--n", nspec], "csv"))
        order = rng.permutation(len(commands))
        self.commands = [commands[i] for i in order]
        os.makedirs(outdir, exist_ok=True)

    def cycle(self, c):
        return [(idx, (idx,) + cmd) for idx, cmd in enumerate(self.commands)]

    def label(self, spec):
        return spec[1]

    def execute(self, request, tracer):
        idx, command, table, args, fmt = request.spec
        path = os.path.join(self.outdir, f"{idx:02d}-{command}.{fmt}")
        argv = [command] + args + ["--output", path]

        def body():
            cfg = cli.parse_config(argv)
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.run(cfg)

        with tracer.request(request.rid, request.label):
            status = timed_call(request, body)
        request.extra["status"] = status
        if status == 0:
            request.extra["bytes"] = os.path.getsize(path)
            meta, rows = read_table(path, fmt)
            request.extra["meta"] = meta
            if command != "identity-check":  # suite rows are checks, not values
                # an array, so the rows every cycle keeps barely move peak RSS
                request.values = np.array(rows)

    def check(self, requests, seed):
        coeff_refs = {i: coefficient_reference(n, r, ax, self.COEFF_KMAX)
                      for i, (n, r, ax, _) in enumerate(self.tables)}
        by_cycle = {}
        for req in requests:
            if req.error or req.extra.get("status") != 0:
                fail(req, f"status {req.extra.get('status')} {req.error or ''}")
                continue
            _, command, table, _, _ = req.spec
            by_cycle.setdefault(req.cycle, {})[command, table] = req
            rows = self.COEFF_KMAX + 1 if command == "coeffs" else self.THETA_GRID
            if command == "identity-check":
                if req.extra["meta"].get("pass") not in ("true", True):
                    fail(req, "suite reported pass=false")
            elif len(req.values) != rows:
                fail(req, f"{len(req.values)} rows, expected {rows}")
            elif command == "coeffs":
                for (k, v), ref in zip(req.values, coeff_refs[table]):
                    if not close(v, ref):
                        fail(req, f"k={k}: {v!r} vs mpmath {ref!r}")
            elif not all(math.isfinite(v) for _, v in req.values):
                fail(req, "non-finite value")
        for cycle in by_cycle.values():
            for series, closed in (("pk-eval", "pk-closed"), ("green-eval", "green-closed")):
                for i in range(len(self.tables)):
                    a, b = cycle.get((series, i)), cycle.get((closed, i))
                    if a is None or b is None:
                        continue
                    for (ta, va), (tb, vb) in zip(a.values, b.values):
                        if ta != tb or not close(va, vb):
                            fail(a, f"theta={ta}: {va!r} vs {closed} {vb!r}")
                            fail(b, f"theta={tb}: {vb!r} vs {series} {va!r}")
                            break


def read_table(path, fmt):
    """(meta, [(first column, last column)]) of a hypball output file."""
    with open(path) as f:
        if fmt == "json":
            doc = json.load(f)
            rows = [tuple(row.values()) for row in doc["rows"]]
            return doc["meta"], [(r[0], r[-1]) for r in rows]
        meta = {}
        lines = []
        for line in f:
            if line.startswith("# ") and "=" in line and " " not in line[2:].strip():
                key, _, value = line[2:].strip().partition("=")
                meta[key] = value
            elif not line.startswith("#"):
                lines.append(line)
    table = list(csv.reader(lines))[1:]
    rows = []
    for row in table:
        first, last = row[0], row[-1]
        try:
            rows.append((float(first), float(last)))
        except ValueError:  # suite rows end in true/false
            rows.append((first, last))
    return meta, rows


def coefficient_reference(n, r, ax, kmax):
    """(|x|/r)^k F_k(|x|^2)/F_k(r^2) in mpmath; terminating for even n."""
    rho = mpmath.mpf(n - 2) / 2
    out = []
    with mpmath.workdps(30):
        for k in range(kmax + 1):
            fx = mpmath.hyp2f1(k, -rho, k + mpmath.mpf(n) / 2, mpmath.mpf(ax) ** 2)
            fr = mpmath.hyp2f1(k, -rho, k + mpmath.mpf(n) / 2, mpmath.mpf(r) ** 2)
            out.append(float((mpmath.mpf(ax) / r) ** k * fx / fr))
    return out


# --------------------------------------------------------------------------
# monte-carlo


class _RecordedSamples(mc_sim.ExitSamples):
    """ExitSamples that registers itself on creation, so the benchmark sees
    the samples behind estimate_gauge too (path-steps, censoring, clamps)."""

    sink = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if _RecordedSamples.sink is not None:
            _RecordedSamples.sink.append(self)


class MonteCarlo:
    """For n in {4, 6}, |x| = 0.3 in the r = 0.6 ball at dt = 5e-4: the
    Cartesian scheme, the polar scheme in bridge and grid mode, and the gauge
    estimator for k = 1..3; every simulator call is followed by
    exit_coefficients."""

    name = "monte-carlo"
    N_SET = (4, 6)
    R = 0.6
    X = 0.3
    DT = 5e-4
    PATHS = 2**14
    K_MAX = 5
    GAUGE_K = (1, 2, 3)
    Z_LIMIT = 4.0
    CENSOR_LIMIT = 1e-3

    def __init__(self, seed):
        self.seed = seed

    def cycle(self, c):
        specs = []
        for n in self.N_SET:
            specs += [("cartesian", n, None), ("polar-bridge", n, None), ("polar-grid", n, None)]
            specs += [("gauge", n, k) for k in self.GAUGE_K]
        return [(spec, spec) for spec in specs]

    def label(self, spec):
        kind, n, k = spec
        return f"{kind}.n{n}" + (f".k{k}" if k else "")

    def config(self, kind):
        if kind == "cartesian":
            return mc_sim.SdeConfig(dt=self.DT, n_paths=self.PATHS, seed=self.seed)
        mode = "grid" if kind == "polar-grid" else "bridge"
        return mc_sim.SdeConfig(dt=self.DT, n_paths=self.PATHS, seed=self.seed,
                                scheme="polar", exit_mode=mode)

    def execute(self, request, tracer):
        kind, n, k = request.spec
        dim = Dimension(n)
        D = BallDomain(dim, self.R)
        cfg = self.config(kind)
        made = []

        def body():
            _RecordedSamples.sink = made
            try:
                start = time.perf_counter()
                if kind == "cartesian":
                    out = mc_sim.simulate_cartesian(dim, axis_point(n, self.X), D, cfg)
                elif kind == "gauge":
                    out = mc_sim.estimate_gauge(dim, k, self.X**2, D, cfg)
                else:
                    out = mc_sim.simulate_polar(dim, self.X**2, D, cfg)
                request.extra["sim_seconds"] = time.perf_counter() - start
                if kind == "gauge":
                    return [out]
                start = time.perf_counter()
                est, se = mc_sim.exit_coefficients(out, dim, self.K_MAX)
                request.extra["ec_seconds"] = time.perf_counter() - start
                return list(zip(est, se))
            finally:
                _RecordedSamples.sink = None

        with tracer.request(request.rid, request.label):
            values = timed_call(request, body)
        request.values = values or []
        request.extra["path_steps"] = sum(
            int(s.tau_steps.sum()) + s.censored * cfg.max_steps for s in made)
        request.extra["censored"] = sum(s.censored for s in made)
        request.extra["requested"] = sum(s.n_requested for s in made)
        request.extra["clamps"] = sum(s.clamped_steps for s in made)

    def check(self, requests, seed):
        refs = {}
        for req in requests:
            kind, n, k = req.spec
            if req.error or not req.values:
                fail(req, f"raised {req.error}")
                continue
            if not req.extra["requested"]:
                fail(req, "no samples recorded")
                continue
            if req.extra["censored"] / req.extra["requested"] >= self.CENSOR_LIMIT:
                fail(req, f"censored {req.extra['censored']}/{req.extra['requested']}")
            if not all(math.isfinite(e) and math.isfinite(s) for e, s in req.values):
                fail(req, "non-finite estimate")
                continue
            if kind != "gauge" and req.values[0][0] != 1.0:
                fail(req, f"ec[0] = {req.values[0][0]!r}")
            if kind == "polar-grid":
                continue  # first-crossing bias is by design; see NOTES.md
            D = BallDomain(Dimension(n), self.R)
            ks = [k] if kind == "gauge" else range(1, self.K_MAX + 1)
            pairs = req.values if kind == "gauge" else req.values[1:]
            for kk, (est, se) in zip(ks, pairs):
                if (n, kk) not in refs:
                    refs[n, kk] = kernels.poisson_coefficient(D, kk, self.X)
                z = (est - refs[n, kk]) / se
                if not abs(z) < self.Z_LIMIT:
                    fail(req, f"k={kk}: z = {z:.2f}")


def install_sample_recorder():
    """Route mc_sim's ExitSamples construction through _RecordedSamples;
    returns the undo function."""
    original = mc_sim.ExitSamples
    mc_sim.ExitSamples = _RecordedSamples

    def undo():
        mc_sim.ExitSamples = original

    return undo


WORKLOADS = ("series-cold", "series-sweep", "monte-carlo")


# shrunken cycles for the benchmark's own tests
TINY = {
    "series-cold": {"N_SET": (4, 5), "R_SET": (0.6,), "DRAWS": 1,
                    "ROADMAP_CASES": ((4, 0.6, 0.3), (5, 0.6, 0.55)),
                    "ODD_POISSON_CHECKS": 1, "ODD_GREEN_CHECKS": 1},
    "series-sweep": {"TABLES": ((4, 0.6), (6, R_CRIT)), "THETA_GRID": 8,
                     "SUITES": (("green", "4"),)},
    "monte-carlo": {"N_SET": (4,), "GAUGE_K": (1,)},
}


def make(name, seed, outdir, tiny=False):
    classes = {"series-cold": SeriesCold, "series-sweep": SeriesSweep, "monte-carlo": MonteCarlo}
    cls = classes[name]
    if tiny:
        cls = type(cls.__name__, (cls,), TINY[name])
    if name == "series-sweep":
        return cls(seed, os.path.join(outdir, f"sweep-s{seed}"))
    return cls(seed)
