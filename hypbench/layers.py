"""What the traced run wraps, and the per-layer metrics computed from it.

The layers are the package's modules: specfun, kernels, closedform, mc_sim and
cli (geometry is too thin to time on its own). A wrapped function is named
after the module that defines it, whichever module it is bound in.
"""

import numpy as np

from hypball import cli, closedform, kernels, mc_sim

SCHEMES = ("cartesian", "polar-bridge", "polar-grid", "gauge")
MC_DIMS = (4, 6)
POISSON_REGIMES = ("single-exponential", "cosh-sinh", "critical", "oscillatory")
GREEN6_REGIMES = ("cosh-sinh", "critical", "oscillatory")
CLOSED_FORMS = ("poisson_integral", "green_closed_n4", "green_closed_n6")


def _domain_attrs(args):
    return {"n": args[0].dim.n, "r": args[0].r}


def _sequence_values(args):
    return (int(args[1]) + 1) * int(np.size(args[2]))


def targets():
    """(owner, attribute, span name, options) for Tracer.install."""
    hot = {"hot": True}
    coefficient = {"hot": True, "marks": True}
    sequence = {"hot": True, "units": _sequence_values}
    domain = {"attrs": _domain_attrs}
    return [
        (kernels, "F_k", "specfun.F_k", hot),
        (kernels, "G_k", "specfun.G_k", hot),
        (kernels, "gegenbauer_sequence", "specfun.gegenbauer_sequence", sequence),
        (mc_sim, "gegenbauer_sequence", "specfun.gegenbauer_sequence", sequence),
        (kernels, "poisson_coefficient", "kernels.poisson_coefficient", coefficient),
        (cli, "poisson_coefficient", "kernels.poisson_coefficient", coefficient),
        (kernels, "green_coefficient", "kernels.green_coefficient", coefficient),
        (kernels, "poisson_kernel", "kernels.poisson_kernel", {}),
        (cli, "poisson_kernel", "kernels.poisson_kernel", {}),
        (kernels, "green_function", "kernels.green_function", {}),
        (cli, "green_function", "kernels.green_function", {}),
        (cli, "poisson_from_green_derivative", "kernels.poisson_from_green_derivative", {}),
        (cli, "poisson_integral", "closedform.poisson_integral", domain),
        (cli, "green_closed_n4", "closedform.green_closed_n4", domain),
        (cli, "green_closed_n6", "closedform.green_closed_n6", domain),
        (closedform.LaplaceWeight, "__call__", "closedform.LaplaceWeight.__call__", hot),
        (mc_sim, "simulate_cartesian", "mc_sim.simulate_cartesian", {}),
        (mc_sim, "simulate_polar", "mc_sim.simulate_polar", {}),
        (mc_sim, "estimate_gauge", "mc_sim.estimate_gauge", {}),
        (mc_sim, "exit_coefficients", "mc_sim.exit_coefficients", {}),
        (cli, "parse_config", "cli.parse_config", {}),
        (cli, "run", "cli.run", {}),
    ]


def catalogue():
    """[(metric name, unit)] of every per-layer metric, in report order."""
    out = []
    for fn in ("F_k", "G_k"):
        out += [(f"specfun.{fn}.calls", "count"), (f"specfun.{fn}.busy_s", "s")]
    out += [("specfun.gegenbauer_sequence.calls", "count"),
            ("specfun.gegenbauer_sequence.values", "count"),
            ("specfun.gegenbauer_sequence.busy_s", "s")]
    out += [("kernels.poisson_coefficient.calls", "count"),
            ("kernels.green_coefficient.calls", "count")]
    for fn in ("poisson_kernel", "green_function"):
        out += [(f"kernels.{fn}.cold_ms_p50", "ms"), (f"kernels.{fn}.cold_ms_p90", "ms"),
                (f"kernels.{fn}.warm_ms_p50", "ms")]
    out += [("kernels.table_hit_ratio", "ratio"), ("kernels.truncation_failures", "count")]
    for fn in CLOSED_FORMS:
        out += [(f"closedform.{fn}.calls", "count"), (f"closedform.{fn}.busy_s", "s")]
    for regime in POISSON_REGIMES:
        out += [(f"closedform.poisson_integral.{regime}.calls", "count"),
                (f"closedform.poisson_integral.{regime}.busy_s", "s")]
    for regime in GREEN6_REGIMES:
        out += [(f"closedform.green_closed_n6.{regime}.calls", "count"),
                (f"closedform.green_closed_n6.{regime}.busy_s", "s")]
    out += [("closedform.laplace_weight.evals", "count")]
    for scheme in SCHEMES:
        for n in MC_DIMS:
            out += [(f"mc_sim.{scheme}.n{n}.path_steps", "count"),
                    (f"mc_sim.{scheme}.n{n}.busy_s", "s"),
                    (f"mc_sim.{scheme}.n{n}.path_steps_per_s", "1/s")]
    out += [("mc_sim.censored_paths", "count"), ("mc_sim.floor_clamps", "count"),
            ("mc_sim.exit_coefficients.busy_s", "s")]
    out += [("cli.run.calls", "count"), ("cli.run.self_s", "s"), ("cli.bytes_written", "B")]
    for layer in ("specfun", "kernels", "closedform", "mc_sim", "cli"):
        out += [(f"{layer}.busy_s", "s"), (f"{layer}.self_s", "s")]
    out += [("trace.overhead_s", "s"), ("trace.spans", "count")]
    return out


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _regime(n, r):
    """Weight regime of the ball: n = 4 has one; for n = 6 the sign of
    r^4 - 14 r^2 + 1 decides (zero at the critical radius r^2 = 7 - 4 sqrt 3)."""
    if n == 4:
        return "single-exponential"
    disc = r**4 - 14 * r * r + 1
    if abs(disc) < 1e-12:
        return "critical"
    return "cosh-sinh" if disc > 0 else "oscillatory"


def compute(tracer, requests, overhead_s):
    """Per-layer metric values from one traced cycle: its tracer and its
    requests (the Monte Carlo counts come from the requests' samples)."""
    stats = tracer.stats
    m = {}
    for fn in ("F_k", "G_k"):
        m[f"specfun.{fn}.calls"] = stats[f"specfun.{fn}"].calls
        m[f"specfun.{fn}.busy_s"] = stats[f"specfun.{fn}"].busy
    seq = stats["specfun.gegenbauer_sequence"]
    m["specfun.gegenbauer_sequence.calls"] = seq.calls
    m["specfun.gegenbauer_sequence.values"] = seq.units
    m["specfun.gegenbauer_sequence.busy_s"] = seq.busy
    m["kernels.poisson_coefficient.calls"] = stats["kernels.poisson_coefficient"].calls
    m["kernels.green_coefficient.calls"] = stats["kernels.green_coefficient"].calls
    cold_total = warm_total = 0
    for fn in ("poisson_kernel", "green_function"):
        spans = tracer.spans_named(f"kernels.{fn}")
        # a call that summed coefficients built its table: cold
        cold = [1e3 * (s[3] - s[2]) for s in spans if s[6]["marks"]]
        warm = [1e3 * (s[3] - s[2]) for s in spans if not s[6]["marks"] and "error" not in s[6]]
        cold_total += len(cold)
        warm_total += len(warm)
        m[f"kernels.{fn}.cold_ms_p50"] = _pct(cold, 50)
        m[f"kernels.{fn}.cold_ms_p90"] = _pct(cold, 90)
        m[f"kernels.{fn}.warm_ms_p50"] = _pct(warm, 50)
    m["kernels.table_hit_ratio"] = warm_total / (cold_total + warm_total) if cold_total + warm_total else 0.0
    m["kernels.truncation_failures"] = sum(
        stats[f"kernels.{fn}"].errors.get("SeriesTruncationError", 0)
        for fn in ("poisson_kernel", "green_function"))
    for fn in CLOSED_FORMS:
        m[f"closedform.{fn}.calls"] = stats[f"closedform.{fn}"].calls
        m[f"closedform.{fn}.busy_s"] = stats[f"closedform.{fn}"].busy
    for fn, regimes in (("poisson_integral", POISSON_REGIMES), ("green_closed_n6", GREEN6_REGIMES)):
        for regime in regimes:
            m[f"closedform.{fn}.{regime}.calls"] = 0
            m[f"closedform.{fn}.{regime}.busy_s"] = 0.0
        for s in tracer.spans_named(f"closedform.{fn}"):
            regime = _regime(s[6]["n"], s[6]["r"])
            m[f"closedform.{fn}.{regime}.calls"] += 1
            m[f"closedform.{fn}.{regime}.busy_s"] += s[3] - s[2]
    m["closedform.laplace_weight.evals"] = stats["closedform.LaplaceWeight.__call__"].calls
    for scheme in SCHEMES:
        for n in MC_DIMS:
            mine = [r for r in requests if r.spec[0] == scheme and r.spec[1] == n]
            steps = sum(r.extra.get("path_steps", 0) for r in mine)
            busy = sum(r.extra.get("sim_seconds", 0.0) for r in mine)
            m[f"mc_sim.{scheme}.n{n}.path_steps"] = steps
            m[f"mc_sim.{scheme}.n{n}.busy_s"] = busy
            m[f"mc_sim.{scheme}.n{n}.path_steps_per_s"] = steps / busy if busy else 0.0
    m["mc_sim.censored_paths"] = sum(r.extra.get("censored", 0) for r in requests)
    m["mc_sim.floor_clamps"] = sum(r.extra.get("clamps", 0) for r in requests)
    m["mc_sim.exit_coefficients.busy_s"] = stats["mc_sim.exit_coefficients"].busy
    m["cli.run.calls"] = stats["cli.run"].calls
    m["cli.run.self_s"] = stats["cli.run"].self_time
    m["cli.bytes_written"] = sum(r.extra.get("bytes", 0) for r in requests)
    for layer in ("specfun", "kernels", "closedform", "mc_sim", "cli"):
        m[f"{layer}.busy_s"] = tracer.layer_busy.get(layer, 0.0)
        m[f"{layer}.self_s"] = tracer.layer_self.get(layer, 0.0)
    m["trace.overhead_s"] = overhead_s
    m["trace.spans"] = len(tracer.spans)
    return m
