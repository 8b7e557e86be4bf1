"""The benchmark's own tests, at a tiny size.

    python3 -m pytest hypbench -q

Each run uses ``--tiny`` (shrunken cycles) and ``--seconds 0`` (the minimum
number of cycles), so the whole module takes about a minute.
"""

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


@functools.lru_cache(maxsize=None)
def run(workload, trace, seed=3, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "hypbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=600)
    return proc


def result(workload, trace, seed=3):
    proc = run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    lines, last = result(workload, trace)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert set(last["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if trace == 0:
        for m in spec:
            assert last["metrics"][m["name"]]["value"] > 0
        # the report also names the metrics that only some workloads have
        extra = ["path_steps_per_s"] if workload == "monte-carlo" else ["request_ms_p50", "request_ms_p90"]
        report = "\n".join(lines[:-1])
        for name in ["failed_fraction"] + extra:
            assert f" {name} " in report


def test_near_equal_green_failures_are_counted():
    _, last = result("series-cold", 0)
    assert last["failed"] > 0
    assert last["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_counts(workload):
    _, first = result(workload, 1)
    again = run.__wrapped__(workload, 1)
    assert again.returncode == 0, again.stderr
    second = json.loads(again.stdout.strip().splitlines()[-1])
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B")}
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def _executed(workload):
    import tracing
    import workloads

    wl = workloads.make(workload, 5, str(ROOT / ".bench_out"), tiny=True)
    undo = workloads.install_sample_recorder()
    try:
        requests = []
        for i, (slot, spec) in enumerate(wl.cycle(0)):
            req = workloads.Request(i, 0, wl.label(spec), spec, slot)
            wl.execute(req, tracing.NullTracer())
            requests.append(req)
    finally:
        undo()
    return wl, requests


def _check(wl, requests):
    for req in requests:
        req.failed, req.reason = False, ""
    wl.check(requests, 5)
    return [r for r in requests if r.failed and not r.known_defect]


def test_perturbed_closed_form_reference_is_a_failure(monkeypatch):
    import workloads

    wl, requests = _executed("series-cold")
    assert _check(wl, requests) == []
    exact = workloads.closedform.poisson_integral
    monkeypatch.setattr(workloads.closedform, "poisson_integral",
                        lambda *a: exact(*a) * (1 + 1e-4))
    failed = _check(wl, requests)
    assert failed and all(r.spec[0] == "poisson" and r.spec[1] % 2 == 0 for r in failed)


def test_perturbed_mpmath_reference_is_a_failure(monkeypatch):
    import workloads

    wl, requests = _executed("series-cold")
    exact = workloads.oracle.poisson_reference
    monkeypatch.setattr(workloads.oracle, "poisson_reference",
                        lambda *a: [v * (1 + 1e-4) for v in exact(*a)])
    failed = _check(wl, requests)
    assert failed and all(r.spec[0] == "poisson" and r.spec[1] % 2 == 1 for r in failed)


def test_perturbed_sweep_reference_is_a_failure(monkeypatch):
    import workloads

    wl, requests = _executed("series-sweep")
    assert _check(wl, requests) == []
    exact = workloads.coefficient_reference
    monkeypatch.setattr(workloads, "coefficient_reference",
                        lambda *a: [v + 1e-3 for v in exact(*a)])
    failed = _check(wl, requests)
    assert failed and all(r.label == "coeffs" for r in failed)


def test_perturbed_monte_carlo_reference_is_a_failure(monkeypatch):
    import workloads

    wl, requests = _executed("monte-carlo")
    assert _check(wl, requests) == []
    exact = workloads.kernels.poisson_coefficient
    monkeypatch.setattr(workloads.kernels, "poisson_coefficient",
                        lambda D, k, ax: exact(D, k, ax) + 0.05)
    failed = _check(wl, requests)
    labels = {r.label.split(".")[0] for r in failed}
    assert labels == {"cartesian", "polar-bridge", "gauge"}


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "hypbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run.__wrapped__("series-cold", 0, root=bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
