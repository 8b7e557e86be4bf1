"""The benchmark in hypbench/ wraps package functions by name and skips a
name it cannot find, so a renamed or deleted function would silently zero
its per-layer metric. These tests pin every name it relies on, and run each
workload once at its tiny size, so a change to the calls, configs or
classes the benchmark uses fails here; they only read hypbench/."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "hypbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"hypbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = _load("layers").targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_setup_snippet_runs():
    proc = subprocess.run(
        [sys.executable, "-c", _load("run").SETUP_SNIPPET],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", ["series-cold", "series-sweep", "monte-carlo"])
def test_workload_runs_correct_at_tiny_size(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
