"""Smoke tests for the kernel micro-benchmark and its tracked baseline."""

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
SCRIPT = os.path.join(REPO_ROOT, "scripts", "perf_bench.py")
BASELINE = os.path.join(REPO_ROOT, "BENCH_kernels.json")


@pytest.mark.slow
def test_smoke_run_writes_report(tmp_path):
    out = tmp_path / "bench.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--smoke", "--output", str(out)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert set(report["circuits"]) == {"balu", "s9234", "industry2"}
    for name, entry in report["circuits"].items():
        assert entry["timings"]["python"]["all_gains"] > 0.0
        assert entry["timings"]["numpy"]["all_gains"] > 0.0
        assert entry["speedup"]["all_gains"] > 0.0
    # Smoke mode still runs the full-pass benchmark on the small circuit
    # (which cross-checks that both backends reach the same cut).
    assert "full_pass" in report["circuits"]["balu"]["timings"]["python"]


def test_committed_baseline_is_valid():
    """The tracked baseline exists, parses, and records the headline
    speedup: numpy ``all_gains`` at least 3x the scalar path on the
    large (industry2-sized) instance."""
    with open(BASELINE) as fh:
        report = json.load(fh)
    large = report["circuits"]["industry2"]
    assert large["size"] == "large"
    assert large["num_pins"] == 48404
    assert large["speedup"]["all_gains"] >= 3.0
    assert not report["smoke"], "baseline must come from a full run"


def test_prop_sweep_forces_each_backend():
    """Each ``full_pass`` row and the sub-round baseline time the sweep
    they name at any size: PROP picks its own by instance size, so the
    script moves the cutoff, and puts it back."""
    import importlib.util

    import repro.kernels as kernels
    from repro.core import PropConfig
    from repro.core.engine import run_prop
    from repro.hypergraph import make_benchmark
    from repro.partition import BalanceConstraint, random_balanced_sides

    spec = importlib.util.spec_from_file_location("perf_bench", SCRIPT)
    perf_bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perf_bench)

    cutoff = kernels.AUTO_SCALAR_CUTOFF_PINS
    graph = make_benchmark("industry2", scale=0.1)  # 4840 pins
    sides = random_balanced_sides(graph, perf_bench.SEED)
    balance = BalanceConstraint.fifty_fifty(graph)
    config = PropConfig(max_passes=1)
    numpy_runs = {}
    for backend in perf_bench.BACKENDS:
        with perf_bench.prop_sweep(backend):
            result = run_prop(graph, sides, balance, config, seed=0)
        numpy_runs[backend] = result.stats["kernel_numpy"]
        assert kernels.AUTO_SCALAR_CUTOFF_PINS == cutoff
    assert numpy_runs == {"python": 0.0, "numpy": 1.0}
