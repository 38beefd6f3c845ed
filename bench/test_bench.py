"""Self-test of the benchmark: ``python -m pytest bench -q``.

Runs ``bench/run.py --smoke`` (tiny instances, two runs or 40 jobs per
workload) untraced on two seeds and traced once, then checks what the
benchmark promises: every metric BENCHMARK.json defines is reported with
a valid name and its unit, layer self-times add up to the traced run
time, cuts repeat exactly across seeds, ``compare.py`` flags a 20%
slowdown and refuses results from another window, and a checkout without
``src/`` is refused.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

sys.path.insert(0, str(BENCH))
from workloads import SELF_TIMES  # noqa: E402


def smoke(out: Path, trace: bool, seed: int = 0) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--smoke", "--seed",
           str(seed), "--trace", "1" if trace else "0", "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("smoke")
    return {
        "a": smoke(tmp / "a.json", trace=False),
        "b": smoke(tmp / "b.json", trace=False, seed=1),
        "trace": smoke(tmp / "trace.json", trace=True),
    }


@pytest.mark.parametrize("kind,key", [("a", "end_to_end"),
                                      ("trace", "per_layer")])
def test_every_metric_reported(runs, kind, key):
    workloads = runs[kind]["workloads"]
    assert sorted(workloads) == sorted(w["name"] for w in SPEC["workloads"])
    for name, result in workloads.items():
        assert result["correct"] and result["failed"] == 0, result["problems"]
        assert result["attempted"] >= 1
        for spec in SPEC[key]:
            assert NAME.match(spec["name"]) and spec["unit"]
            metric = result["reported"][spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert math.isfinite(metric["value"]), (name, spec["name"])


def test_self_times_add_up(runs):
    for name, (parts, rest) in SELF_TIMES.items():
        metrics = runs["trace"]["workloads"][name]["reported"]
        total = sum(metrics[p]["value"] for p in parts) + metrics[rest]["value"]
        traced = metrics["telemetry.traced_run_s"]["value"]
        assert total == pytest.approx(traced, rel=1e-9), name


def test_cuts_repeat(runs):
    """The cut counts fixed run seeds and specs: another workload seed
    gives exactly the same cut."""
    for name, result in runs["a"]["workloads"].items():
        again = runs["b"]["workloads"][name]
        assert result["reported"]["cut"] == again["reported"]["cut"], name


def write_set(directory: Path, metric: str, values, seconds=20.0):
    directory.mkdir()
    paths = []
    for i, value in enumerate(values):
        path = directory / f"{i}.json"
        path.write_text(json.dumps({"seconds": seconds, "workloads": {"w": {
            "attempted": 10, "failed": 0,
            "reported": {metric: {"value": value, "unit": "s"}},
        }}}))
        paths.append(str(path))
    return paths


def compare(a, b):
    return subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), *a, "--", *b],
        capture_output=True, text=True, timeout=60,
    )


BASE = [1.0 + 0.002 * i for i in range(10)]


@pytest.mark.parametrize("metric", ["run_s", "baselines.fm_run_s",
                                    "kernels.subround_run_s"])
@pytest.mark.parametrize("factor,code,word", [
    (1.2, 1, "regressed"),  # a 20% slowdown
    (1.0, 0, "no worse"),
])
def test_compare_flags_slowdown(tmp_path, metric, factor, code, word):
    a = write_set(tmp_path / "a", metric, BASE)
    b = write_set(tmp_path / "b", metric, [factor * v for v in reversed(BASE)])
    proc = compare(a, b)
    assert proc.returncode == code, proc.stdout + proc.stderr
    row = next(line for line in proc.stdout.splitlines()
               if f" {metric} " in line)
    assert row.endswith(word)


def test_compare_pairs_share_slow_spells(tmp_path):
    """A slow spell that reaches both runs of a pair widens each side's
    quartiles past the bound but leaves the pairs resolved."""
    spells = [1.5 if i % 3 == 0 else 1.0 for i in range(10)]
    a = write_set(tmp_path / "a", "setup_s", spells)
    b = write_set(tmp_path / "b", "setup_s", [1.01 * v for v in spells])
    proc = compare(a, b)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    row = next(line for line in proc.stdout.splitlines()
               if " setup_s " in line)
    assert row.endswith("no worse")


def test_compare_refuses_other_window(tmp_path):
    a = write_set(tmp_path / "a", "run_s", BASE)
    b = write_set(tmp_path / "b", "run_s", BASE, seconds=5.0)
    proc = compare(a, b)
    assert proc.returncode != 0
    assert "different measurement windows" in proc.stderr


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table1-industry2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
