#!/usr/bin/env python3
"""The repository's benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py                          # every workload, end-to-end metrics
    python3 bench/run.py --workload nlevel-dense --seed 3
    python3 bench/run.py --trace                  # per-layer metrics from traced runs
    python3 bench/run.py --smoke --out smoke.json # tiny instances, a few seconds each

Workloads, metrics, units, directions and regression bounds are listed in
``BENCHMARK.json`` at the repository root; ``bench/README.md`` explains
them.  Each workload runs in a fresh process (``bench/workloads.py``), one
at a time, and checks every output it produces.  This script prints every
metric by name with its unit and then, as the last line of standard
output, one JSON object::

    {"correct": true, "attempted": 52, "failed": 0,
     "metrics": {"run_s": {"value": 0.6131, "unit": "s"}, ...}}

With several workloads the metric names in that line carry a
``<workload>:`` prefix.  ``--out`` writes the full results (sample counts,
problems, machine, window) for ``bench/compare.py``.

The measurement window is ``run_seconds`` in ``BENCHMARK.json``.  Harnesses
that run the benchmark as ``run.py --workload W --seed S --seconds T
--trace 0|1`` pass that value as ``--seconds``; results from another
window are not comparable, and ``compare.py`` refuses to mix them.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
checkout holds no ``src/repro`` to benchmark (nothing is printed to
standard output then).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: A workload process still running after this many seconds is killed, so
#: a run ends within three minutes.
RUN_LIMIT = 175.0


def run_workload(name: str, args, budget: float) -> dict:
    """One workload in a fresh process group; returns its JSON result."""
    cmd = [
        sys.executable, str(BENCH / "workloads.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(
        cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        out = ""
        problem = f"timed out after {budget:.0f} s"
    else:
        problem = f"exited with {proc.returncode} without a result"
    finally:
        # The group holds the workload's own children (server, pool).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"workload": name, "correct": False, "attempted": 1,
                "failed": 1, "metrics": {}, "samples": {},
                "problems": [problem], "warnings": []}


def reported_metrics(result: dict, defined: list, per_layer: bool) -> dict:
    """``{name: {"value", "unit"}}`` for every metric BENCHMARK.json
    defines.  A per-layer metric the workload does not report is a layer
    it does not exercise and reads 0; a missing end-to-end metric is a
    problem."""
    metrics = {}
    for spec in defined:
        name = spec["name"]
        if per_layer and name not in result["metrics"]:
            value = 0.0
        else:
            value = result["metrics"].get(name)
        if value is None or not math.isfinite(value):
            result["correct"] = False
            result["problems"].append(f"metric {name} missing")
            continue
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics


def report(result: dict, metrics: dict) -> None:
    status = "ok" if result["correct"] else "FAILED"
    samples = ", ".join(f"{k}={v}" for k, v in result["samples"].items())
    print(f"{result['workload']}: {status}, {result['attempted']} operations, "
          f"{result['failed']} failed ({samples})")
    for name, metric in metrics.items():
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    for line in result["warnings"]:
        print(f"  warning: {line}", file=sys.stderr)
    for line in result["problems"]:
        print(f"  problem: {line}", file=sys.stderr)


def main(argv=None) -> int:
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: picks the run seeds after the "
                        "fixed cut seeds and where service jobs repeat "
                        "(default 0)")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measurement window per workload (default and "
                        "comparable value: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from traced runs")
    parser.add_argument("--out", default=None,
                        help="write the full results as JSON to this path")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances and a fixed number of runs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no src/repro under {ROOT}; nothing to benchmark",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    defined = spec["per_layer"] if args.trace else spec["end_to_end"]
    chosen = args.workload or names
    results = {}
    for name in chosen:
        budget = RUN_LIMIT
        if len(chosen) == 1:
            budget -= time.monotonic() - start
        result = run_workload(name, args, budget)
        result["reported"] = reported_metrics(result, defined, bool(args.trace))
        report(result, result["reported"])
        results[name] = result

    if args.out:
        numpy_version = next(
            (r["numpy"] for r in results.values() if "numpy" in r), None
        )
        with open(args.out, "w") as fh:
            json.dump({
                "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "smoke": args.smoke,
                "machine": {
                    "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": numpy_version,
                    "platform": platform.platform(),
                },
                "workloads": results,
            }, fh, indent=1, sort_keys=True)
            fh.write("\n")

    if len(results) == 1:
        (result,) = results.values()
        metrics = result["reported"]
    else:
        metrics = {
            f"{name}:{metric}": value
            for name, result in results.items()
            for metric, value in result["reported"].items()
        }
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
