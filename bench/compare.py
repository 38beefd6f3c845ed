#!/usr/bin/env python3
"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 bench/compare.py parent-1.json parent-2.json ... -- change-1.json change-2.json ...
    python3 bench/compare.py --json table.json A... -- B...   # also write the rows

Each file is what ``bench/run.py --out`` writes (one or several
workloads); every file must come from the same measurement window.  Set A
(before ``--``) is the parent, set B the change; the i-th files of the two
sets form a pair, so run them alternately, with the same seeds.  For every
workload and metric the files hold, one row gives each side's median,
quartiles and sample count, B's change against A, and the share of pairs
B won (ties count for neither side).  End-to-end rows end with a verdict,
and so do the per-layer rows in ``GATED_LAYERS`` (from ``--trace``
files), under the bound of the end-to-end metric named there; other
per-layer rows stop before it:

* ``better`` -- B wins at least 90% of the pairs and the medians differ by
  more than the distance between A's quartiles, or every B reads better
  than every A;
* ``no worse`` -- B's median is within the metric's bound of A's;
* ``regressed`` -- B's median is worse than A's by more than the bound, or
  B loses at least 90% of the pairs and its median change over the pairs
  is worse than ``PAIRED_SHARE`` of the bound;
* ``unresolved`` -- the distance between the quartiles of the per-pair
  changes exceeds the bound, so the pairs cannot show whether the bound
  holds (a side's own quartiles also hold the host's slow spells, which
  last minutes and reach both runs of a pair alike), or the sides hold
  different numbers of values and cannot be paired.

Exits 1 when a metric regressed or B failed a larger share of its
operations than A, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Per-layer metrics that are a whole engine's or the service's own
#: end-to-end numbers, measured on table1-industry2 and service-mixed:
#: each is judged under the bound of the end-to-end metric it maps to.
GATED_LAYERS = {
    "baselines.fm_run_s": "run_s",
    "baselines.fm_cut": "cut",
    "kernels.subround_run_s": "run_s",
    "kernels.subround_cut": "cut",
    "service.job_p95_s": "run_s",
    "service.jobs_per_s": "run_s",
}

#: The bounds also absorb the host's drift between sets of runs made
#: minutes apart: on the reference machine the unscaled wall-time medians
#: of one commit moved by up to 14% from one set to the next.  The two
#: runs of a pair share that drift, so a change that loses nine pairs in
#: ten by more than this share of the bound has regressed as well.
PAIRED_SHARE = 0.5


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_set(paths, windows: set):
    """``{workload: {"metrics": {name: [values]}, "attempted", "failed"}}``;
    adds each file's measurement window to ``windows``."""
    out = {}
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        windows.add((data.get("seconds"), data.get("smoke", False)))
        for name, result in data["workloads"].items():
            entry = out.setdefault(
                name, {"metrics": {}, "attempted": 0, "failed": 0}
            )
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for metric, value in result["reported"].items():
                entry["metrics"].setdefault(metric, []).append(value["value"])
    return out


def verdict(a, b, better, bound):
    """``(verdict, change, won)`` for value lists ``a`` (parent) and ``b``;
    ``change`` is B's median relative to A's."""
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    pairs = list(zip(a, b))
    won = sum(sign * (y - x) < 0 for x, y in pairs) / len(pairs)
    lost = sum(sign * (y - x) > 0 for x, y in pairs) / len(pairs)
    q1, paired, q3 = quartiles([(y - x) / x if x else 0.0 for x, y in pairs])
    all_better = max(b) < min(a) if sign > 0 else min(b) > max(a)
    if all_better:
        return "better", change, won
    if len(a) != len(b):
        return "unresolved", change, won
    if lost >= 0.9 and sign * paired > PAIRED_SHARE * bound:
        return "regressed", change, won
    if q3 - q1 > bound:
        return "unresolved", change, won
    if sign * change > bound:
        return "regressed", change, won
    if won >= 0.9 and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "better", change, won
    return "no worse", change, won


def summary(values) -> dict:
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    json_out = None
    if "--json" in argv:
        i = argv.index("--json")
        json_out = argv[i + 1]
        del argv[i:i + 2]
    if "--" not in argv or not 0 < argv.index("--") < len(argv) - 1:
        sys.exit("usage: compare.py [--json OUT] A.json... -- B.json...")
    split = argv.index("--")
    set_a, set_b = argv[:split], argv[split + 1:]
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    windows = set()
    a, b = load_set(set_a, windows), load_set(set_b, windows)
    if len(windows) > 1:
        sys.exit("compare.py: the files come from different measurement "
                 f"windows (seconds, smoke): {sorted(windows, key=str)}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds.update({
        layer: bounds[metric] for layer, metric in GATED_LAYERS.items()
    })

    failed = False
    table = {}
    fmt = "{:<18} {:<42} {:>32} {:>32} {:>8} {:>5}  {}"
    print(fmt.format("workload", "metric", "A median [q1, q3] n",
                     "B median [q1, q3] n", "change", "won", "verdict"))
    for workload in sorted(set(a) & set(b)):
        wa, wb = a[workload], b[workload]
        for metric in spec["end_to_end"] + spec["per_layer"]:
            name = metric["name"]
            va, vb = wa["metrics"].get(name), wb["metrics"].get(name)
            if not va or not vb or not any(va + vb):
                continue  # not measured, or a layer this workload skips
            result, change, won = verdict(
                va, vb, metric["better"], bounds.get(name, float("inf"))
            )
            if name not in bounds:
                result = "-"  # a per-layer metric outside GATED_LAYERS
            failed |= result == "regressed"
            row = {"unit": metric["unit"], "A": summary(va),
                   "B": summary(vb), "change": change, "verdict": result}
            table.setdefault(workload, {})[name] = row
            cells = [
                f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] {s['n']}"
                for s in (row["A"], row["B"])
            ]
            print(fmt.format(workload, name, *cells, f"{100 * change:+.1f}%",
                             f"{won:.0%}", result))
        share_a = wa["failed"] / max(wa["attempted"], 1)
        share_b = wb["failed"] / max(wb["attempted"], 1)
        if share_b > share_a:
            failed = True
            print(f"{workload}: B failed {share_b:.2%} of its operations, "
                  f"A {share_a:.2%}")
    if json_out:
        with open(json_out, "w") as fh:
            json.dump({"A": set_a, "B": set_b, "metrics": table}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
