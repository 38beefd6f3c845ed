#!/usr/bin/env python
"""Telemetry-overhead smoke: off-by-default must be (nearly) free.

Checks the three guarantees the telemetry layer advertises, on a real
``benchmark_suite`` circuit rather than a toy fixture:

1. **Zero-overhead-when-off** — a run with ``NullRecorder`` attached (the
   off state) is within ``--budget`` (default 2%) of a run with no
   recorder argument at all.  The two run in pairs, alternating which
   goes first, and the median of the per-pair time ratios is judged, so
   neither run order nor a drift in host speed picks the verdict.
2. **Behavior-neutral** — with a ``TraceRecorder`` attached, every
   algorithm produces bit-identical cuts and sides to the unrecorded run.
3. **Faithful trajectory** — the per-pass cuts recorded in the trace match
   ``BipartitionResult.pass_cuts`` exactly.

Exits 0 when all three hold, 1 otherwise.  Used by the ``telemetry`` CI
job (see .github/workflows/tests.yml).
"""

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.baselines import FMPartitioner, LAPartitioner  # noqa: E402
from repro.core import PropPartitioner  # noqa: E402
from repro.hypergraph import make_benchmark  # noqa: E402
from repro.telemetry import (  # noqa: E402
    MemoryRecorder,
    NullRecorder,
    TraceRecorder,
)


def timed(fn):
    """Wall-clock seconds of one invocation of ``fn``."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def check_overhead(graph, args):
    """Guarantee 1: NullRecorder within the overhead budget.

    Each of ``args.repeats`` pairs times one bare and one NullRecorder
    run; even pairs run the bare one first, odd pairs the NullRecorder
    one.  The overhead is the median NullRecorder/bare ratio, minus one.
    """
    partitioner = PropPartitioner()

    def bare():
        partitioner.partition(graph, seed=0)

    def nulled():
        partitioner.partition(graph, seed=0, recorder=NullRecorder())

    # Warm-up run so allocator/caches steady-state before timing.
    bare()
    ratios = []
    for pair in range(args.repeats):
        if pair % 2:
            nulled_s = timed(nulled)
            bare_s = timed(bare)
        else:
            bare_s = timed(bare)
            nulled_s = timed(nulled)
        ratios.append(nulled_s / bare_s)
    overhead = statistics.median(ratios) - 1.0
    print(
        f"overhead: median NullRecorder/bare ratio over {args.repeats} "
        f"alternating pairs {overhead:+.2%} (budget {args.budget:.0%})"
    )
    return overhead <= args.budget


def check_neutrality(graph):
    """Guarantees 2 and 3: tracing changes nothing and records truth."""
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for make, label in (
            (PropPartitioner, "PROP"),
            (lambda: FMPartitioner("bucket"), "FM-bucket"),
            (lambda: LAPartitioner(2), "LA-2"),
        ):
            bare = make().partition(graph, seed=1)
            memory = MemoryRecorder()
            with TraceRecorder(Path(tmp) / f"{label}.jsonl") as trace:
                traced = make().partition(graph, seed=1, recorder=trace)
            remembered = make().partition(graph, seed=1, recorder=memory)
            identical = (
                traced.cut == bare.cut
                and traced.sides == bare.sides
                and remembered.cut == bare.cut
            )
            trajectory = memory.pass_cuts() == remembered.pass_cuts
            print(
                f"{label}: cut {bare.cut:g}, identical={identical}, "
                f"trajectory-match={trajectory}"
            )
            ok = ok and identical and trajectory
    return ok


def main() -> int:
    """Run the smoke checks; 0 = all guarantees hold."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--circuit", default="t5", help="benchmark circuit (default t5)"
    )
    parser.add_argument(
        "--scale", type=float, default=0.25,
        help="circuit scale (default 0.25: large enough to time)",
    )
    parser.add_argument(
        "--repeats", type=int, default=61,
        help="alternating bare/NullRecorder timing pairs (default 61)",
    )
    parser.add_argument(
        "--budget", type=float, default=0.02,
        help="allowed NullRecorder slowdown fraction (default 0.02)",
    )
    args = parser.parse_args()

    graph = make_benchmark(args.circuit, scale=args.scale)
    print(
        f"{args.circuit}@{args.scale}: {graph.num_nodes} nodes, "
        f"{graph.num_nets} nets"
    )
    overhead_ok = check_overhead(graph, args)
    neutral_ok = check_neutrality(graph)
    if not overhead_ok:
        print("FAIL: NullRecorder overhead exceeds budget")
    if not neutral_ok:
        print("FAIL: recording changed results or mis-recorded trajectory")
    if overhead_ok and neutral_ok:
        print("telemetry smoke OK")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
