#!/usr/bin/env python3
"""The benchmark's four workloads, each measured in a fresh process.

``bench/run.py`` starts one process per workload; a workload can also be
run alone::

    python3 bench/workloads.py --workload table1-industry2 --seed 0 --seconds 22 --trace 0
    python3 bench/workloads.py --workload nlevel-dense --setup-only

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed``, ``metrics`` (name -> number), ``samples``
(sample counts), ``problems``, ``warnings`` and ``numpy`` (its version).  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
(``bench/README.md`` defines both).

Every number comes from this file: wall time around calls into ``repro``'s
public functions (scaled to a reference speed of the host, see
``SpeedGauge`` and ``import_scale``), ``BipartitionResult.stats``, a
``MemoryRecorder`` attached from outside, and the service's HTTP
payloads.  Nothing under ``src/`` is instrumented for the benchmark.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import random
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Working space (service cache dirs, temp files) inside the checkout.
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("table1-industry2", "nlevel-sparse", "nlevel-dense", "service-mixed")

#: Pass cap of every timed table1 run.  A free-running PROP run takes 4-10
#: passes depending on its seed (30% run-time spread at this size), which
#: no affordable number of runs averages out; every run here reaches 3
#: passes, so each does the same work whatever its seed.
TABLE1_PASSES = 3
#: Pass cap of every n-level refiner call, for the same reason: after
#: projection the second pass is empty for some seeds and not for others,
#: while one pass is always made.
NLEVEL_REFINER_PASSES = 1
#: Scale of industry2 in table1-industry2 and nlevel-dense: a tenth of the
#: paper's largest Table-1 circuit keeps a table1 run near 0.6 s and an
#: n-level run near 2 s, so a 22 s window holds 8-30 runs.
INDUSTRY2_SCALE = 0.1
#: large_circuit size for nlevel-sparse: ~3x table1's node count.  One hub
#: net keeps the hub density of the 8-hub 30k-node instance (one per ~4k
#: nodes); at 4k nodes the default 8 hubs would touch most nodes and make
#: every PROP move ~10x dearer than on the large instance.
SPARSE_NODES = 4000
SPARSE_HUBS = 1
#: Run seeds of the runs the ``cut`` metric counts: the first rounds of the
#: window.  They are fixed rather than drawn from the workload seed, so
#: the cut is the same on every seed and differs between two commits only
#: where the algorithm does.  The metric is their best cut (the paper's
#: best-of-N protocol), except on nlevel-dense, where it is their mean:
#: after one refinement pass its cuts keep the spread of the coarse
#: solutions (380-480 nets, no floor), and one lucky seed would decide the
#: best.
CUT_SEEDS = tuple(range(8))
MEAN_CUT_WORKLOADS = ("nlevel-dense",)
#: New service specs counted by the ``cut`` metric: the first ones, which
#: every schedule contains (see ``Schedule``) and every window reaches.
CUT_JOBS = 200
SMOKE_CUT_JOBS = 20
#: At least this many runs per window, however slow the code under test.
MIN_RUNS = len(CUT_SEEDS)
#: Set-up samples per run, whose median is ``setup_s``.  They are spread
#: over the run rather than taken back to back: the host's slow spells
#: last seconds to minutes and hit set-up (process start, imports) harder
#: than the runs, so five samples in a row read one spell five times.
SETUP_SAMPLES = 5
#: Steps of one ``SpeedGauge.probe()`` (under 1 ms), the period of the
#: probes (about 2% of the time), and a probe's wall time on an unloaded
#: vCPU of the reference machine (2-vCPU VM, Python 3.11): the speed
#: every reported time is scaled to.
PROBE_STEPS = 3000
PROBE_PERIOD_S = 0.05
REFERENCE_PROBE_S = 0.0006
#: Set-up is mostly imports, whose speed the probes do not follow: a
#: fresh process importing what ``repro`` imports first is the set-up's
#: speed reference.  Its wall time on an unloaded reference machine:
REFERENCE_IMPORTS = "import numpy, scipy.sparse, scipy.linalg"
REFERENCE_IMPORT_S = 0.45
#: Service job mix: new FM jobs, new PROP jobs (two runs each), and exact
#: repeats of an earlier spec, which the result cache serves.
FM_SHARE, PROP_SHARE = 0.5, 0.2
REPEAT_BLOCK = 10
JOB_SIZE_RANGE = (40, 120)
#: Seed of the new service specs: new spec i is instance i of one fixed
#: many_small batch, with an algorithm and run seed drawn from this seed
#: too.  The workload seed only decides where repeats fall and what they
#: repeat, so every schedule holds the same new specs.
JOB_SPEC_SEED = 7
CLIENTS = 2
#: Every REFERENCE_EVERY-th new service job is recomputed in-process.
REFERENCE_EVERY = 10
SMOKE_JOBS = 40
SMOKE_RUNS = 2
PROP_PHASES = ("bootstrap", "refine", "gain_init", "move_loop", "rollback")

#: Per workload, the layer self-times that add up to
#: ``telemetry.traced_run_s`` together with the unattributed remainder.
SELF_TIMES = {
    "table1-industry2": (
        [f"core.{p}_s" for p in PROP_PHASES] + ["kernels.csr_build_s"],
        "core.unattributed_s",
    ),
    "nlevel-sparse": (
        [
            "multilevel.coarsen_s", "multilevel.initial_partition_s",
            "multilevel.uncoarsen_s", "multilevel.local_refine_s",
            "multilevel.stage_refine_s", "multilevel.final_refine_s",
        ],
        "multilevel.unattributed_s",
    ),
}
SELF_TIMES["nlevel-dense"] = SELF_TIMES["nlevel-sparse"]
#: Share of the traced run time above which an unattributed remainder is
#: reported as a warning.
UNATTRIBUTED_WARN = 0.05


def import_repro():
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"cannot import repro from {SRC}: {exc}")
    if SRC not in Path(repro.__file__).resolve().parents:
        sys.exit(f"repro was imported from {repro.__file__}, not {SRC}")
    return repro


def build_instance(workload: str, smoke: bool):
    """The workload's netlist (``None`` for the service, whose jobs
    generate theirs server-side)."""
    from repro.hypergraph import large_circuit, make_benchmark

    if workload == "table1-industry2":
        return make_benchmark("balu") if smoke else make_benchmark(
            "industry2", scale=INDUSTRY2_SCALE
        )
    if workload == "nlevel-sparse":
        return large_circuit(
            2000 if smoke else SPARSE_NODES, seed=7, hub_nets=SPARSE_HUBS
        )
    if workload == "nlevel-dense":
        return make_benchmark(
            "industry2", scale=0.05 if smoke else INDUSTRY2_SCALE
        )
    return None


class _Cell:
    __slots__ = ("key", "gain")

    def __init__(self, key: int) -> None:
        self.key = key
        self.gain = 0.0


class SpeedGauge:
    """Probes the CPU's speed every ``PROBE_PERIOD_S`` of wall time.

    On a shared VM the vCPU runs up to 2x slower for spells of a fraction
    of a second to minutes while neighbouring VMs are busy, and process
    time slows alike.  The probes run in a ``SIGALRM`` handler, so on the
    main thread, between two bytecodes of the operation being timed, on
    the vCPU it runs on: the probes taken during an operation sample the
    speed it ran at, and ``scale`` divides that out.  Where the work runs
    in other processes (sub-round workers, a set-up process, the
    service's server and job workers), the probes share the vCPUs with
    it; with a fixed number of processes at work that load is about the
    same whatever the work costs, so the probes still follow the host.
    """

    def __init__(self) -> None:
        self.samples = []
        # Made once: a probe then allocates nothing the garbage collector
        # tracks, so it never runs a collection over the measured heap.
        self._cells = [_Cell(i) for i in range(64)]
        self._counts = dict.fromkeys(range(64), 0)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def probe(self) -> float:
        """Wall time of a fixed pure-Python loop: the CPU's current speed.

        The loop does what the partitioners do most (attribute updates,
        float arithmetic, dict counts, list indexing) and calls nothing in
        ``repro``, so no change to the code under test moves it.
        """
        cells, counts = self._cells, self._counts
        best = 0.0
        t0 = time.perf_counter()
        for i in range(PROBE_STEPS):
            cell = cells[(i * 7919) & 63]
            cell.gain = cell.gain * 0.5 + (i & 15) * 0.25
            counts[cell.key ^ (i & 31)] += 1
            if cell.gain > best:
                best = cell.gain
        return time.perf_counter() - t0

    def _sample(self, signum, frame) -> None:
        self.samples.append(self.probe())

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, mark: int) -> float:
        """Factor from wall time to time at the reference speed, from the
        probes taken since ``len(self.samples)`` was ``mark`` (one taken
        now if the operation was too short for any)."""
        probes = self.samples[mark:] or [self.probe()]
        return REFERENCE_PROBE_S / statistics.fmean(probes)


def median(values):
    return statistics.median(values) if values else math.nan


def percentile(values, p):
    """The ``p``-th percentile (inclusive method); inf samples allowed."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    low, high = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
    if pos == lo or low == high:
        return low
    return low + (high - low) * (pos - lo)


def ratio(num, den):
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Meter:
    """Counts operations and problems and decides when a window ends.

    Round -1 warms up (the first runs of a process pay lazy imports and
    allocator growth) and is checked but not recorded; the window starts
    after it.  Smoke runs skip it.
    """

    def __init__(self, args, gauge=None, setup=None) -> None:
        self.args = args
        self.gauge = gauge
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.warnings = []
        self.rounds = 0 if args.smoke else -1
        self.start = time.perf_counter()
        self.deadline = self.start + args.seconds
        #: ``setup()`` takes one ``(seconds, build seconds)`` set-up
        #: sample; the samples are spread evenly over the window (see
        #: ``SETUP_SAMPLES``).
        self.setup = setup
        self.setups = []
        self.next_setup = math.inf

    @property
    def recording(self) -> bool:
        return self.rounds >= 0

    def more(self) -> bool:
        """Whether to start another round of operations."""
        if self.args.smoke:
            return self.rounds < SMOKE_RUNS
        return self.rounds < MIN_RUNS or time.perf_counter() < self.deadline

    def end_round(self) -> None:
        self.rounds += 1
        if self.rounds == 0:
            self.start = time.perf_counter()
            self.deadline = self.start + self.args.seconds
            self.next_setup = self.start
        if (self.setup and len(self.setups) < SETUP_SAMPLES
                and time.perf_counter() >= self.next_setup):
            self.setups.append(self.setup())
            self.next_setup += self.args.seconds / SETUP_SAMPLES

    def setup_samples(self) -> list:
        """Every ``(seconds, build seconds)`` set-up sample, taking those
        the window left out (a smoke run takes one)."""
        while len(self.setups) < (1 if self.args.smoke else SETUP_SAMPLES):
            self.setups.append(self.setup())
        return self.setups

    def run_seed(self, rng) -> int:
        """Run seed of the current round: one of ``CUT_SEEDS`` for the
        first recorded rounds, else drawn from ``rng``."""
        if 0 <= self.rounds < len(CUT_SEEDS):
            return CUT_SEEDS[self.rounds]
        return rng.randrange(2**31)

    def problem(self, message: str) -> None:
        self.problems.append(message)

    def run(self, fn, graph, balance, what):
        """Time ``fn()`` (one partitioner call) and check its result.

        Returns ``(result, wall seconds, seconds at reference speed)``,
        with ``result`` None on failure.
        """
        self.attempted += 1
        mark = len(self.gauge.samples)
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - count it and go on
            traceback.print_exc()
            self.failed += 1
            self.problem(f"{what}: {type(exc).__name__}: {exc}")
            return None, math.nan, math.nan
        seconds = time.perf_counter() - t0
        scaled = seconds * self.gauge.scale(mark)
        problem = check_partition(graph, balance, result)
        if problem:
            self.failed += 1
            self.problem(f"{what}: {problem}")
            return None, seconds, scaled
        return result, seconds, scaled


def check_partition(graph, balance, result):
    """Why ``result`` is not a valid bisection of ``graph``, or None."""
    from repro.partition import cut_cost
    from repro.partition.metrics import side_weights

    sides = result.sides
    if len(sides) != graph.num_nodes or any(s not in (0, 1) for s in sides):
        return "malformed sides"
    try:
        result.verify(graph)
    except AssertionError as exc:
        return str(exc)
    recount = cut_cost(graph, sides)
    if recount != result.cut:
        return f"recorded cut {result.cut} != recount {recount}"
    if not balance.is_satisfied(side_weights(graph, sides)):
        return "violates the balance constraint"
    return None


def layer_recorder():
    """A ``MemoryRecorder`` that drops per-move events: no layer metric
    reads them, so the traced run does not pay to store one per move."""
    from repro import MemoryRecorder

    class LayerRecorder(MemoryRecorder):
        def move(self, *event) -> None:
            pass

    return LayerRecorder()


def run_pair(m: Meter, args, fn, graph, balance, what):
    """Run ``fn(traced=False)`` and, with ``--trace``, ``fn(traced=True)``
    on the same seed, in an order that alternates between rounds.

    Checks that the traced run cuts exactly like its untraced twin.
    Returns ``{traced: (result, wall seconds, scaled seconds)}`` when every
    run succeeded in a recorded round, else None.
    """
    order = (False, True) if m.rounds % 2 == 0 else (True, False)
    pair = {}
    for traced in order if args.trace else (False,):
        run = m.run(lambda: fn(traced), graph, balance, what)
        if run[0] is not None:
            pair[traced] = run
    if len(pair) == 2 and pair[True][0].cut != pair[False][0].cut:
        m.failed += 1
        m.problem(f"{what}: traced cut {pair[True][0].cut} != untraced cut "
                  f"{pair[False][0].cut}")
    if m.recording and len(pair) == (2 if args.trace else 1):
        return pair
    return None


def core_layers(rec, ops: int, refiner_seconds: float) -> dict:
    """core.* and datastructures.* per traced operation, from the
    recorder's PROP spans, pass events, counters and run_end stats.

    ``refiner_seconds`` is the wall time of every PROP run the traced
    operations made; what their phase spans and CSR builds leave is
    ``core.unattributed_s``.
    """
    phase = {p: 0.0 for p in PROP_PHASES}
    for span in rec.spans:
        if span.name in phase:
            phase[span.name] += span.seconds
    csr = sum(
        r["stats"].get("csr_build_seconds", 0.0)
        for r in rec.results
        if r["algorithm"] == "PROP"
    )
    moves = sum(p.moves for p in rec.passes)
    kept = sum(p.kept for p in rec.passes)
    counts = rec.counter_totals
    counted_moves = counts.get("moves", 0)
    out = {f"core.{p}_s": phase[p] / ops for p in PROP_PHASES}
    out.update({
        "kernels.csr_build_s": csr / ops,
        "core.unattributed_s":
            (refiner_seconds - sum(phase.values()) - csr) / ops,
        "core.passes": len(rec.passes) / ops,
        "core.tentative_moves": moves / ops,
        "core.move_us": ratio(phase["move_loop"], moves) * 1e6,
        "core.kept_move_frac": ratio(kept, moves),
        "core.probability_refreshes":
            counts.get("probability_refreshes", 0) / ops,
    })
    for name in ("container", "neighbor", "topk"):
        out[f"datastructures.{name}_updates_per_move"] = ratio(
            counts.get(f"{name}_updates", 0), counted_moves
        )
    return out


def all_gains_seconds(graph, seed: int) -> float:
    """One vectorized gain sweep over ``graph``, best of five."""
    from repro.kernels import make_gain_engine
    from repro.partition import Partition, random_balanced_sides

    engine = make_gain_engine(
        Partition(graph, random_balanced_sides(graph, seed)), "numpy"
    )
    engine.fill(0.5)
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        engine.all_gains()
        best = min(best, time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
# table1-industry2: the paper's protocol on (scaled) industry2
# ----------------------------------------------------------------------
def table1(graph, args, m: Meter) -> dict:
    """PROP runs, one seed per round; with ``--trace`` each round also
    makes an FM-bucket and a sub-round PROP run on the same seed (they
    feed only per-layer metrics)."""
    from repro import (
        BalanceConstraint, FMPartitioner, PropConfig, PropPartitioner,
    )

    balance = BalanceConstraint.fifty_fifty(graph)
    prop = PropPartitioner(PropConfig(max_passes=TABLE1_PASSES))
    others = {
        "fm": FMPartitioner(max_passes=TABLE1_PASSES),
        "subround": PropPartitioner(PropConfig(
            max_passes=TABLE1_PASSES, kernel="subround", subround_workers=2,
        )),
    } if args.trace else {}
    rng = random.Random(args.seed)
    times = defaultdict(list)
    cuts = defaultdict(list)
    stats = defaultdict(list)
    rec = layer_recorder() if args.trace else None
    traced_seconds = []
    while m.more():
        seed = m.run_seed(rng)
        pair = run_pair(
            m, args,
            lambda traced: prop.partition(
                graph, balance=balance, seed=seed,
                recorder=rec if traced else None,
            ),
            graph, balance, f"PROP seed {seed}",
        )
        if pair:
            result, _, scaled = pair[False]
            times["prop"].append(scaled)
            cuts["prop"].append(result.cut)
            if args.trace:
                traced_seconds.append(pair[True][1])
                times["traced"].append(pair[True][2])
        for name, engine in others.items():
            result, _, scaled = m.run(
                lambda: engine.partition(graph, balance=balance, seed=seed),
                graph, balance, f"{name} seed {seed}",
            )
            if result is not None and m.recording:
                times[name].append(scaled)
                cuts[name].append(result.cut)
                stats[name].append(result.stats)
        m.end_round()
        if args.trace and m.rounds == 0:
            rec = layer_recorder()  # drop the warm-up round's events
    if not args.trace:
        return {
            "run_s": median(times["prop"]),
            "cut": min(cuts["prop"][:len(CUT_SEEDS)]),
            "_samples": {"runs": len(times["prop"])},
        }

    ops = len(traced_seconds)
    out = core_layers(rec, ops, sum(traced_seconds))
    fm, sub = stats["fm"], stats["subround"]
    fm_moves = sum(s["tentative_moves"] for s in fm)
    fm_loop = sum(s["move_loop_seconds"] for s in fm)
    attempts = sum(
        s["tentative_moves"] + s["subround_conflicts"]
        + s["subround_balance_rejects"]
        for s in sub
    )
    out.update({
        "core.prop_over_fm": median(times["prop"]) / median(times["fm"]),
        "kernels.all_gains_s": all_gains_seconds(graph, args.seed),
        "kernels.subround_run_s": median(times["subround"]),
        "kernels.subround_cut": min(cuts["subround"][:len(CUT_SEEDS)]),
        "kernels.subround_move_loop_s":
            statistics.fmean(s["move_loop_seconds"] for s in sub),
        "kernels.subrounds": statistics.fmean(s["subrounds"] for s in sub),
        "kernels.subround_conflict_frac": ratio(
            sum(s["subround_conflicts"] for s in sub), attempts
        ),
        "kernels.subround_balance_reject_frac": ratio(
            sum(s["subround_balance_rejects"] for s in sub), attempts
        ),
        "engine.shm_attach_s":
            statistics.fmean(s["shm_attach_seconds"] for s in sub),
        "engine.shm_fallbacks":
            float(sum(s["subround_shm_fallbacks"] for s in sub)),
        "baselines.fm_run_s": median(times["fm"]),
        "baselines.fm_cut": min(cuts["fm"][:len(CUT_SEEDS)]),
        "baselines.fm_gain_init_s":
            statistics.fmean(s["gain_init_seconds"] for s in fm),
        "baselines.fm_move_loop_s": fm_loop / len(fm),
        "baselines.fm_move_us": ratio(fm_loop, fm_moves) * 1e6,
        "telemetry.trace_overhead_frac":
            median(times["traced"]) / median(times["prop"]) - 1.0,
        "telemetry.traced_run_s": statistics.fmean(traced_seconds),
        "_samples": {"traced_runs": ops, "untraced_runs": len(times["prop"])},
    })
    return out


# ----------------------------------------------------------------------
# nlevel-sparse / nlevel-dense: the n-level engine
# ----------------------------------------------------------------------
class TimedRefiner:
    """The n-level refiner with a recorder attached and each call timed.

    ``NLevelPartitioner`` does not pass its recorder to its refiner, so
    the traced run hands it this wrapper around the same PROP
    configuration; recording never changes moves or cuts.
    """

    def __init__(self, inner, recorder) -> None:
        self.inner = inner
        self.recorder = recorder
        self.calls = []

    def partition(self, graph, balance=None, initial_sides=None, seed=None):
        t0 = time.perf_counter()
        result = self.inner.partition(
            graph, balance=balance, initial_sides=initial_sides, seed=seed,
            recorder=self.recorder,
        )
        self.calls.append(time.perf_counter() - t0)
        return result


def nlevel(graph, args, m: Meter) -> dict:
    """One n-level bisection per seed (traced twin alongside with
    ``--trace``)."""
    from repro import BalanceConstraint, PropConfig, PropPartitioner
    from repro.multilevel import NLevelPartitioner

    config = PropConfig(max_passes=NLEVEL_REFINER_PASSES)
    balance = BalanceConstraint.fifty_fifty(graph)
    untraced = NLevelPartitioner(refiner=PropPartitioner(config))
    rng = random.Random(args.seed)
    times = []
    cuts = []
    rec = layer_recorder() if args.trace else None
    traced_seconds = []
    traced_scaled = []
    traced_stats = []
    refiner_calls = []
    refiner = None

    def bisect(traced):
        nonlocal refiner
        if not traced:
            return untraced.partition(graph, balance=balance, seed=seed)
        refiner = TimedRefiner(PropPartitioner(config), rec)
        return NLevelPartitioner(refiner=refiner).partition(
            graph, balance=balance, seed=seed, recorder=rec
        )

    while m.more():
        seed = m.run_seed(rng)
        pair = run_pair(m, args, bisect, graph, balance,
                        f"n-level seed {seed}")
        if pair:
            result, _, scaled = pair[False]
            times.append(scaled)
            cuts.append(result.cut)
            if args.trace:
                traced_seconds.append(pair[True][1])
                traced_scaled.append(pair[True][2])
                traced_stats.append(pair[True][0].stats)
                refiner_calls.append(refiner.calls)
        m.end_round()
        if args.trace and m.rounds == 0:
            rec = layer_recorder()  # drop the warm-up round's events
    if not args.trace:
        return {
            "run_s": median(times),
            "cut": (
                statistics.fmean if args.workload in MEAN_CUT_WORKLOADS
                else min
            )(cuts[:len(CUT_SEEDS)]),
            "_samples": {"runs": len(times)},
        }

    ops = len(traced_seconds)

    def mean_stat(key):
        return statistics.fmean(s[key] for s in traced_stats)

    # The first coarsest_runs refiner calls partition the coarsest graph;
    # the last is the final full-graph refine.
    initial = statistics.fmean(
        sum(c[:untraced.coarsest_runs]) for c in refiner_calls
    )
    final = statistics.fmean(c[-1] for c in refiner_calls)
    local = mean_stat("local_refine_seconds")
    stage = mean_stat("stage_refine_seconds")
    coarsen = mean_stat("coarsen_seconds")
    uncoarsen = mean_stat("uncoarsen_seconds") - local - stage
    traced_run = statistics.fmean(traced_seconds)
    out = core_layers(rec, ops, sum(sum(c) for c in refiner_calls))
    out.update({
        "kernels.all_gains_s": all_gains_seconds(graph, args.seed),
        "multilevel.coarsen_s": coarsen,
        "multilevel.coarsen_pins_per_s": graph.num_pins / coarsen,
        "multilevel.ratings_per_contraction":
            ratio(mean_stat("ratings_updated"), mean_stat("contractions")),
        "multilevel.initial_partition_s": initial,
        "multilevel.uncoarsen_s": uncoarsen,
        "multilevel.local_refine_s": local,
        "multilevel.stage_refine_s": stage,
        "multilevel.uncontract_batches": mean_stat("uncontract_batches"),
        "multilevel.final_refine_s": final,
        "multilevel.final_move_us": ratio(
            mean_stat("final_move_loop_seconds"),
            mean_stat("final_tentative_moves"),
        ) * 1e6,
        "multilevel.rebalance_moves": mean_stat("rebalance_moves"),
        "multilevel.unattributed_s": traced_run - (
            coarsen + initial + uncoarsen + local + stage + final
        ),
        "telemetry.trace_overhead_frac":
            median(traced_scaled) / median(times) - 1.0,
        "telemetry.traced_run_s": traced_run,
        "_samples": {"traced_runs": ops, "untraced_runs": len(times)},
    })
    return out


# ----------------------------------------------------------------------
# service-mixed: two closed-loop clients against `repro serve`
# ----------------------------------------------------------------------
class Schedule:
    """The job sequence of one seed.

    Half the jobs are new FM specs, a fifth new PROP specs with two runs,
    and the rest exact repeats of an earlier spec (served from the result
    cache).  The seed decides which jobs are repeats and of what; the new
    specs come in one fixed order from ``JOB_SPEC_SEED``.  Every block of
    ``REPEAT_BLOCK`` jobs holds the same number of repeats: drawn one by
    one, the repeat share of a window ranged from 27% to 32% between
    seeds, and median latency with it.  Jobs are drawn in order, so the
    sequence never depends on timing.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.spec_rng = random.Random(JOB_SPEC_SEED)
        self.specs = []
        self.drawn = 0
        self.block = []

    def next(self):
        """``(position, kind, new_ordinal, payload)`` of the next job."""
        position = self.drawn
        self.drawn += 1
        if not self.block:
            repeats = round(REPEAT_BLOCK * (1.0 - FM_SHARE - PROP_SHARE))
            self.block = [True] * repeats + [False] * (REPEAT_BLOCK - repeats)
            self.rng.shuffle(self.block)
        if self.block.pop() and self.specs:
            ordinal = self.rng.randrange(len(self.specs))
            return position, "repeat", ordinal, self.specs[ordinal]
        r = self.spec_rng.random() * (FM_SHARE + PROP_SHARE)
        algorithm = "fm" if r < FM_SHARE else "prop"
        ordinal = len(self.specs)
        payload = {
            "generate": {
                "kind": "many_small",
                "size_range": list(JOB_SIZE_RANGE),
                "seed": JOB_SPEC_SEED,
                "index": ordinal,
            },
            "algorithm": algorithm,
            "runs": 2 if algorithm == "prop" else 1,
            "seed": self.spec_rng.randrange(2**31),
            "tenant": ("alpha", "beta")[ordinal % 2],
            "tag": f"bench-{ordinal}",
        }
        self.specs.append(payload)
        return position, algorithm, ordinal, payload


def cut_jobs(args) -> int:
    return SMOKE_CUT_JOBS if args.smoke else CUT_JOBS


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_server(port: int, work: Path, log) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work)
    env.pop("REPRO_FAULTS", None)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", str(port),
            "--cache-dir", str(work / f"cache-{port}"),
            "--job-workers", str(CLIENTS),
        ],
        env=env, cwd=str(work), stdout=log, stderr=subprocess.STDOUT,
    )


def stop_server(server: subprocess.Popen) -> None:
    """Graceful stop, then SIGKILL; always waits for the process."""
    if server.poll() is None:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of process ``pid`` from /proc (MiB)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return math.nan


async def wait_healthy(client, server, timeout: float = 60.0) -> None:
    from repro.service import ServiceError

    deadline = time.monotonic() + timeout
    while True:
        try:
            await client.health()
            return
        except (OSError, ServiceError, asyncio.TimeoutError):
            if server.poll() is not None:
                raise RuntimeError(f"server exited with {server.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            await asyncio.sleep(0.005)


async def one_job(client, item) -> dict:
    """Submit, follow the SSE stream to a terminal state, fetch the
    result.  Returns the job's record (``state`` None on error)."""
    from repro.service import ServiceError

    position, kind, ordinal, payload = item
    record = {"position": position, "kind": kind, "ordinal": ordinal,
              "state": None, "latency": math.inf}
    t0 = time.perf_counter()
    try:
        accepted = await client.submit(payload)
        record["submit_s"] = time.perf_counter() - t0
        job_id = accepted["job_id"]
        status = None
        async for event, data in client.events(job_id):
            if event == "state" and data.get("finished_at") is not None:
                status = data
                break
        while status is None or status.get("finished_at") is None:
            status = await client.job(job_id)
            if status.get("finished_at") is None:
                await asyncio.sleep(0.01)
        result = await client.result(job_id)
        record["latency"] = time.perf_counter() - t0
    except (OSError, ServiceError, asyncio.TimeoutError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record.update(
        state=result["state"],
        queue_s=status["started_at"] - status["submitted_at"],
        exec_s=status["finished_at"] - status["started_at"],
        cuts=result.get("cuts", []),
        best_cut=result.get("best_cut"),
        rows=[(row.get("cached", False), row.get("seconds", 0.0))
              for row in result["results"]],
    )
    return record


async def drive_service(args, work: Path, log) -> dict:
    from repro.service import ServiceClient

    servers = []
    setup = []

    async def spawn():
        """Stop the last server, start a new one and time it until it
        answers; returns its client."""
        if servers:
            stop_server(servers[-1])
        port = free_port()
        client = ServiceClient(port=port, timeout=30.0)
        scale = import_scale()
        t0 = time.perf_counter()
        servers.append(start_server(port, work, log))
        await wait_healthy(client, servers[-1])
        setup.append((time.perf_counter() - t0) * scale)
        return client

    # Set-up samples come before and after the traffic (a server cannot
    # start beside it undisturbed), so a slow spell at one end of the run
    # reaches at most the median, not every sample.
    samples = 1 if args.smoke else SETUP_SAMPLES
    try:
        for _ in range(samples - samples // 2):
            client = await spawn()
        server = servers[-1]

        schedule = Schedule(args.seed)
        records = []
        start = time.perf_counter()
        deadline = start + args.seconds

        def more() -> bool:
            if len(schedule.specs) < cut_jobs(args):
                return True
            if args.smoke:
                return schedule.drawn < SMOKE_JOBS
            return time.perf_counter() < deadline

        async def closed_loop():
            while more():
                records.append(await one_job(client, schedule.next()))

        gauge = SpeedGauge()
        try:
            await asyncio.gather(*(closed_loop() for _ in range(CLIENTS)))
        finally:
            gauge.close()
        window = time.perf_counter() - start
        stats = await client.stats()
        rss = vm_hwm_mb(server.pid)
        for _ in range(samples // 2):
            await spawn()
    finally:
        for server in servers:
            stop_server(server)
    return {"setup": setup, "records": records, "window": window,
            "scale": gauge.scale(0), "stats": stats, "rss": rss,
            "schedule": schedule}


def service(args, m: Meter) -> dict:
    """Closed-loop job traffic against a freshly spawned server."""
    from repro.engine.workers import execute_unit
    from repro.service import parse_job_spec
    from repro.service.schemas import build_units

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="service-", dir=WORK_ROOT))
    try:
        with open(work / "server.log", "w") as log:
            run = asyncio.run(drive_service(args, work, log))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = run["records"]
    for rec in records:
        m.attempted += 1
        if rec["state"] != "done":
            m.failed += 1
            m.problem(f"job {rec['position']} ({rec['kind']}) ended "
                      f"{rec['state']}: {rec.get('error', '')}")
            rec["latency"] = math.inf
            continue
        if rec["kind"] == "repeat" or rec["ordinal"] % REFERENCE_EVERY:
            continue
        # In-process reference: same spec, no service, no cache.
        payload = run["schedule"].specs[rec["ordinal"]]
        units = build_units(parse_job_spec(payload)).units
        expected = [execute_unit(i, u).result.cut for i, u in enumerate(units)]
        if rec["cuts"] != expected:
            m.failed += 1
            m.problem(f"job {rec['position']}: cuts {rec['cuts']} != "
                      f"in-process reference {expected}")

    latency = [r["latency"] for r in records]
    done = [r for r in records if r["state"] == "done"]
    if not args.trace:
        first = [r["best_cut"] for r in done
                 if r["kind"] != "repeat" and r["ordinal"] < cut_jobs(args)]
        return {
            "setup_s": median(run["setup"]),
            "run_s": percentile(latency, 50) * run["scale"],
            "cut": statistics.fmean(first) if first else math.nan,
            "peak_rss_mb": run["rss"],
            "_samples": {"jobs": len(records), "setup": len(run["setup"])},
        }

    rows = [row for r in done for row in r["rows"]]
    fresh = [r["latency"] for r in done if not any(c for c, _ in r["rows"])]
    cached = [r["latency"] for r in done if all(c for c, _ in r["rows"])]
    guard = run["stats"].get("guard", {}).get("counters", {})
    return {
        "engine.cache_hit_frac": ratio(sum(c for c, _ in rows), len(rows)),
        "engine.unit_s_p50": percentile([s for _, s in rows], 50),
        "service.submit_s_p50": percentile([r["submit_s"] for r in done], 50),
        "service.queue_wait_s_p50":
            percentile([r["queue_s"] for r in done], 50),
        "service.queue_wait_s_p95":
            percentile([r["queue_s"] for r in done], 95),
        "service.exec_s_p50": percentile([r["exec_s"] for r in done], 50),
        "service.overhead_s_p50": percentile(
            [r["latency"] - r["queue_s"] - r["exec_s"] for r in done], 50
        ),
        "service.fresh_job_p50_s": percentile(fresh, 50),
        "service.cached_job_p50_s": percentile(cached, 50),
        "service.job_p95_s": percentile(latency, 95) * run["scale"],
        "service.jobs_per_s": len(done) / (run["window"] * run["scale"]),
        "guard.shed": float(sum(
            v for k, v in guard.items() if k.startswith("shed_")
        )),
        # The layer numbers come from payloads the untraced run already
        # receives: no tracer is attached, so tracing costs nothing here.
        "telemetry.trace_overhead_frac": 0.0,
        "telemetry.traced_run_s": statistics.fmean(
            r["latency"] for r in done
        ) if done else math.nan,
        "_samples": {"jobs": len(records), "rows": len(rows)},
    }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def import_scale() -> float:
    """Factor from set-up wall time to set-up time at the reference
    import speed: ``REFERENCE_IMPORT_S`` ÷ the wall time of a fresh
    process making ``REFERENCE_IMPORTS`` now.

    Set-up is mostly imports (hundreds of files found, read and
    unmarshalled), which slow down with the host in their own way: the
    ``SpeedGauge`` probes do not follow them, and samples scaled by them
    spread twice as wide as raw ones.  A reference import taken just
    before each sample does follow them and halves the spread.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], check=True,
                   timeout=120)
    return REFERENCE_IMPORT_S / (time.perf_counter() - t0)


def setup_sample(args):
    """Time a fresh process that imports repro and builds the instance
    (the set-up a user of the workload pays).

    Returns its time at the reference import speed (see ``import_scale``)
    and the instance build time it reports.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    scale = import_scale()
    t0 = time.perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True)
    seconds = (time.perf_counter() - t0) * scale
    return seconds, json.loads(out.stdout.strip().splitlines()[-1])["build_s"]


def measure(args) -> dict:
    if args.workload == "service-mixed":
        import_repro()
        m = Meter(args)
        metrics = service(args, m)
    else:
        import_repro()
        graph = build_instance(args.workload, args.smoke)
        gauge = SpeedGauge()
        try:
            m = Meter(args, gauge, setup=lambda: setup_sample(args))
            fn = table1 if args.workload == "table1-industry2" else nlevel
            metrics = fn(graph, args, m)
            setups, builds = zip(*m.setup_samples())
        finally:
            gauge.close()
        if args.trace:
            metrics["hypergraph.build_s"] = median(builds)
        else:
            metrics["setup_s"] = median(setups)
            metrics["peak_rss_mb"] = peak_rss_mb()
            metrics["_samples"]["setup"] = len(setups)
    samples = metrics.pop("_samples")
    if args.trace and args.workload in SELF_TIMES:
        _, rest = SELF_TIMES[args.workload]
        total = metrics["telemetry.traced_run_s"]
        if metrics[rest] > UNATTRIBUTED_WARN * total:
            m.warnings.append(
                f"{rest} is {metrics[rest]:.4f} s, "
                f"{100 * metrics[rest] / total:.1f}% of the "
                f"{total:.4f} s traced run (above "
                f"{100 * UNATTRIBUTED_WARN:.0f}%)"
            )
    for name, value in metrics.items():
        if not math.isfinite(value):
            m.problem(f"{name} is {value}")
    import numpy

    return {
        "workload": args.workload,
        "correct": not m.problems and m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            k: (v if math.isfinite(v) else None) for k, v in metrics.items()
        },
        "samples": samples,
        "problems": m.problems,
        "warnings": m.warnings,
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measurement window (bench/run.py passes "
                        "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances and a fixed number of runs")
    parser.add_argument("--setup-only", action="store_true",
                        help="import repro, build the instance, report the "
                        "build time and exit")
    args = parser.parse_args(argv)
    if args.setup_only:
        import_repro()
        t0 = time.perf_counter()
        build_instance(args.workload, args.smoke)
        print(json.dumps({"build_s": time.perf_counter() - t0}))
        return 0
    if args.seconds is None:
        parser.error("--seconds is required unless --setup-only is given")
    result = measure(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
