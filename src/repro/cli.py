"""Command-line driver: ``prop-partition`` (or ``python -m repro``).

Examples
--------
Partition a netlist file with PROP, 20 runs, 45-55 balance::

    prop-partition mydesign.hgr --algorithm prop --runs 20 --balance 45-55

Generate a synthetic Table-1 benchmark and compare algorithms::

    prop-partition --generate struct --scale 0.2 --algorithm fm la-2 prop

Write the best partition to JSON::

    prop-partition mydesign.hgr -a prop -o result.json

Fan 40 runs across 4 worker processes with result caching::

    prop-partition mydesign.hgr -a prop --runs 40 --workers 4

Benchmark the engine itself (``bench`` subcommand)::

    python -m repro bench --workers 2 --runs 4

Resume an interrupted sweep, verify or clear the result cache::

    prop-partition mydesign.hgr -a prop --runs 100 --workers 8 --resume myrun
    python -m repro cache verify
    python -m repro cache clear

Record a telemetry trace and summarize it afterwards::

    prop-partition --generate t5 --scale 0.05 -a prop --trace prop.jsonl
    python -m repro trace summarize prop.jsonl

Run the partitioning service (HTTP job API; see docs/service.md)::

    python -m repro serve --port 8642

Inspect or release quarantined poison jobs (see docs/guard.md)::

    python -m repro quarantine list
    python -m repro quarantine show <fingerprint>
    python -m repro quarantine release <fingerprint>

Budgeted ensemble solving with adaptive restarts (see docs/analysis.md)::

    python -m repro ensemble fit --output portfolio.json
    python -m repro ensemble solve mydesign.hgr --budget 40
    python -m repro ensemble solve mydesign.hgr --model portfolio.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

from .baselines import (
    Eig1Partitioner,
    FMPartitioner,
    KLPartitioner,
    LAPartitioner,
    MeloPartitioner,
    ParaboliPartitioner,
    RandomPartitioner,
    WindowPartitioner,
)
from .core import PropConfig, PropPartitioner
from .core.config import KERNELS
from .hypergraph import BENCHMARK_NAMES, Hypergraph, compute_stats, make_benchmark
from .hypergraph import io_ as netlist_io
from .multirun import run_many
from .partition import BalanceConstraint, balance_ratio


def _make_partitioner(
    name: str,
    kernel: Optional[str] = None,
    subround_workers: int = 0,
    coarsest_nodes: int = 80,
    coarsest_runs: int = 8,
    rating: str = "heavy-edge",
):
    key = name.lower()
    kern = kernel if kernel is not None else "auto"
    if key == "prop":
        return PropPartitioner(
            PropConfig(kernel=kern, subround_workers=subround_workers)
        )
    if key in ("fm", "fm-bucket"):
        return FMPartitioner(
            "bucket", kernel=kern, subround_workers=subround_workers
        )
    if key == "fm-tree":
        return FMPartitioner(
            "tree", kernel=kern, subround_workers=subround_workers
        )
    if key.startswith("la-"):
        return LAPartitioner(int(key.split("-", 1)[1]))
    if key == "kl":
        return KLPartitioner()
    if key == "eig1":
        return Eig1Partitioner()
    if key == "melo":
        return MeloPartitioner()
    if key == "window":
        return WindowPartitioner()
    if key == "paraboli":
        return ParaboliPartitioner()
    if key == "random":
        return RandomPartitioner()
    if key in ("ml", "ml-prop", "multilevel"):
        from .multilevel import MultilevelPartitioner

        return MultilevelPartitioner(
            coarsest_nodes=coarsest_nodes, coarsest_runs=coarsest_runs
        )
    if key in ("nlevel", "nl", "nlevel-prop"):
        from .multilevel import NLevelPartitioner

        return NLevelPartitioner(
            coarsest_nodes=coarsest_nodes,
            coarsest_runs=coarsest_runs,
            rating=rating,
        )
    if key in ("prop-cl", "two-phase"):
        from .core import TwoPhasePropPartitioner

        return TwoPhasePropPartitioner(PropConfig(kernel=kern))
    if key == "sa":
        from .baselines import AnnealingPartitioner

        return AnnealingPartitioner()
    raise argparse.ArgumentTypeError(f"unknown algorithm {name!r}")


def _make_balance(graph: Hypergraph, spec: str) -> BalanceConstraint:
    if spec == "50-50":
        return BalanceConstraint.fifty_fifty(graph)
    if spec == "45-55":
        return BalanceConstraint.forty_five_fifty_five(graph)
    try:
        lo_str, hi_str = spec.split("-")
        return BalanceConstraint.from_fractions(
            graph, float(lo_str) / 100.0, float(hi_str) / 100.0
        )
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad balance spec {spec!r} (want e.g. '50-50' or '45-55')"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    """Construct the prop-partition argument parser."""
    parser = argparse.ArgumentParser(
        prog="prop-partition",
        description=(
            "2-way min-cut circuit partitioning with PROP (DAC 1996) "
            "and its baselines"
        ),
    )
    parser.add_argument(
        "netlist",
        nargs="?",
        help="netlist file (.hgr / .net / .json); omit with --generate",
    )
    parser.add_argument(
        "--generate",
        metavar="NAME",
        choices=BENCHMARK_NAMES,
        help=f"generate a synthetic Table-1 circuit ({', '.join(BENCHMARK_NAMES)})",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="down-scale factor for --generate (default 1.0)",
    )
    parser.add_argument(
        "-a",
        "--algorithm",
        nargs="+",
        default=["prop"],
        help=(
            "one or more of: prop, prop-cl, ml-prop, nlevel, fm, fm-tree, "
            "la-K, kl, sa, eig1, melo, window, paraboli, random "
            "(default: prop)"
        ),
    )
    parser.add_argument(
        "--balance",
        default="50-50",
        help="balance criterion, e.g. 50-50 or 45-55 (default 50-50)",
    )
    parser.add_argument(
        "--runs", type=int, default=1, help="runs per algorithm (best kept)"
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--kernel",
        choices=KERNELS,
        default="auto",
        help="pass engine for PROP/FM (default auto: the paper's "
        "sequential pass); subround runs deterministic batched sub-round "
        "passes (different move interleaving, worker-count-invariant "
        "results)",
    )
    parser.add_argument(
        "--subround-workers",
        type=int,
        default=0,
        metavar="N",
        help="shared-memory workers for --kernel subround (default 0: "
        "inline sweeps). Never changes results, only wall-clock",
    )
    parser.add_argument(
        "--coarsest-nodes",
        type=int,
        default=80,
        metavar="N",
        help="multilevel engines (ml-prop, nlevel): stop coarsening at "
        "N nodes (default 80)",
    )
    parser.add_argument(
        "--coarsest-runs",
        type=int,
        default=8,
        metavar="N",
        help="multilevel engines: random starts on the coarsest graph, "
        "best kept (default 8)",
    )
    parser.add_argument(
        "--rating",
        choices=("heavy-edge", "uniform"),
        default="heavy-edge",
        help="nlevel: pair-rating function for priority-queue "
        "contraction (default heavy-edge)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a JSONL telemetry trace of every run to PATH "
        "(sequential runs only; summarize with 'trace summarize PATH'). "
        "Tracing never changes moves or cuts",
    )
    _add_engine_flags(parser)
    parser.add_argument(
        "-o", "--output", help="write the best partition as JSON to this path"
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--kway",
        type=int,
        metavar="K",
        help="k-way partition (recursive bisection + pairwise refinement) "
        "instead of 2-way",
    )
    mode.add_argument(
        "--place",
        action="store_true",
        help="min-cut placement on the unit square; reports HPWL",
    )
    mode.add_argument(
        "--fpga",
        type=int,
        metavar="N",
        help="map onto N identical FPGAs (see --fpga-capacity/--fpga-io)",
    )
    mode.add_argument(
        "--verify",
        metavar="RESULT.json",
        help="validate a previously saved 2-way partition against the "
        "netlist and --balance",
    )
    parser.add_argument(
        "--fpga-capacity",
        type=float,
        default=None,
        help="per-device logic capacity (default: total/N x 1.15)",
    )
    parser.add_argument(
        "--fpga-io",
        type=int,
        default=400,
        help="per-device I/O pin budget (default 400)",
    )
    return parser


def _nonneg_int(text: str) -> int:
    """argparse type for ``--workers``: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


_nonneg_int.__name__ = "int"  # argparse's "invalid ... value" message


def _pos_int(text: str) -> int:
    """argparse type for ``--audit``: a positive integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


_pos_int.__name__ = "int"


def _pos_float(text: str) -> float:
    """argparse type for ``--timeout``: a positive float."""
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


_pos_float.__name__ = "float"


def _audit_from_args(args):
    """AuditConfig for ``--audit N`` (None when the flag is absent)."""
    if args.audit is None:
        return None
    from .audit import AuditConfig

    return AuditConfig(every=args.audit)


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Execution-engine knobs shared by the partition and bench modes."""
    group = parser.add_argument_group("execution engine")
    group.add_argument(
        "--workers",
        type=_nonneg_int,
        default=None,
        metavar="N",
        help="fan runs across N worker processes (0/1 = in-process; "
        "default: sequential, or REPRO_ENGINE_WORKERS when set)",
    )
    group.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result-cache directory (default .repro_cache/, "
        "or REPRO_ENGINE_CACHE when set)",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    group.add_argument(
        "--timeout",
        type=_pos_float,
        default=None,
        metavar="S",
        help="per-unit wall-clock budget in seconds (measured from "
        "submission; hung units are retried, then run in-process)",
    )
    group.add_argument(
        "--run-id",
        default=None,
        metavar="ID",
        help="journal the batch under <cache-dir>/runs/ID.jsonl so an "
        "interrupted run can be resumed (default: auto-generated)",
    )
    group.add_argument(
        "--resume",
        default=None,
        metavar="ID",
        help="resume run ID: serve units already journalled under that "
        "id without recomputing them, execute only the remainder",
    )
    group.add_argument(
        "--keep-going",
        action="store_true",
        help="collect per-unit failures instead of aborting the batch "
        "(failed runs are reported and excluded from best/mean)",
    )
    group.add_argument(
        "--audit",
        nargs="?",
        const=1,
        default=None,
        type=_pos_int,
        metavar="N",
        help="cross-check invariants against brute force every N moves "
        "(bare flag: every move; also REPRO_AUDIT=N). Results are "
        "unchanged; a violation aborts with a reproducible report",
    )


def _engine_from_args(args) -> Optional["object"]:
    """Build an Engine when any engine flag was used, else None
    (None keeps the plain sequential code path for tiny runs)."""
    if (
        args.workers is None
        and args.cache_dir is None
        and not args.no_cache
        and args.timeout is None
        and args.run_id is None
        and args.resume is None
        and not args.keep_going
    ):
        return None
    from .engine import Engine, EngineConfig

    return Engine(
        EngineConfig(
            workers=args.workers,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            timeout=args.timeout,
            on_error="collect" if args.keep_going else "raise",
        )
    )


def _run_id_from_args(args) -> "tuple[Optional[str], bool]":
    """Resolve ``(run_id, resume)`` for a journalled engine batch.

    ``--resume ID`` wins (and implies journalling under the same id);
    otherwise ``--run-id``, otherwise a generated timestamp-pid id so
    every engine-backed CLI run is resumable after a crash.
    """
    if args.resume is not None:
        return args.resume, True
    if args.run_id is not None:
        return args.run_id, False
    return f"{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}", False


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "bench":
        return _run_bench_mode(argv[1:])
    if argv and argv[0] == "cache":
        return _run_cache_mode(argv[1:])
    if argv and argv[0] == "trace":
        return _run_trace_mode(argv[1:])
    if argv and argv[0] == "serve":
        return _run_serve_mode(argv[1:])
    if argv and argv[0] == "quarantine":
        return _run_quarantine_mode(argv[1:])
    if argv and argv[0] == "ensemble":
        return _run_ensemble_mode(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.generate:
        graph = make_benchmark(args.generate, scale=args.scale)
        source = f"generated:{args.generate}@{args.scale}"
    elif args.netlist:
        graph = netlist_io.read(args.netlist)
        source = args.netlist
    else:
        parser.error("provide a netlist file or --generate NAME")
        return 2  # unreachable; parser.error raises

    stats = compute_stats(graph)
    print(
        f"{source}: {stats.n} nodes, {stats.e} nets, {stats.m} pins "
        f"(p={stats.p:.2f}, q={stats.q:.2f})"
    )

    if args.kway is not None:
        return _run_kway_mode(graph, args)
    if args.place:
        return _run_place_mode(graph, args)
    if args.fpga is not None:
        return _run_fpga_mode(graph, args)
    if args.verify is not None:
        return _run_verify_mode(graph, args)

    balance = _make_balance(graph, args.balance)
    print(balance.describe())
    engine = _engine_from_args(args)
    audit = _audit_from_args(args)
    if audit is not None:
        print(f"auditing invariants every {audit.every} move(s)")
    run_id, resume = (None, False)
    if engine is not None:
        run_id, resume = _run_id_from_args(args)
        verb = "resuming" if resume else "journalling"
        print(f"{verb} run {run_id} (resume with --resume {run_id})")

    recorder = None
    if args.trace is not None:
        from .telemetry import TraceRecorder

        recorder = TraceRecorder(args.trace)
        print(f"tracing runs to {args.trace}")

    best_overall = None
    interrupted = False
    for name in args.algorithm:
        if interrupted:
            break
        partitioner = _make_partitioner(
            name, args.kernel, getattr(args, "subround_workers", 0),
            coarsest_nodes=getattr(args, "coarsest_nodes", 80),
            coarsest_runs=getattr(args, "coarsest_runs", 8),
            rating=getattr(args, "rating", "heavy-edge"),
        )
        outcome = run_many(
            partitioner, graph, runs=args.runs, balance=balance,
            base_seed=args.seed, circuit_name=source, engine=engine,
            audit=audit, run_id=run_id, resume=resume, recorder=recorder,
        )
        interrupted = interrupted or outcome.interrupted
        for failed in outcome.errors:
            error = failed.error
            print(
                f"{outcome.algorithm:>10s}: run seed {failed.unit.seed} "
                f"FAILED after {error.attempts} attempt(s): "
                f"{error.exc_type}: {error.message}"
            )
        best = outcome.best
        if best is None:
            print(f"{outcome.algorithm:>10s}: no completed runs")
            continue
        ratio = balance_ratio(graph, best.sides)
        print(
            f"{outcome.algorithm:>10s}: best cut {best.cut:g} over "
            f"{len(outcome.cuts)} run(s), mean {outcome.mean_cut:.1f}, "
            f"balance {ratio:.3f}, {outcome.total_seconds:.2f}s total"
        )
        if best_overall is None or best.cut < best_overall.cut:
            best_overall = best
    if recorder is not None:
        recorder.close()
    if engine is not None:
        print(_engine_summary(engine))
    if interrupted:
        print(
            f"interrupted — partial results journalled; finish with "
            f"--resume {run_id}"
        )

    if args.output and best_overall is not None:
        payload: Dict[str, object] = {
            "source": source,
            "algorithm": best_overall.algorithm,
            "cut": best_overall.cut,
            "seed": best_overall.seed,
            "sides": best_overall.sides,
        }
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=1)
        print(f"wrote {args.output}")
    return 130 if interrupted else 0


def _mode_partitioner(args):
    """First algorithm named on the command line drives the k-way/place/
    FPGA modes (they take a single 2-way engine)."""
    return _make_partitioner(
        args.algorithm[0],
        getattr(args, "kernel", None),
        getattr(args, "subround_workers", 0),
        coarsest_nodes=getattr(args, "coarsest_nodes", 80),
        coarsest_runs=getattr(args, "coarsest_runs", 8),
        rating=getattr(args, "rating", "heavy-edge"),
    )


def _run_kway_mode(graph: Hypergraph, args) -> int:
    from .kway import pairwise_refine, recursive_bisection

    partitioner = _mode_partitioner(args)
    result = recursive_bisection(
        graph,
        args.kway,
        partitioner=partitioner,
        seed=args.seed,
        runs_per_split=max(1, args.runs),
    )
    assignment, report = pairwise_refine(
        graph, result.assignment, args.kway,
        partitioner=partitioner, seed=args.seed,
    )
    weights = [0.0] * args.kway
    for v, part in enumerate(assignment):
        weights[part] += graph.node_weight(v)
    print(f"k={args.kway} via {getattr(partitioner, 'name', '?')}: "
          f"cut {report.initial_cut:g} -> {report.final_cut:g} "
          f"after {report.pair_improvements} pair improvements")
    print("part weights: " + "/".join(f"{w:g}" for w in weights))
    if args.output:
        _write_json(args.output, {
            "mode": "kway", "k": args.kway, "cut": report.final_cut,
            "assignment": assignment,
        })
    return 0


def _run_place_mode(graph: Hypergraph, args) -> int:
    from .placement import mincut_placement, random_placement

    placement = mincut_placement(
        graph, partitioner=_mode_partitioner(args), seed=args.seed
    )
    baseline = random_placement(graph, seed=args.seed)
    hpwl = placement.hpwl()
    print(f"min-cut placement HPWL {hpwl:.2f} "
          f"({hpwl / max(baseline.hpwl(), 1e-12):.1%} of random)")
    if args.output:
        _write_json(args.output, {
            "mode": "place", "hpwl": hpwl,
            "x": placement.x, "y": placement.y,
        })
    return 0


def _run_fpga_mode(graph: Hypergraph, args) -> int:
    from .fpga import FpgaDevice, partition_onto_fpgas

    n = args.fpga
    capacity = args.fpga_capacity
    if capacity is None:
        capacity = graph.total_node_weight / n * 1.15
    devices = [FpgaDevice(capacity=capacity, io_limit=args.fpga_io)] * n
    plan = partition_onto_fpgas(
        graph, devices, partitioner=_mode_partitioner(args), seed=args.seed
    )
    for d in range(n):
        print(f"FPGA{d}: logic {plan.utilization[d]:g}/{capacity:g}  "
              f"I/O {plan.io_counts[d]}/{args.fpga_io}")
    print(f"inter-FPGA nets: {plan.cut:g}  feasible: {plan.feasible}")
    if args.output:
        _write_json(args.output, {
            "mode": "fpga", "devices": n, "cut": plan.cut,
            "feasible": plan.feasible, "assignment": plan.assignment,
        })
    return 0


def _run_verify_mode(graph: Hypergraph, args) -> int:
    from .partition import check_partition

    with open(args.verify) as fh:
        payload = json.load(fh)
    sides = payload.get("sides")
    if sides is None:
        print(f"{args.verify}: no 'sides' field (is this a 2-way result?)")
        return 2
    balance = _make_balance(graph, args.balance)
    report = check_partition(
        graph, sides, balance=balance, expected_cut=payload.get("cut")
    )
    print(report.summary())
    return 0 if report.ok else 1


def _engine_summary(engine) -> str:
    """One-line engine accounting for CLI output."""
    stats = engine.stats
    workers = engine.config.resolved_workers()
    cache = "off" if engine.cache is None else str(engine.cache.root)
    line = (
        f"engine: {workers} worker(s), cache {cache} — "
        f"{stats.executed} executed ({stats.pool_executed} in pool), "
        f"{stats.cache_hits} cache hit(s)"
    )
    extras = []
    if stats.journal_hits:
        extras.append(f"{stats.journal_hits} resumed")
    if stats.retried:
        extras.append(f"{stats.retried} retried")
    if stats.unit_errors:
        extras.append(f"{stats.unit_errors} failed")
    if stats.timeouts:
        extras.append(f"{stats.timeouts} timed out")
    if extras:
        line += ", " + ", ".join(extras)
    return line


# ---------------------------------------------------------------------------
# cache subcommand
# ---------------------------------------------------------------------------
def _build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prop-partition cache",
        description="inspect and maintain the on-disk result cache",
    )
    parser.add_argument(
        "action",
        choices=["verify", "clear"],
        help="verify: integrity-scan every record (removes corrupt ones "
        "unless --keep); clear: delete every record",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache directory (default .repro_cache/, or "
        "REPRO_ENGINE_CACHE when set)",
    )
    parser.add_argument(
        "--keep",
        action="store_true",
        help="verify only: report corrupt records without deleting them",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="verify only: emit a machine-readable JSON report instead "
        "of text (exit code unchanged: 0 clean, 1 corruption found)",
    )
    return parser


def _run_cache_mode(argv: List[str]) -> int:
    """``prop-partition cache verify|clear`` — cache maintenance.

    ``verify`` exit codes are part of the contract (CI and the service
    startup integrity check rely on them): **0** — every record clean;
    **1** — corrupt records found (and removed unless ``--keep``).
    ``--json`` reports ``{"root", "scanned", "ok", "corrupt", "removed",
    "runs"}`` on stdout with nothing else.
    """
    from .engine import ResultCache, default_cache_dir, list_runs

    parser = _build_cache_parser()
    args = parser.parse_args(argv)
    root = args.cache_dir or default_cache_dir()
    cache = ResultCache(root=root)
    if args.action == "verify":
        report = cache.verify(remove=not args.keep)
        runs = list_runs(root)
        if args.json:
            print(json.dumps({
                "root": str(root),
                "scanned": report.scanned,
                "ok": report.ok,
                "corrupt": report.corrupt,
                "removed": report.removed,
                "runs": runs,
            }, sort_keys=True))
        else:
            print(f"{root}: {report.summary()}")
            if runs:
                print(f"{len(runs)} run journal(s): {', '.join(runs[-5:])}")
        return 1 if report.corrupt else 0
    removed = cache.clear()
    print(f"{root}: removed {removed} record(s)")
    return 0


# ---------------------------------------------------------------------------
# trace subcommand
# ---------------------------------------------------------------------------
def _build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prop-partition trace",
        description="summarize telemetry trace files and run journals",
    )
    parser.add_argument(
        "action",
        choices=["summarize"],
        help="summarize: per-algorithm phase timing, counter and cut "
        "digest of one or more trace/journal files",
    )
    parser.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="JSONL files written by --trace (or engine run journals "
        "under <cache-dir>/runs/)",
    )
    return parser


def _run_trace_mode(argv: List[str]) -> int:
    """``prop-partition trace summarize PATH...`` — trace digests.

    Accepts both telemetry traces (``--trace`` output) and engine run
    journals; the file dialect is sniffed per path.  Exits non-zero when
    any path is missing or unrecognizable.
    """
    from .telemetry import summarize_path

    parser = _build_trace_parser()
    args = parser.parse_args(argv)
    status = 0
    for i, path in enumerate(args.paths):
        if i:
            print()
        try:
            print(summarize_path(path).format_text())
        except (OSError, ValueError) as exc:
            print(f"{path}: {exc}")
            status = 1
    return status


# ---------------------------------------------------------------------------
# serve subcommand
# ---------------------------------------------------------------------------
def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prop-partition serve",
        description="run the partitioning service: HTTP/JSON job API "
        "over the engine's cache, journals and telemetry "
        "(see docs/service.md)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=8642,
        help="bind port (default 8642; 0 picks a free port)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache + journal directory (default .repro_cache/, or "
        "REPRO_ENGINE_CACHE when set); restarting against the same "
        "directory resumes interrupted jobs",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache (journals stay on)",
    )
    parser.add_argument(
        "--job-workers", type=int, default=8, metavar="N",
        help="concurrent job executions (default 8)",
    )
    parser.add_argument(
        "--engine-workers", type=_nonneg_int, default=0, metavar="N",
        help="process-pool size per job's engine batch "
        "(default 0: in-process units; raise for few large jobs)",
    )
    parser.add_argument(
        "--timeout", type=_pos_float, default=None, metavar="S",
        help="per-unit wall-clock budget in seconds (default: none)",
    )
    parser.add_argument(
        "--tenant-weight",
        action="append",
        default=[],
        metavar="TENANT=W",
        help="fair-queue weight for a tenant (repeatable; others get 1.0)",
    )
    parser.add_argument(
        "--no-integrity-check", action="store_true",
        help="skip the cache verification scan on startup",
    )
    guard = parser.add_argument_group(
        "resource governance (repro.guard; see docs/guard.md)"
    )
    guard.add_argument(
        "--max-queue-depth", type=_nonneg_int, default=0, metavar="N",
        help="max queued jobs before submissions shed with 429 "
        "(default 0: unbounded)",
    )
    guard.add_argument(
        "--tenant-inflight", type=_nonneg_int, default=0, metavar="N",
        help="per-tenant in-flight (queued+running) job cap "
        "(default 0: uncapped)",
    )
    guard.add_argument(
        "--deadline", type=_pos_float, default=None, metavar="S",
        help="default per-job wall-clock deadline in seconds, for specs "
        "without deadline_seconds (default: none)",
    )
    guard.add_argument(
        "--quarantine-after", type=_nonneg_int, default=3, metavar="N",
        help="consecutive failures before a spec fingerprint is "
        "quarantined (default 3; 0 disables)",
    )
    guard.add_argument(
        "--memory-high-water-mb", type=_pos_float, default=None,
        metavar="MB",
        help="shed new admissions while service RSS exceeds this "
        "(default: no memory watchdog)",
    )
    guard.add_argument(
        "--worker-rlimit-mb", type=_pos_float, default=None, metavar="MB",
        help="RLIMIT_AS soft cap applied inside pool/shm workers "
        "(default: uncapped)",
    )
    return parser


def _run_serve_mode(argv: List[str]) -> int:
    """``prop-partition serve`` — run the HTTP partitioning service."""
    import asyncio

    from .service import ServiceConfig, run_service

    parser = _build_serve_parser()
    args = parser.parse_args(argv)
    weights: Dict[str, float] = {}
    for item in args.tenant_weight:
        tenant, sep, raw = item.partition("=")
        try:
            weight = float(raw)
            if not sep or not tenant or weight <= 0:
                raise ValueError
        except ValueError:
            parser.error(
                f"bad --tenant-weight {item!r} (want TENANT=POSITIVE_NUMBER)"
            )
        weights[tenant] = weight
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        engine_workers=args.engine_workers,
        job_workers=args.job_workers,
        unit_timeout=args.timeout,
        tenant_weights=weights,
        integrity_check=not args.no_integrity_check,
        max_queue_depth=args.max_queue_depth,
        default_tenant_inflight=args.tenant_inflight,
        default_job_deadline=args.deadline,
        quarantine_after=args.quarantine_after,
        memory_high_water_mb=args.memory_high_water_mb,
        worker_rlimit_mb=args.worker_rlimit_mb,
    )
    try:
        asyncio.run(run_service(config))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        pass
    return 0


# ---------------------------------------------------------------------------
# quarantine subcommand
# ---------------------------------------------------------------------------
def _build_quarantine_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prop-partition quarantine",
        description="inspect or release quarantined poison-job spec "
        "fingerprints (the service's per-fingerprint circuit breaker; "
        "see docs/guard.md)",
    )
    parser.add_argument(
        "action",
        choices=["list", "show", "release"],
        help="list: quarantined fingerprints; show: one entry's "
        "diagnostics bundle; release: forgive a fingerprint (a running "
        "service picks the release up on its next restart — use "
        "DELETE /v1/quarantine/<fp> to release live)",
    )
    parser.add_argument(
        "fingerprint",
        nargs="?",
        default=None,
        metavar="FINGERPRINT",
        help="spec fingerprint (full sha256 or unique prefix; "
        "required for show/release)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache directory (default .repro_cache/, or "
        "REPRO_ENGINE_CACHE when set)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of text",
    )
    return parser


def _run_quarantine_mode(argv: List[str]) -> int:
    """``prop-partition quarantine list|show|release`` — breaker admin.

    Exit codes: **0** success; **1** unknown/ambiguous fingerprint or
    missing argument.  Operates directly on the quarantine journal under
    ``<cache>/service/quarantine/`` — no running service needed.
    """
    from .engine import default_cache_dir
    from .guard import QuarantineRegistry, quarantine_dir

    parser = _build_quarantine_parser()
    args = parser.parse_args(argv)
    root = args.cache_dir or default_cache_dir()
    registry = QuarantineRegistry(quarantine_dir(root))
    entries = registry.entries()

    if args.action == "list":
        if args.json:
            print(json.dumps(
                {"quarantined": entries, "count": len(entries)},
                sort_keys=True,
            ))
        elif not entries:
            print(f"{root}: no quarantined fingerprints")
        else:
            for entry in entries:
                print(
                    f"{entry['fingerprint']}  strikes={entry['strikes']}  "
                    f"last={entry['last_reason']}  job={entry['last_job_id']}"
                )
        return 0

    if not args.fingerprint:
        parser.error(f"{args.action} requires a FINGERPRINT argument")
    matches = [
        e for e in entries
        if e["fingerprint"].startswith(args.fingerprint)
    ]
    if len(matches) != 1:
        kind = "ambiguous" if matches else "unknown"
        print(f"{kind} fingerprint {args.fingerprint!r} "
              f"({len(matches)} match(es) of {len(entries)} quarantined)")
        return 1
    fingerprint = matches[0]["fingerprint"]

    if args.action == "show":
        bundle = registry.load_bundle(fingerprint) or {
            "entry": matches[0], "bundle": None,
        }
        print(json.dumps(bundle, indent=None if args.json else 2,
                         sort_keys=True))
        return 0

    # release
    registry.release(fingerprint)
    registry.close()
    if args.json:
        print(json.dumps({"released": fingerprint}, sort_keys=True))
    else:
        print(f"released {fingerprint}")
    return 0


# ---------------------------------------------------------------------------
# ensemble subcommand
# ---------------------------------------------------------------------------
def _build_ensemble_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prop-partition ensemble",
        description="budgeted best-of-N with adaptive restarts and "
        "portfolio algorithm selection (see docs/analysis.md)",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    fit = sub.add_parser(
        "fit",
        help="sweep the corpus and fit a portfolio model",
        description="run every portfolio algorithm over the golden "
        "corpus circuits and save a per-instance algorithm selector",
    )
    fit.add_argument(
        "-o", "--output", default="portfolio.json", metavar="PATH",
        help="model file to write (default portfolio.json)",
    )
    fit.add_argument(
        "--algorithms", nargs="+", default=None, metavar="ALGO",
        help="algorithms to sweep (default: the standard portfolio)",
    )
    fit.add_argument(
        "--runs", type=_pos_int, default=8,
        help="restarts per (circuit, algorithm) cell (default 8)",
    )
    fit.add_argument("--seed", type=int, default=0, help="base seed")
    _add_engine_flags(fit)

    solve = sub.add_parser(
        "solve",
        help="partition one netlist under an adaptive restart budget",
        description="best-of-N that stops spending restarts once "
        "P(improvement) x remaining budget drops below --threshold",
    )
    solve.add_argument(
        "netlist", nargs="?",
        help="netlist file (.hgr / .net / .json); omit with --generate",
    )
    solve.add_argument(
        "--generate", metavar="NAME", choices=BENCHMARK_NAMES,
        help="generate a synthetic Table-1 circuit instead of a file",
    )
    solve.add_argument(
        "--scale", type=float, default=1.0,
        help="down-scale factor for --generate (default 1.0)",
    )
    solve.add_argument(
        "-a", "--algorithm", default=None,
        help="force one algorithm (default: prop, or the --model choice)",
    )
    solve.add_argument(
        "--model", default=None, metavar="PATH",
        help="portfolio model from 'ensemble fit'; picks the algorithm "
        "per instance (overridden by -a)",
    )
    solve.add_argument(
        "--budget", type=_pos_int, default=20, metavar="N",
        help="restart budget in runs (default 20)",
    )
    solve.add_argument(
        "--budget-seconds", type=_pos_float, default=None, metavar="S",
        help="optional run-time budget (best-effort; unit budgets are "
        "the deterministic contract)",
    )
    solve.add_argument(
        "--threshold", type=float, default=0.5,
        help="stop when P(improve) x remaining runs < this (default "
        "0.5; <= 0 disables early stopping)",
    )
    solve.add_argument(
        "--min-runs", type=_pos_int, default=4, metavar="N",
        help="never stop before this many runs (default 4)",
    )
    solve.add_argument(
        "--target", type=float, default=None,
        help="stop as soon as the incumbent reaches this cut",
    )
    solve.add_argument(
        "--balance", default="50-50",
        help="balance criterion (default 50-50)",
    )
    solve.add_argument("--seed", type=int, default=0, help="base seed")
    solve.add_argument(
        "--kernel", choices=KERNELS, default="auto",
        help="pass engine for PROP/FM (default auto)",
    )
    _add_engine_flags(solve)
    return parser


def _run_ensemble_mode(argv: List[str]) -> int:
    """``prop-partition ensemble fit|solve`` — adaptive restart driver.

    ``fit`` sweeps the golden corpus and writes a portfolio model;
    ``solve`` partitions one instance under a restart budget, stopping
    early when further restarts are no longer worth their cost.  Exit
    codes: **0** success; **130** interrupted (resume with ``--resume``).
    """
    parser = _build_ensemble_parser()
    args = parser.parse_args(argv)
    if args.action == "fit":
        return _run_ensemble_fit(args)
    return _run_ensemble_solve(parser, args)


def _run_ensemble_fit(args) -> int:
    from .analysis import PORTFOLIO_ALGORITHMS, train_portfolio
    from .testing.golden import CIRCUITS, build_circuit

    circuits = {
        name: build_circuit(spec) for name, spec in CIRCUITS.items()
    }
    algorithms = tuple(args.algorithms or PORTFOLIO_ALGORITHMS)
    engine = _engine_from_args(args)
    print(
        f"fitting portfolio: {len(circuits)} circuit(s) x "
        f"{len(algorithms)} algorithm(s) x {args.runs} run(s)"
    )
    model = train_portfolio(
        circuits, algorithms=algorithms, runs=args.runs,
        base_seed=args.seed, engine=engine,
    )
    model.save(args.output)
    by_circuit: Dict[str, List[str]] = {}
    for obs in model.observations:
        by_circuit.setdefault(obs.circuit, []).append(
            f"{obs.algorithm}={obs.normalized_cut:.3f}"
        )
    for circuit in sorted(by_circuit):
        print(f"{circuit:>10s}: {'  '.join(sorted(by_circuit[circuit]))}")
    if engine is not None:
        print(_engine_summary(engine))
    print(f"wrote {args.output} ({len(model.observations)} observation(s))")
    return 0


def _run_ensemble_solve(parser: argparse.ArgumentParser, args) -> int:
    from .analysis import RestartPolicy, ensemble_solve

    if args.generate:
        graph = make_benchmark(args.generate, scale=args.scale)
        source = f"generated:{args.generate}@{args.scale}"
    elif args.netlist:
        graph = netlist_io.read(args.netlist)
        source = args.netlist
    else:
        parser.error("provide a netlist file or --generate NAME")
        return 2  # unreachable; parser.error raises

    algorithm = args.algorithm
    if algorithm is None and args.model is not None:
        from .analysis import PortfolioModel

        model = PortfolioModel.load(args.model)
        for name, score in model.rank(graph):
            print(f"portfolio: {name:>8s} predicted {score:.3f}")
        algorithm = model.select(graph)
        print(f"portfolio selected: {algorithm}")
    if algorithm is None:
        algorithm = "prop"

    partitioner = _make_partitioner(algorithm, args.kernel)
    balance = _make_balance(graph, args.balance)
    policy = RestartPolicy(
        budget=args.budget,
        threshold=args.threshold,
        min_runs=args.min_runs,
        target=args.target,
        max_seconds=args.budget_seconds,
    )
    engine = _engine_from_args(args)
    run_id, resume = (None, False)
    if engine is not None:
        run_id, resume = _run_id_from_args(args)
        verb = "resuming" if resume else "journalling"
        print(f"{verb} run {run_id} (resume with --resume {run_id})")

    result = ensemble_solve(
        partitioner, graph, policy, balance=balance, base_seed=args.seed,
        circuit_name=source, engine=engine, run_id=run_id, resume=resume,
    )
    print(result.summary())
    for failed in result.outcome.errors:
        error = failed.error
        print(
            f"run seed {failed.unit.seed} FAILED after "
            f"{error.attempts} attempt(s): {error.exc_type}: {error.message}"
        )
    if engine is not None:
        print(_engine_summary(engine))
    if result.outcome.interrupted:
        print(
            f"interrupted — partial results journalled; finish with "
            f"--resume {run_id}"
        )
        return 130
    return 0


# ---------------------------------------------------------------------------
# bench subcommand
# ---------------------------------------------------------------------------
def _build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prop-partition bench",
        description="exercise the execution engine on a synthetic "
        "circuit × algorithm × seed grid and report throughput",
    )
    parser.add_argument(
        "--circuits",
        default="t6",
        help=f"comma-separated Table-1 circuit names (default t6; "
        f"choices: {', '.join(BENCHMARK_NAMES)})",
    )
    parser.add_argument(
        "--scale", type=float, default=0.06,
        help="circuit down-scale factor (default 0.06: quick smoke)",
    )
    parser.add_argument(
        "-a", "--algorithm", nargs="+", default=["fm", "prop"],
        help="algorithms to bench (default: fm prop)",
    )
    parser.add_argument(
        "--runs", type=int, default=4,
        help="runs per (circuit, algorithm) cell (default 4)",
    )
    parser.add_argument("--balance", default="50-50", help="balance criterion")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--kernel",
        choices=KERNELS,
        default="auto",
        help="pass engine for PROP/FM (default auto; see prop-partition "
        "--help)",
    )
    parser.add_argument(
        "--subround-workers",
        type=int,
        default=0,
        metavar="N",
        help="shared-memory workers for --kernel subround (default 0)",
    )
    _add_engine_flags(parser)
    return parser


def _run_bench_mode(argv: List[str]) -> int:
    """``prop-partition bench`` — grid fan-out through the engine."""
    import time

    from .engine import Engine, EngineConfig, WorkUnit, seed_stream
    from .multirun import effective_runs

    parser = _build_bench_parser()
    args = parser.parse_args(argv)
    names = [n.strip() for n in args.circuits.split(",") if n.strip()]
    for name in names:
        if name not in BENCHMARK_NAMES:
            parser.error(f"unknown circuit {name!r}")

    engine = Engine(
        EngineConfig(
            workers=args.workers,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            timeout=args.timeout,
            on_error="collect" if args.keep_going else "raise",
        )
    )
    run_id, resume = _run_id_from_args(args)
    audit = _audit_from_args(args)
    circuits = {n: make_benchmark(n, scale=args.scale) for n in names}

    units: List[WorkUnit] = []
    cells: List[Dict[str, object]] = []
    for circuit_name, graph in circuits.items():
        balance = _make_balance(graph, args.balance)
        for algo_name in args.algorithm:
            partitioner = _make_partitioner(
                algo_name, args.kernel, getattr(args, "subround_workers", 0)
            )
            runs = effective_runs(partitioner, args.runs)
            cells.append({"circuit": circuit_name, "partitioner": partitioner,
                          "runs": runs})
            for seed in seed_stream(args.seed, runs):
                units.append(
                    WorkUnit(graph=graph, partitioner=partitioner, seed=seed,
                             balance=balance, tag=circuit_name, audit=audit)
                )

    start = time.perf_counter()
    outcomes = engine.run(units, run_id=run_id, resume=resume)
    elapsed = time.perf_counter() - start
    if engine.interrupted:
        print(f"interrupted — resume with --resume {run_id}")
        print(_engine_summary(engine))
        return 130

    cursor = 0
    for cell in cells:
        runs = cell["runs"]
        group = outcomes[cursor:cursor + runs]
        cursor += runs
        cuts = [u.result.cut for u in group if u.ok]
        if not cuts:
            print(f"{cell['circuit']:>8s}: no completed runs")
            continue
        compute = sum(u.seconds for u in group)
        tag = getattr(cell["partitioner"], "name", "?")
        print(
            f"{cell['circuit']:>8s} {tag:>10s}: best {min(cuts):g} "
            f"mean {sum(cuts) / len(cuts):.1f} over {runs} run(s), "
            f"{compute:.2f}s compute"
        )
    total_compute = sum(u.seconds for u in outcomes)
    speedup = total_compute / elapsed if elapsed > 0 else 1.0
    print(
        f"{len(units)} unit(s) in {elapsed:.2f}s wall "
        f"({total_compute:.2f}s compute, {speedup:.1f}x)"
    )
    print(_engine_summary(engine))
    return 0


def _write_json(path: str, payload: Dict[str, object]) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
