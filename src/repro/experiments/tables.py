"""Regeneration of the paper's Tables 1–4.

Each ``run_tableN`` function executes the corresponding experiment and
returns a :class:`ComparisonTable`; the benchmark harness
(``benchmarks/``) wraps these with pytest-benchmark and prints the rows.

Scaling: the paper's full protocol (16 circuits up to 12.6k nodes, up to
100 runs each) is hours of pure-Python compute, so every runner accepts a
circuit ``scale`` and a ``runs_scale`` (both default to the values in
:func:`bench_scale_from_env`, overridable via the ``REPRO_BENCH_SCALE`` /
``REPRO_BENCH_RUNS_SCALE`` / ``REPRO_BENCH_CIRCUITS`` environment
variables).  Scaled circuits come from the same generator with identical
statistics; relative algorithm behaviour is preserved (see DESIGN.md).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine import Engine

from ..baselines import (
    Eig1Partitioner,
    FMPartitioner,
    LAPartitioner,
    MeloPartitioner,
    ParaboliPartitioner,
    WindowPartitioner,
)
from ..core import PropPartitioner
from ..hypergraph import (
    BENCHMARK_NAMES,
    Hypergraph,
    compute_stats,
    make_benchmark,
)
from ..multirun import Cell, MultiRunResult, Partitioner, run_cells
from ..partition import BalanceConstraint, improvement_percent

#: Default circuit subset for quick benches: the small/medium circuits plus
#: p2 and s9234, the two where iterative-method separation is visible even
#: at reduced scale (larger search spaces -> more local minima for FM).
DEFAULT_BENCH_CIRCUITS: Tuple[str, ...] = (
    "balu", "bm1", "p1", "struct", "t2", "t3", "t4", "t5", "t6", "19ks",
    "p2", "s9234",
)


def bench_scale_from_env() -> Tuple[float, float, Tuple[str, ...]]:
    """(circuit scale, runs scale, circuit names) honoring env overrides."""
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))
    runs_scale = float(os.environ.get("REPRO_BENCH_RUNS_SCALE", "0.25"))
    names_env = os.environ.get("REPRO_BENCH_CIRCUITS", "")
    if names_env.strip():
        names = tuple(n.strip() for n in names_env.split(",") if n.strip())
    else:
        names = DEFAULT_BENCH_CIRCUITS if scale < 1.0 else BENCHMARK_NAMES
    return scale, runs_scale, names


def _scaled_runs(paper_runs: int, runs_scale: float) -> int:
    return max(1, round(paper_runs * runs_scale))


def engine_from_env() -> Optional["Engine"]:
    """An engine when ``REPRO_ENGINE_WORKERS`` is set, else ``None``.

    This is what lets ``REPRO_ENGINE_WORKERS=8 pytest benchmarks/`` fan
    the table regenerations across workers without touching any call
    site; unset, the runners batch in-process and uncached
    (:func:`repro.multirun.run_cells`).
    """
    if not os.environ.get("REPRO_ENGINE_WORKERS", "").strip():
        return None
    from ..engine import Engine

    return Engine()


@dataclass
class ComparisonTable:
    """Best-of-N cut results, circuits × algorithms, plus timing."""

    title: str
    algorithms: List[str]
    reference: str  # the algorithm improvements are measured against
    rows: Dict[str, Dict[str, MultiRunResult]] = field(default_factory=dict)

    def add_as(self, circuit: str, label: str, result: MultiRunResult) -> None:
        """Record a result under a table-column label (e.g. "FM100")."""
        self.rows.setdefault(circuit, {})[label] = result

    def cut(self, circuit: str, algorithm: str) -> float:
        """Best cut recorded for (circuit, algorithm)."""
        return self.rows[circuit][algorithm].best_cut

    def complete_circuits(self) -> List[str]:
        """Circuits whose every cell has a completed run.

        Under an error-collecting engine a cell can end with none; its
        circuit then drops out of :meth:`totals`, so that every column's
        total covers the same circuits.
        """
        return [
            circuit for circuit, row in self.rows.items()
            if all(row[a].cuts for a in self.algorithms)
        ]

    def totals(self) -> Dict[str, float]:
        """Total best cut per algorithm (paper's last row) over the
        :meth:`complete_circuits`."""
        out = {a: 0.0 for a in self.algorithms}
        for circuit in self.complete_circuits():
            row = self.rows[circuit]
            for a in self.algorithms:
                out[a] += row[a].best_cut
        return out

    def total_seconds(self) -> Dict[str, float]:
        """Total wall-clock seconds per algorithm over all circuits."""
        out = {a: 0.0 for a in self.algorithms}
        for row in self.rows.values():
            for a in self.algorithms:
                out[a] += row[a].total_seconds
        return out

    def improvements(self) -> Dict[str, float]:
        """Reference algorithm's improvement % vs each other algorithm,
        computed on totals with the paper's (diff / larger) × 100 metric."""
        totals = self.totals()
        ref = totals[self.reference]
        return {
            a: improvement_percent(ref, totals[a])
            for a in self.algorithms
            if a != self.reference
        }

    def effective_runs(self) -> Dict[str, int]:
        """Completed (successful) runs per algorithm over all circuits.

        Under adaptive restart policies or error-collecting engines this
        can be fewer than the budgeted counts — the "effective runs
        used" row of the rendered table.
        """
        out = {a: 0 for a in self.algorithms}
        for row in self.rows.values():
            for a in self.algorithms:
                out[a] += len(row[a].cuts)
        return out

    def format_text(self) -> str:
        """Fixed-width text rendering (same layout idea as the paper).

        Cells read ``best (mean±stddev)`` — the paper reports only the
        best of N, but the error bar is what says whether a column's
        lead is real run-to-run or one lucky restart — plus a final
        "runs used" row (see :meth:`effective_runs`).  A cell with no
        completed run reads "-", and a last line then says how many
        circuits the TOTAL row covers (:meth:`complete_circuits`).
        """
        from ..analysis.distribution import cut_distribution

        algs = self.algorithms
        cells: Dict[str, Dict[str, str]] = {}
        for circuit, row in self.rows.items():
            cells[circuit] = {}
            for a in algs:
                result = row[a]
                if result.cuts:
                    d = cut_distribution(result.cuts)
                    cells[circuit][a] = (
                        f"{d.best:.0f} ({d.mean:.1f}±{d.stddev:.1f})"
                    )
                else:
                    cells[circuit][a] = "-"
        width = max(
            [10, max(len(a) for a in algs) + 2]
            + [len(c) + 2 for row in cells.values() for c in row.values()]
        )
        header = "circuit".ljust(12) + "".join(a.rjust(width) for a in algs)
        lines = [self.title, header, "-" * len(header)]
        for circuit in self.rows:
            lines.append(
                circuit.ljust(12)
                + "".join(cells[circuit][a].rjust(width) for a in algs)
            )
        totals = self.totals()
        lines.append("-" * len(header))
        lines.append(
            "TOTAL".ljust(12)
            + "".join(f"{totals[a]:>{width}.0f}" for a in algs)
        )
        used = self.effective_runs()
        lines.append(
            "runs used".ljust(12)
            + "".join(f"{used[a]:>{width}d}" for a in algs)
        )
        imps = self.improvements()
        lines.append(
            f"{self.reference} improvement %: "
            + "  ".join(f"{a}: {imps[a]:+.1f}" for a in imps)
        )
        covered = len(self.complete_circuits())
        if covered < len(self.rows):
            lines.append(
                f"TOTAL covers {covered} of {len(self.rows)} circuits: "
                "a circuit with a cell that completed no run is left out"
            )
        return "\n".join(lines)


def _run_comparison(
    title: str,
    algorithms: Sequence[Tuple[str, Partitioner, int]],
    circuits: Dict[str, Hypergraph],
    balance_factory: Callable[[Hypergraph], BalanceConstraint],
    reference: str,
    base_seed: int = 0,
    engine: Optional["Engine"] = None,
) -> ComparisonTable:
    """Run the whole (circuit × algorithm × seed) grid as one batch.

    Each (circuit, label) cell is one :class:`~repro.multirun.Cell` of
    :func:`~repro.multirun.run_cells`, so the table is bit-identical
    whatever engine runs it.
    """
    table = ComparisonTable(
        title=title,
        algorithms=[label for label, _, _ in algorithms],
        reference=reference,
    )
    positions: List[Tuple[str, str]] = []
    cells: List[Cell] = []
    for circuit_name, graph in circuits.items():
        balance = balance_factory(graph)
        for label, partitioner, runs in algorithms:
            positions.append((circuit_name, label))
            cells.append(Cell(partitioner, graph, runs, balance, base_seed,
                              circuit_name, tag=f"{circuit_name}/{label}"))
    for (circuit_name, label), result in zip(
        positions, run_cells(cells, engine)
    ):
        table.add_as(circuit_name, label, result)
    return table


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------
def table1_rows(
    scale: float = 1.0, names: Optional[Sequence[str]] = None
) -> Dict[str, Dict[str, int]]:
    """Regenerate Table 1: circuit -> {nodes, nets, pins}."""
    if names is None:
        names = BENCHMARK_NAMES
    out = {}
    for name in names:
        stats = compute_stats(make_benchmark(name, scale=scale))
        out[name] = stats.as_table_row()
    return out


# ---------------------------------------------------------------------------
# Table 2 — 50-50% balance: FM100/FM40/FM20, LA-2, LA-3, WINDOW, PROP20
# ---------------------------------------------------------------------------
def run_table2(
    scale: Optional[float] = None,
    runs_scale: Optional[float] = None,
    names: Optional[Sequence[str]] = None,
    base_seed: int = 0,
    engine: Optional["Engine"] = None,
) -> ComparisonTable:
    """Regenerate Table 2 (50-50%% cutsets) at the given or env-configured scale.

    The whole (circuit × algorithm × seed) grid runs as one batch; with
    ``engine`` given it fans across that engine's workers and is memoized
    by its cache, with a bit-identical table either way.
    """
    env_scale, env_runs, env_names = bench_scale_from_env()
    scale = env_scale if scale is None else scale
    runs_scale = env_runs if runs_scale is None else runs_scale
    names = env_names if names is None else names
    if engine is None:
        engine = engine_from_env()

    circuits = {n: make_benchmark(n, scale=scale) for n in names}
    algorithms: List[Tuple[str, Partitioner, int]] = [
        ("FM100", FMPartitioner("bucket"), _scaled_runs(100, runs_scale)),
        ("FM40", FMPartitioner("bucket"), _scaled_runs(40, runs_scale)),
        ("FM20", FMPartitioner("bucket"), _scaled_runs(20, runs_scale)),
        ("LA-2", LAPartitioner(2), _scaled_runs(20, runs_scale)),
        ("LA-3", LAPartitioner(3), _scaled_runs(20, runs_scale)),
        ("WINDOW", WindowPartitioner(), 1),
        ("PROP", PropPartitioner(), _scaled_runs(20, runs_scale)),
    ]
    return _run_comparison(
        "Table 2 — cutsets, 50-50% balance",
        algorithms,
        circuits,
        BalanceConstraint.fifty_fifty,
        reference="PROP",
        base_seed=base_seed,
        engine=engine,
    )


# ---------------------------------------------------------------------------
# Table 3 — 45-55% balance: MELO, PARABOLI, EIG1 vs PROP20
# ---------------------------------------------------------------------------
def run_table3(
    scale: Optional[float] = None,
    runs_scale: Optional[float] = None,
    names: Optional[Sequence[str]] = None,
    base_seed: int = 0,
    engine: Optional["Engine"] = None,
) -> ComparisonTable:
    """Regenerate Table 3 (45-55%% cutsets) at the given or env-configured scale."""
    env_scale, env_runs, env_names = bench_scale_from_env()
    scale = env_scale if scale is None else scale
    runs_scale = env_runs if runs_scale is None else runs_scale
    names = env_names if names is None else names
    if engine is None:
        engine = engine_from_env()

    circuits = {n: make_benchmark(n, scale=scale) for n in names}
    algorithms: List[Tuple[str, Partitioner, int]] = [
        ("MELO", MeloPartitioner(), 1),
        ("PARABOLI", ParaboliPartitioner(), 1),
        ("EIG1", Eig1Partitioner(), 1),
        ("PROP", PropPartitioner(), _scaled_runs(20, runs_scale)),
    ]
    return _run_comparison(
        "Table 3 — cutsets, 45-55% balance",
        algorithms,
        circuits,
        BalanceConstraint.forty_five_fifty_five,
        reference="PROP",
        base_seed=base_seed,
        engine=engine,
    )


# ---------------------------------------------------------------------------
# Table 4 — per-run CPU seconds
# ---------------------------------------------------------------------------
def run_table4(
    scale: Optional[float] = None,
    names: Optional[Sequence[str]] = None,
    runs_per_algorithm: int = 3,
    base_seed: int = 0,
    engine: Optional["Engine"] = None,
) -> ComparisonTable:
    """Per-run timing comparison (cuts are recorded too, but the payload is
    ``.rows[circuit][alg].seconds_per_run``)."""
    env_scale, _, env_names = bench_scale_from_env()
    scale = env_scale if scale is None else scale
    names = env_names if names is None else names
    if engine is None:
        engine = engine_from_env()

    circuits = {n: make_benchmark(n, scale=scale) for n in names}
    algorithms: List[Tuple[str, Partitioner, int]] = [
        ("FM-bucket", FMPartitioner("bucket"), runs_per_algorithm),
        ("FM-tree", FMPartitioner("tree"), runs_per_algorithm),
        ("LA-2", LAPartitioner(2), runs_per_algorithm),
        ("LA-3", LAPartitioner(3), runs_per_algorithm),
        ("PROP", PropPartitioner(), runs_per_algorithm),
        ("EIG1", Eig1Partitioner(), 1),
        ("PARABOLI", ParaboliPartitioner(), 1),
        ("MELO", MeloPartitioner(), 1),
        ("WINDOW", WindowPartitioner(), 1),
    ]
    return _run_comparison(
        "Table 4 — CPU seconds per run",
        algorithms,
        circuits,
        BalanceConstraint.forty_five_fifty_five,
        reference="PROP",
        base_seed=base_seed,
        engine=engine,
    )


def format_table4_times(table: ComparisonTable) -> str:
    """Render Table 4's payload: seconds per run, per circuit."""
    algs = table.algorithms
    width = max(11, max(len(a) for a in algs) + 2)
    header = "circuit".ljust(12) + "".join(a.rjust(width) for a in algs)
    lines = [table.title, header, "-" * len(header)]
    for circuit in table.rows:
        cells = "".join(
            f"{table.rows[circuit][a].seconds_per_run:>{width}.3f}"
            for a in algs
        )
        lines.append(circuit.ljust(12) + cells)
    totals = {
        a: sum(table.rows[c][a].seconds_per_run for c in table.rows)
        for a in algs
    }
    lines.append("-" * len(header))
    lines.append(
        "TOTAL/run".ljust(12) + "".join(f"{totals[a]:>{width}.3f}" for a in algs)
    )
    return "\n".join(lines)
