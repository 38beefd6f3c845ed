"""Multi-start harness — the paper's Sec. 4 evaluation protocol.

Every table entry of the paper is "best cut over N runs from random initial
partitions": FM20/FM40/FM100, LA-2 with 20 or 40 runs, LA-3 with 20, PROP
with 20.  A :class:`Cell` is one such entry, for any partitioner object
exposing ``partition(graph, balance=..., seed=...)`` and a ``name``.
:func:`run_cells` runs any number of cells as one
:class:`repro.engine.Engine` batch and folds each cell's runs back, in seed
order, into a :class:`MultiRunResult`; :func:`run_many` is the one-cell
case.  The paper's tables and the config sweeps submit their whole grid
this way.

Seeds are ``base_seed, base_seed+1, ...`` so any individual run can be
replayed in isolation (:meth:`MultiRunResult.replay`).  Without an explicit
engine the batch runs in-process and uncached; an engine with workers fans
it across a process pool with bit-identical results (see
``docs/engine.md``).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Sequence

from ..hypergraph import Hypergraph
from ..partition import BalanceConstraint, BipartitionResult
from ..telemetry import collect_phase_seconds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine uses us)
    from ..analysis.ensembles import RestartPolicy
    from ..audit import AuditConfig
    from ..engine import Engine, UnitResult
    from ..telemetry import Recorder


class Partitioner(Protocol):
    """Anything the harness can drive (PROP, every baseline, ...)."""

    name: str

    def partition(
        self,
        graph: Hypergraph,
        balance: Optional[BalanceConstraint] = None,
        initial_sides: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
    ) -> BipartitionResult:
        """Produce one bipartition of ``graph`` (see concrete classes)."""
        ...


@dataclass
class MultiRunResult:
    """Aggregate of N runs of one algorithm on one circuit.

    ``seeds[i]``, ``cuts[i]`` and ``run_seconds[i]`` describe run ``i``;
    ``total_seconds`` is the cell's share of the batch wall clock
    (including scheduling overhead; split across the cells of one batch
    in proportion to their compute), while ``run_seconds`` times only the
    partitioning calls themselves — so ``seconds_per_run`` is not skewed
    by harness overhead.  The source ``partitioner``/``graph``/
    ``balance`` are retained (when known) so :meth:`replay` can re-run a
    single seed for debugging or cache-key verification.

    Under an error-collecting engine (``EngineConfig(on_error='collect')``)
    failed runs land in ``errors`` (their ``UnitResult`` records, error
    attached) instead of aborting the batch; ``interrupted`` is set when
    a signal drained the batch early, in which case ``cuts`` covers only
    the completed runs (journalled runs resume via ``run_id``/``resume``).
    """

    algorithm: str
    circuit: str
    runs: int
    cuts: List[float] = field(default_factory=list)
    best: Optional[BipartitionResult] = None
    total_seconds: float = 0.0
    seeds: List[int] = field(default_factory=list)
    run_seconds: List[float] = field(default_factory=list)
    errors: List[object] = field(default_factory=list)
    interrupted: bool = False
    #: Why an adaptive restart policy ended the batch (``"converged"``,
    #: ``"target_reached"``, ``"budget_exhausted"``, ``"time_exhausted"``);
    #: ``None`` when no policy was attached or it never fired.
    stop_reason: Optional[str] = None
    #: Per-phase seconds summed over all runs (see
    #: :data:`repro.telemetry.PHASE_STAT_KEYS`); empty for results that
    #: predate phase timing.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    partitioner: Optional[Partitioner] = field(
        default=None, repr=False, compare=False
    )
    graph: Optional[Hypergraph] = field(default=None, repr=False, compare=False)
    balance: Optional[BalanceConstraint] = field(
        default=None, repr=False, compare=False
    )

    @property
    def best_cut(self) -> float:
        if self.best is None:
            raise ValueError("no runs recorded")
        return self.best.cut

    @property
    def mean_cut(self) -> float:
        if not self.cuts:
            raise ValueError("no runs recorded")
        return sum(self.cuts) / len(self.cuts)

    @property
    def worst_cut(self) -> float:
        if not self.cuts:
            raise ValueError("no runs recorded")
        return max(self.cuts)

    @property
    def completed_attempts(self) -> int:
        """Runs that ran to completion, successfully or not.

        Successful runs contribute a cut; failed runs (error-collecting
        engine) contribute an ``errors`` entry.  Both spent a run of the
        budget.
        """
        return len(self.cuts) + len(self.errors)

    @property
    def seconds_per_run(self) -> float:
        """Mean seconds of one successful partitioning run (pure compute)."""
        if not self.run_seconds:
            raise ValueError("no runs recorded")
        return sum(self.run_seconds) / len(self.run_seconds)

    def replay(self, i: int) -> BipartitionResult:
        """Re-run run ``i`` (same seed, graph, balance) in isolation.

        The deterministic per-seed contract of every partitioner makes
        this reproduce ``cuts[i]`` exactly — the debugging workflow for
        "which run produced this outlier?", and the ground truth the
        engine's cache keys rely on.
        """
        if not self.seeds:
            raise ValueError("no seeds recorded (result predates seed tracking)")
        if not 0 <= i < len(self.seeds):
            raise IndexError(f"run index {i} out of range 0..{len(self.seeds) - 1}")
        if self.partitioner is None or self.graph is None:
            raise ValueError("source partitioner/graph not retained; cannot replay")
        return self.partitioner.partition(
            self.graph, balance=self.balance, seed=self.seeds[i]
        )


def effective_runs(partitioner: Partitioner, runs: int) -> int:
    """Clamp ``runs`` to 1 for deterministic partitioners (with a warning).

    EIG1, MELO and PARABOLI advertise ``deterministic = True``: they
    ignore the seed, so extra runs would only repeat the identical
    answer.  Callers that pass ``runs > 1`` anyway get one run and a
    ``UserWarning`` instead of silently wasted compute.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if runs > 1 and getattr(partitioner, "deterministic", False):
        name = getattr(partitioner, "name", type(partitioner).__name__)
        warnings.warn(
            f"{name} is deterministic: {runs} requested runs would produce "
            f"identical results; running once",
            UserWarning,
            stacklevel=3,
        )
        return 1
    return runs


@dataclass(frozen=True)
class Cell:
    """``runs`` seeded runs of one partitioner on one graph (seeds
    ``base_seed, base_seed+1, ...``); ``tag`` labels the work units."""

    partitioner: Partitioner
    graph: Hypergraph
    runs: int
    balance: Optional[BalanceConstraint] = None
    base_seed: int = 0
    circuit_name: str = ""
    tag: str = ""


def run_cells(
    cells: Sequence[Cell], engine: Optional["Engine"] = None
) -> List[MultiRunResult]:
    """Run every cell as one engine batch; one result per cell, in order.

    One batch keeps every worker busy across cell boundaries.  Without
    ``engine`` it runs in-process and uncached.  The results are
    bit-identical whatever executes them (see :func:`run_many`).
    """
    clamped = []
    for cell in cells:  # a loop keeps effective_runs' warning stacklevel
        runs = effective_runs(cell.partitioner, cell.runs)
        clamped.append(replace(cell, runs=runs))
    return _run_batch(clamped, engine)


def run_many(
    partitioner: Partitioner,
    graph: Hypergraph,
    runs: int,
    balance: Optional[BalanceConstraint] = None,
    base_seed: int = 0,
    circuit_name: str = "",
    engine: Optional["Engine"] = None,
    audit: Optional["AuditConfig"] = None,
    run_id: Optional[str] = None,
    resume: bool = False,
    recorder: Optional["Recorder"] = None,
    policy: Optional["RestartPolicy"] = None,
) -> MultiRunResult:
    """Run ``partitioner`` ``runs`` times with seeds base_seed..base_seed+runs-1.

    The runs are one :class:`Cell` of an engine batch (:func:`run_cells`).
    Without ``engine`` the batch runs in-process and uncached; pass an
    explicit :class:`repro.engine.Engine` to fan it across workers or to
    control cache and fault handling.  Either way the cuts are
    bit-identical: the same seed stream is used and results are folded
    in seed order.

    ``audit`` attaches the invariant auditor of :mod:`repro.audit` to
    every run (partitioners without audit support get a warning and run
    unaudited).  Auditing never changes cuts; a violated invariant
    raises :class:`repro.audit.InvariantViolation` out of the batch.

    ``run_id`` journals the batch under ``<cache_dir>/runs/<run_id>.jsonl``
    (without an engine, ``cache_dir`` is ``REPRO_ENGINE_CACHE`` or
    ``.repro_cache/``); ``resume=True`` serves units already recorded in
    that journal without recomputing them — the crash/interrupt recovery
    path (see ``docs/robustness.md``).  Runs that failed permanently
    under an error-collecting engine are folded into ``result.errors``
    rather than ``cuts``.

    Deterministic partitioners (``deterministic = True``: EIG1, MELO,
    PARABOLI) are short-circuited to a single run with a warning when
    ``runs > 1``.

    ``recorder`` attaches a :class:`repro.telemetry.Recorder` to every
    run of the in-process batch.  Recorders are not picklable, so with
    an explicit engine a warning is issued and the recorder dropped
    (phase timings still persist through the result stats).
    Partitioners without telemetry support likewise warn and run
    unrecorded.  Either way :attr:`MultiRunResult.phase_seconds`
    aggregates per-phase timings across the batch.

    ``policy`` attaches an adaptive restart policy (anything with a
    ``decide(cuts, elapsed_seconds)`` method returning a decision with
    ``stop``/``reason`` attributes — see
    :class:`repro.analysis.ensembles.RestartPolicy`).  The policy is
    consulted after every successful run on the cut prefix *in seed
    order*; when it says stop, no further runs are folded and
    :attr:`MultiRunResult.stop_reason` records why.  The policy doubles
    as the engine's streaming ``stop_check`` (so unscheduled runs are
    actually shed), but the returned cuts are re-folded seed-by-seed
    with the policy re-evaluated on each prefix — pool stragglers that
    completed past the stopping point are discarded, making the
    incumbent and the stop decision bit-identical across worker counts,
    cache states and ``resume``.
    """
    runs = effective_runs(partitioner, runs)
    if audit is not None and not getattr(partitioner, "supports_audit", False):
        name = getattr(partitioner, "name", type(partitioner).__name__)
        warnings.warn(
            f"{name} does not support invariant auditing; running unaudited",
            UserWarning,
            stacklevel=2,
        )
        audit = None
    if recorder is not None and engine is not None:
        warnings.warn(
            "telemetry recorders are not picklable; ignoring recorder for "
            "runs through an explicit engine (phase timings still "
            "aggregate via stats)",
            UserWarning,
            stacklevel=2,
        )
        recorder = None
    if recorder is not None and not getattr(
        partitioner, "supports_telemetry", False
    ):
        name = getattr(partitioner, "name", type(partitioner).__name__)
        warnings.warn(
            f"{name} does not support telemetry; running unrecorded",
            UserWarning,
            stacklevel=2,
        )
        recorder = None
    cell = Cell(partitioner, graph, runs, balance, base_seed, circuit_name,
                tag=circuit_name)
    [result] = _run_batch(
        [cell], engine, audit=audit, run_id=run_id, resume=resume,
        recorder=recorder, policy=policy,
    )
    return result


def _run_batch(
    cells: Sequence[Cell],
    engine: Optional["Engine"],
    audit: Optional["AuditConfig"] = None,
    run_id: Optional[str] = None,
    resume: bool = False,
    recorder: Optional["Recorder"] = None,
    policy: Optional["RestartPolicy"] = None,
) -> List[MultiRunResult]:
    """Run ``cells`` as one engine batch and fold each back in seed order.

    Every best-of-N run executes here.  ``policy`` comes only with the
    one-cell batch of :func:`run_many`.
    """
    from ..engine import Engine, EngineConfig, WorkUnit, seed_stream

    if engine is None:
        engine = Engine(
            EngineConfig(workers=0, use_cache=False, recorder=recorder)
        )
    units = [
        WorkUnit(cell.graph, cell.partitioner, seed, cell.balance, cell.tag,
                 audit)
        for cell in cells
        for seed in seed_stream(cell.base_seed, cell.runs)
    ]
    stop_check = None
    if policy is not None:
        # Streaming hint for the engine: stop scheduling once the
        # policy would stop on the in-order prefix.  This only sheds
        # compute — the authoritative decision is re-derived in _fold.
        seen_cuts: List[float] = []
        seen_seconds = [0.0]

        def stop_check(unit_result: "UnitResult") -> bool:
            if unit_result.error is not None:
                return False
            seen_cuts.append(unit_result.result.cut)
            seen_seconds[0] += unit_result.seconds
            return policy.decide(seen_cuts, seen_seconds[0]).stop

    start = time.perf_counter()
    slots: List[Optional["UnitResult"]] = [None] * len(units)
    for unit_result in engine.run(
        units, run_id=run_id, resume=resume, stop_check=stop_check
    ):
        slots[unit_result.index] = unit_result
    results, compute, offset = [], [], 0
    for cell in cells:
        cell_slots = slots[offset:offset + cell.runs]
        offset += cell.runs
        results.append(_fold(cell, cell_slots, policy))
        compute.append(sum(u.seconds for u in cell_slots if u is not None))
    # Split the batch wall clock across the cells in proportion to their
    # compute, so the per-cell totals sum to the wall clock.
    wall, total = time.perf_counter() - start, sum(compute)
    for result, seconds in zip(results, compute):
        share = seconds / total if total > 0 else 1 / len(cells)
        result.total_seconds = wall * share
        result.interrupted = engine.interrupted
    return results


def _fold(
    cell: Cell,
    slots: Sequence[Optional["UnitResult"]],
    policy: Optional["RestartPolicy"],
) -> MultiRunResult:
    """Fold one cell's unit results into its aggregate, in seed order.

    ``slots[i]`` holds seed ``base_seed + i``, or ``None`` when a drain
    cut the batch short before it ran.  Failed runs land in ``errors``.
    Under a ``policy`` the fold walks only the contiguous completed
    prefix and re-evaluates the policy after every successful run:
    stragglers past the stopping point (or past a drain gap) never enter
    the aggregate, so the incumbent and the stop decision are
    independent of completion order.
    """
    name = getattr(cell.partitioner, "name", type(cell.partitioner).__name__)
    result = MultiRunResult(
        algorithm=name, circuit=cell.circuit_name, runs=cell.runs,
        partitioner=cell.partitioner, graph=cell.graph, balance=cell.balance,
    )
    for unit_result in slots:
        if unit_result is None:
            if policy is not None:
                break
            continue
        if unit_result.error is not None:
            result.errors.append(unit_result)
            continue
        _record(result, unit_result.unit.seed, unit_result.result,
                unit_result.seconds)
        if policy is not None:
            decision = policy.decide(result.cuts, sum(result.run_seconds))
            if decision.stop:
                result.stop_reason = decision.reason
                break
    return result


def _record(
    result: MultiRunResult,
    seed: int,
    one: BipartitionResult,
    seconds: float,
) -> None:
    """Fold one run into the aggregate (keeps best-of-N invariants)."""
    result.seeds.append(seed)
    result.cuts.append(one.cut)
    result.run_seconds.append(seconds)
    for key, value in collect_phase_seconds(one.stats).items():
        result.phase_seconds[key] = result.phase_seconds.get(key, 0.0) + value
    if result.best is None or one.cut < result.best.cut:
        result.best = one


#: Run counts used by the paper's tables, keyed by the table row label.
PAPER_RUN_COUNTS = {
    "FM100": 100,
    "FM40": 40,
    "FM20": 20,
    "LA-2": 20,
    "LA-2x40": 40,
    "LA-3": 20,
    "PROP": 20,
    "WINDOW": 1,  # WINDOW runs FM20 internally
    "EIG1": 1,
    "MELO": 1,
    "PARABOLI": 1,
}
