"""Telemetry event vocabulary: spans, per-move events, pass counters.

The pass engines (PROP, FM, LA — see :mod:`repro.core.engine`,
:mod:`repro.baselines.fm`, :mod:`repro.baselines.la`) describe each run
as a stream of typed events delivered to a
:class:`~repro.telemetry.recorder.Recorder`:

* **spans** — wall-clock phases of a pass (``bootstrap``, ``refine``,
  ``gain_init``, ``move_loop``, ``rollback``), each reported once per
  pass with its measured seconds;
* **moves** — one event per tentative move, carrying the selection key
  the node was chosen by (probabilistic gain for PROP, Eqn-1 gain for
  FM, the lookahead vector for LA) and the realized immediate cut gain;
* **counters** — per-pass operation counts (:class:`PassCounters`):
  container updates, probability refreshes, neighbor/top-k refreshes,
  sub-round batch and n-level contraction statistics;
* **pass/run lifecycle** — pass boundaries with the post-rollback cut
  (the trace twin of ``BipartitionResult.pass_cuts``) and run boundaries
  with the final stats.

Phase seconds also flow into ``BipartitionResult.stats`` under the
:data:`PHASE_STAT_KEYS` names (span ``x`` is stat ``x_seconds``,
:func:`phase_stat_key`), whether or not a recorder is attached, so
aggregation (:func:`collect_phase_seconds`) works on cached results, run
journals and multi-run aggregates alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping


def phase_stat_key(name: str) -> str:
    """The ``stats`` key of phase (span) ``name``: ``<name>_seconds``."""
    return f"{name}_seconds"


#: ``BipartitionResult.stats`` keys holding per-phase wall-clock seconds,
#: all timed by :class:`repro.telemetry.PhaseClock`.  ``bootstrap``/
#: ``refine`` are PROP-only (Fig. 2 steps 3-4); ``gain_init`` is the
#: FM/LA container build; ``audit_seconds`` is the time spent in
#: :mod:`repro.audit` hooks (excluded from ``runtime_seconds``).
PHASE_STAT_KEYS = (
    "bootstrap_seconds",
    "refine_seconds",
    "gain_init_seconds",
    "move_loop_seconds",
    "rollback_seconds",
    "audit_seconds",
    # n-level engine phases (repro.multilevel.uncoarsen): PQ coarsening,
    # uncoarsening, which contains the batched region-local refinement
    # and the interleaved full stage refines.
    "coarsen_seconds",
    "uncoarsen_seconds",
    "local_refine_seconds",
    "stage_refine_seconds",
)

#: Guard-layer counters surfaced by the service's ``/v1/stats`` payload
#: (``guard`` section) and recorded into quarantine diagnostics bundles.
#: ``shed_*`` counts 429 rejections by exhausted limit; the rest count
#: deadline expiries and quarantine breaker trips.
GUARD_COUNTER_KEYS = (
    "shed_queue_depth",
    "shed_tenant_inflight",
    "shed_memory",
    "deadline_expired",
    "quarantine_trips",
)

#: Ensemble-layer counters emitted by
#: :func:`repro.analysis.ensembles.ensemble_solve` through the standard
#: ``Recorder.counters`` hook (pass index ``-1``: batch scope).
#: ``ensemble_runs_used``/``ensemble_runs_saved`` account the restart
#: budget; exactly one ``ensemble_stop_<reason>`` key (reason as in
#: :data:`repro.analysis.ensembles.STOP_REASONS`, plus ``interrupted``)
#: increments per batch.
ENSEMBLE_COUNTER_KEYS = (
    "ensemble_runs_used",
    "ensemble_runs_saved",
    "ensemble_stop_converged",
    "ensemble_stop_target_reached",
    "ensemble_stop_budget_exhausted",
    "ensemble_stop_time_exhausted",
    "ensemble_stop_interrupted",
)


def collect_phase_seconds(stats: Mapping[str, Any]) -> Dict[str, float]:
    """The per-phase timing entries of one result's ``stats`` dict.

    Returns ``{phase_key: seconds}`` restricted to :data:`PHASE_STAT_KEYS`
    (absent keys are simply omitted, so pre-telemetry records aggregate
    to an empty dict instead of raising).
    """
    out: Dict[str, float] = {}
    for key in PHASE_STAT_KEYS:
        value = stats.get(key)
        if isinstance(value, (int, float)):
            out[key] = float(value)
    return out


@dataclass(frozen=True)
class MoveEvent:
    """One tentative move as observed by a recorder.

    ``selection_key`` is whatever ordered key the engine picked the node
    by — a float gain for PROP/FM, a tuple gain vector for LA —
    ``immediate_gain`` the realized cut delta of the move.
    """

    pass_index: int
    move_index: int
    node: int
    from_side: int
    selection_key: Any
    immediate_gain: float


@dataclass(frozen=True)
class SpanEvent:
    """One completed timing span (phase ``name`` of pass ``pass_index``)."""

    pass_index: int
    name: str
    seconds: float


@dataclass(frozen=True)
class PassEvent:
    """End-of-pass summary: post-rollback cut, kept prefix, pass Gmax."""

    pass_index: int
    cut: float
    moves: int
    kept: int
    gmax: float
    seconds: float


class PassCounters:
    """Operation counts accumulated over one pass (cheap int bumps).

    Engines allocate one of these per pass *only when a recorder is
    enabled* and thread it through their update helpers, so the
    zero-overhead-when-off contract holds: with no recorder the hot
    loops see a ``None`` and skip every increment behind a single
    identity check.
    """

    __slots__ = (
        "moves",
        "neighbor_updates",
        "topk_updates",
        "container_updates",
        "probability_refreshes",
        "subrounds",
        "subround_batch_nodes",
        "subround_conflicts",
        "subround_balance_rejects",
        "contractions",
        "ratings_updated",
        "rescued_nodes",
        "uncontract_batches",
    )

    def __init__(self) -> None:
        self.moves = 0
        self.neighbor_updates = 0
        self.topk_updates = 0
        self.container_updates = 0
        self.probability_refreshes = 0
        # Subround kernel only (repro.kernels.subround): batches applied,
        # nodes moved in them, and candidates rejected during selection
        # for net conflicts / balance.
        self.subrounds = 0
        self.subround_batch_nodes = 0
        self.subround_conflicts = 0
        self.subround_balance_rejects = 0
        # n-level coarsening/uncoarsening (repro.multilevel.nlevel /
        # .uncoarsen): contracted pairs, PQ reratings, stranded nodes
        # rescued by sampled-pin ratings, and uncontraction batches.
        self.contractions = 0
        self.ratings_updated = 0
        self.rescued_nodes = 0
        self.uncontract_batches = 0

    def as_dict(self) -> Dict[str, int]:
        """Non-zero counters as a plain dict (compact trace lines)."""
        return {
            name: value
            for name in self.__slots__
            if (value := getattr(self, name))
        }
