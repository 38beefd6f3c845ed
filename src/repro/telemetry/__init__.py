"""Zero-overhead-when-off observability for the pass engines.

The PROP/FM/LA pass loops (and the multi-run harness above them) accept
a ``recorder`` implementing the :class:`Recorder` protocol and narrate
each run as typed events: timing spans per pass phase, per-move events
(selection key vs. realized gain), per-pass operation counters, and
pass/run lifecycle markers.

Guarantees:

* **off by default, free when off** — without a recorder (or with
  :class:`NullRecorder`) the engines skip all event emission behind a
  single identity check; the CI smoke job bounds the residual overhead
  below 2%;
* **behavior-neutral** — a recorded run makes bit-identical moves and
  cuts to an unrecorded one; a trace's per-pass cut trajectory equals
  ``BipartitionResult.pass_cuts`` exactly;
* **always-on phase timing** — per-phase wall-clock seconds land in
  ``BipartitionResult.stats`` (:data:`PHASE_STAT_KEYS`) on every run,
  recorder or not, and from there flow into cache records, engine run
  journals, :class:`~repro.multirun.MultiRunResult` and sweep points.
  One :class:`PhaseClock` times each phase once and feeds both the stat
  ``x_seconds`` and the span ``x``.

See ``docs/observability.md`` for the trace schema and CLI usage
(``repro trace summarize``).
"""

from .clock import PhaseClock
from .events import (
    ENSEMBLE_COUNTER_KEYS,
    GUARD_COUNTER_KEYS,
    MoveEvent,
    PassCounters,
    PassEvent,
    PHASE_STAT_KEYS,
    SpanEvent,
    collect_phase_seconds,
    phase_stat_key,
)
from .recorder import (
    NULL_RECORDER,
    CallbackRecorder,
    MemoryRecorder,
    NullRecorder,
    Recorder,
    TraceRecorder,
    resolve_recorder,
)
from .summary import (
    AlgorithmTrace,
    JournalGroup,
    JournalSummary,
    TraceSummary,
    summarize_path,
    summarize_run_journal,
    summarize_trace,
)

__all__ = [
    "PHASE_STAT_KEYS",
    "GUARD_COUNTER_KEYS",
    "ENSEMBLE_COUNTER_KEYS",
    "MoveEvent",
    "SpanEvent",
    "PassEvent",
    "PassCounters",
    "collect_phase_seconds",
    "phase_stat_key",
    "PhaseClock",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "MemoryRecorder",
    "TraceRecorder",
    "CallbackRecorder",
    "resolve_recorder",
    "AlgorithmTrace",
    "TraceSummary",
    "JournalGroup",
    "JournalSummary",
    "summarize_trace",
    "summarize_run_journal",
    "summarize_path",
]
