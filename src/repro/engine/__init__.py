"""``repro.engine`` — parallel experiment-execution engine.

The paper's evaluation protocol (Sec. 4: best cut over N runs from random
initial partitions, for every circuit × algorithm pair) is embarrassingly
parallel: each run is an independent, independently-seeded
:class:`WorkUnit`.  This package schedules those units onto a process
pool, memoizes finished runs in a content-addressed on-disk cache, and
degrades gracefully to in-process execution when a pool is unavailable —
while guaranteeing bit-identical results whatever the worker count.

Robustness (see ``docs/robustness.md``): transient failures retry with
deterministic backoff, permanent ones can be collected per unit instead
of aborting the batch (``on_error='collect'``), cache records carry
integrity checksums, journalled runs (``run_id=``) survive crashes and
signals and resume without recomputing completed units, and the whole
failure surface is exercised by the seeded fault injector of
:mod:`repro.faults`.

Quick start::

    from repro.engine import Engine, EngineConfig, WorkUnit

    engine = Engine(EngineConfig(workers=4))
    units = [WorkUnit(graph, PropPartitioner(), seed=s) for s in range(20)]
    best = min(engine.run(units), key=lambda r: r.result.cut)

Higher layers rarely touch units directly: ``run_many``, ``run_table2``
and ``sweep_prop_config`` submit their grids as one batch through
:func:`repro.multirun.run_cells` — to the ``engine=`` you pass, else to
an in-process, uncached one.  See ``docs/engine.md`` for architecture,
cache layout, and determinism guarantees.
"""

from .cache import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    CacheStats,
    ResultCache,
    VerifyReport,
    default_cache_dir,
)
from .engine import (
    ON_ERROR_POLICIES,
    WORKERS_ENV,
    Engine,
    EngineConfig,
    EngineStats,
    ProgressEvent,
    UnitError,
    UnitResult,
    backoff_delay,
    default_workers,
)
from .journal import RunJournal, journal_path, list_runs, validate_run_id
from .records import (
    RECORD_FORMAT,
    checksum_ok,
    decode_result,
    encode_result,
    record_checksum,
)
from .signals import CancelToken, SignalGuard
from .units import (
    WorkUnit,
    balance_fingerprint,
    hypergraph_fingerprint,
    partitioner_fingerprint,
    seed_stream,
    unit_key,
)
from .workers import WorkerOutcome, execute_unit, pool_worker_init

__all__ = [
    "Engine",
    "EngineConfig",
    "EngineStats",
    "ProgressEvent",
    "UnitResult",
    "UnitError",
    "ON_ERROR_POLICIES",
    "WorkUnit",
    "WorkerOutcome",
    "execute_unit",
    "pool_worker_init",
    "backoff_delay",
    "seed_stream",
    "unit_key",
    "hypergraph_fingerprint",
    "partitioner_fingerprint",
    "balance_fingerprint",
    "ResultCache",
    "CacheStats",
    "VerifyReport",
    "default_cache_dir",
    "default_workers",
    "RunJournal",
    "journal_path",
    "list_runs",
    "validate_run_id",
    "SignalGuard",
    "CancelToken",
    "RECORD_FORMAT",
    "encode_result",
    "decode_result",
    "record_checksum",
    "checksum_ok",
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "WORKERS_ENV",
]
