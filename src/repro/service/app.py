"""The service orchestrator: queue + workers + engine + durability.

:class:`PartitionService` is the transport-free core of the service —
the HTTP layer (:mod:`repro.service.api`) is a thin veneer over its
``submit`` / ``get_job`` / ``cancel`` / ``stats`` methods, which makes
the whole lifecycle unit-testable without sockets.

Execution model: one asyncio event loop owns the queue, the SSE bus
and all bookkeeping; ``job_workers`` worker *tasks* pull jobs from the
:class:`~repro.service.queue.FairQueue` and run each job's engine batch
in a thread (``asyncio.to_thread``) — the engine is synchronous and
each small job is CPU-bound for milliseconds, so threads per job (not
per unit) keeps the loop responsive while the GIL arbitrates the rest.
Setting ``engine_workers > 1`` additionally fans each job's units out
to a process pool, reusing the engine's pool fault handling verbatim.

Durability invariants (what the load smoke's kill-and-restart proves):

* a job is journalled (``kind: job``) *before* submit returns its id —
  an acknowledged job survives any later crash;
* every unit an engine completes is journalled by the engine before the
  next is started — a killed job resumes with completed units served
  from its run journal, not recomputed;
* every state transition is journalled after the in-memory transition
  commits — replay lands each job in its last acknowledged state, and
  jobs that died mid-``running`` come back ``queued`` + ``recovered``.

Determinism: per-job seeds come from the spec (explicit or
content-derived), unit seeds follow :func:`repro.engine.seed_stream`,
and the engine folds results in unit order — so cuts are bit-identical
to a serial in-process reference run regardless of worker counts,
restarts, or injected faults.
"""

from __future__ import annotations

import asyncio
import logging
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..engine import Engine, EngineConfig, ProgressEvent
from ..engine.cache import ResultCache, default_cache_dir
from ..guard import (
    RLIMIT_ENV,
    AdmissionController,
    OverloadedError,
    QuarantinedError,
    QuarantineRegistry,
    RssWatchdog,
    quarantine_dir,
)
from ..telemetry import GUARD_COUNTER_KEYS, CallbackRecorder
from .jobs import JOB_STATES, TERMINAL_STATES, Job, job_id_for
from .queue import FairQueue, QueueClosed, QueueFull
from .recovery import ServiceJournal, jobs_journal_path, recover
from .schemas import JobSpec, SchemaError, build_graph, build_units, parse_job_spec
from .sse import EventBus

log = logging.getLogger("repro.service")

#: Telemetry events forwarded to SSE (moves excluded: too chatty).
TRACE_EVENTS = ("run_start", "pass_end", "run_end")


class JobNotFound(KeyError):
    """No job with the requested id."""


class ServiceStopping(RuntimeError):
    """Submission rejected: the service is shutting down (HTTP 503)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Service knobs (HTTP binding + execution + durability).

    ``engine_workers=0`` (in-process units) is the right default for
    swarms of small jobs: job-level concurrency comes from
    ``job_workers`` threads, and process pools per tiny job would cost
    more in fork overhead than they buy.  Raise it for services fed few
    large jobs.
    """

    host: str = "127.0.0.1"
    port: int = 8642
    cache_dir: Optional[str] = None
    use_cache: bool = True
    #: Process-pool size per engine batch (0/1 = in-process units).
    engine_workers: int = 0
    #: Concurrent job executions (worker tasks, each running one job).
    job_workers: int = 8
    #: Tenant -> weight for the fair queue (absent tenants weigh 1.0).
    tenant_weights: Dict[str, float] = field(default_factory=dict)
    #: Largest accepted request body (inline netlists can be big).
    max_body_bytes: int = 32 * 1024 * 1024
    #: Verify the result cache on startup, dropping corrupt entries.
    integrity_check: bool = True
    #: Per-unit wall-clock budget, or None for unbounded.
    unit_timeout: Optional[float] = None
    #: Seconds of SSE silence before a heartbeat comment.
    sse_heartbeat: float = 15.0
    #: Terminal jobs kept in memory; the oldest-finished beyond this are
    #: evicted (status/result then 404, but their journals remain — a
    #: long-lived service no longer grows without bound).  0 = unlimited.
    max_job_history: int = 10000
    # -- guard layer (repro.guard; see docs/guard.md) ------------------
    #: Max queued (admitted, not yet running) jobs; 0 = unbounded.
    #: Beyond it, submissions shed with HTTP 429 + Retry-After.
    max_queue_depth: int = 0
    #: Tenant -> max in-flight (queued + running) jobs.
    tenant_inflight_caps: Dict[str, int] = field(default_factory=dict)
    #: In-flight cap for tenants absent from the map; 0 = uncapped.
    default_tenant_inflight: int = 0
    #: Wall-clock budget (seconds from execution start) for jobs whose
    #: spec carries no ``deadline_seconds``; None = unbounded.
    default_job_deadline: Optional[float] = None
    #: Consecutive failed/deadline/crash outcomes before a spec
    #: fingerprint is quarantined.  0 disables the breaker.
    quarantine_after: int = 3
    #: Shed new admissions while service RSS exceeds this (MiB);
    #: None disables the watchdog.
    memory_high_water_mb: Optional[float] = None
    #: RSS watchdog poll interval, seconds.
    memory_poll_seconds: float = 0.5
    #: ``RLIMIT_AS`` soft cap (MiB) applied inside pool/shm workers via
    #: the REPRO_WORKER_RLIMIT_MB env; None leaves workers uncapped.
    worker_rlimit_mb: Optional[float] = None
    #: Clamp for the computed Retry-After header, seconds.
    min_retry_after: int = 1
    max_retry_after: int = 60

    def resolved_cache_dir(self) -> str:
        """The effective cache root (explicit or the engine default)."""
        return self.cache_dir or default_cache_dir()


class PartitionService:
    """Transport-free service core: accept, schedule, execute, recover.

    Lifecycle::

        service = PartitionService(ServiceConfig())
        await service.start()      # recovery replay + worker tasks
        ...
        await service.stop()       # drain-free stop; jobs resume next start
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.jobs: Dict[str, Job] = {}
        self.queue = FairQueue(
            self.config.tenant_weights,
            max_depth=self.config.max_queue_depth,
        )
        self.journal = ServiceJournal(
            jobs_journal_path(self.config.resolved_cache_dir())
        )
        self.watchdog: Optional[RssWatchdog] = None
        if self.config.memory_high_water_mb is not None:
            self.watchdog = RssWatchdog(
                high_water_bytes=int(
                    self.config.memory_high_water_mb * 1024 * 1024
                ),
                poll_seconds=self.config.memory_poll_seconds,
            )
        self.admission = AdmissionController(
            max_queue_depth=self.config.max_queue_depth,
            tenant_caps=self.config.tenant_inflight_caps,
            default_tenant_cap=self.config.default_tenant_inflight,
            job_workers=max(1, self.config.job_workers),
            min_retry_after=self.config.min_retry_after,
            max_retry_after=self.config.max_retry_after,
            memory_shedding=(
                self.watchdog.check_now if self.watchdog is not None else None
            ),
        )
        self.quarantine = QuarantineRegistry(
            quarantine_dir(self.config.resolved_cache_dir()),
            quarantine_after=max(1, self.config.quarantine_after),
        )
        self.guard_counters: Dict[str, int] = {
            key: 0 for key in GUARD_COUNTER_KEYS
        }
        self.bus: Optional[EventBus] = None
        self.integrity: Optional[Dict[str, Any]] = None
        self.recovered_jobs = 0
        self._seq = 0
        self._workers: List[asyncio.Task] = []
        # In-flight settles by job id (see _finish); stop() waits for
        # them instead of cancelling them.
        self._settles: Dict[str, asyncio.Task] = {}
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Replay the journals, then start the worker tasks."""
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        loop = asyncio.get_running_loop()
        self.bus = EventBus(loop)

        if self.config.worker_rlimit_mb is not None:
            # Environment is the one channel that reaches every pool
            # and shm worker (same mechanism as REPRO_FAULTS); applied
            # by pool_worker_init in each child.
            os.environ[RLIMIT_ENV] = f"{self.config.worker_rlimit_mb:g}"
        if self.watchdog is not None:
            self.watchdog.start()

        if self.config.integrity_check and self.config.use_cache:
            self.integrity = await asyncio.to_thread(self._verify_cache)

        state = await asyncio.to_thread(recover, self.config.resolved_cache_dir())
        self._seq = state.max_seq + 1
        for job in state.finished:
            self.jobs[job.job_id] = job
            self.bus.publish(job.job_id, "state", self._state_payload(job))

        # A job running at the moment of a crash is the prime poison
        # suspect: strike its fingerprint before deciding to re-run it.
        crashed = set(state.running_at_crash)
        for job in state.pending:
            self.jobs[job.job_id] = job
            job.deadline_seconds = (
                job.spec.deadline_seconds
                if job.spec.deadline_seconds is not None
                else self.config.default_job_deadline
            )
            if job.job_id in crashed and self.config.quarantine_after > 0:
                await asyncio.to_thread(
                    self._record_strike, job, "crash_recovery",
                    "process died while this job was running",
                )
            if self.quarantine.is_quarantined(job.spec.fingerprint()):
                # Quarantined during this replay (or a prior run):
                # settle instead of re-running the poison.
                job.error = (
                    f"quarantined: fingerprint {job.spec.fingerprint()[:12]} "
                    f"tripped the poison-job breaker"
                )
                self.bus.publish(
                    job.job_id, "state", self._state_payload(job)
                )
                await self._finish(job, "failed", count_strike=False)
                continue
            self.bus.publish(job.job_id, "state", self._state_payload(job))
            self.admission.note_admitted(job.spec.tenant)
            # force=True: these jobs were admitted before the restart
            # and must never be shed by the depth bound.
            await self.queue.put(job, cost=float(job.spec.runs), force=True)
        self.recovered_jobs = state.total
        if state.total:
            log.info(
                "recovered %d job(s): %d to re-run, %d finished",
                state.total, len(state.pending), len(state.finished),
            )

        for n in range(max(1, self.config.job_workers)):
            self._workers.append(
                asyncio.create_task(self._worker(), name=f"job-worker-{n}")
            )

    def _verify_cache(self) -> Dict[str, Any]:
        """Startup cache scrub; corrupt entries are removed, not fatal."""
        cache = ResultCache(root=self.config.resolved_cache_dir())
        report = cache.verify(remove=True)
        if report.corrupt:
            log.warning("cache verify: %s", report.summary())
        return {
            "scanned": report.scanned,
            "ok": report.ok,
            "corrupt": report.corrupt,
            "removed": report.removed,
        }

    async def stop(self) -> None:
        """Stop accepting and executing; queued jobs persist for restart.

        Running engine batches are cancelled cooperatively (their
        completed units are already journalled) — this is the same path
        a SIGTERM takes, and recovery owns whatever is left.  A settle
        that has begun runs to its end first, so its terminal state is
        journalled.
        """
        await self.queue.close()
        for job in self.jobs.values():
            if job.state == "running":
                job.cancel_token.cancel()
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers.clear()
        if self._settles:
            await asyncio.gather(
                *self._settles.values(), return_exceptions=True
            )
        if self.bus is not None:
            # End every open SSE stream: jobs that will never reach a
            # terminal state in this process must not hold connection
            # handlers (and the HTTP server's wait_closed) open forever.
            self.bus.close()
        if self.watchdog is not None:
            self.watchdog.stop()
        self.journal.close()
        self.quarantine.close()

    # ------------------------------------------------------------------
    # Client-facing operations (called from the event loop)
    # ------------------------------------------------------------------
    async def submit(self, payload: Any) -> Job:
        """Validate, journal and enqueue one submission.

        Raises :exc:`SchemaError` on a bad payload (the HTTP layer maps
        it to 400), :exc:`QuarantinedError` for a quarantined spec
        fingerprint (409), :exc:`OverloadedError` when admission limits
        shed the submission (429 + Retry-After) and
        :exc:`ServiceStopping` once shutdown has begun (503).  The job
        record hits the journal before this returns, so an acknowledged
        submission is durable.
        """
        if self.queue.closed:
            raise ServiceStopping("service is shutting down")
        spec = parse_job_spec(payload)
        if self.config.quarantine_after > 0:
            self.quarantine.check(spec.fingerprint())
        # Admission *before* the (possibly expensive) inline parse:
        # shedding must stay cheap under overload.  admit() reserves the
        # job's queue + tenant slots, so any later rejection on this
        # path must release them.
        self.admission.admit(spec.tenant)
        try:
            if "hgr" in spec.graph:
                # Parse inline netlists at the door: a malformed graph
                # must 400 at submit, not fail a queued job minutes
                # later.
                await asyncio.to_thread(build_graph, spec)
            seq = self._seq
            self._seq += 1
            job = Job(job_id=job_id_for(seq, spec), spec=spec)
            if job.job_id in self.jobs:
                # Same spec resubmitted never collides: seq differs. A
                # true duplicate id means a journal/seq inconsistency —
                # refuse.
                raise SchemaError(f"job id collision for {job.job_id}")
        except BaseException:
            self.admission.note_finished(spec.tenant, was_queued=True)
            raise
        job.deadline_seconds = (
            spec.deadline_seconds
            if spec.deadline_seconds is not None
            else self.config.default_job_deadline
        )
        self.jobs[job.job_id] = job
        await asyncio.to_thread(self.journal.append_job, job, seq)
        await asyncio.to_thread(self.journal.append_state, job.job_id, "queued")
        self._publish_state(job)
        try:
            # force=True: the admission controller already holds the
            # depth bound; the queue's own check would double-count.
            await self.queue.put(job, cost=float(spec.runs), force=True)
        except QueueClosed:
            # Shutdown raced the journal append: the job is already
            # durable, so it is accepted-for-restart — recovery re-runs
            # it on the next start — rather than a late 5xx.
            log.info(
                "job %s accepted during shutdown; runs on next start",
                job.job_id,
            )
        return job

    def get_job(self, job_id: str) -> Job:
        """The job with ``job_id``, or raise :exc:`JobNotFound`."""
        try:
            return self.jobs[job_id]
        except KeyError:
            raise JobNotFound(job_id) from None

    def list_jobs(
        self, state: Optional[str] = None, tenant: Optional[str] = None
    ) -> List[Job]:
        """Jobs filtered by state and/or tenant, in submission order."""
        out = []
        for job in self.jobs.values():
            if state is not None and job.state != state:
                continue
            if tenant is not None and job.spec.tenant != tenant:
                continue
            out.append(job)
        return out

    async def cancel(self, job_id: str) -> Job:
        """Cancel a job in any non-terminal state (idempotent).

        Queued jobs are withdrawn immediately; running jobs get their
        token fired and reach ``cancelled`` once the engine drains.
        """
        job = self.get_job(job_id)
        if job.terminal:
            return job
        removed = await self.queue.remove(job_id)
        job.cancel_token.cancel()
        if removed is not None:
            await self._finish(job, "cancelled", was_queued=True)
        return job

    async def stats(self) -> Dict[str, Any]:
        """The ``/v1/stats`` payload."""
        by_state = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            by_state[job.state] += 1
        payload: Dict[str, Any] = {
            "jobs": by_state,
            "total_jobs": len(self.jobs),
            "queue": await self.queue.snapshot(),
            "recovered_jobs": self.recovered_jobs,
            "journal": {
                "appended": self.journal.appended,
                "errors": self.journal.errors,
            },
            "workers": {
                "job_workers": len(self._workers),
                "engine_workers": self.config.engine_workers,
            },
            "guard": self.guard_stats(),
        }
        if self.integrity is not None:
            payload["cache_integrity"] = self.integrity
        return payload

    def guard_stats(self) -> Dict[str, Any]:
        """The guard section of ``/v1/stats`` (admission + memory +
        quarantine), keyed by :data:`repro.telemetry.GUARD_COUNTER_KEYS`
        vocabulary for the counters."""
        admission = self.admission.snapshot()
        counters = dict(self.guard_counters)
        for reason, count in admission["shed"].items():
            counters[f"shed_{reason}"] = count
        payload: Dict[str, Any] = {
            "counters": counters,
            "admission": admission,
            "quarantine": self.quarantine.snapshot(),
            "retry_after_seconds": self.admission.retry_after_seconds(),
        }
        if self.watchdog is not None:
            payload["memory"] = {
                "rss_bytes": self.watchdog.last_rss,
                "peak_rss_bytes": self.watchdog.peak_rss,
                "high_water_bytes": self.watchdog.high_water_bytes,
                "shedding": self.watchdog.shedding,
            }
        return payload

    def readiness(self) -> Dict[str, Any]:
        """The ``/readyz`` payload: can this process accept work *now*?

        Distinct from liveness (``/healthz``, which only proves the
        loop is serving): readiness degrades whenever a new submission
        would be shed or could not be made durable — queue at depth,
        memory above high water, jobs journal unwritable, or the cache
        integrity scrub still pending.  Load balancers should route
        away from a degraded instance; it is still alive and draining.
        """
        checks: Dict[str, bool] = {}
        checks["started"] = self._started and not self.queue.closed
        checks["queue_headroom"] = (
            self.config.max_queue_depth == 0
            or self.admission.queued < self.config.max_queue_depth
        )
        checks["memory"] = not (
            self.watchdog is not None and self.watchdog.check_now()
        )
        journal_dir = self.journal.path.parent
        checks["journal_writable"] = (
            self.journal.errors == 0
            and (not journal_dir.exists() or os.access(journal_dir, os.W_OK))
        )
        checks["cache_verified"] = (
            not (self.config.integrity_check and self.config.use_cache)
            or self.integrity is not None
        )
        ready = all(checks.values())
        payload: Dict[str, Any] = {
            "ready": ready,
            "checks": checks,
        }
        if not ready:
            payload["retry_after"] = self.admission.retry_after_seconds()
        return payload

    def ensure_results(self, job: Job) -> bool:
        """Rehydrate a recovered ``done`` job's results from its run journal.

        Recovery restores job *states* from the jobs journal; the unit
        results themselves already live in the engine's per-run journal
        (fsynced before the job could reach ``done``), so a restarted
        server serves results without recomputing anything.  Returns
        whether ``job.results`` is populated afterwards.
        """
        if job.results is not None:
            return True
        if job.state != "done":
            return False
        from ..engine.journal import iter_journal_records, journal_path
        from ..engine.records import decode_result

        path = journal_path(
            self.config.resolved_cache_dir(), job.run_id
        )
        base = job.spec.effective_seed()
        rows: Dict[int, Dict[str, Any]] = {}
        for record in iter_journal_records(path):
            if record.get("type") != "unit":
                continue
            seed = record.get("seed")
            if not isinstance(seed, int):
                continue
            index = seed - base
            if not 0 <= index < job.spec.runs:
                continue
            try:
                result = decode_result(record)
            except (ValueError, KeyError, TypeError):
                continue
            rows[index] = {
                "seed": seed,
                "index": index,
                "seconds": round(float(record.get("seconds", 0.0)), 6),
                "source": "journal",
                "cached": True,
                "cut": result.cut,
                "passes": result.passes,
            }
        if len(rows) == job.spec.runs:
            job.results = [rows[i] for i in range(job.spec.runs)]
            return True
        return False

    # ------------------------------------------------------------------
    # Execution (worker tasks + engine threads)
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        """One worker task: pull, execute, settle — forever.

        Nothing a single job does may kill the worker: an exception
        escaping the settle path (e.g. a payload encoding bug) is
        logged, the job is force-failed, and the worker keeps pulling —
        otherwise one bad job would permanently shrink the pool.
        """
        while True:
            try:
                job = await self.queue.get()
            except QueueClosed:
                return
            try:
                await self._run_job(job)
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - pool must survive any job
                log.exception(
                    "job %s escaped settling; failing it and continuing",
                    job.job_id,
                )
                job.error = job.error or "internal error while settling job"
                try:
                    await self._finish(job, "failed")
                except Exception:  # noqa: BLE001 - last-ditch settle
                    log.exception("failsafe settle of job %s failed", job.job_id)

    async def _run_job(self, job: Job) -> None:
        self.admission.note_started()
        if job.cancel_token.cancelled:
            await self._finish(job, "cancelled")
            return
        if not job.transition("running"):
            return  # lost a race with cancel
        await asyncio.to_thread(self.journal.append_state, job.job_id, "running")
        self._publish_state(job)

        # Cooperative deadline: when the budget expires the engine is
        # told to drain (cancel token) and the settle below lands the
        # job in the deterministic "deadline" terminal state.  The hard
        # backstop is the engine's per-unit timeout (see _execute).
        deadline_handle: Optional[asyncio.TimerHandle] = None
        if job.deadline_seconds is not None:

            def _expire() -> None:
                if not job.terminal:
                    job.deadline_expired = True
                    job.cancel_token.cancel()

            deadline_handle = asyncio.get_running_loop().call_later(
                job.deadline_seconds, _expire
            )
        try:
            results, interrupted = await asyncio.to_thread(self._execute, job)
        except asyncio.CancelledError:
            # Service stopping: leave the job for recovery (journal
            # still says "running" -> replays as queued+recovered).
            job.cancel_token.cancel()
            raise
        except Exception as exc:  # noqa: BLE001 - job must settle
            log.exception("job %s failed", job.job_id)
            job.error = f"{type(exc).__name__}: {exc}"
            await self._finish(job, "failed")
            return
        finally:
            if deadline_handle is not None:
                deadline_handle.cancel()
        job.results = results
        # "deadline" only when the expiry actually interrupted the
        # engine: a timer firing in the instant after the last unit
        # completed must not reclassify a finished job.
        if job.deadline_expired and interrupted:
            job.error = (
                f"deadline of {job.deadline_seconds:g}s exceeded; "
                f"{sum(1 for r in results if r.get('cut') is not None)}"
                f"/{job.spec.runs} units completed"
            )
            await self._finish(job, "deadline")
        elif interrupted:
            await self._finish(job, "cancelled")
        elif any(r.get("error") for r in results):
            job.error = next(r["error"] for r in results if r.get("error"))
            await self._finish(job, "failed")
        else:
            await self._finish(job, "done")

    def _execute(self, job: Job):
        """Run one job's engine batch (worker thread).

        Always journalled (``run_id=job.run_id``) and always
        ``resume=True`` — a fresh job's journal is empty so resume is a
        no-op, and a recovered job's journal serves every unit that
        finished before the crash.
        """
        assert self.bus is not None
        material = build_units(job.spec, tag=job.spec.tag or job.job_id)
        bus = self.bus

        def on_trace(event: str, payload: Dict[str, Any]) -> None:
            bus.publish_threadsafe(
                job.job_id, "trace", dict(payload, event=event)
            )

        def on_progress(event: ProgressEvent) -> None:
            snapshot = {
                "done": event.done,
                "total": event.total,
                "elapsed_seconds": round(event.elapsed_seconds, 6),
                "throughput": round(event.throughput, 3),
                "eta_seconds": round(event.eta_seconds, 3),
                "latest_cut": (
                    event.latest.result.cut if event.latest.ok else None
                ),
                "latest_source": event.latest.source,
            }
            job.progress.update(snapshot)
            bus.publish_threadsafe(job.job_id, "progress", snapshot)

        # The job deadline doubles as a hard per-unit budget: no single
        # unit may outlive the job's whole allowance, so even a hung
        # pool worker cannot stall past roughly one deadline.
        timeouts = [
            t for t in (self.config.unit_timeout, job.deadline_seconds)
            if t is not None
        ]
        engine = Engine(
            EngineConfig(
                workers=self.config.engine_workers,
                cache_dir=self.config.resolved_cache_dir(),
                use_cache=self.config.use_cache,
                on_error="collect",
                handle_signals=False,
                timeout=min(timeouts) if timeouts else None,
                recorder=CallbackRecorder(on_trace, events=TRACE_EVENTS),
            )
        )
        unit_results = engine.run(
            material.units,
            progress=on_progress,
            run_id=job.run_id,
            resume=True,
            cancel=job.cancel_token,
        )
        results = [self._encode_unit(r) for r in unit_results]
        return results, engine.interrupted

    @staticmethod
    def _encode_unit(unit_result) -> Dict[str, Any]:
        """One unit's JSON-ready result row."""
        row: Dict[str, Any] = {
            "seed": unit_result.unit.seed,
            "index": unit_result.index,
            "seconds": round(unit_result.seconds, 6),
            "source": unit_result.source,
            "cached": unit_result.cached,
        }
        if unit_result.ok:
            row["cut"] = unit_result.result.cut
            row["passes"] = unit_result.result.passes
        else:
            row["cut"] = None
            row["error"] = (
                f"{unit_result.error.exc_type}: {unit_result.error.message}"
            )
        return row

    # ------------------------------------------------------------------
    # Settling + events
    # ------------------------------------------------------------------
    async def _finish(
        self,
        job: Job,
        state: str,
        was_queued: bool = False,
        count_strike: bool = True,
    ) -> None:
        """Settle ``job`` in the terminal ``state`` (no-op when the job
        is already terminal or settling).

        The state is in the jobs journal before the job shows it, so a
        restart never sees less than a caller did.  The settle runs as
        its own task: cancelling the caller (as :meth:`stop` cancels the
        workers) does not cut it short, and :meth:`stop` waits for it.
        """
        if state not in TERMINAL_STATES:
            raise ValueError(f"not a terminal job state: {state!r}")
        if job.terminal or job.job_id in self._settles:
            return
        settle = asyncio.ensure_future(
            self._settle(job, state, was_queued, count_strike)
        )
        self._settles[job.job_id] = settle
        await asyncio.shield(settle)

    async def _settle(
        self, job: Job, state: str, was_queued: bool, count_strike: bool
    ) -> None:
        if state == "deadline":
            self.guard_counters["deadline_expired"] += 1
        try:
            if count_strike and self.config.quarantine_after > 0:
                if state == "done":
                    await asyncio.to_thread(
                        self.quarantine.record_success, job.spec.fingerprint()
                    )
                elif state in ("failed", "deadline"):
                    await asyncio.to_thread(
                        self._record_strike, job, state, job.error or ""
                    )
            await asyncio.to_thread(
                self.journal.append_state, job.job_id, state
            )
            job.transition(state)
        finally:
            del self._settles[job.job_id]
        self.admission.note_finished(job.spec.tenant, was_queued=was_queued)
        if job.started_at is not None and job.finished_at is not None:
            self.admission.service_times.observe(
                job.finished_at - job.started_at
            )
        self._publish_state(job)
        self._evict_history()

    def _record_strike(self, job: Job, reason: str, detail: str) -> None:
        """One quarantine strike for ``job``'s fingerprint (any thread).

        The diagnostics dict becomes the bundle if this strike trips
        the breaker: everything needed to reproduce and debug the
        poison offline — the spec payload, its effective seed, the
        error, the last progress snapshot, and the guard counters at
        trip time.
        """
        failed_units = [
            row for row in (job.results or []) if row.get("error")
        ][:8]
        diagnostics = {
            "spec": job.spec.payload(),
            "effective_seed": job.spec.effective_seed(),
            "run_id": job.run_id,
            "error": job.error,
            "failed_units": failed_units,
            "progress": dict(job.progress),
            "guard_counters": dict(self.guard_counters),
            "shed_counts": dict(self.admission.shed_counts),
        }
        entry = self.quarantine.record_strike(
            job.spec.fingerprint(),
            reason,
            job_id=job.job_id,
            detail=detail[:2000],
            diagnostics=diagnostics,
        )
        if entry is not None:
            self.guard_counters["quarantine_trips"] += 1
            log.warning(
                "quarantined spec fingerprint %s after %d consecutive "
                "failures (bundle: %s)",
                job.spec.fingerprint()[:12],
                entry["strikes"],
                entry["bundle"],
            )

    def _evict_history(self) -> None:
        """Bound in-memory job history to ``max_job_history`` terminals.

        Oldest-finished terminal jobs are dropped from ``self.jobs`` and
        the event bus replay cache; their results stay durable in the
        run journals, so this trades 404s on ancient job ids for a flat
        memory profile under sustained traffic.
        """
        cap = self.config.max_job_history
        if cap <= 0:
            return
        terminal = [j for j in self.jobs.values() if j.terminal]
        excess = len(terminal) - cap
        if excess <= 0:
            return
        terminal.sort(key=lambda j: j.finished_at or 0.0)
        for job in terminal[:excess]:
            self.jobs.pop(job.job_id, None)
            if self.bus is not None:
                self.bus.forget(job.job_id)

    def _state_payload(self, job: Job) -> Dict[str, Any]:
        return job.status_payload()

    def _publish_state(self, job: Job) -> None:
        if self.bus is not None:
            self.bus.publish(job.job_id, "state", self._state_payload(job))
