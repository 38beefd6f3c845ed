"""Durable job state: the jobs journal and crash recovery.

The engine's per-run journals make each job's *units* durable; this
module makes the *job list itself* durable, so a killed server restarts
knowing exactly which jobs existed and where each one stood.

One append-only JSONL file at ``<cache_dir>/service/jobs.jsonl``, written
through the engine's :class:`~repro.engine.journal.SealedAppender` like
the run journals — every line sealed with the :mod:`repro.engine.records`
checksum, a torn final line closed out before the next append, each
record written whole + flushed + fsynced — and read back through
:func:`iter_journal_records` so torn lines are skipped, later records
win:

* ``{"kind": "job", "job_id", "seq", "spec": {...}}`` — accepted
  submission (written before the client sees 202);
* ``{"kind": "state", "job_id", "state"}`` — every transition.

:func:`recover` replays the file into the restart plan: terminal jobs
are restored for history, ``queued``/``running`` jobs are re-enqueued
in original submission order with ``recovered=True`` — their engine
runs then resume from the per-run journals, so units completed before
the crash are never recomputed (the "zero lost work" half of the load
smoke's contract; bit-identical cuts are the other half, and follow
from deterministic seeds).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from ..engine.journal import SealedAppender, iter_journal_records
from .jobs import JOB_STATES, TERMINAL_STATES, Job, job_id_for
from .schemas import JobSpec, SchemaError, parse_job_spec

#: Subdirectory of the cache root holding service-level state.
SERVICE_SUBDIR = "service"


def jobs_journal_path(cache_dir) -> Path:
    """Location of the jobs journal under a cache root."""
    return Path(cache_dir) / SERVICE_SUBDIR / "jobs.jsonl"


class ServiceJournal(SealedAppender):
    """Append-only, checksum-sealed record of job submissions and states.

    A :class:`SealedAppender`, so thread-safe: the HTTP loop appends
    submissions while worker threads append transitions.  Like the
    engine's :class:`RunJournal`, write failures are counted, never
    raised — losing journal durability must not take down live traffic
    (the next restart just sees less).
    """

    def append_job(self, job: Job, seq: int) -> None:
        """Record an accepted submission (spec + submission ordinal)."""
        self.append(
            {
                "kind": "job",
                "job_id": job.job_id,
                "seq": seq,
                "spec": job.spec.payload(),
            }
        )

    def append_state(self, job_id: str, state: str) -> None:
        """Record one state transition."""
        self.append({"kind": "state", "job_id": job_id, "state": state})


class RecoveredState:
    """What a restart learns from the jobs journal."""

    def __init__(self) -> None:
        #: Jobs to re-enqueue, in original submission order.
        self.pending: List[Job] = []
        #: Terminal jobs, restored for status/history queries.
        self.finished: List[Job] = []
        #: Highest submission ordinal seen (id generation resumes after).
        self.max_seq: int = -1
        #: Records skipped as unparseable/stale (surfaced in stats).
        self.skipped: int = 0
        #: Job ids whose last journalled state was ``running`` — they
        #: were mid-flight when the previous process died.  The guard
        #: layer counts these as quarantine strikes against their spec
        #: fingerprints (a spec that keeps being "the job running at
        #: every crash" is the prime poison suspect).
        self.running_at_crash: List[str] = []

    @property
    def total(self) -> int:
        return len(self.pending) + len(self.finished)


def recover(cache_dir) -> RecoveredState:
    """Replay the jobs journal into a restart plan.

    Replay is idempotent and tolerant by construction: duplicate
    ``job`` records collapse onto one entry, ``state`` records for
    unknown jobs or unknown states are counted in ``skipped``, and the
    checksum layer has already dropped torn or corrupt lines before we
    see them.  Non-terminal survivors come back ``queued`` (a job that
    was mid-flight re-runs through the engine with ``resume=True``,
    which is where completed units are skipped) and ``recovered=True``.
    """
    state = RecoveredState()
    specs: Dict[str, JobSpec] = {}
    seqs: Dict[str, int] = {}
    last_state: Dict[str, str] = {}
    order: List[str] = []

    for record in iter_journal_records(jobs_journal_path(cache_dir)):
        kind = record.get("kind")
        if kind == "job":
            job_id = record.get("job_id")
            if not isinstance(job_id, str):
                state.skipped += 1
                continue
            try:
                spec = parse_job_spec(record.get("spec"))
            except SchemaError:
                state.skipped += 1
                continue
            seq = record.get("seq")
            seq = seq if isinstance(seq, int) else -1
            if job_id not in specs:
                order.append(job_id)
            specs[job_id] = spec
            seqs[job_id] = seq
            state.max_seq = max(state.max_seq, seq)
        elif kind == "state":
            job_id = record.get("job_id")
            new_state = record.get("state")
            if job_id in specs and new_state in JOB_STATES:
                last_state[job_id] = new_state
            else:
                state.skipped += 1
        else:
            state.skipped += 1

    for job_id in order:
        final = last_state.get(job_id, "queued")
        job = Job(job_id=job_id, spec=specs[job_id])
        # Spec-carried deadlines survive the replay (config-default
        # deadlines are reapplied by the service for pending jobs).
        job.deadline_seconds = specs[job_id].deadline_seconds
        if final in TERMINAL_STATES:
            job.state = final
            state.finished.append(job)
        else:
            job.recovered = True
            state.pending.append(job)
            if final == "running":
                state.running_at_crash.append(job_id)
    return state


def replayed_job_id(seq: int, spec: JobSpec) -> str:
    """Regenerate the deterministic id a submission would have gotten."""
    return job_id_for(seq, spec)
