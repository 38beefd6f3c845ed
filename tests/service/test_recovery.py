"""Jobs journal durability and restart replay."""

from __future__ import annotations

import json

from repro.engine.records import checksum_ok, seal
from repro.service.jobs import Job, job_id_for
from repro.service.recovery import (
    ServiceJournal,
    jobs_journal_path,
    recover,
)
from repro.service.schemas import parse_job_spec


def make_job(seq: int, runs: int = 1) -> Job:
    spec = parse_job_spec({
        "generate": {"kind": "random", "nodes": 8, "nets": 10, "seed": seq},
        "runs": runs,
    })
    return Job(job_id=job_id_for(seq, spec), spec=spec)


def write_history(cache_dir, transitions):
    """Journal jobs 0..n-1, each with the given state transitions."""
    journal = ServiceJournal(jobs_journal_path(cache_dir))
    jobs = []
    for seq, states in enumerate(transitions):
        job = make_job(seq)
        journal.append_job(job, seq)
        for state in states:
            journal.append_state(job.job_id, state)
        jobs.append(job)
    journal.close()
    return jobs


def test_lines_are_sealed(tmp_path):
    write_history(tmp_path, [["queued"]])
    lines = jobs_journal_path(tmp_path).read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        assert checksum_ok(json.loads(line))


def test_replay_restores_states(tmp_path):
    jobs = write_history(tmp_path, [
        ["queued", "running", "done"],
        ["queued", "running"],
        ["queued"],
        ["queued", "running", "failed"],
        ["queued", "cancelled"],
    ])
    state = recover(tmp_path)
    finished = {j.job_id: j.state for j in state.finished}
    pending = [j.job_id for j in state.pending]
    assert finished == {
        jobs[0].job_id: "done",
        jobs[3].job_id: "failed",
        jobs[4].job_id: "cancelled",
    }
    # Interrupted (running) and never-started jobs both come back
    # queued, in original submission order, flagged as recovered.
    assert pending == [jobs[1].job_id, jobs[2].job_id]
    assert all(j.recovered for j in state.pending)
    assert all(j.state == "queued" for j in state.pending)
    assert state.max_seq == 4


def test_replay_is_idempotent_under_duplicates(tmp_path):
    """Re-appending the same job and state records changes nothing —
    the at-least-once journalling discipline must be safe to replay."""
    journal = ServiceJournal(jobs_journal_path(tmp_path))
    job = make_job(0)
    for _ in range(3):
        journal.append_job(job, 0)
        journal.append_state(job.job_id, "queued")
        journal.append_state(job.job_id, "running")
    journal.append_state(job.job_id, "done")
    journal.append_state(job.job_id, "done")
    journal.close()

    state = recover(tmp_path)
    assert len(state.finished) == 1
    assert state.finished[0].state == "done"
    assert not state.pending
    assert state.max_seq == 0


def test_torn_final_line_is_dropped(tmp_path):
    write_history(tmp_path, [["queued", "running", "done"], ["queued"]])
    path = jobs_journal_path(tmp_path)
    # Simulate a crash mid-append: a torn, unchecksummed fragment.
    with open(path, "a") as fh:
        fh.write('{"kind": "state", "job_id": "j0000')
    state = recover(tmp_path)
    assert state.total == 2  # both jobs intact, fragment ignored


def test_append_after_torn_final_line_survives(tmp_path):
    jobs = write_history(tmp_path, [["queued", "running"]])
    path = jobs_journal_path(tmp_path)
    # A crash mid-append left a fragment without its newline; the
    # restarted service's first transition must not fuse with it.
    with open(path, "a") as fh:
        fh.write('{"kind": "state", "job_id": "j0000')
    journal = ServiceJournal(path)
    journal.append_state(jobs[0].job_id, "done")
    journal.close()
    assert journal.errors == 0
    state = recover(tmp_path)
    assert [j.state for j in state.finished] == ["done"]
    assert not state.pending


def test_checksum_failing_line_is_dropped(tmp_path):
    jobs = write_history(tmp_path, [["queued", "running", "done"]])
    path = jobs_journal_path(tmp_path)
    # A record with a *valid-looking* but wrong checksum: a bit flip.
    bogus = seal({"kind": "state", "job_id": jobs[0].job_id,
                  "state": "failed"})
    bogus["state"] = "done"  # content no longer matches the seal
    with open(path, "a") as fh:
        fh.write(json.dumps(bogus) + "\n")
    state = recover(tmp_path)
    assert state.finished[0].state == "done"


def test_unknown_records_are_counted_not_fatal(tmp_path):
    write_history(tmp_path, [["queued", "running", "done"]])
    path = jobs_journal_path(tmp_path)
    with open(path, "a") as fh:
        fh.write(json.dumps(seal({"kind": "mystery"})) + "\n")
        fh.write(json.dumps(seal({
            "kind": "state", "job_id": "no-such-job", "state": "done",
        })) + "\n")
    state = recover(tmp_path)
    assert state.total == 1
    assert state.skipped == 2


def test_recover_missing_journal_is_empty(tmp_path):
    state = recover(tmp_path)
    assert state.total == 0
    assert state.max_seq == -1


def test_replayed_ids_match_submission_ids(tmp_path):
    """Deterministic ids: replay regenerates what submission created."""
    job = make_job(7)
    assert job.job_id == job_id_for(7, job.spec)
    assert job.job_id.startswith("j000007-")


def test_journal_write_failure_is_counted_not_raised(tmp_path):
    journal = ServiceJournal(jobs_journal_path(tmp_path))
    job = make_job(0)
    journal.append_job(job, 0)
    # Sabotage the handle: further appends must not raise.
    journal._fh.close()
    journal.append_state(job.job_id, "running")
    assert journal.errors >= 1
    journal._fh = None  # reopen path
    journal.append_state(job.job_id, "done")
    journal.close()
    state = recover(tmp_path)
    assert state.finished and state.finished[0].state == "done"
