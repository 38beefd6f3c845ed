"""QuarantineRegistry: the poison-job circuit breaker, unit-level."""

from __future__ import annotations

import json

import pytest

from repro.guard import QuarantinedError, QuarantineRegistry

FP = "a" * 64
OTHER = "b" * 64


def registry(tmp_path, quarantine_after=3) -> QuarantineRegistry:
    return QuarantineRegistry(
        tmp_path / "quarantine", quarantine_after=quarantine_after
    )


def test_trips_at_exactly_quarantine_after(tmp_path):
    reg = registry(tmp_path, quarantine_after=3)
    assert reg.record_strike(FP, "failed", job_id="j1") is None
    assert reg.record_strike(FP, "failed", job_id="j2") is None
    assert reg.is_quarantined(FP) is None
    entry = reg.record_strike(FP, "deadline", job_id="j3")
    assert entry is not None
    assert entry["strikes"] == 3
    assert entry["last_reason"] == "deadline"
    assert entry["last_job_id"] == "j3"
    assert reg.is_quarantined(FP) is not None


def test_success_resets_the_consecutive_count(tmp_path):
    reg = registry(tmp_path, quarantine_after=2)
    reg.record_strike(FP, "failed")
    reg.record_success(FP)
    assert reg.strikes(FP) == 0
    # One more strike is strike #1 again, not a trip.
    assert reg.record_strike(FP, "failed") is None
    assert reg.record_strike(FP, "failed") is not None


def test_check_raises_for_tripped_fingerprint_only(tmp_path):
    reg = registry(tmp_path, quarantine_after=1)
    reg.check(FP)  # clean: no-op
    reg.record_strike(FP, "failed", job_id="j1")
    with pytest.raises(QuarantinedError) as excinfo:
        reg.check(FP)
    assert excinfo.value.fingerprint == FP
    assert excinfo.value.entry["strikes"] == 1
    reg.check(OTHER)  # unrelated fingerprints unaffected


def test_strikes_after_trip_are_not_counted(tmp_path):
    reg = registry(tmp_path, quarantine_after=1)
    assert reg.record_strike(FP, "failed") is not None
    assert reg.record_strike(FP, "failed") is None  # already tripped
    assert reg.is_quarantined(FP)["strikes"] == 1


def test_bundle_written_on_trip_and_readable(tmp_path):
    reg = registry(tmp_path, quarantine_after=2)
    reg.record_strike(FP, "failed", job_id="j1", detail="boom")
    reg.record_strike(
        FP, "deadline", job_id="j2", detail="too slow",
        diagnostics={"spec": {"runs": 4}, "error": "deadline"},
    )
    bundle = reg.load_bundle(FP)
    assert bundle is not None
    assert bundle["fingerprint"] == FP
    assert [s["reason"] for s in bundle["strike_history"]] == [
        "failed", "deadline",
    ]
    assert bundle["diagnostics"]["spec"] == {"runs": 4}
    # And it is plain pretty-printed JSON on disk, for humans.
    raw = reg.bundle_path(FP).read_text()
    assert json.loads(raw)["fingerprint"] == FP


def test_state_replays_bit_identically_from_journal(tmp_path):
    reg = registry(tmp_path, quarantine_after=3)
    reg.record_strike(FP, "failed", job_id="j1")
    reg.record_strike(FP, "failed", job_id="j2")
    reg.record_strike(FP, "failed", job_id="j3")
    reg.record_strike(OTHER, "crash_recovery", job_id="j4")

    replayed = registry(tmp_path, quarantine_after=3)
    assert replayed.entries() == reg.entries()
    assert replayed.is_quarantined(FP) == reg.is_quarantined(FP)
    assert replayed.strikes(OTHER) == 1
    assert replayed.snapshot() == reg.snapshot()


def test_release_forgives_but_keeps_the_bundle(tmp_path):
    reg = registry(tmp_path, quarantine_after=1)
    reg.record_strike(FP, "failed", diagnostics={"spec": {}})
    assert reg.release(FP) is True
    assert reg.is_quarantined(FP) is None
    assert reg.bundle_path(FP).exists()  # postmortem material stays
    assert reg.release(FP) is False  # idempotent
    # The release is durable: a replay does not resurrect the trip.
    assert registry(tmp_path).is_quarantined(FP) is None


def test_release_of_watched_fingerprint_clears_strikes(tmp_path):
    reg = registry(tmp_path, quarantine_after=5)
    reg.record_strike(FP, "failed")
    assert reg.release(FP) is False  # was not quarantined...
    assert reg.strikes(FP) == 0  # ...but the watch count is gone


def test_entries_sorted_by_fingerprint(tmp_path):
    reg = registry(tmp_path, quarantine_after=1)
    reg.record_strike(OTHER, "failed")
    reg.record_strike(FP, "failed")
    assert [e["fingerprint"] for e in reg.entries()] == [FP, OTHER]


def test_journal_failures_count_but_never_raise(tmp_path):
    blocker = tmp_path / "quarantine"
    blocker.write_text("a file where the directory should be")
    reg = QuarantineRegistry(blocker, quarantine_after=1)
    entry = reg.record_strike(FP, "failed")
    assert entry is not None  # breaker still works in memory
    assert reg.journal_errors > 0


def test_strike_after_torn_journal_line_counts(tmp_path):
    registry(tmp_path).record_strike(FP, "failed", job_id="j1")
    # A crash mid-append left half a strike line, without its newline.
    path = registry(tmp_path).journal_path
    whole = path.read_text(encoding="utf-8")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(whole[: len(whole) // 2])
    restarted = registry(tmp_path)
    assert restarted.strikes(FP) == 1
    restarted.record_strike(FP, "failed", job_id="j2")
    assert registry(tmp_path).strikes(FP) == 2


def test_snapshot_counts(tmp_path):
    reg = registry(tmp_path, quarantine_after=2)
    reg.record_strike(FP, "failed")
    reg.record_strike(OTHER, "failed")
    reg.record_strike(OTHER, "failed")
    assert reg.snapshot() == {
        "quarantined": 1, "watching": 1, "quarantine_after": 2,
    }
