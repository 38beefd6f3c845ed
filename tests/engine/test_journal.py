"""Run journal: append/load discipline, damage tolerance, engine resume."""

import json

import pytest

from repro.baselines import FMPartitioner
from repro.engine import (
    Engine,
    EngineConfig,
    RunJournal,
    WorkUnit,
    decode_result,
    journal_path,
    list_runs,
    seed_stream,
    unit_key,
    validate_run_id,
)
from repro.hypergraph import make_benchmark

GRAPH = make_benchmark("t6", scale=0.06)


def _units(n=4):
    return [WorkUnit(GRAPH, FMPartitioner("bucket"), seed=s)
            for s in seed_stream(7, n)]


def _engine(tmp_path, **kwargs):
    kwargs.setdefault("workers", 0)
    kwargs.setdefault("use_cache", False)
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    return Engine(EngineConfig(**kwargs))


class TestRunIds:
    def test_accepts_filesystem_safe_ids(self):
        for run_id in ("sweep-7", "20260806-121314.99", "a_b.c-d"):
            assert validate_run_id(run_id) == run_id

    @pytest.mark.parametrize(
        "bad", ["../x", "a/b", "", "a b", "x" * 129, "run\n"]
    )
    def test_rejects_escaping_ids(self, bad):
        with pytest.raises(ValueError):
            validate_run_id(bad)

    def test_journal_path_stays_under_runs(self, tmp_path):
        path = journal_path(tmp_path, "sweep-7")
        assert path == tmp_path / "runs" / "sweep-7.jsonl"


class TestAppendLoad:
    def _populate(self, tmp_path):
        engine = _engine(tmp_path)
        units = _units()
        results = engine.run(units, run_id="r1")
        return engine, units, results

    def test_roundtrip(self, tmp_path):
        engine, units, results = self._populate(tmp_path)
        journal = engine.open_journal("r1")
        records = journal.load()
        assert len(records) == 4
        for unit, unit_result in zip(units, results):
            record = records[unit_key(unit, engine._version)]
            assert record["seed"] == unit.seed
            assert record["source"] == "inline"
            assert decode_result(record).cut == unit_result.result.cut

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        engine, _, _ = self._populate(tmp_path)
        path = journal_path(engine.journal_root(), "r1")
        with open(path, "a") as fh:
            fh.write('{"type": "unit", "key": "torn')  # killed mid-append
        assert len(engine.open_journal("r1").load()) == 4

    def test_checksum_failing_line_is_skipped(self, tmp_path):
        engine, _, _ = self._populate(tmp_path)
        path = journal_path(engine.journal_root(), "r1")
        lines = path.read_text().splitlines()
        tampered = json.loads(lines[1])
        tampered["cut"] = -1.0  # edit without re-sealing
        lines[1] = json.dumps(tampered)
        path.write_text("\n".join(lines) + "\n")
        assert len(engine.open_journal("r1").load()) == 3

    def test_header_written_once(self, tmp_path):
        engine, _, _ = self._populate(tmp_path)
        engine.run(_units(), run_id="r1", resume=True)  # reopens journal
        path = journal_path(engine.journal_root(), "r1")
        headers = [
            line for line in path.read_text().splitlines()
            if json.loads(line)["type"] == "header"
        ]
        assert len(headers) == 1
        assert json.loads(headers[0])["units"] == 4

    def test_unwritable_journal_never_aborts(self, tmp_path):
        # cache root is an existing file -> mkdir fails with NotADirectoryError
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        engine = _engine(tmp_path, cache_dir=str(blocker))
        results = engine.run(_units(), run_id="r1")
        assert len(results) == 4
        assert all(r.ok for r in results)


class TestEngineResume:
    def test_resume_recomputes_zero_completed_units(self, tmp_path):
        first = _engine(tmp_path)
        units = _units()
        baseline = first.run(units, run_id="sweep")
        assert first.stats.executed == 4

        second = _engine(tmp_path)
        resumed = second.run(units, run_id="sweep", resume=True)
        assert second.stats.journal_hits == 4
        assert second.stats.executed == 0
        assert [r.result.cut for r in resumed] == [
            r.result.cut for r in baseline
        ]
        assert all(r.source == "journal" and r.cached for r in resumed)

    def test_resume_completes_a_partial_journal(self, tmp_path):
        first = _engine(tmp_path)
        units = _units()
        baseline = first.run(units, run_id="partial")
        # simulate a crash after two units: drop the journal's tail
        path = journal_path(first.journal_root(), "partial")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")  # header + 2 units

        second = _engine(tmp_path)
        resumed = second.run(units, run_id="partial", resume=True)
        assert second.stats.journal_hits == 2
        assert second.stats.executed == 2
        assert [r.result.cut for r in resumed] == [
            r.result.cut for r in baseline
        ]
        # the journal now holds all four units again
        assert len(second.open_journal("partial").load()) == 4

    def test_without_resume_flag_journal_is_not_served(self, tmp_path):
        first = _engine(tmp_path)
        units = _units()
        first.run(units, run_id="fresh")
        second = _engine(tmp_path)
        second.run(units, run_id="fresh-2")
        assert second.stats.journal_hits == 0
        assert second.stats.executed == 4

    def test_resume_works_with_cache_enabled(self, tmp_path):
        first = _engine(tmp_path, use_cache=True)
        units = _units()
        first.run(units, run_id="cached")
        second = _engine(tmp_path, use_cache=True)
        second.run(units, run_id="cached", resume=True)
        # journal is consulted before the cache
        assert second.stats.journal_hits == 4
        assert second.stats.cache_hits == 0

    def test_list_runs(self, tmp_path):
        engine = _engine(tmp_path)
        engine.run(_units(2), run_id="aaa")
        engine.run(_units(2), run_id="bbb")
        assert set(list_runs(engine.journal_root())) == {"aaa", "bbb"}
        assert list_runs(tmp_path / "nonexistent") == []


class TestReplayEdgeCases:
    """Crash-window shapes recovery must absorb: duplicate appends and
    torn tails, composed with a live resume (the service restart path)."""

    def test_duplicate_unit_records_replay_idempotently(self, tmp_path):
        first = _engine(tmp_path)
        units = _units()
        baseline = first.run(units, run_id="dup")
        # At-least-once journalling: re-append every unit line verbatim
        # (a crash between fsync and ack produces exactly this).
        path = journal_path(first.journal_root(), "dup")
        lines = path.read_text().splitlines()
        unit_lines = [l for l in lines if json.loads(l)["type"] == "unit"]
        with open(path, "a") as fh:
            for line in unit_lines:
                fh.write(line + "\n")

        second = _engine(tmp_path)
        resumed = second.run(units, run_id="dup", resume=True)
        assert second.stats.journal_hits == 4
        assert second.stats.executed == 0
        assert [r.result.cut for r in resumed] == [
            r.result.cut for r in baseline
        ]

    def test_conflicting_duplicate_latest_record_wins(self, tmp_path):
        engine, units = _engine(tmp_path), _units(1)
        engine.run(units, run_id="conflict")
        path = journal_path(engine.journal_root(), "conflict")
        record = json.loads(path.read_text().splitlines()[1])
        from repro.engine.records import seal

        record.pop("checksum", None)
        record["seconds"] = 123.0  # a legitimately re-sealed rewrite
        with open(path, "a") as fh:
            fh.write(json.dumps(seal(record), sort_keys=True) + "\n")
        records = engine.open_journal("conflict").load()
        assert len(records) == 1
        assert next(iter(records.values()))["seconds"] == 123.0

    @pytest.mark.parametrize("tail", ["\n", ""], ids=["newline", "bare"])
    def test_torn_final_line_then_resume_completes(self, tmp_path, tail):
        first = _engine(tmp_path)
        units = _units()
        baseline = first.run(units, run_id="torn")
        path = journal_path(first.journal_root(), "torn")
        lines = path.read_text().splitlines()
        # Keep header + 2 whole units, then a torn third: the crash hit
        # mid-write, before or after the fragment's newline.  The torn
        # unit must be recomputed, not trusted, and must not swallow the
        # first record the resume appends after it.
        torn = lines[3][: len(lines[3]) // 2]
        path.write_text("\n".join(lines[:3] + [torn]) + tail)

        second = _engine(tmp_path)
        resumed = second.run(units, run_id="torn", resume=True)
        assert second.stats.journal_hits == 2
        assert second.stats.executed == 2
        assert [r.result.cut for r in resumed] == [
            r.result.cut for r in baseline
        ]
        # The journal is whole again and a third resume serves all four.
        third = _engine(tmp_path)
        third.run(units, run_id="torn", resume=True)
        assert third.stats.journal_hits == 4
