"""Tests for the multi-start protocol."""

import pytest

from repro.baselines import FMPartitioner
from repro.core import PropPartitioner
from repro.multirun import PAPER_RUN_COUNTS, run_many
from repro.testing import EchoPartitioner


class TestRunMany:
    def test_best_of_n_never_worse_than_single(self, medium_circuit):
        single = FMPartitioner("bucket").partition(medium_circuit, seed=0)
        multi = run_many(FMPartitioner("bucket"), medium_circuit, runs=5)
        assert multi.best_cut <= single.cut

    def test_cuts_recorded_per_run(self, medium_circuit):
        outcome = run_many(FMPartitioner("bucket"), medium_circuit, runs=4)
        assert len(outcome.cuts) == 4
        assert outcome.best_cut == min(outcome.cuts)
        assert outcome.worst_cut == max(outcome.cuts)
        assert outcome.mean_cut == pytest.approx(sum(outcome.cuts) / 4)

    def test_sequential_seeds_replayable(self, medium_circuit):
        outcome = run_many(
            PropPartitioner(), medium_circuit, runs=3, base_seed=100
        )
        # replay the winning run in isolation
        replay = PropPartitioner().partition(
            medium_circuit, seed=outcome.best.seed
        )
        assert replay.cut == outcome.best_cut

    def test_runs_validated(self, medium_circuit):
        with pytest.raises(ValueError):
            run_many(FMPartitioner("bucket"), medium_circuit, runs=0)

    def test_timing_captured(self, medium_circuit):
        outcome = run_many(FMPartitioner("bucket"), medium_circuit, runs=2)
        assert outcome.total_seconds > 0
        assert len(outcome.run_seconds) == 2
        assert all(s > 0 for s in outcome.run_seconds)
        # per-run seconds time only the partitioning calls, so they sum
        # to at most the harness wall clock (no overhead skew).
        assert sum(outcome.run_seconds) <= outcome.total_seconds
        assert outcome.seconds_per_run == pytest.approx(
            sum(outcome.run_seconds) / 2
        )

    def test_seeds_recorded_per_run(self, medium_circuit):
        outcome = run_many(
            FMPartitioner("bucket"), medium_circuit, runs=3, base_seed=20
        )
        assert outcome.seeds == [20, 21, 22]

    def test_replay_reproduces_individual_runs(self, medium_circuit):
        outcome = run_many(
            FMPartitioner("bucket"), medium_circuit, runs=3, base_seed=9
        )
        for i in range(3):
            assert outcome.replay(i).cut == outcome.cuts[i]

    def test_replay_bad_index(self, medium_circuit):
        outcome = run_many(FMPartitioner("bucket"), medium_circuit, runs=2)
        with pytest.raises(IndexError):
            outcome.replay(5)

    def test_replay_requires_source_refs(self):
        from repro.multirun import MultiRunResult

        bare = MultiRunResult(algorithm="X", circuit="c", runs=1)
        with pytest.raises(ValueError):
            bare.replay(0)

    def test_empty_result_properties_raise(self):
        from repro.multirun import MultiRunResult

        empty = MultiRunResult(algorithm="X", circuit="c", runs=0)
        with pytest.raises(ValueError):
            empty.best_cut
        with pytest.raises(ValueError):
            empty.mean_cut
        with pytest.raises(ValueError):
            empty.worst_cut
        with pytest.raises(ValueError):
            empty.seconds_per_run

    def test_circuit_name_recorded(self, medium_circuit):
        outcome = run_many(
            FMPartitioner("bucket"),
            medium_circuit,
            runs=1,
            circuit_name="medium",
        )
        assert outcome.circuit == "medium"
        assert outcome.algorithm == "FM-bucket"


class TestCompletedAttempts:
    def test_counts_collected_failures(self, tiny_graph):
        """Failed, error-collected runs spend a run of the budget too."""
        from repro.engine import Engine, EngineConfig
        from repro.testing import FlakyPartitioner

        engine = Engine(
            EngineConfig(workers=0, use_cache=False, on_error="collect")
        )
        outcome = run_many(
            FlakyPartitioner(failing_seeds=(1, 3)),
            tiny_graph,
            runs=4,
            engine=engine,
        )
        assert len(outcome.cuts) == 2
        assert len(outcome.errors) == 2
        assert outcome.completed_attempts == 4


class _CountingEcho(EchoPartitioner):
    """Echo runs that count their calls (privately: the count stays out
    of the partitioner fingerprint, so journal keys match across
    instances)."""

    def __init__(self):
        super().__init__()
        self._calls = 0

    def partition(self, graph, balance=None, initial_sides=None, seed=None):
        self._calls += 1
        return super().partition(
            graph, balance=balance, initial_sides=initial_sides, seed=seed
        )


class TestJournalWithoutEngine:
    def test_run_id_journals_and_resumes(
        self, tiny_graph, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ENGINE_CACHE", str(tmp_path))
        first_partitioner = _CountingEcho()
        first = run_many(first_partitioner, tiny_graph, runs=3, run_id="demo")
        assert first_partitioner._calls == 3
        assert (tmp_path / "runs" / "demo.jsonl").is_file()

        resumed_partitioner = _CountingEcho()
        resumed = run_many(
            resumed_partitioner, tiny_graph, runs=3, run_id="demo",
            resume=True,
        )
        assert resumed_partitioner._calls == 0
        assert resumed.cuts == first.cuts == [0.0, 1.0, 2.0]
        assert resumed.seeds == first.seeds


class TestPaperProtocol:
    def test_run_counts_match_section4(self):
        """FM20/40/100, LA-2 (20 or 40), LA-3 (20), PROP (20)."""
        assert PAPER_RUN_COUNTS["FM100"] == 100
        assert PAPER_RUN_COUNTS["FM40"] == 40
        assert PAPER_RUN_COUNTS["FM20"] == 20
        assert PAPER_RUN_COUNTS["LA-2"] == 20
        assert PAPER_RUN_COUNTS["LA-2x40"] == 40
        assert PAPER_RUN_COUNTS["LA-3"] == 20
        assert PAPER_RUN_COUNTS["PROP"] == 20
