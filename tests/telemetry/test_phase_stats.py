"""Phase timing in result stats, audit_seconds, and harness aggregation."""

import importlib.util
from pathlib import Path

import pytest

from repro.baselines import FMPartitioner, LAPartitioner
from repro.core import PropPartitioner
from repro.hypergraph import make_benchmark
from repro.multilevel import NLevelPartitioner
from repro.multirun import run_many
from repro.telemetry import (
    PHASE_STAT_KEYS,
    MemoryRecorder,
    TraceRecorder,
    collect_phase_seconds,
    phase_stat_key,
    summarize_trace,
)


@pytest.fixture(scope="module")
def graph():
    return make_benchmark("t5", scale=0.05)


def _load_pass_contract():
    """``tests/core/test_pass_contract.py``, loaded by path (the test
    tree is not a package) for its ``CASES`` and ``record`` runner."""
    path = Path(__file__).resolve().parents[1] / "core"
    spec = importlib.util.spec_from_file_location(
        "_pass_contract", path / "test_pass_contract.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_PASS_CONTRACT = _load_pass_contract()


def assert_stats_sum_spans(stats, spans):
    """Every phase stat is exactly the sum, in emission order, of that
    run's spans of the same phase (and every span has its stat)."""
    sums = {}
    for span in spans:
        key = phase_stat_key(span.name)
        sums[key] = sums.get(key, 0.0) + span.seconds
    phases = collect_phase_seconds(stats)
    phases.pop("audit_seconds", None)
    assert phases
    assert set(sums) <= set(phases)
    for key, seconds in phases.items():
        assert seconds == sums.get(key, 0.0), key


class TestStatsMatchTrace:
    @pytest.mark.parametrize("case", sorted(_PASS_CONTRACT.CASES))
    def test_pass_engine_stats_sum_spans(self, case):
        result, rec = _PASS_CONTRACT.record(case)
        assert_stats_sum_spans(result.stats, rec.spans)

    def test_nlevel_stats_sum_spans(self, graph):
        rec = MemoryRecorder()
        result = NLevelPartitioner().partition(graph, seed=0, recorder=rec)
        names = {span.name for span in rec.spans}
        assert {"coarsen", "uncoarsen", "local_refine"} <= names
        assert_stats_sum_spans(result.stats, rec.spans)

    def test_nlevel_trace_summary_reads_like_stats(self, graph, tmp_path):
        path = str(tmp_path / "nlevel.jsonl")
        with TraceRecorder(path) as rec:
            result = NLevelPartitioner().partition(
                graph, seed=0, recorder=rec
            )
        traced = summarize_trace(path).algorithms["NLEVEL"].phase_seconds
        stats = collect_phase_seconds(result.stats)
        assert traced
        for key, seconds in traced.items():
            assert key in stats, key
            assert stats[key] == seconds, key


class TestPhaseStats:
    def test_prop_reports_all_phases(self, graph):
        result = PropPartitioner().partition(graph, seed=0)
        for key in ("bootstrap_seconds", "refine_seconds",
                    "gain_init_seconds", "move_loop_seconds",
                    "rollback_seconds"):
            assert key in result.stats
        assert result.stats["move_loop_seconds"] > 0.0

    @pytest.mark.parametrize(
        "make", [lambda: FMPartitioner("bucket"), lambda: LAPartitioner(2)]
    )
    def test_baselines_report_phases(self, make, graph):
        result = make().partition(graph, seed=0)
        for key in ("gain_init_seconds", "move_loop_seconds",
                    "rollback_seconds"):
            assert key in result.stats

    @pytest.mark.parametrize("kernel", ["auto", "subround"])
    @pytest.mark.parametrize("container", ["bucket", "tree"])
    def test_fm_reports_no_prop_phases(self, kernel, container, graph):
        # bootstrap/refine are PROP-only (Fig. 2 steps 3-4); FM's Eqn-1
        # gain sweep is gain_init under every kernel.
        result = FMPartitioner(container, kernel=kernel).partition(
            graph, seed=0
        )
        assert "bootstrap_seconds" not in result.stats
        assert "refine_seconds" not in result.stats
        assert result.stats["gain_init_seconds"] > 0.0

    def test_collect_phase_seconds_filters(self):
        stats = {
            "move_loop_seconds": 1.5,
            "tentative_moves": 100.0,
            "audit_seconds": 0.25,
            "rollback_seconds": "garbage",
        }
        collected = collect_phase_seconds(stats)
        assert collected == {"move_loop_seconds": 1.5, "audit_seconds": 0.25}
        assert set(collected) <= set(PHASE_STAT_KEYS)


class TestAuditSeconds:
    @pytest.mark.parametrize(
        "make",
        [PropPartitioner, lambda: FMPartitioner("bucket"),
         lambda: LAPartitioner(2)],
    )
    def test_audit_seconds_reported_and_excluded(self, make, graph):
        from repro.audit import AuditConfig

        audited = make().partition(graph, seed=0, audit=AuditConfig(every=1))
        bare = make().partition(graph, seed=0)
        assert audited.cut == bare.cut
        assert audited.stats["audit_seconds"] > 0.0
        # runtime_seconds excludes audit overhead, so an audited run's
        # reported compute should be of the same magnitude as the bare
        # run's, not inflated by the (much slower) brute-force oracles.
        assert (
            audited.runtime_seconds
            < bare.runtime_seconds + audited.stats["audit_seconds"]
        )

    def test_unaudited_run_has_no_audit_seconds(self, graph):
        result = PropPartitioner().partition(graph, seed=0)
        assert "audit_seconds" not in result.stats


class TestRunManyAggregation:
    def test_phase_seconds_aggregated(self, graph):
        outcome = run_many(PropPartitioner(), graph, runs=2)
        assert outcome.phase_seconds["move_loop_seconds"] > 0.0
        assert set(outcome.phase_seconds) <= set(PHASE_STAT_KEYS)

    def test_recorder_threads_through_sequential_path(self, graph):
        from repro.telemetry import MemoryRecorder

        rec = MemoryRecorder()
        outcome = run_many(PropPartitioner(), graph, runs=2, recorder=rec)
        assert len(rec.runs) == 2
        assert rec.results[1]["cut"] in outcome.cuts

    def test_recorder_dropped_with_warning_on_engine_path(self, graph):
        from repro.engine import Engine, EngineConfig
        from repro.telemetry import MemoryRecorder

        rec = MemoryRecorder()
        engine = Engine(EngineConfig(workers=0, use_cache=False))
        with pytest.warns(UserWarning, match="not picklable"):
            outcome = run_many(
                PropPartitioner(), graph, runs=2, engine=engine, recorder=rec
            )
        assert not rec.runs
        # phase timings still flow through the result stats
        assert outcome.phase_seconds["move_loop_seconds"] > 0.0

    def test_unsupported_partitioner_warns(self, graph):
        from repro.baselines import Eig1Partitioner
        from repro.telemetry import MemoryRecorder

        with pytest.warns(UserWarning, match="telemetry"):
            run_many(
                Eig1Partitioner(), graph, runs=1,
                recorder=MemoryRecorder(),
            )


class TestSweepAggregation:
    def test_sweep_points_carry_phase_seconds(self, graph):
        from repro.experiments.sweeps import sweep_prop_config

        result = sweep_prop_config(
            graph, {"refinement_iterations": [0, 1]}, runs=1, engine=None,
        )
        for point in result.points:
            assert point.phase_dict()["move_loop_seconds"] > 0.0


class TestProgressEventTiming:
    def test_progress_event_defaults(self):
        from repro.engine.engine import ProgressEvent

        event = ProgressEvent(done=1, total=2, latest=None)
        assert event.elapsed_seconds == 0.0
        assert event.throughput == 0.0
        assert event.eta_seconds == 0.0

    def test_engine_fills_timing_fields(self, graph):
        from repro.engine import Engine, EngineConfig, WorkUnit

        events = []
        engine = Engine(EngineConfig(workers=0, use_cache=False))
        units = [
            WorkUnit(graph=graph, partitioner=PropPartitioner(), seed=s)
            for s in (0, 1)
        ]
        engine.run(units, progress=events.append)
        assert [e.done for e in events] == [1, 2]
        assert all(e.elapsed_seconds > 0.0 for e in events)
        assert all(e.throughput > 0.0 for e in events)
        assert events[-1].eta_seconds == 0.0  # nothing left
        assert events[0].eta_seconds > 0.0
