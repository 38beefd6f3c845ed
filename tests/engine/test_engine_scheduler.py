"""Engine scheduling: parity, ordering, fault handling, progress."""

import pytest

from repro.baselines import FMPartitioner
from repro.core import PropPartitioner
from repro.engine import Engine, EngineConfig, WorkUnit, seed_stream
from repro.hypergraph import make_benchmark
from repro.multirun import run_many
from repro.partition import BalanceConstraint
from repro.testing import SleepyPartitioner


def _inline_engine(**kwargs):
    kwargs.setdefault("workers", 0)
    kwargs.setdefault("use_cache", False)
    return Engine(EngineConfig(**kwargs))


class TestEngineBasics:
    def test_results_in_unit_order(self, tiny_graph):
        engine = _inline_engine()
        units = [WorkUnit(tiny_graph, FMPartitioner("bucket"), seed=s,
                          tag=f"u{s}")
                 for s in seed_stream(10, 5)]
        results = engine.run(units)
        assert [r.index for r in results] == list(range(5))
        assert [r.unit.seed for r in results] == [10, 11, 12, 13, 14]
        assert [r.unit.tag for r in results] == [f"u{s}" for s in range(10, 15)]

    def test_empty_batch(self):
        assert _inline_engine().run([]) == []

    def test_progress_callback_sees_every_unit(self, tiny_graph):
        events = []
        engine = _inline_engine()
        units = [WorkUnit(tiny_graph, FMPartitioner("bucket"), seed=s)
                 for s in range(4)]
        engine.run(units, progress=events.append)
        assert [e.done for e in events] == [1, 2, 3, 4]
        assert all(e.total == 4 for e in events)
        assert {e.latest.index for e in events} == {0, 1, 2, 3}

    def test_balance_travels_with_unit(self, tiny_graph):
        balance = BalanceConstraint.from_fractions(tiny_graph, 0.4, 0.6)
        engine = _inline_engine()
        [result] = engine.run(
            [WorkUnit(tiny_graph, FMPartitioner("bucket"), seed=0,
                      balance=balance)]
        )
        sides = result.result.sides
        assert 0.4 * 6 <= sum(1 for s in sides if s == 0) <= 0.6 * 6

    def test_run_seconds_positive(self, tiny_graph):
        engine = _inline_engine()
        [result] = engine.run(
            [WorkUnit(tiny_graph, FMPartitioner("bucket"), seed=0)]
        )
        assert result.seconds > 0
        assert result.source == "inline"
        assert not result.cached

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(workers=-1)
        with pytest.raises(ValueError):
            EngineConfig(retries=-1)
        with pytest.raises(ValueError):
            EngineConfig(timeout=0)

    def test_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "3")
        assert EngineConfig().resolved_workers() == 3
        assert EngineConfig(workers=1).resolved_workers() == 1
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "zebra")
        with pytest.raises(ValueError):
            EngineConfig().resolved_workers()


class TestFaultHandling:
    def test_pool_unavailable_degrades_inline(self, tiny_graph, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", broken_pool
        )
        engine = Engine(EngineConfig(workers=4, use_cache=False, retries=1))
        units = [WorkUnit(tiny_graph, FMPartitioner("bucket"), seed=s)
                 for s in range(3)]
        results = engine.run(units)
        assert len(results) == 3
        assert all(r.source == "inline" for r in results)
        assert engine.stats.pool_failures >= 1
        assert engine.stats.inline_fallbacks == 3

    @pytest.mark.slow
    def test_timeout_falls_back_inline(self, tiny_graph):
        engine = Engine(EngineConfig(
            workers=2, use_cache=False, timeout=0.05, retries=0,
        ))
        units = [WorkUnit(tiny_graph, SleepyPartitioner(0.6), seed=s)
                 for s in range(2)]
        results = engine.run(units)
        assert len(results) == 2
        assert engine.stats.timeouts >= 1
        assert engine.stats.inline_fallbacks >= 1
        assert [r.result.cut for r in results] == [0.0, 1.0]

    @pytest.mark.slow
    def test_deadlines_measured_from_submission(self, tiny_graph):
        """Budgets must not compound across units queued behind others.

        Four 0.4 s units on two workers against a 0.6 s budget: the
        first wave finishes in time, the second wave — started ~0.4 s
        after submission — cannot, so it must time out.  The old
        sequential ``future.result(timeout=...)`` collection restarted
        the 0.6 s budget per unit and never timed out here.
        """
        engine = Engine(EngineConfig(
            workers=2, use_cache=False, timeout=0.6, retries=0,
        ))
        units = [WorkUnit(tiny_graph, SleepyPartitioner(0.4), seed=s)
                 for s in range(4)]
        results = engine.run(units)
        assert engine.stats.timeouts >= 1
        assert engine.stats.pool_executed >= 1  # first wave beat the deadline
        # no unit is lost: stragglers re-ran inline
        assert [r.result.cut for r in results] == [0.0, 1.0, 2.0, 3.0]
        assert all(r.ok for r in results)


@pytest.mark.slow
class TestSequentialParallelParity:
    """Acceptance: identical cut lists, sequential vs workers=4."""

    CIRCUITS = {
        "balu": make_benchmark("balu", scale=0.1),
        "t6": make_benchmark("t6", scale=0.1),
    }

    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    @pytest.mark.parametrize(
        "make_partitioner",
        [PropPartitioner, lambda: FMPartitioner("bucket")],
        ids=["PROP", "FM"],
    )
    def test_parity(self, circuit, make_partitioner):
        graph = self.CIRCUITS[circuit]
        sequential = run_many(
            make_partitioner(), graph, runs=4, base_seed=42,
            circuit_name=circuit,
        )
        engine = Engine(EngineConfig(workers=4, use_cache=False))
        parallel = run_many(
            make_partitioner(), graph, runs=4, base_seed=42,
            circuit_name=circuit, engine=engine,
        )
        assert parallel.cuts == sequential.cuts
        assert parallel.seeds == sequential.seeds
        assert parallel.best.sides == sequential.best.sides
        assert engine.stats.pool_executed == 4
