"""Engine-backed experiment layers: tables and sweeps.

Covers the acceptance criterion that a warm cache makes the second
``run_table2`` invocation dramatically cheaper — asserted with the
engine's run counters, not wall clock, to keep CI stable.
"""

import pytest

from repro.engine import Engine, EngineConfig
from repro.experiments import run_table2, run_table3, sweep_prop_config
from repro.hypergraph import hierarchical_circuit

TINY = dict(scale=0.06, runs_scale=0.05, names=("balu", "t6"))


def _inline_engine(tmp_path=None, **kwargs):
    """workers=0 keeps execution in-process so run counters are exact."""
    if tmp_path is not None:
        kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    else:
        kwargs.setdefault("use_cache", False)
    return Engine(EngineConfig(workers=0, **kwargs))


class TestTablesThroughEngine:
    def test_table2_engine_matches_sequential(self, tmp_path):
        sequential = run_table2(**TINY)
        engine = _inline_engine(tmp_path)
        parallel = run_table2(**TINY, engine=engine)
        assert parallel.totals() == sequential.totals()
        for circuit in sequential.rows:
            for alg in sequential.algorithms:
                assert (parallel.rows[circuit][alg].cuts
                        == sequential.rows[circuit][alg].cuts)
                assert (parallel.rows[circuit][alg].seeds
                        == sequential.rows[circuit][alg].seeds)

    def test_warm_cache_run_counter_speedup(self, tmp_path):
        """Acceptance: warm cache => >= 5x fewer executions (here: zero)."""
        engine = _inline_engine(tmp_path)
        cold = run_table2(**TINY, engine=engine)
        cold_executed = engine.stats.executed
        assert cold_executed > 0

        warm = run_table2(**TINY, engine=engine)
        warm_executed = engine.stats.executed - cold_executed
        assert engine.stats.cache_hits == cold_executed
        assert warm_executed * 5 <= cold_executed
        assert warm_executed == 0
        assert warm.totals() == cold.totals()

    def test_table3_deterministic_methods_single_run(self, tmp_path):
        engine = _inline_engine(tmp_path)
        table = run_table3(**TINY, engine=engine)
        for circuit in table.rows:
            for alg in ("MELO", "PARABOLI", "EIG1"):
                assert len(table.rows[circuit][alg].cuts) == 1

    def test_cell_timings_populated(self):
        engine = _inline_engine()
        table = run_table2(**TINY, engine=engine)
        for circuit in table.rows:
            for alg in table.algorithms:
                cell = table.rows[circuit][alg]
                assert len(cell.run_seconds) == len(cell.cuts)
                assert cell.seconds_per_run > 0


    def test_cell_phase_seconds_same_keys_either_way(self):
        kwargs = dict(scale=0.05, runs_scale=0.1, names=["balu"])
        plain = run_table3(**kwargs)
        engined = run_table3(**kwargs, engine=_inline_engine())
        for circuit, row in plain.rows.items():
            for alg, cell in row.items():
                other = engined.rows[circuit][alg]
                assert set(other.phase_seconds) == set(cell.phase_seconds)
        assert plain.rows["balu"]["PROP"].phase_seconds


class TestCollectedFailures:
    """Under ``on_error='collect'`` a failed run is never dereferenced:
    it lands in its table cell's ``errors`` or drops out of its sweep
    point."""

    def test_table_cell_keeps_failed_seed_in_errors(self, tiny_graph):
        from repro.experiments.tables import _run_comparison
        from repro.partition import BalanceConstraint
        from repro.testing import FlakyPartitioner

        table = _run_comparison(
            "flaky",
            [("FLAKY", FlakyPartitioner(failing_seeds=[1]), 3)],
            {"tiny": tiny_graph},
            BalanceConstraint.fifty_fifty,
            reference="FLAKY",
            engine=_inline_engine(on_error="collect"),
        )
        cell = table.rows["tiny"]["FLAKY"]
        assert cell.cuts == [0.0, 2.0]
        assert cell.seeds == [0, 2]
        assert [failed.unit.seed for failed in cell.errors] == [1]

    def test_sweep_folds_surviving_runs(self):
        from repro.core import PropConfig, PropPartitioner
        from repro.faults import FaultPlan, injected_faults
        from repro.hypergraph import small_instance
        from repro.multirun import run_many

        graph = small_instance((150, 250), 7, 0)
        grid = {"refinement_iterations": [0, 2]}
        engine = _inline_engine(on_error="collect")
        with injected_faults(FaultPlan.parse("seed=3,permanent:0.5")) as inj:
            swept = sweep_prop_config(graph, grid, runs=4, engine=engine)
        failed = set()
        for entry in inj.fired:  # "permanent@<name>|<seed>|<tag>#<attempt>"
            _, seed, tag = entry.split("@")[1].rsplit("#", 1)[0].split("|")
            failed.add((tag, int(seed)))
        assert 0 < len(failed) == engine.stats.unit_errors
        for index, point in enumerate(swept.points):
            clean = run_many(
                PropPartitioner(PropConfig(**point.override_dict())),
                graph, runs=4,
            )
            kept = [
                cut for seed, cut in zip(clean.seeds, clean.cuts)
                if (f"#{index}", seed) not in failed
            ]
            assert point.best_cut == min(kept)
            assert point.mean_cut == pytest.approx(sum(kept) / len(kept))

    def test_sweep_point_without_survivors_raises_value_error(self):
        from repro.faults import FaultPlan, injected_faults
        from repro.hypergraph import small_instance

        graph = small_instance((40, 120), 7, 0)
        engine = _inline_engine(on_error="collect")
        with injected_faults(FaultPlan.parse("seed=3,permanent:1.0")):
            with pytest.raises(ValueError, match="no runs recorded"):
                sweep_prop_config(
                    graph, {"pinit": [0.95]}, runs=2, engine=engine
                )


class TestSweepThroughEngine:
    @pytest.fixture(scope="class")
    def circuit(self):
        return hierarchical_circuit(90, 98, 350, seed=1)

    def test_engine_sweep_matches_sequential(self, circuit):
        grid = {"refinement_iterations": [0, 2]}
        sequential = sweep_prop_config(circuit, grid, runs=2, base_seed=3)
        swept = sweep_prop_config(
            circuit, grid, runs=2, base_seed=3, engine=_inline_engine()
        )
        assert [p.overrides for p in swept.points] == (
            [p.overrides for p in sequential.points]
        )
        assert [p.best_cut for p in swept.points] == (
            [p.best_cut for p in sequential.points]
        )
        assert [p.mean_cut for p in swept.points] == (
            [p.mean_cut for p in sequential.points]
        )

    def test_sweep_points_cached_across_sweeps(self, circuit, tmp_path):
        engine = _inline_engine(tmp_path)
        grid = {"pinit": [0.8, 0.95]}
        sweep_prop_config(circuit, grid, runs=2, engine=engine)
        first = engine.stats.executed
        sweep_prop_config(circuit, grid, runs=2, engine=engine)
        assert engine.stats.executed == first  # fully memoized
        assert engine.stats.cache_hits == first
