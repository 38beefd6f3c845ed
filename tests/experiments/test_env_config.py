"""Tests for the benchmark environment-variable configuration."""

import pytest

from repro.experiments import bench_scale_from_env
from repro.experiments.tables import DEFAULT_BENCH_CIRCUITS, _scaled_runs
from repro.hypergraph import BENCHMARK_NAMES


class TestEnvParsing:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        monkeypatch.delenv("REPRO_BENCH_RUNS_SCALE", raising=False)
        monkeypatch.delenv("REPRO_BENCH_CIRCUITS", raising=False)
        scale, runs_scale, names = bench_scale_from_env()
        assert scale == 0.25
        assert runs_scale == 0.25
        assert names == DEFAULT_BENCH_CIRCUITS

    def test_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        monkeypatch.setenv("REPRO_BENCH_RUNS_SCALE", "0.1")
        monkeypatch.setenv("REPRO_BENCH_CIRCUITS", "balu, t6 ,p2")
        scale, runs_scale, names = bench_scale_from_env()
        assert scale == 0.5
        assert runs_scale == 0.1
        assert names == ("balu", "t6", "p2")

    def test_full_scale_uses_all_circuits(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "1.0")
        monkeypatch.delenv("REPRO_BENCH_CIRCUITS", raising=False)
        monkeypatch.delenv("REPRO_BENCH_RUNS_SCALE", raising=False)
        _, _, names = bench_scale_from_env()
        assert names == BENCHMARK_NAMES

    def test_empty_circuit_list_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CIRCUITS", "  ")
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        _, _, names = bench_scale_from_env()
        assert names == DEFAULT_BENCH_CIRCUITS


class TestEngineFromEnv:
    def test_unset_means_in_process(self, monkeypatch):
        from repro.experiments.tables import engine_from_env

        monkeypatch.delenv("REPRO_ENGINE_WORKERS", raising=False)
        assert engine_from_env() is None

    def test_set_builds_engine(self, monkeypatch, tmp_path):
        from repro.experiments.tables import engine_from_env

        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "0")
        monkeypatch.setenv("REPRO_ENGINE_CACHE", str(tmp_path / "cache"))
        engine = engine_from_env()
        assert engine is not None
        assert engine.config.resolved_workers() == 0

    def test_env_engine_matches_sequential_table(self, monkeypatch, tmp_path):
        from repro.experiments.tables import run_table2

        kwargs = dict(scale=0.06, runs_scale=0.05, names=("t6",))
        monkeypatch.delenv("REPRO_ENGINE_WORKERS", raising=False)
        sequential = run_table2(**kwargs)
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "0")
        monkeypatch.setenv("REPRO_ENGINE_CACHE", str(tmp_path / "cache"))
        enveloped = run_table2(**kwargs)
        assert set(sequential.rows) == set(enveloped.rows)
        for circuit, row in sequential.rows.items():
            for label, cell in row.items():
                assert enveloped.rows[circuit][label].best_cut == cell.best_cut


class TestScaledRuns:
    def test_paper_counts_at_quarter_scale(self):
        assert _scaled_runs(100, 0.25) == 25
        assert _scaled_runs(40, 0.25) == 10
        assert _scaled_runs(20, 0.25) == 5

    def test_floor_of_one(self):
        assert _scaled_runs(20, 0.01) == 1

    def test_full_scale_identity(self):
        assert _scaled_runs(100, 1.0) == 100
