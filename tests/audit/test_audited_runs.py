"""Audited end-to-end runs: zero violations, bit-identical results.

The core acceptance tests of the audit subsystem: every pass engine
(PROP, FM with both containers, LA-2/LA-3)
completes fully-audited runs on generator circuits without a single
:class:`InvariantViolation`, and the audited run's moves are provably the
same as the unaudited run's (identical sides and cut).
"""

import os

import pytest

from repro import AuditConfig, FMPartitioner, LAPartitioner, PropPartitioner
from repro.audit import AUDIT_ENV
from repro.hypergraph import BENCHMARK_NAMES, make_benchmark
from repro.multirun import run_many

pytestmark = pytest.mark.audit

#: Small Table-1 circuits: fast enough to audit every move, every node.
SMALL_CIRCUITS = ("t6", "struct", "balu")

ENGINES = [
    ("PROP", PropPartitioner()),
    ("FM-bucket", FMPartitioner("bucket")),
    ("FM-tree", FMPartitioner("tree")),
    ("LA-2", LAPartitioner(2)),
    ("LA-3", LAPartitioner(3)),
]


@pytest.mark.parametrize("circuit", SMALL_CIRCUITS)
@pytest.mark.parametrize("label,partitioner", ENGINES, ids=[e[0] for e in ENGINES])
def test_fully_audited_run_is_clean_and_bit_identical(
    circuit, label, partitioner
):
    graph = make_benchmark(circuit, scale=0.04)
    plain = partitioner.partition(graph, seed=11)
    audited = partitioner.partition(graph, seed=11, audit=AuditConfig())
    assert audited.sides == plain.sides
    assert audited.cut == plain.cut
    assert audited.pass_cuts == plain.pass_cuts
    assert audited.stats["audited"] == 1.0
    assert audited.stats["audit_moves"] >= 1
    assert "audited" not in plain.stats


def test_sampling_stride_audits_every_nth_move():
    graph = make_benchmark("t6", scale=0.05)
    full = PropPartitioner().partition(graph, seed=2, audit=AuditConfig())
    sampled = PropPartitioner().partition(
        graph, seed=2, audit=AuditConfig(every=5)
    )
    assert sampled.cut == full.cut
    assert sampled.stats["audit_moves"] < full.stats["audit_moves"]
    assert sampled.stats["audit_moves"] == pytest.approx(
        full.stats["audit_moves"] / 5, abs=len(full.pass_cuts)
    )


def test_gain_sweep_cap_keeps_run_clean():
    graph = make_benchmark("struct", scale=0.1)
    capped = AuditConfig(max_gain_nodes=10)
    result = PropPartitioner().partition(graph, seed=4, audit=capped)
    assert result.stats["audited"] == 1.0


def test_env_variable_audits_without_code_changes(monkeypatch):
    graph = make_benchmark("t6", scale=0.04)
    monkeypatch.setenv(AUDIT_ENV, "1")
    result = FMPartitioner("tree").partition(graph, seed=5)
    assert result.stats["audited"] == 1.0
    monkeypatch.delenv(AUDIT_ENV)
    result = FMPartitioner("tree").partition(graph, seed=5)
    assert "audited" not in result.stats


def test_run_many_audits_each_seed():
    graph = make_benchmark("t6", scale=0.04)
    outcome = run_many(
        LAPartitioner(2), graph, runs=3, audit=AuditConfig(every=2)
    )
    assert outcome.best is not None
    assert outcome.best.stats["audited"] == 1.0
    plain = run_many(LAPartitioner(2), graph, runs=3)
    assert outcome.cuts == plain.cuts


def test_audited_engine_units_record_audit(tmp_path):
    from repro.engine import Engine, EngineConfig

    graph = make_benchmark("t6", scale=0.04)
    engine = Engine(EngineConfig(workers=0, cache_dir=str(tmp_path)))
    audited = run_many(
        PropPartitioner(), graph, runs=2, engine=engine,
        audit=AuditConfig(every=3),
    )
    assert audited.best is not None
    assert audited.best.stats["audited"] == 1.0


def test_unaudited_cache_record_not_served_for_audited_request(tmp_path):
    from repro.engine import Engine, EngineConfig

    graph = make_benchmark("t6", scale=0.04)
    engine = Engine(EngineConfig(workers=0, cache_dir=str(tmp_path)))
    plain = run_many(FMPartitioner("tree"), graph, runs=2, engine=engine)
    assert engine.stats.cache_hits == 0
    audited = run_many(
        FMPartitioner("tree"), graph, runs=2, engine=engine,
        audit=AuditConfig(),
    )
    # The unaudited records were not good enough: both units re-ran...
    assert engine.stats.cache_hits == 0
    assert audited.cuts == plain.cuts
    # ...and the audited records now serve both kinds of request.
    run_many(FMPartitioner("tree"), graph, runs=2, engine=engine,
             audit=AuditConfig())
    run_many(FMPartitioner("tree"), graph, runs=2, engine=engine)
    assert engine.stats.cache_hits == 4


def test_partitioner_without_audit_support_warns_and_runs():
    from repro.baselines import Eig1Partitioner

    graph = make_benchmark("t6", scale=0.1)
    with pytest.warns(UserWarning, match="unaudited"):
        outcome = run_many(
            Eig1Partitioner(), graph, runs=1, audit=AuditConfig()
        )
    assert outcome.best is not None
    assert "audited" not in outcome.best.stats


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_AUDIT_SWEEP"),
    reason="minutes-scale full-suite sweep; set REPRO_AUDIT_SWEEP=1 "
    "(the CI audit lane does)",
)
def test_benchmark_suite_audited_sweep():
    """Acceptance: every Table-1 circuit, PROP + FM + LA, zero violations.

    The larger circuits use a sampling stride and a gain-sweep cap to
    keep the sweep minutes-scale; every move still passes the structure
    and balance checks, and every pass the rollback check.
    """
    sweep_engines = [
        PropPartitioner(),
        FMPartitioner("bucket"),
        FMPartitioner("tree"),
        LAPartitioner(2),
    ]
    for name in BENCHMARK_NAMES:
        graph = make_benchmark(name, scale=0.04)
        audit = AuditConfig(
            every=1 if graph.num_nodes <= 150 else 4,
            max_gain_nodes=0 if graph.num_nodes <= 150 else 50,
        )
        for partitioner in sweep_engines:
            result = partitioner.partition(graph, seed=1, audit=audit)
            assert result.stats["audited"] == 1.0, (name, partitioner.name)
