"""Tests for the Fidducia–Mattheyses baseline (bucket and tree variants)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FMPartitioner, run_fm
from repro.baselines.fm import _make_containers, _move_with_gain_updates
from repro.hypergraph import hierarchical_circuit, planted_bisection
from repro.partition import (
    BalanceConstraint,
    Partition,
    balance_ratio,
    cut_cost,
    random_balanced_sides,
)
from repro.passes import pick_move
from repro.telemetry import MemoryRecorder
from repro.testing import weighted_instance


class TestQuality:
    def test_improves_random_partition(self, medium_circuit):
        initial = random_balanced_sides(medium_circuit, 3)
        before = cut_cost(medium_circuit, initial)
        result = FMPartitioner("bucket").partition(
            medium_circuit, initial_sides=initial
        )
        assert result.cut < before * 0.7

    def test_finds_planted_optimum(self, planted):
        graph, _, crossing = planted
        best = min(
            FMPartitioner("bucket").partition(graph, seed=s).cut
            for s in range(5)
        )
        assert best <= crossing + 2

    def test_bucket_and_tree_agree(self, medium_circuit):
        """Identical gain maths, identical tie-breaking inputs -> the two
        containers must produce identical-quality results on the same
        seed (cuts equal; sides may differ only through within-gain
        tie order)."""
        b = FMPartitioner("bucket").partition(medium_circuit, seed=7)
        t = FMPartitioner("tree").partition(medium_circuit, seed=7)
        assert b.cut <= cut_cost(medium_circuit, random_balanced_sides(medium_circuit, 7)) * 0.8
        assert abs(b.cut - t.cut) <= max(b.cut, t.cut) * 0.35

    def test_balance_respected(self, medium_circuit):
        result = FMPartitioner("bucket").partition(medium_circuit, seed=2)
        assert balance_ratio(medium_circuit, result.sides) <= 0.5 + (
            1.5 / medium_circuit.num_nodes
        )

    def test_deterministic(self, medium_circuit):
        a = FMPartitioner("bucket").partition(medium_circuit, seed=11)
        b = FMPartitioner("bucket").partition(medium_circuit, seed=11)
        assert a.sides == b.sides


class TestVariants:
    def test_bucket_requires_unit_costs(self, medium_circuit):
        weighted = medium_circuit.with_net_costs(
            [2.0] * medium_circuit.num_nets
        )
        with pytest.raises(ValueError, match="unit net costs"):
            FMPartitioner("bucket").partition(weighted, seed=0)

    def test_bucket_rejects_weighted_nets_before_the_run_starts(self):
        # A trace must never hold a run without its run_end: the
        # unit-cost check runs before the first recorder event.
        graph = weighted_instance(3, max_nodes=24)
        assert not graph.has_unit_net_costs
        rec = MemoryRecorder()
        with pytest.raises(ValueError, match="unit net costs"):
            run_fm(
                graph, random_balanced_sides(graph, 3),
                BalanceConstraint.fifty_fifty(graph),
                container="bucket", recorder=rec,
            )
        assert rec.runs == [] and rec.results == []

    def test_tree_handles_weighted_nets(self, medium_circuit):
        weighted = medium_circuit.with_net_costs(
            [1.0 + (i % 4) * 0.5 for i in range(medium_circuit.num_nets)]
        )
        result = FMPartitioner("tree").partition(weighted, seed=0)
        result.verify(weighted)

    def test_unknown_container_rejected(self):
        with pytest.raises(ValueError):
            FMPartitioner("heap")

    def test_algorithm_names(self):
        assert FMPartitioner("bucket").name == "FM-bucket"
        assert FMPartitioner("tree").name == "FM-tree"

    def test_max_passes_cap(self, medium_circuit):
        result = run_fm(
            medium_circuit,
            random_balanced_sides(medium_circuit, 0),
            BalanceConstraint.fifty_fifty(medium_circuit),
            max_passes=1,
        )
        assert result.passes == 1


class TestDeltaGainCorrectness:
    """The heart of FM: after every move, every stored gain must equal a
    from-scratch Eqn.-1 recomputation."""

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=15, deadline=None)
    def test_container_gains_match_recompute(self, seed):
        graph = hierarchical_circuit(60, 64, 235, seed=seed % 4)
        partition = Partition(graph, random_balanced_sides(graph, seed))
        balance = BalanceConstraint.fifty_fifty(graph)
        containers = _make_containers(graph, "bucket")
        for v in range(graph.num_nodes):
            containers[partition.side(v)].insert(
                v, int(partition.immediate_gain(v))
            )
        for _ in range(30):
            node = pick_move(containers, partition, balance)
            if node is None:
                break
            side = partition.side(node)
            containers[side].remove(node)
            _move_with_gain_updates(node, side, partition, containers)
            for v in range(graph.num_nodes):
                if not partition.is_locked(v):
                    stored = containers[partition.side(v)].gain_of(v)
                    assert stored == int(partition.immediate_gain(v)), (
                        f"node {v} stored {stored} != "
                        f"{partition.immediate_gain(v)} after moving {node}"
                    )
        partition.check_invariants()

    def test_realized_gain_returned(self, tiny_graph, tiny_sides):
        partition = Partition(tiny_graph, tiny_sides)
        containers = _make_containers(tiny_graph, "bucket")
        for v in range(6):
            containers[partition.side(v)].insert(
                v, int(partition.immediate_gain(v))
            )
        expected = partition.immediate_gain(2)
        containers[0].remove(2)
        realized = _move_with_gain_updates(2, 0, partition, containers)
        assert realized == expected


class TestPassSemantics:
    def test_cut_never_worsens_over_run(self):
        for seed in range(5):
            graph = hierarchical_circuit(70, 76, 270, seed=seed)
            initial = random_balanced_sides(graph, seed)
            result = FMPartitioner("bucket").partition(
                graph, initial_sides=initial
            )
            assert result.cut <= cut_cost(graph, initial)

    def test_verify_passes(self, medium_circuit):
        FMPartitioner("bucket").partition(medium_circuit, seed=1).verify(
            medium_circuit
        )
