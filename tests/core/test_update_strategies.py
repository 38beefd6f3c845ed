"""Tests for the two Sec. 3.4 update strategies (recompute vs cached)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PropConfig, PropPartitioner
from repro.core.engine import run_prop
from repro.core.gains import ProbabilisticGainEngine
from repro.hypergraph import hierarchical_circuit
from repro.multirun import run_many
from repro.partition import (
    BalanceConstraint,
    Partition,
    cut_cost,
    random_balanced_sides,
)
from repro.telemetry import MemoryRecorder
from repro.testing import strategies


class TestConfig:
    def test_strategies_accepted(self):
        PropConfig(update_strategy="recompute")
        PropConfig(update_strategy="cached")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="update_strategy"):
            PropConfig(update_strategy="psychic")


class TestContributionPrimitives:
    @pytest.fixture
    def engine(self):
        graph = hierarchical_circuit(60, 66, 240, seed=3)
        partition = Partition(graph, random_balanced_sides(graph, 1))
        engine = ProbabilisticGainEngine(partition)
        engine.fill(0.7)
        return engine

    def test_net_pin_contributions_match_net_gain(self, engine):
        graph = engine.partition.graph
        for net_id in range(graph.num_nets):
            per_pin = engine.net_pin_contributions(net_id)
            for pin, contribution in per_pin.items():
                assert contribution == pytest.approx(
                    engine.net_gain(pin, net_id), abs=1e-12
                )

    def test_contributions_sum_to_node_gain(self, engine):
        graph = engine.partition.graph
        for node in range(graph.num_nodes):
            entry = engine.contributions_for(node)
            assert sum(entry.values()) == pytest.approx(
                engine.node_gain(node), abs=1e-12
            )

    def test_all_contributions_matches_per_node(self, engine):
        graph = engine.partition.graph
        bulk = engine.all_contributions()
        for node in range(graph.num_nodes):
            expected = engine.contributions_for(node)
            assert set(bulk[node]) == set(expected)
            for net_id, c in expected.items():
                assert bulk[node][net_id] == pytest.approx(c, abs=1e-12)

    def test_locked_pins_excluded(self, engine):
        partition = engine.partition
        graph = partition.graph
        node = 0
        partition.move_and_lock(node)
        engine.on_lock(node)
        for net_id in graph.node_nets(node):
            assert node not in engine.net_pin_contributions(net_id)
        assert engine.all_contributions()[node] == {}


class TestCachedStrategyEndToEnd:
    @pytest.fixture
    def circuit(self):
        return hierarchical_circuit(250, 265, 960, seed=7)

    def test_valid_results(self, circuit):
        result = PropPartitioner(
            PropConfig(update_strategy="cached")
        ).partition(circuit, seed=0)
        result.verify(circuit)
        assert cut_cost(circuit, result.sides) == result.cut

    def test_quality_parity_with_recompute(self, circuit):
        """The strategies differ only in which second-order staleness
        survives until the top-k repair; best-of-N quality must land in
        the same band."""
        rec = run_many(
            PropPartitioner(PropConfig(update_strategy="recompute")),
            circuit, runs=4,
        )
        cac = run_many(
            PropPartitioner(PropConfig(update_strategy="cached")),
            circuit, runs=4,
        )
        assert cac.best_cut <= rec.best_cut * 1.2
        assert rec.best_cut <= cac.best_cut * 1.2

    def test_deterministic(self, circuit):
        cfg = PropConfig(update_strategy="cached")
        a = PropPartitioner(cfg).partition(circuit, seed=3)
        b = PropPartitioner(cfg).partition(circuit, seed=3)
        assert a.sides == b.sides

    def test_improves_initial(self, circuit):
        initial = random_balanced_sides(circuit, 2)
        result = PropPartitioner(
            PropConfig(update_strategy="cached")
        ).partition(circuit, initial_sides=initial)
        assert result.cut < cut_cost(circuit, initial) * 0.7

    def test_weighted_nets(self, circuit):
        weighted = circuit.with_net_costs(
            [1.0 + (i % 3) for i in range(circuit.num_nets)]
        )
        result = PropPartitioner(
            PropConfig(update_strategy="cached")
        ).partition(weighted, seed=1)
        result.verify(weighted)


class TestCachedRecomputeParity:
    """Hypothesis: with in-pass probability re-derivation disabled the two
    update strategies are trajectory-identical (see
    ``repro.audit.differential.differential_prop_strategies``): the cached
    Eqn. 5/6 contribution deltas must reproduce the recomputed gains
    exactly, so the move sequences and final cuts must match move-for-move.
    This drives ``_update_neighbors_cached`` / ``_update_top_ranked_cached``
    against the recompute path on random instances via the telemetry
    per-move event stream."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_identical_move_sequences_and_cuts(self, data):
        graph, sides = data.draw(
            strategies.graphs_with_sides(
                min_nodes=4, max_nodes=14, balanced=True
            )
        )
        balance = BalanceConstraint.fifty_fifty(graph)
        trajectories = {}
        for strategy in ("recompute", "cached"):
            rec = MemoryRecorder()
            config = PropConfig(
                update_strategy=strategy,
                update_neighbor_probabilities=False,
                max_passes=4,
            )
            result = run_prop(
                graph, sides, balance, config=config, seed=0, recorder=rec
            )
            trajectories[strategy] = (
                [(m.pass_index, m.node, m.from_side, m.immediate_gain)
                 for m in rec.moves],
                result.cut,
                result.sides,
            )
        assert trajectories["recompute"] == trajectories["cached"]
