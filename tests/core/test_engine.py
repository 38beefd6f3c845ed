"""Integration tests for the PROP engine (paper Fig. 2)."""

import pytest

from repro.core import PropConfig, PropPartitioner, prop_bisect, run_prop
from repro.hypergraph import hierarchical_circuit, planted_bisection
from repro.partition import (
    BalanceConstraint,
    Partition,
    balance_ratio,
    cut_cost,
    random_balanced_sides,
)


class TestBasicBehaviour:
    def test_improves_random_partition(self, medium_circuit):
        initial = random_balanced_sides(medium_circuit, 3)
        before = cut_cost(medium_circuit, initial)
        result = PropPartitioner().partition(
            medium_circuit, initial_sides=initial
        )
        assert result.cut < before * 0.7
        result.verify(medium_circuit)

    def test_finds_planted_optimum(self, planted):
        graph, _, crossing = planted
        result = PropPartitioner().partition(graph, seed=0)
        assert result.cut <= crossing + 2

    def test_respects_5050_balance(self, medium_circuit):
        result = PropPartitioner().partition(medium_circuit, seed=1)
        assert balance_ratio(medium_circuit, result.sides) <= 0.5 + (
            1.5 / medium_circuit.num_nodes
        )

    def test_respects_4555_balance(self, medium_circuit):
        balance = BalanceConstraint.forty_five_fifty_five(medium_circuit)
        result = PropPartitioner().partition(
            medium_circuit, balance=balance, seed=1
        )
        assert balance_ratio(medium_circuit, result.sides) <= 0.55 + 1e-9

    def test_deterministic_given_seed(self, medium_circuit):
        a = PropPartitioner().partition(medium_circuit, seed=9)
        b = PropPartitioner().partition(medium_circuit, seed=9)
        assert a.sides == b.sides
        assert a.cut == b.cut

    def test_different_seeds_explore(self, medium_circuit):
        cuts = {
            PropPartitioner().partition(medium_circuit, seed=s).cut
            for s in range(6)
        }
        assert len(cuts) > 1  # run-to-run variety exists

    def test_result_metadata(self, medium_circuit):
        result = PropPartitioner().partition(medium_circuit, seed=4)
        assert result.algorithm == "PROP"
        assert result.seed == 4
        assert result.passes >= 1
        assert result.runtime_seconds > 0
        assert result.stats["tentative_moves"] > 0

    def test_passes_match_paper_range(self, medium_circuit):
        """Sec. 2: local minima typically reached in 2–4 passes (we allow a
        little slack — the bound is empirical)."""
        result = PropPartitioner().partition(medium_circuit, seed=2)
        assert 1 <= result.passes <= 10

    def test_prop_bisect_wrapper(self, medium_circuit):
        r = prop_bisect(medium_circuit, seed=5)
        assert r.algorithm == "PROP"


class TestConfigVariants:
    def test_deterministic_bootstrap(self, medium_circuit):
        cfg = PropConfig(init_method="deterministic")
        result = PropPartitioner(cfg).partition(medium_circuit, seed=1)
        result.verify(medium_circuit)
        initial = random_balanced_sides(medium_circuit, 1)
        assert result.cut < cut_cost(medium_circuit, initial)

    def test_sigmoid_probability(self, medium_circuit):
        cfg = PropConfig(probability_function="sigmoid")
        result = PropPartitioner(cfg).partition(medium_circuit, seed=1)
        result.verify(medium_circuit)

    def test_zero_refinement_iterations(self, medium_circuit):
        """With 0 refinements, gains come straight from the bootstrap
        probabilities — still a valid (if weaker) partitioner."""
        cfg = PropConfig(refinement_iterations=0)
        result = PropPartitioner(cfg).partition(medium_circuit, seed=1)
        result.verify(medium_circuit)

    def test_no_top_updates(self, medium_circuit):
        cfg = PropConfig(top_update_count=0)
        result = PropPartitioner(cfg).partition(medium_circuit, seed=1)
        result.verify(medium_circuit)

    def test_max_passes_cap(self, medium_circuit):
        cfg = PropConfig(max_passes=1)
        result = PropPartitioner(cfg).partition(medium_circuit, seed=1)
        assert result.passes == 1


class TestEngineInternals:
    def test_explicit_initial_sides(self, tiny_graph, tiny_sides):
        balance = BalanceConstraint.fifty_fifty(tiny_graph)
        result = run_prop(tiny_graph, tiny_sides, balance)
        # tiny graph's optimal bisection cut is 1 and we start there
        assert result.cut == 1.0

    def test_weighted_nets(self, medium_circuit):
        """PROP handles non-unit net costs natively (Sec. 4)."""
        weighted = medium_circuit.with_net_costs(
            [1.0 + (i % 3) for i in range(medium_circuit.num_nets)]
        )
        result = PropPartitioner().partition(weighted, seed=2)
        result.verify(weighted)
        initial = random_balanced_sides(weighted, 2)
        assert result.cut < cut_cost(weighted, initial)

    def test_locks_released_between_passes(self, medium_circuit):
        """After a run, the final partition state must have no locks —
        verified indirectly: a second run from the result's sides works."""
        first = PropPartitioner().partition(medium_circuit, seed=3)
        again = PropPartitioner().partition(
            medium_circuit, initial_sides=first.sides
        )
        assert again.cut <= first.cut  # can only stay or improve

    def test_small_complete_graph(self):
        """Degenerate instance: everything connected to everything."""
        graph, _, _ = planted_bisection(4, 8, 2, net_size=2, seed=0)
        result = PropPartitioner().partition(graph, seed=0)
        result.verify(graph)

    def test_beats_or_matches_initial_cut_always(self):
        for seed in range(5):
            graph = hierarchical_circuit(80, 90, 320, seed=seed)
            initial = random_balanced_sides(graph, seed)
            result = PropPartitioner().partition(
                graph, initial_sides=initial
            )
            assert result.cut <= cut_cost(graph, initial)
