"""Unit tests for the core Hypergraph data structure."""

import pytest

from repro.hypergraph import Hypergraph, HypergraphError, clique_edges

NON_FINITE = [float("nan"), float("inf"), -float("inf")]


class TestConstruction:
    def test_basic_counts(self, tiny_graph):
        assert tiny_graph.num_nodes == 6
        assert tiny_graph.num_nets == 5
        assert tiny_graph.num_pins == 11

    def test_infers_num_nodes(self):
        hg = Hypergraph([[0, 3]])
        assert hg.num_nodes == 4

    def test_explicit_num_nodes_allows_isolated(self):
        hg = Hypergraph([[0, 1]], num_nodes=5)
        assert hg.num_nodes == 5
        assert hg.isolated_nodes() == [2, 3, 4]

    def test_num_nodes_too_small_rejected(self):
        with pytest.raises(HypergraphError, match="reference node"):
            Hypergraph([[0, 5]], num_nodes=3)

    def test_empty_net_rejected(self):
        with pytest.raises(HypergraphError, match="empty"):
            Hypergraph([[0, 1], []])

    def test_duplicate_pin_rejected(self):
        with pytest.raises(HypergraphError, match="duplicate"):
            Hypergraph([[0, 1, 0]])

    def test_negative_node_rejected(self):
        with pytest.raises(HypergraphError, match="negative"):
            Hypergraph([[0, -1]])

    def test_non_integer_node_rejected(self):
        with pytest.raises(HypergraphError, match="non-integer"):
            Hypergraph([[0, 1.5]])

    def test_bool_node_rejected(self):
        with pytest.raises(HypergraphError, match="non-integer"):
            Hypergraph([[0, True]])

    def test_single_pin_net_allowed(self):
        hg = Hypergraph([[2]])
        assert hg.num_nets == 1
        assert hg.net_size(0) == 1

    def test_empty_hypergraph(self):
        hg = Hypergraph([], num_nodes=3)
        assert hg.num_nodes == 3
        assert hg.num_nets == 0
        assert hg.num_pins == 0


class TestCostsAndWeights:
    def test_default_unit_costs(self, tiny_graph):
        assert tiny_graph.has_unit_net_costs
        assert tiny_graph.net_costs == (1.0,) * 5

    def test_explicit_costs(self):
        hg = Hypergraph([[0, 1], [1, 2]], net_costs=[2.5, 1.0])
        assert hg.net_cost(0) == 2.5
        assert not hg.has_unit_net_costs

    def test_cost_length_mismatch(self):
        with pytest.raises(HypergraphError, match="length"):
            Hypergraph([[0, 1]], net_costs=[1.0, 2.0])

    def test_negative_cost_rejected(self):
        with pytest.raises(HypergraphError, match="negative"):
            Hypergraph([[0, 1]], net_costs=[-1.0])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_cost_rejected(self, bad):
        with pytest.raises(HypergraphError, match=r"costs\[1\].*not finite"):
            Hypergraph([[0, 1], [1, 2]], net_costs=[1.0, bad])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_cost_rejected_by_with_net_costs(self, bad):
        hg = Hypergraph([[0, 1], [1, 2]])
        with pytest.raises(HypergraphError, match="not finite"):
            hg.with_net_costs([bad, 1.0])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_node_weight_rejected(self, bad):
        with pytest.raises(HypergraphError, match=r"weights\[0\].*not finite"):
            Hypergraph([[0, 1]], node_weights=[bad, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_node_weight_rejected_by_with_node_weights(self, bad):
        hg = Hypergraph([[0, 1]])
        with pytest.raises(HypergraphError, match="not finite"):
            hg.with_node_weights([1.0, bad])

    def test_node_weights(self):
        hg = Hypergraph([[0, 1]], node_weights=[2.0, 3.0])
        assert hg.node_weight(1) == 3.0
        assert hg.total_node_weight == 5.0

    def test_with_net_costs_copy(self, tiny_graph):
        weighted = tiny_graph.with_net_costs([2.0] * 5)
        assert weighted.net_cost(0) == 2.0
        assert tiny_graph.net_cost(0) == 1.0  # original untouched
        assert weighted.nets == tiny_graph.nets

    def test_with_node_weights_copy(self, tiny_graph):
        weighted = tiny_graph.with_node_weights([2.0] * 6)
        assert weighted.total_node_weight == 12.0
        assert tiny_graph.total_node_weight == 6.0


class TestIncidence:
    def test_node_nets(self, tiny_graph):
        assert tiny_graph.node_nets(1) == (0, 1)
        assert tiny_graph.node_nets(5) == (3, 4)

    def test_node_degree(self, tiny_graph):
        assert tiny_graph.node_degree(4) == 2
        assert tiny_graph.node_degree(0) == 1

    def test_neighbors(self, tiny_graph):
        assert sorted(tiny_graph.neighbors(2)) == [1, 3, 5]
        assert sorted(tiny_graph.neighbors(0)) == [1]

    def test_neighbors_no_self(self, tiny_graph):
        for v in range(tiny_graph.num_nodes):
            assert v not in tiny_graph.neighbors(v)

    def test_neighbors_deduplicated(self):
        # nodes 0,1 share two nets; neighbor listed once
        hg = Hypergraph([[0, 1], [0, 1]])
        assert hg.neighbors(0) == [1]

    def test_iter_pins(self, tiny_graph):
        pins = list(tiny_graph.iter_pins())
        assert len(pins) == tiny_graph.num_pins
        assert (0, 0) in pins
        assert (4, 5) in pins

    def test_degree_histogram(self, tiny_graph):
        assert tiny_graph.degree_histogram() == {2: 4, 3: 1}


class TestEquality:
    def test_equal(self):
        a = Hypergraph([[0, 1], [1, 2]])
        b = Hypergraph([[0, 1], [1, 2]])
        assert a == b
        assert hash(a) == hash(b)

    def test_costs_matter(self):
        a = Hypergraph([[0, 1]])
        b = Hypergraph([[0, 1]], net_costs=[2.0])
        assert a != b

    def test_not_equal_to_other_types(self):
        assert Hypergraph([[0, 1]]) != "nope"


class TestCliqueEdges:
    def test_two_pin_net(self):
        edges = clique_edges(Hypergraph([[0, 1]]))
        assert edges == {(0, 1): 1.0}

    def test_standard_weighting(self):
        # 3-pin net: each edge gets 1/(3-1) = 0.5
        edges = clique_edges(Hypergraph([[0, 1, 2]]))
        assert edges == {(0, 1): 0.5, (0, 2): 0.5, (1, 2): 0.5}

    def test_uniform_weighting(self):
        edges = clique_edges(Hypergraph([[0, 1, 2]]), weight_model="uniform")
        assert edges[(0, 1)] == 1.0

    def test_parallel_nets_accumulate(self):
        edges = clique_edges(Hypergraph([[0, 1], [0, 1]]))
        assert edges == {(0, 1): 2.0}

    def test_single_pin_net_ignored(self):
        assert clique_edges(Hypergraph([[0]])) == {}

    def test_net_cost_scales(self):
        hg = Hypergraph([[0, 1]], net_costs=[3.0])
        assert clique_edges(hg) == {(0, 1): 3.0}

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="weight_model"):
            clique_edges(Hypergraph([[0, 1]]), weight_model="bogus")
