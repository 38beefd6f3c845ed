"""CSR view structure tests: the packed arrays must mirror the graph.

The whole kernels layer leans on one invariant — CSR pin order equals the
graph's iteration order (net-major pins in ``graph.net(e)`` order,
node-major pins in ``graph.node_nets(v)`` order) — because sequential
floating-point products are only reproducible when the factors arrive in
the same order.  These tests pin that invariant structurally.
"""

import numpy as np
import pytest

from repro.hypergraph import make_benchmark
from repro.kernels.csr import CsrView
from repro.testing import random_instance, weighted_instance


@pytest.fixture(params=[0, 7, 101])
def graph(request):
    return weighted_instance(request.param, max_nodes=20)


def test_shapes_and_counts(graph):
    csr = CsrView(graph)
    assert csr.num_nodes == graph.num_nodes
    assert csr.num_nets == graph.num_nets
    assert csr.num_pins == graph.num_pins
    assert len(csr.pin_node) == graph.num_pins
    assert len(csr.nm_net) == graph.num_pins
    assert csr.net_offset[0] == 0 and csr.net_offset[-1] == graph.num_pins
    assert csr.node_offset[0] == 0 and csr.node_offset[-1] == graph.num_pins


def test_net_major_order_matches_graph(graph):
    csr = CsrView(graph)
    for e in range(graph.num_nets):
        lo, hi = int(csr.net_offset[e]), int(csr.net_offset[e + 1])
        assert tuple(int(v) for v in csr.pin_node[lo:hi]) == graph.net(e)
        assert all(int(n) == e for n in csr.pin_net[lo:hi])
        assert csr.net_cost[e] == graph.net_cost(e)


def test_node_major_order_matches_graph(graph):
    csr = CsrView(graph)
    for v in range(graph.num_nodes):
        lo, hi = int(csr.node_offset[v]), int(csr.node_offset[v + 1])
        assert tuple(int(n) for n in csr.nm_net[lo:hi]) == tuple(
            graph.node_nets(v)
        )
        assert all(int(o) == v for o in csr.nm_owner[lo:hi])


def test_list_twins_match_arrays(graph):
    """The plain-list copy used by the sub-round batch sweep stays in
    sync."""
    csr = CsrView(graph)
    assert csr.node_offset_list == csr.node_offset.tolist()


def test_build_seconds_recorded():
    csr = CsrView(random_instance(3))
    assert csr.build_seconds >= 0.0


def test_benchmark_circuit_roundtrip():
    g = make_benchmark("t5", scale=0.05)
    csr = CsrView(g)
    rebuilt = [
        [int(v) for v in csr.pin_node[csr.net_offset[e]: csr.net_offset[e + 1]]]
        for e in range(g.num_nets)
    ]
    assert rebuilt == [list(g.net(e)) for e in range(g.num_nets)]
