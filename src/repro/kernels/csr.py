"""CSR-packed hypergraph view backing the vectorized kernels.

:class:`repro.hypergraph.Hypergraph` stores nets as tuples-of-tuples —
ideal for the scalar engines, but every vectorized operation would pay a
Python-level gather.  :class:`CsrView` packs the same incidence structure
into contiguous arrays once per run, at engine construction:

* **net-major** — ``pin_node[j]`` lists every net's pins back to back
  (``net_offset[e] .. net_offset[e+1]`` is net ``e``'s slice, pins in the
  hypergraph's pin order), with ``pin_net[j]`` the owning net id;
* **node-major** — one entry per (node, net) incidence in
  ``graph.node_nets`` order: ``nm_net[i]`` / ``nm_owner[i]`` with
  ``node_offset[v] .. node_offset[v+1]`` the slice of node ``v``.

Pin order is load-bearing: the kernels promise bit-identical results to
the scalar loops, which accumulate per-net products in net-pin order and
per-node sums in ``node_nets`` order.  Both layouts preserve exactly
those orders (see :mod:`repro.kernels.numpy_backend`).

numpy is a hard dependency.  The engines whose sweeps are vectorized
build a view: every LA-k run, the sub-round engines, and PROP's numpy
engine, which it uses from :data:`repro.kernels.AUTO_SCALAR_CUTOFF_PINS`
pins up.  A sequential FM run builds none.
"""

from __future__ import annotations

import time
from itertools import accumulate

import numpy as np

from ..hypergraph import Hypergraph


class CsrView:
    """Immutable contiguous-array view of one hypergraph."""

    __slots__ = (
        "num_nodes",
        "num_nets",
        "num_pins",
        "pin_node",
        "pin_net",
        "net_offset",
        "net_cost",
        "nm_net",
        "nm_cost",
        "nm_flip",
        "nm_owner",
        "node_offset",
        "node_offset_list",
        "build_seconds",
    )

    def __init__(self, graph: Hypergraph) -> None:
        t0 = time.perf_counter()
        nets = graph.nets
        n = graph.num_nodes
        e = graph.num_nets
        m = graph.num_pins
        self.num_nodes = n
        self.num_nets = e
        self.num_pins = m

        pin_node = [0] * m
        pin_net = [0] * m
        sizes = [0] * e
        j = 0
        for net_id, pins in enumerate(nets):
            sizes[net_id] = len(pins)
            for v in pins:
                pin_node[j] = v
                pin_net[j] = net_id
                j += 1
        net_offset = [0] + list(accumulate(sizes))

        degrees = [graph.node_degree(v) for v in range(n)]
        node_offset = [0] + list(accumulate(degrees))
        nm_net = [0] * m
        nm_owner = [0] * m
        i = 0
        for v in range(n):
            for net_id in graph.node_nets(v):
                nm_net[i] = net_id
                nm_owner[i] = v
                i += 1

        self.pin_node = np.asarray(pin_node, dtype=np.intp)
        self.pin_net = np.asarray(pin_net, dtype=np.intp)
        self.net_offset = np.asarray(net_offset, dtype=np.intp)
        self.net_cost = np.asarray(graph.net_costs, dtype=np.float64)
        self.nm_net = np.asarray(nm_net, dtype=np.intp)
        # Per-incidence net cost, pre-gathered once (static per graph).
        self.nm_cost = self.net_cost[self.nm_net]
        # Flat-index helper for the side-major product stack of the gain
        # kernels: with ``flat = s*E + net`` the other side's slot is
        # ``nm_flip - flat`` because their sum is always ``E + 2*net``.
        self.nm_flip = self.nm_net * 2 + e
        self.nm_owner = np.asarray(nm_owner, dtype=np.intp)
        self.node_offset = np.asarray(node_offset, dtype=np.intp)
        # Plain-list twin for the sub-round batch sweep's per-candidate
        # slicing (element access on a Python list is ~3x cheaper than on
        # an ndarray and returns plain ints).
        self.node_offset_list = node_offset
        self.build_seconds = time.perf_counter() - t0
