"""Core hypergraph (netlist) data structure.

A circuit netlist is modelled as a hypergraph ``G = (V, E)`` following the
notation of Dutt & Deng (DAC 1996, Sec. 1):

* ``V`` is the set of nodes (circuit components), identified by the integers
  ``0 .. num_nodes - 1``;
* ``E`` is the set of nets (hyperedges), identified by the integers
  ``0 .. num_nets - 1``; each net connects one or more nodes;
* every (node, net) incidence is a *pin*; ``num_pins`` is the total pin count
  ``m = p*n = q*e`` of Sec. 3.5.

The structure is immutable after construction: all partitioners in this
package treat the netlist as read-only and keep their mutable state (sides,
locks, gains, probabilities) in separate objects.  Use
:class:`repro.hypergraph.builder.HypergraphBuilder` for incremental
construction, or the generator functions in
:mod:`repro.hypergraph.generators` for synthetic circuits.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..datastructures.prefix import exact_cost_sums


class HypergraphError(ValueError):
    """Raised when a hypergraph is constructed from inconsistent data."""


class Hypergraph:
    """An immutable hypergraph / circuit netlist.

    Parameters
    ----------
    nets:
        A sequence of nets, each net a sequence of node indices.  Nodes on a
        net must be distinct; single-pin nets are allowed (they can never be
        cut) but empty nets are rejected.
    num_nodes:
        Optional explicit node count.  When omitted, it is inferred as
        ``max(node index) + 1``.  Passing it explicitly allows isolated
        nodes (nodes on no net), which do occur in real netlists (e.g. a
        spare cell).
    net_costs:
        Optional per-net cost/weight ``c(nt)`` (Sec. 1 of the paper:
        e.g. net width for area-driven, criticality weight for
        timing-driven partitioning).  Defaults to unit costs.
    node_weights:
        Optional per-node size/area weight, used by weighted balance
        constraints.  Defaults to unit weights ("all nodes have unit size",
        paper Sec. 1).
    node_names / net_names:
        Optional human-readable names preserved by the netlist readers.
    """

    __slots__ = (
        "_nets",
        "_node_nets",
        "_net_costs",
        "_node_weights",
        "_num_pins",
        "_node_names",
        "_net_names",
        "_exact_cut_sums",
        # Lets the n-level hierarchy memo key entries that die with the
        # netlist (repro.multilevel.nlevel.HierarchyMemo); pickling skips it.
        "__weakref__",
    )

    def __init__(
        self,
        nets: Sequence[Sequence[int]],
        num_nodes: Optional[int] = None,
        net_costs: Optional[Sequence[float]] = None,
        node_weights: Optional[Sequence[float]] = None,
        node_names: Optional[Sequence[str]] = None,
        net_names: Optional[Sequence[str]] = None,
    ) -> None:
        canonical_nets: List[Tuple[int, ...]] = []
        max_node = -1
        num_pins = 0
        for net_id, net in enumerate(nets):
            pins = tuple(net)
            if not pins:
                raise HypergraphError(f"net {net_id} is empty")
            seen = set()
            for node in pins:
                if not isinstance(node, int) or isinstance(node, bool):
                    raise HypergraphError(
                        f"net {net_id} contains non-integer node {node!r}"
                    )
                if node < 0:
                    raise HypergraphError(
                        f"net {net_id} contains negative node {node}"
                    )
                if node in seen:
                    raise HypergraphError(
                        f"net {net_id} contains duplicate node {node}"
                    )
                seen.add(node)
                if node > max_node:
                    max_node = node
            canonical_nets.append(pins)
            num_pins += len(pins)

        inferred = max_node + 1
        if num_nodes is None:
            num_nodes = inferred
        elif num_nodes < inferred:
            raise HypergraphError(
                f"num_nodes={num_nodes} but nets reference node {max_node}"
            )

        self._nets: Tuple[Tuple[int, ...], ...] = tuple(canonical_nets)
        self._num_pins = num_pins

        node_nets: List[List[int]] = [[] for _ in range(num_nodes)]
        for net_id, pins in enumerate(self._nets):
            for node in pins:
                node_nets[node].append(net_id)
        self._node_nets: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(lst) for lst in node_nets
        )

        self._net_costs = self._check_vector(
            net_costs, len(self._nets), "net_costs", default=1.0
        )
        self._node_weights = self._check_vector(
            node_weights, num_nodes, "node_weights", default=1.0
        )
        self._node_names = self._check_names(node_names, num_nodes, "node_names")
        self._net_names = self._check_names(net_names, len(self._nets), "net_names")
        self._exact_cut_sums: Optional[bool] = None

    @staticmethod
    def _check_vector(
        values: Optional[Sequence[float]],
        expected_len: int,
        label: str,
        default: float,
    ) -> Tuple[float, ...]:
        if values is None:
            return (default,) * expected_len
        out = tuple(float(v) for v in values)
        if len(out) != expected_len:
            raise HypergraphError(
                f"{label} has length {len(out)}, expected {expected_len}"
            )
        for i, v in enumerate(out):
            if not math.isfinite(v):
                raise HypergraphError(f"{label}[{i}] = {v} is not finite")
            if v < 0:
                raise HypergraphError(f"{label}[{i}] = {v} is negative")
        return out

    @staticmethod
    def _check_names(
        names: Optional[Sequence[str]], expected_len: int, label: str
    ) -> Optional[Tuple[str, ...]]:
        if names is None:
            return None
        out = tuple(str(s) for s in names)
        if len(out) != expected_len:
            raise HypergraphError(
                f"{label} has length {len(out)}, expected {expected_len}"
            )
        return out

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """``n``: number of nodes (circuit components)."""
        return len(self._node_nets)

    @property
    def num_nets(self) -> int:
        """``e``: number of nets (hyperedges)."""
        return len(self._nets)

    @property
    def num_pins(self) -> int:
        """``m = p*n = q*e``: total number of pins (node-net incidences)."""
        return self._num_pins

    # ------------------------------------------------------------------
    # Incidence
    # ------------------------------------------------------------------
    @property
    def nets(self) -> Tuple[Tuple[int, ...], ...]:
        """All nets, as tuples of node indices."""
        return self._nets

    def net(self, net_id: int) -> Tuple[int, ...]:
        """Nodes connected by net ``net_id``."""
        return self._nets[net_id]

    def net_size(self, net_id: int) -> int:
        """Number of pins on net ``net_id``."""
        return len(self._nets[net_id])

    def node_nets(self, node: int) -> Tuple[int, ...]:
        """Nets that ``node`` is connected to (its pins)."""
        return self._node_nets[node]

    def node_degree(self, node: int) -> int:
        """Number of nets on ``node`` (paper symbol: pins per node)."""
        return len(self._node_nets[node])

    def neighbors(self, node: int) -> List[int]:
        """Distinct nodes sharing at least one net with ``node``.

        Two nodes are *neighbors* when they are connected by a common net
        (paper Sec. 1).  The result excludes ``node`` itself.
        """
        seen = {node}
        result: List[int] = []
        for net_id in self._node_nets[node]:
            for other in self._nets[net_id]:
                if other not in seen:
                    seen.add(other)
                    result.append(other)
        return result

    # ------------------------------------------------------------------
    # Costs and weights
    # ------------------------------------------------------------------
    @property
    def net_costs(self) -> Tuple[float, ...]:
        """Per-net cost ``c(nt)``."""
        return self._net_costs

    def net_cost(self, net_id: int) -> float:
        """Cost ``c(net_id)`` of one net."""
        return self._net_costs[net_id]

    @property
    def exact_cut_sums(self) -> bool:
        """True when every net cost is an integer and the costs total
        below 2**53, so every cut and every sum of cut changes is an exact
        float (:func:`repro.datastructures.exact_cost_sums`; computed once
        per netlist)."""
        if self._exact_cut_sums is None:
            self._exact_cut_sums = exact_cost_sums(self._net_costs)
        return self._exact_cut_sums

    @property
    def has_unit_net_costs(self) -> bool:
        """True when every net has cost exactly 1 (enables FM buckets)."""
        return all(c == 1.0 for c in self._net_costs)

    @property
    def node_weights(self) -> Tuple[float, ...]:
        return self._node_weights

    def node_weight(self, node: int) -> float:
        """Size/area weight of one node."""
        return self._node_weights[node]

    @property
    def total_node_weight(self) -> float:
        return sum(self._node_weights)

    @property
    def node_names(self) -> Optional[Tuple[str, ...]]:
        return self._node_names

    @property
    def net_names(self) -> Optional[Tuple[str, ...]]:
        return self._net_names

    # ------------------------------------------------------------------
    # Derived constructions
    # ------------------------------------------------------------------
    def with_net_costs(self, net_costs: Sequence[float]) -> "Hypergraph":
        """A copy of this hypergraph with different net costs."""
        return Hypergraph(
            self._nets,
            num_nodes=self.num_nodes,
            net_costs=net_costs,
            node_weights=self._node_weights,
            node_names=self._node_names,
            net_names=self._net_names,
        )

    def with_node_weights(self, node_weights: Sequence[float]) -> "Hypergraph":
        """A copy of this hypergraph with different node weights."""
        return Hypergraph(
            self._nets,
            num_nodes=self.num_nodes,
            net_costs=self._net_costs,
            node_weights=node_weights,
            node_names=self._node_names,
            net_names=self._net_names,
        )

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Hypergraph(num_nodes={self.num_nodes}, "
            f"num_nets={self.num_nets}, num_pins={self.num_pins})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and self._nets == other._nets
            and self._net_costs == other._net_costs
            and self._node_weights == other._node_weights
        )

    def __hash__(self) -> int:
        return hash((self.num_nodes, self._nets))

    def iter_pins(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all (net_id, node) pin pairs."""
        for net_id, pins in enumerate(self._nets):
            for node in pins:
                yield net_id, node

    def degree_histogram(self) -> Dict[int, int]:
        """Histogram {net size: count} of net sizes."""
        hist: Dict[int, int] = {}
        for pins in self._nets:
            hist[len(pins)] = hist.get(len(pins), 0) + 1
        return hist

    def isolated_nodes(self) -> List[int]:
        """Nodes connected to no net."""
        return [v for v in range(self.num_nodes) if not self._node_nets[v]]


def clique_edges(
    graph: Hypergraph, weight_model: str = "standard"
) -> Dict[Tuple[int, int], float]:
    """Expand a hypergraph into weighted clique-model graph edges.

    Used by the spectral (EIG1, MELO), analytical (PARABOLI-style) and KL
    baselines, which operate on ordinary graphs.  Each net of size ``q`` is
    replaced by a clique over its pins.

    weight_model:
        ``"standard"``: each clique edge weighs ``c(net) / (q - 1)`` — the
        classic model used by EIG1 [Hagen & Kahng 1991].
        ``"uniform"``: each clique edge weighs ``c(net)``.

    Returns a dict mapping ``(u, v)`` with ``u < v`` to accumulated weight.
    Single-pin nets contribute nothing.
    """
    if weight_model not in ("standard", "uniform"):
        raise ValueError(f"unknown weight_model {weight_model!r}")
    edges: Dict[Tuple[int, int], float] = {}
    for net_id, pins in enumerate(graph.nets):
        q = len(pins)
        if q < 2:
            continue
        if weight_model == "standard":
            w = graph.net_cost(net_id) / (q - 1)
        else:
            w = graph.net_cost(net_id)
        for i in range(q):
            u = pins[i]
            for j in range(i + 1, q):
                v = pins[j]
                key = (u, v) if u < v else (v, u)
                edges[key] = edges.get(key, 0.0) + w
    return edges
