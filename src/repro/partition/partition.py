"""Mutable bipartition state with incremental cut maintenance.

``Partition`` is the shared substrate of every iterative partitioner in this
package (FM, LA, PROP).  It tracks, for each net, how many of its pins lie
on each side — the quantity every gain formula is written in terms of — and
keeps the cutset cost up to date in O(pins of moved node) per move.

It also tracks per-node *locks* and per-net per-side *locked pin counts*,
because PROP's probabilistic gains (paper Sec. 3.4) and Krishnamurthy's
lookahead vectors both need to know whether a net is "locked in" a side
(has a locked pin there), and the pass's *dead cut*: the total cost of
the nets locked in both sides, which stay cut until the locks are
released (the pass stop rule, :func:`repro.datastructures.pass_can_stop`).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..hypergraph import Hypergraph


class Partition:
    """A 2-way partition of a hypergraph's nodes.

    Parameters
    ----------
    graph:
        The (immutable) netlist.
    sides:
        Initial side (0 or 1) of every node.
    """

    __slots__ = (
        "graph",
        "_side",
        "_counts0",
        "_counts1",
        "_locked",
        "_locked0",
        "_locked1",
        "_side_weights",
        "_cut_cost",
        "_dead_cut",
        "_num_locked",
    )

    def __init__(self, graph: Hypergraph, sides: Sequence[int]) -> None:
        if len(sides) != graph.num_nodes:
            raise ValueError(
                f"sides has length {len(sides)}, expected {graph.num_nodes}"
            )
        for v, s in enumerate(sides):
            if s not in (0, 1):
                raise ValueError(f"side of node {v} is {s!r}, expected 0 or 1")
        self.graph = graph
        self._side: List[int] = list(sides)
        self._counts0: List[int] = [0] * graph.num_nets
        self._counts1: List[int] = [0] * graph.num_nets
        self._locked: List[bool] = [False] * graph.num_nodes
        self._locked0: List[int] = [0] * graph.num_nets
        self._locked1: List[int] = [0] * graph.num_nets
        self._side_weights: List[float] = [0.0, 0.0]
        self._dead_cut = 0.0
        self._num_locked = 0

        for v in range(graph.num_nodes):
            self._side_weights[self._side[v]] += graph.node_weight(v)
        cut = 0.0
        for net_id, pins in enumerate(graph.nets):
            c0 = sum(1 for v in pins if self._side[v] == 0)
            self._counts0[net_id] = c0
            self._counts1[net_id] = len(pins) - c0
            if c0 and self._counts1[net_id]:
                cut += graph.net_cost(net_id)
        self._cut_cost = cut

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def side(self, node: int) -> int:
        """Current side (0/1) of ``node``."""
        return self._side[node]

    @property
    def sides(self) -> List[int]:
        """A copy of the node → side assignment."""
        return list(self._side)

    def count(self, net_id: int, side: int) -> int:
        """Number of pins of ``net_id`` on ``side`` (paper's |n ∩ Vr|)."""
        return self._counts0[net_id] if side == 0 else self._counts1[net_id]

    def locked_count(self, net_id: int, side: int) -> int:
        """Number of *locked* pins of ``net_id`` on ``side``."""
        return self._locked0[net_id] if side == 0 else self._locked1[net_id]

    def free_count(self, net_id: int, side: int) -> int:
        """Number of unlocked pins of ``net_id`` on ``side``."""
        return self.count(net_id, side) - self.locked_count(net_id, side)

    def net_is_cut(self, net_id: int) -> bool:
        """True when ``net_id`` has pins on both sides."""
        return bool(self._counts0[net_id]) and bool(self._counts1[net_id])

    def net_locked_in(self, net_id: int, side: int) -> bool:
        """True when ``net_id`` has a locked pin on ``side`` (paper Sec. 3.1)."""
        return self.locked_count(net_id, side) > 0

    @property
    def cut_cost(self) -> float:
        """Current cutset cost (sum of costs of nets with pins on both sides)."""
        return self._cut_cost

    def cut_nets(self) -> List[int]:
        """Ids of all nets currently in the cutset."""
        return [
            i
            for i in range(self.graph.num_nets)
            if self._counts0[i] and self._counts1[i]
        ]

    @property
    def dead_cut(self) -> float:
        """Total cost of the nets with a locked pin on each side.  Such a
        net stays cut while the locks hold, so within a pass this only
        grows; :meth:`unlock_all` resets it to 0."""
        return self._dead_cut

    @property
    def side_weights(self) -> Tuple[float, float]:
        """Total node weight on (side 0, side 1)."""
        return (self._side_weights[0], self._side_weights[1])

    def side_sizes(self) -> Tuple[int, int]:
        """Node counts on (side 0, side 1)."""
        n1 = sum(self._side)
        return len(self._side) - n1, n1

    def nodes_on_side(self, side: int) -> List[int]:
        """All node ids currently on ``side``."""
        return [v for v, s in enumerate(self._side) if s == side]

    # ------------------------------------------------------------------
    # Borrowed views (hot-path accessors)
    # ------------------------------------------------------------------
    # The gain engines and the repro.kernels CSR packer index these arrays
    # millions of times per pass; going through ``side()``/``count()`` per
    # element costs a method call each.  The views return the *internal*
    # lists: treat them as read-only, and do not hold them across moves if
    # element identity matters (they are mutated in place).

    def sides_view(self) -> List[int]:
        """Borrowed read-only view of the node → side list."""
        return self._side

    def counts_view(self, side: int) -> List[int]:
        """Borrowed read-only view of per-net pin counts on ``side``."""
        return self._counts0 if side == 0 else self._counts1

    def locked_view(self) -> List[bool]:
        """Borrowed read-only view of the per-node lock flags."""
        return self._locked

    def locked_counts_view(self, side: int) -> List[int]:
        """Borrowed read-only view of per-net locked-pin counts on ``side``."""
        return self._locked0 if side == 0 else self._locked1

    # ------------------------------------------------------------------
    # Locks
    # ------------------------------------------------------------------
    def is_locked(self, node: int) -> bool:
        """True when ``node`` is locked on its current side."""
        return self._locked[node]

    @property
    def num_locked(self) -> int:
        return self._num_locked

    def lock(self, node: int) -> None:
        """Lock ``node`` on its current side (idempotent errors are real bugs)."""
        if self._locked[node]:
            raise ValueError(f"node {node} already locked")
        self._locked[node] = True
        self._num_locked += 1
        if self._side[node] == 0:
            counts, others = self._locked0, self._locked1
        else:
            counts, others = self._locked1, self._locked0
        costs = self.graph.net_costs
        dead = self._dead_cut
        for net_id in self.graph.node_nets(node):
            c = counts[net_id]
            counts[net_id] = c + 1
            if not c and others[net_id]:
                dead += costs[net_id]
        self._dead_cut = dead

    def unlock_all(self) -> None:
        """Release every lock (between passes)."""
        self._locked = [False] * self.graph.num_nodes
        self._locked0 = [0] * self.graph.num_nets
        self._locked1 = [0] * self.graph.num_nets
        self._dead_cut = 0.0
        self._num_locked = 0

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------
    def immediate_gain(self, node: int) -> float:
        """FM's deterministic gain (paper Eqn. 1): cut decrease if moved now.

        ``+c(net)`` for every net where ``node`` is the only pin on its side
        (net leaves the cut), ``-c(net)`` for every net entirely on
        ``node``'s side (net enters the cut).
        """
        s = self._side[node]
        mine = self._counts0 if s == 0 else self._counts1
        theirs = self._counts1 if s == 0 else self._counts0
        graph = self.graph
        gain = 0.0
        for net_id in graph.node_nets(node):
            if theirs[net_id] == 0:
                if mine[net_id] > 1:
                    gain -= graph.net_cost(net_id)
                # else: single-pin net follows the node; cut unchanged
            elif mine[net_id] == 1:
                gain += graph.net_cost(net_id)
        return gain

    def move(self, node: int) -> float:
        """Move ``node`` to the other side; returns the realized cut gain.

        Locked nodes may not move.  The returned value equals
        ``immediate_gain(node)`` evaluated just before the move.
        """
        if self._locked[node]:
            raise ValueError(f"cannot move locked node {node}")
        s = self._side[node]
        graph = self.graph
        mine = self._counts0 if s == 0 else self._counts1
        theirs = self._counts1 if s == 0 else self._counts0
        gain = 0.0
        for net_id in graph.node_nets(node):
            if theirs[net_id] == 0:
                if mine[net_id] > 1:
                    gain -= graph.net_cost(net_id)
                # else: single-pin net follows the node; cut unchanged
            elif mine[net_id] == 1:
                gain += graph.net_cost(net_id)
            mine[net_id] -= 1
            theirs[net_id] += 1
        self._side[node] = 1 - s
        w = graph.node_weight(node)
        self._side_weights[s] -= w
        self._side_weights[1 - s] += w
        self._cut_cost -= gain
        return gain

    def move_and_lock(self, node: int) -> float:
        """The FM pass primitive: move then lock; returns the realized gain."""
        gain = self.move(node)
        self.lock(node)
        return gain

    def apply_batch(
        self, nodes: Sequence[int], gains: Sequence[float]
    ) -> None:
        """Commit one sub-round batch: move and lock every node at once.

        ``gains[i]`` must be the immediate gain of ``nodes[i]`` *at batch
        selection time* — exact for a net-disjoint batch, where no batch
        move touches another batch node's nets (see
        :mod:`repro.kernels.subround`).  The cut is updated per move by
        the caller-supplied gain (same subtraction order a sequential
        replay performs, keeping the float trajectory identical), while
        pin counts, locked counts, the dead cut, weights and locks are
        maintained incrementally exactly as :meth:`move_and_lock` would.
        """
        if len(nodes) != len(gains):
            raise ValueError(
                f"batch has {len(nodes)} nodes but {len(gains)} gains"
            )
        graph = self.graph
        costs = graph.net_costs
        for i, node in enumerate(nodes):
            if self._locked[node]:
                raise ValueError(f"cannot move locked node {node}")
            s = self._side[node]
            mine = self._counts0 if s == 0 else self._counts1
            theirs = self._counts1 if s == 0 else self._counts0
            locked_to = self._locked1 if s == 0 else self._locked0
            locked_from = self._locked0 if s == 0 else self._locked1
            for net_id in graph.node_nets(node):
                mine[net_id] -= 1
                theirs[net_id] += 1
                c = locked_to[net_id]
                locked_to[net_id] = c + 1
                if not c and locked_from[net_id]:
                    self._dead_cut += costs[net_id]
            self._side[node] = 1 - s
            self._locked[node] = True
            self._num_locked += 1
            w = graph.node_weight(node)
            self._side_weights[s] -= w
            self._side_weights[1 - s] += w
            self._cut_cost -= gains[i]

    def undo_moves(self, nodes: Iterable[int]) -> None:
        """Move each node in ``nodes`` back (they must be unlocked).

        Callers pass the rolled-back suffix of a pass journal *after*
        :meth:`unlock_all`; order does not matter for correctness.
        """
        for node in nodes:
            self.move(node)

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Recompute everything from scratch and compare (test helper)."""
        graph = self.graph
        cut = 0.0
        for net_id, pins in enumerate(graph.nets):
            c0 = sum(1 for v in pins if self._side[v] == 0)
            c1 = len(pins) - c0
            assert c0 == self._counts0[net_id], f"net {net_id} count0 stale"
            assert c1 == self._counts1[net_id], f"net {net_id} count1 stale"
            l0 = sum(
                1 for v in pins if self._side[v] == 0 and self._locked[v]
            )
            l1 = sum(
                1 for v in pins if self._side[v] == 1 and self._locked[v]
            )
            assert l0 == self._locked0[net_id], f"net {net_id} locked0 stale"
            assert l1 == self._locked1[net_id], f"net {net_id} locked1 stale"
            if c0 and c1:
                cut += graph.net_cost(net_id)
        assert abs(cut - self._cut_cost) < 1e-6, "cut cost stale"
        dead = sum(
            graph.net_cost(net_id)
            for net_id in range(graph.num_nets)
            if self._locked0[net_id] and self._locked1[net_id]
        )
        assert abs(dead - self._dead_cut) < 1e-6, "dead cut stale"
        w0 = sum(
            graph.node_weight(v)
            for v in range(graph.num_nodes)
            if self._side[v] == 0
        )
        assert abs(w0 - self._side_weights[0]) < 1e-6, "side weight stale"
        assert self._num_locked == sum(self._locked), "lock count stale"
