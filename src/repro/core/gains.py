"""Probabilistic node gains — paper Sec. 3.1, Eqns. (2)–(6).

Every node ``u`` carries a probability ``p(u)`` of actually being moved in
the current pass; locked nodes have ``p = 0``.  With that convention the
paper's four gain equations collapse into a single rule (derivation in
DESIGN.md, decision 1).  For a *free* node ``u`` on side ``s`` and a net
``nt`` with cost ``c``:

* ``A = (nt ∩ side s) − {u}``, ``B = nt ∩ other side``
* ``prodA = Π p(x), x ∈ A`` and ``prodB = Π p(y), y ∈ B``
  (empty products are 1; any locked member forces the product to 0)
* if ``B`` is non-empty (net in the cutset):  ``g = c · (prodA − prodB)``
  — Eqn. (3), and its locked specializations Eqns. (5)/(6);
* if ``B`` is empty (net internal to ``s``):  ``g = c · (prodA − 1)``
  — Eqn. (4), ``−c·(1 − p(n^{1→2}|u))``.

``prodA`` is the probability that every other same-side pin leaves (the net
gets pulled out of the cut — or stays out, for an internal net, when ``u``
leaves); ``prodB`` is the probability the *other* side would have emptied
on its own, an option that moving ``u`` forecloses (the negative term of
Eqn. (2)).

The total gain of ``u`` is the sum over its nets: ``g(u) = Σ g_nt(u)``.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Sequence

from ..partition import Partition

#: Underflow guard for the ``prod_mine / p(u)`` conditional-product recovery
#: (Eqns. 3/5): dividing is exact to 1/2 ulp only while the full product is a
#: *normal* float.  Below ``sys.float_info.min`` (≈2.2e-308) the product has
#: already lost mantissa bits to gradual underflow — e.g. a 780-pin net at
#: ``pmin = 0.4`` — and the quotient can be pure noise, so the engines fall
#: back to the exact sequential recompute instead.  A product of exactly 0.0
#: also takes the recompute branch, which short-circuits in O(1) when the
#: zero is structural (a locked pin on the side).
DIV_SAFE_MIN = sys.float_info.min


class ProbabilisticGainEngine:
    """Computes probabilistic gains over a :class:`Partition`.

    The engine owns the probability vector ``p`` (indexed by node).  Locked
    nodes must have ``p = 0`` — :meth:`set_probability` and
    :meth:`on_lock` maintain this; gains read locks straight from the
    partition, so the two views can never drift apart.

    :attr:`probability_writes` counts probability-vector refreshes
    (``set_probability`` calls, plus one ``fill`` per pass bootstrap);
    the telemetry layer reports its per-pass delta as the
    ``probability_refreshes`` counter.
    """

    __slots__ = ("partition", "p", "probability_writes", "underflow_recomputes")

    #: Backend identifier reported in run stats; the numpy subclass
    #: (:class:`repro.kernels.NumpyGainEngine`) overrides this.
    kernel_name = "python"

    def __init__(
        self,
        partition: Partition,
        probabilities: Optional[Sequence[float]] = None,
    ) -> None:
        self.partition = partition
        n = partition.graph.num_nodes
        if probabilities is None:
            self.p: List[float] = [0.0] * n
        else:
            if len(probabilities) != n:
                raise ValueError(
                    f"probabilities has length {len(probabilities)}, expected {n}"
                )
            self.p = [float(x) for x in probabilities]
        for v in range(n):
            if partition.is_locked(v):
                self.p[v] = 0.0
        #: Running count of probability-vector refreshes (telemetry).
        self.probability_writes = 0
        #: How often a side product underflowed below :data:`DIV_SAFE_MIN`
        #: and forced the exact recompute branch (run-level stat).
        self.underflow_recomputes = 0

    # ------------------------------------------------------------------
    # Probability maintenance
    # ------------------------------------------------------------------
    def set_probability(self, node: int, value: float) -> None:
        """Set ``p(node)``; rejects non-zero values for locked nodes."""
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"probability {value} outside [0, 1]")
        if value and self.partition.is_locked(node):
            raise ValueError(f"node {node} is locked; its probability must be 0")
        self.p[node] = value
        self.probability_writes += 1

    def fill(self, value: float) -> None:
        """Set every *free* node's probability to ``value``."""
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"probability {value} outside [0, 1]")
        part = self.partition
        for v in range(len(self.p)):
            self.p[v] = 0.0 if part.is_locked(v) else value
        self.probability_writes += 1

    def on_lock(self, node: int) -> None:
        """Record that ``node`` was just locked (its p drops to 0)."""
        self.p[node] = 0.0

    # ------------------------------------------------------------------
    # Net-level probabilities (the p(n^{1→2}) quantities of Sec. 3.1)
    # ------------------------------------------------------------------
    def net_clearing_probability(
        self, net_id: int, side: int, exclude: Optional[int] = None
    ) -> float:
        """Probability that all pins of ``net_id`` on ``side`` move away.

        This is the paper's ``p(n^{1→2})`` (for side = 1 in its notation):
        the product of the probabilities of the side's pins, which is 0 as
        soon as any of them is locked there.  ``exclude`` omits one free
        node from the product (conditioning on that node's own move, the
        ``| u`` in Eqns. (3)/(5)).
        """
        part = self.partition
        if part.net_locked_in(net_id, side):
            # A locked pin can never leave; the locked node also has p = 0,
            # but short-circuiting avoids a useless multiply loop.
            return 0.0
        prod = 1.0
        p = self.p
        for v in part.graph.net(net_id):
            if v != exclude and part.side(v) == side:
                prod *= p[v]
                if prod == 0.0:
                    return 0.0
        return prod

    # ------------------------------------------------------------------
    # Gains
    # ------------------------------------------------------------------
    def net_gain(self, node: int, net_id: int) -> float:
        """Gain contributed to ``node`` by one of its nets (Eqns. 3–6).

        Single pass over the net's pins (both side products at once).
        """
        part = self.partition
        graph = part.graph
        p = self.p
        sides = part.sides_view()
        s = sides[node]
        prod_a = 1.0
        prod_b = 1.0
        has_other = False
        for v in graph.net(net_id):
            if v == node:
                continue
            if sides[v] == s:
                prod_a *= p[v]
            else:
                has_other = True
                prod_b *= p[v]
        cost = graph.net_cost(net_id)
        if has_other:
            return cost * (prod_a - prod_b)
        return cost * (prod_a - 1.0)

    def node_gain(self, node: int) -> float:
        """Total probabilistic gain ``g(u) = Σ_nets g_nt(u)``.

        Both side products of each net are accumulated in a single pass
        over the net's pins instead of via two
        :meth:`net_clearing_probability` calls.  The PROP move loop sums
        the same terms from a memo (``PropGains._memo_gain``), which must
        return this very float; this from-scratch sum is what the
        auditor, ``figure1`` and the tests compare against.

        ``node`` must be free.  A net locked on both sides is skipped
        without reading its pins: both of its side products hold a
        locked pin (p = 0), so its term is ``c·(0 − 0)`` (Eqns. 5/6),
        and adding a zero never changes a sum that starts at +0.0.
        ``PropGains._memo_gain`` and ``PropGains._mark_stale`` skip the
        same nets; the rules must stay one.
        """
        part = self.partition
        graph = part.graph
        p = self.p
        sides = part.sides_view()
        nets = graph.nets
        net_costs = graph.net_costs
        locked0 = part.locked_counts_view(0)
        locked1 = part.locked_counts_view(1)
        s = sides[node]
        total = 0.0
        for net_id in graph.node_nets(node):
            if locked0[net_id] and locked1[net_id]:
                continue
            prod_a = 1.0
            prod_b = 1.0
            has_other = False
            for v in nets[net_id]:
                if v == node:
                    continue
                pv = p[v]
                if sides[v] == s:
                    prod_a *= pv
                else:
                    has_other = True
                    prod_b *= pv
            cost = net_costs[net_id]
            if has_other:
                total += cost * (prod_a - prod_b)
            else:
                total += cost * (prod_a - 1.0)
        return total

    def all_gains(self) -> List[float]:
        """Gains of every free node (locked nodes get 0), in O(m).

        Used by the refinement iterations, where recomputing shared net
        products once per net (instead of once per pin) matters.  The
        per-node conditioning ``| u`` divides ``u`` back out of its side's
        product, which is exact because probabilities are >= pmin > 0 for
        all free nodes during refinement.
        """
        part = self.partition
        graph = part.graph
        p = self.p
        num_nets = graph.num_nets
        sides = part.sides_view()
        locked = part.locked_view()
        net_costs = graph.net_costs
        counts0 = part.counts_view(0)
        counts1 = part.counts_view(1)
        locked0 = part.locked_counts_view(0)
        locked1 = part.locked_counts_view(1)

        # Per-net, per-side clearing probabilities (no exclusions).
        prod0 = [1.0] * num_nets
        prod1 = [1.0] * num_nets
        for net_id, pins in enumerate(graph.nets):
            a = 0.0 if locked0[net_id] else 1.0
            b = 0.0 if locked1[net_id] else 1.0
            if a or b:
                for v in pins:
                    if sides[v] == 0:
                        a *= p[v]
                    else:
                        b *= p[v]
                prod0[net_id], prod1[net_id] = a, b
            else:
                prod0[net_id] = prod1[net_id] = 0.0

        gains = [0.0] * graph.num_nodes
        for node in range(graph.num_nodes):
            if locked[node]:
                continue
            s = sides[node]
            pu = p[node]
            total = 0.0
            for net_id in graph.node_nets(node):
                cost = net_costs[net_id]
                if s == 0:
                    prod_mine, prod_other = prod0[net_id], prod1[net_id]
                    other_count = counts1[net_id]
                else:
                    prod_mine, prod_other = prod1[net_id], prod0[net_id]
                    other_count = counts0[net_id]
                if pu > 0.0 and prod_mine >= DIV_SAFE_MIN:
                    prod_a = prod_mine / pu
                else:
                    # Structural zeros (a locked pin on the side) resolve
                    # in O(1) inside the recompute; genuine underflow —
                    # 0 < product < DIV_SAFE_MIN — recomputes exactly.
                    if 0.0 < prod_mine < DIV_SAFE_MIN:
                        self.underflow_recomputes += 1
                    prod_a = self.net_clearing_probability(
                        net_id, s, exclude=node
                    )
                if other_count > 0:
                    total += cost * (prod_a - prod_other)
                else:
                    total += cost * (prod_a - 1.0)
            gains[node] = total
        return gains
