"""Krishnamurthy's lookahead (LA-k) partitioner.

[Krishnamurthy 1984], as described in Sec. 2 of the DAC-96 paper: each node
carries a *gain vector* of ``k`` elements; for ``u ∈ V1`` the ith element is

    (# nets of u with i−1 other free V1 pins, removable by emptying V1)
  − (# nets of u whose V2 side has i−1 free pins, removable by emptying V2)

compared lexicographically (element 1 is exactly the FM gain, deeper
elements are lookahead levels).  Nets locked in a side can no longer be
removed through that side and stop contributing at the corresponding sign,
following Krishnamurthy's binding-number rules.

With ``k = 1`` the method degenerates to FM (a property the tests check).

Implementation note: the original achieves O(1) vector updates at the price
of the Θ(p_max^k) memory the DAC-96 paper criticizes; we instead recompute
the vectors of the moved node's neighbors after each move (O(d·p·q) per
move), trading that memory away — the partitioning *decisions*, and hence
cutsets, are unchanged.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from ..audit import AuditConfig
from ..hypergraph import Hypergraph
from ..kernels import CsrView, la_initial_vectors
from ..partition import (
    BalanceConstraint,
    BipartitionResult,
    Partition,
    random_balanced_sides,
)
from ..passes import GainPolicy, run_passes
from ..telemetry import Recorder

DEFAULT_MAX_PASSES = 100

GainVector = Tuple[float, ...]


def gain_vector(partition: Partition, node: int, k: int) -> GainVector:
    """The LA-k gain vector of a free node (see module docstring)."""
    graph = partition.graph
    s = partition.side(node)
    o = 1 - s
    vec = [0.0] * k
    for net_id in graph.node_nets(node):
        cost = graph.net_cost(net_id)
        other_count = partition.count(net_id, o)

        # Positive prospect: the net leaves (or stays out of) the cut once
        # the remaining free same-side pins are moved across.
        if not partition.net_locked_in(net_id, s):
            level = partition.free_count(net_id, s)  # others + self
            if 1 <= level <= k:
                vec[level - 1] += cost

        if other_count == 0:
            # Internal net: moving `node` cuts it immediately.
            vec[0] -= cost
        elif not partition.net_locked_in(net_id, o):
            # Moving `node` forecloses removing the net by emptying the
            # other side (the LA analogue of PROP's −p(n^{2→1}) term).
            level = partition.free_count(net_id, o) + 1
            if level - 1 >= 1 and level <= k:
                vec[level - 1] -= cost
    return tuple(vec)


class LAGains(GainPolicy):
    """LA-k's gain rule for the sequential move loop: lexicographic gain
    vectors, recomputed for every free neighbor after each move.

    The pass-start vectors come from the vectorized
    :func:`~repro.kernels.la_initial_vectors`, which returns
    :func:`gain_vector`'s values (passes always start unlocked, the
    kernel's precondition) and made runs faster at every size measured
    (docs/performance.md).
    """

    def __init__(self, partition: Partition, k: int) -> None:
        super().__init__(partition, CsrView(partition.graph))
        self.k = k

    def initial_keys(self) -> List[GainVector]:
        return la_initial_vectors(self.csr, self.partition, self.k)

    def apply_move(self, node, from_side, containers, counters) -> float:
        partition = self.partition
        graph = partition.graph
        immediate = partition.move_and_lock(node)
        # Refresh the vectors of all free neighbors.
        seen = {node}
        for net_id in graph.node_nets(node):
            for nbr in graph.net(net_id):
                if nbr in seen or partition.is_locked(nbr):
                    seen.add(nbr)
                    continue
                seen.add(nbr)
                containers[partition.side(nbr)].update(
                    nbr, gain_vector(partition, nbr, self.k)
                )
                if counters is not None:
                    counters.neighbor_updates += 1
                    counters.container_updates += 1
        return immediate

    def audit(self, auditor, containers) -> None:
        auditor.check_la_vectors(self.partition, containers, self.k)


def run_la(
    graph: Hypergraph,
    initial_sides: Sequence[int],
    balance: BalanceConstraint,
    k: int = 2,
    max_passes: int = DEFAULT_MAX_PASSES,
    seed: Optional[int] = None,
    audit: Optional[AuditConfig] = None,
    recorder: Optional[Recorder] = None,
) -> BipartitionResult:
    """Run LA-k from an explicit initial partition.

    ``audit`` attaches a read-only invariant auditor (see
    :mod:`repro.audit`); ``None`` defers to ``REPRO_AUDIT``.  Only nodes
    sharing a net with the moved node can see their vectors change, and
    LA refreshes exactly those — so the audited invariant is full
    equality of every stored vector with the Krishnamurthy definition.
    Time spent in audit hooks is excluded from ``runtime_seconds`` and
    reported as the ``audit_seconds`` stat.

    ``recorder`` attaches a :class:`repro.telemetry.Recorder` (spans,
    per-move events with the gain *vector* as the selection key, and
    counters); recording never changes moves or cuts.
    """
    if k < 1:
        raise ValueError(f"lookahead k must be >= 1, got {k}")
    start = time.perf_counter()
    partition = Partition(graph, initial_sides)
    return run_passes(
        LAGains(partition, k), balance, algorithm=f"LA-{k}", seed=seed,
        max_passes=max_passes, min_pass_gain=1e-9,
        audit=audit, recorder=recorder, start=start,
    )


class LAPartitioner:
    """Lookahead partitioner LA-k (k = 2 and 3 in the paper's tables)."""

    #: LA accepts a per-call ``audit`` config (see :mod:`repro.audit`).
    supports_audit = True

    #: LA accepts a per-call ``recorder`` (see :mod:`repro.telemetry`).
    supports_telemetry = True

    def __init__(
        self,
        k: int = 2,
        max_passes: int = DEFAULT_MAX_PASSES,
    ) -> None:
        if k < 1:
            raise ValueError(f"lookahead k must be >= 1, got {k}")
        self.k = k
        self.max_passes = max_passes

    @property
    def name(self) -> str:
        return f"LA-{self.k}"

    def partition(
        self,
        graph: Hypergraph,
        balance: Optional[BalanceConstraint] = None,
        initial_sides: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
        audit: Optional[AuditConfig] = None,
        recorder: Optional[Recorder] = None,
    ) -> BipartitionResult:
        """Bisect ``graph`` with LA-k (50-50 balance and seeded random start by default)."""
        if balance is None:
            balance = BalanceConstraint.fifty_fifty(graph)
        if initial_sides is None:
            initial_sides = random_balanced_sides(graph, seed)
        result = run_la(
            graph,
            initial_sides,
            balance,
            k=self.k,
            max_passes=self.max_passes,
            seed=seed,
            audit=audit,
            recorder=recorder,
        )
        result.verify(graph)
        return result
