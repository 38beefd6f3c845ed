"""Timing-driven net weighting (paper Secs. 1, 4 and 5).

The paper motivates non-uniform net costs with timing-driven partitioning
[Jackson, Srinivasan & Kuh 1990]: "a critical net is assigned more weight
than a non-critical one to ensure that the length of critical or
near-critical nets are kept as short as possible".  Crucially, weighted
nets break FM's O(1) bucket structure (FM must fall back to a tree,
Sec. 4) while PROP's float-keyed gain container handles them natively at
unchanged complexity — one of PROP's selling points and the subject of a
dedicated benchmark (``benchmarks/test_ablations.py``) and example
(``examples/timing_driven.py``).

This module provides weighting policies plus a report comparing how well a
partition protects critical nets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from ..hypergraph import Hypergraph


def critical_net_weights(
    graph: Hypergraph,
    critical_nets: Sequence[int],
    critical_weight: float = 10.0,
) -> Hypergraph:
    """Up-weight an explicit set of critical nets (others keep cost 1)."""
    if critical_weight <= 0:
        raise ValueError(f"critical_weight must be > 0, got {critical_weight}")
    critical: Set[int] = set(critical_nets)
    for net_id in critical:
        if net_id < 0 or net_id >= graph.num_nets:
            raise ValueError(f"net id {net_id} out of range")
    costs = [
        critical_weight if i in critical else 1.0
        for i in range(graph.num_nets)
    ]
    return graph.with_net_costs(costs)


def slack_based_weights(
    graph: Hypergraph,
    slacks: Sequence[float],
    alpha: float = 2.0,
) -> Hypergraph:
    """Cost ``1 + alpha · max(0, −slack)`` per net.

    Nets with negative timing slack (violating paths) get proportionally
    heavier; safely-slack nets keep unit cost.
    """
    if len(slacks) != graph.num_nets:
        raise ValueError(
            f"slacks has length {len(slacks)}, expected {graph.num_nets}"
        )
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    costs = [1.0 + alpha * max(0.0, -s) for s in slacks]
    return graph.with_net_costs(costs)


def synthetic_critical_nets(
    graph: Hypergraph,
    fraction: float = 0.1,
    seed: int = 0,
) -> List[int]:
    """A seeded random sample of nets marked critical.

    Stand-in for a static timing analysis (offline substitution per
    DESIGN.md): long-path criticality in a real flow also selects a
    sparse, roughly size-biased subset of nets; for exercising the
    *partitioners* only the weighting structure matters.  Larger nets are
    twice as likely to be picked (long nets are slower).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    rng = random.Random(seed)
    target = max(1, round(graph.num_nets * fraction))
    weights = [
        2.0 if graph.net_size(i) >= 3 else 1.0 for i in range(graph.num_nets)
    ]
    chosen: Set[int] = set()
    while len(chosen) < target:
        chosen.add(rng.choices(range(graph.num_nets), weights=weights)[0])
    return sorted(chosen)


@dataclass(frozen=True)
class TimingReport:
    """How a partition treats critical vs non-critical nets."""

    weighted_cut: float
    unweighted_cut: int
    critical_cut: int
    critical_total: int

    @property
    def critical_cut_fraction(self) -> float:
        if self.critical_total == 0:
            return 0.0
        return self.critical_cut / self.critical_total


def timing_report(
    weighted_graph: Hypergraph,
    sides: Sequence[int],
    critical_nets: Optional[Sequence[int]] = None,
) -> TimingReport:
    """Evaluate a partition of a weighted netlist.

    When ``critical_nets`` is omitted, every net with cost > 1 counts as
    critical.
    """
    if critical_nets is None:
        critical = {
            i
            for i in range(weighted_graph.num_nets)
            if weighted_graph.net_cost(i) > 1.0
        }
    else:
        critical = set(critical_nets)
    weighted = 0.0
    unweighted = 0
    critical_cut = 0
    for net_id, pins in enumerate(weighted_graph.nets):
        first = sides[pins[0]]
        if any(sides[v] != first for v in pins[1:]):
            weighted += weighted_graph.net_cost(net_id)
            unweighted += 1
            if net_id in critical:
                critical_cut += 1
    return TimingReport(
        weighted_cut=weighted,
        unweighted_cut=unweighted,
        critical_cut=critical_cut,
        critical_total=len(critical),
    )
