"""WINDOW-style clustering partitioner.

The paper's Table 2 competitor "WINDOW" [Alpert & Kahng, ICCAD 1994]: a
vertex ordering is computed, clusters are carved out of contiguous windows
of the ordering, the clustered (contracted) netlist is partitioned, and the
result is projected back and polished — "clustering is followed by 20 runs
of FM" (paper Table 2 caption).

Pipeline implemented here (faithfulness notes in DESIGN.md):

1. **Attraction ordering** — starting from the max-degree node, repeatedly
   append the free node most attracted (summed shared-net weight) to the
   nodes ordered so far; this is the windowing front end of the original
   framework.
2. **Window clustering** — contiguous runs of ``cluster_size`` nodes in the
   ordering become clusters; the netlist is contracted.
3. **Coarse partitioning** — FM-tree (contracted nets carry merged costs)
   from ``coarse_runs`` random initial partitions, best kept.
4. **Projection + FM refinement** — the projected partition seeds
   ``refine_runs`` FM runs on the flat netlist (the first run unperturbed,
   the rest from lightly perturbed copies); best cut wins.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional, Sequence

from ..hypergraph import Hypergraph, contract
from ..partition import (
    BalanceConstraint,
    BipartitionResult,
    cut_cost,
    random_balanced_sides,
)
from .fm import run_fm


def attraction_ordering(graph: Hypergraph, start: Optional[int] = None) -> List[int]:
    """Order nodes by accumulated attraction to the already-ordered set.

    Attraction of a free node grows by ``c(net)/(|net|−1)`` each time a
    pin-mate is appended.  Ties break toward higher degree, then lower id,
    making the ordering fully deterministic.
    """
    n = graph.num_nodes
    if n == 0:
        return []
    if start is None:
        start = max(range(n), key=lambda v: (graph.node_degree(v), -v))
    attraction = [0.0] * n
    ordered = [start]
    in_order = [False] * n
    in_order[start] = True

    def absorb(u: int) -> None:
        for net_id in graph.node_nets(u):
            pins = graph.net(net_id)
            if len(pins) < 2:
                continue
            w = graph.net_cost(net_id) / (len(pins) - 1)
            for v in pins:
                if not in_order[v]:
                    attraction[v] += w

    absorb(start)
    for _ in range(n - 1):
        best = -1
        best_key = None
        for v in range(n):
            if in_order[v]:
                continue
            key = (attraction[v], graph.node_degree(v), -v)
            if best_key is None or key > best_key:
                best_key = key
                best = v
        ordered.append(best)
        in_order[best] = True
        absorb(best)
    return ordered


def _perturb(sides: Sequence[int], fraction: float, rng: random.Random) -> List[int]:
    """Swap a random ``fraction`` of cross-side node pairs (balance kept)."""
    sides = list(sides)
    zeros = [v for v, s in enumerate(sides) if s == 0]
    ones = [v for v, s in enumerate(sides) if s == 1]
    swaps = max(1, int(len(sides) * fraction / 2))
    for _ in range(min(swaps, len(zeros), len(ones))):
        a = zeros[rng.randrange(len(zeros))]
        b = ones[rng.randrange(len(ones))]
        sides[a], sides[b] = sides[b], sides[a]
    return sides


class WindowPartitioner:
    """Ordering/clustering front end + FM refinement back end."""

    def __init__(
        self,
        cluster_size: int = 8,
        coarse_runs: int = 10,
        refine_runs: int = 20,
        perturb_fraction: float = 0.05,
    ) -> None:
        if cluster_size < 1:
            raise ValueError("cluster_size must be >= 1")
        if coarse_runs < 1 or refine_runs < 1:
            raise ValueError("run counts must be >= 1")
        self.cluster_size = cluster_size
        self.coarse_runs = coarse_runs
        self.refine_runs = refine_runs
        self.perturb_fraction = perturb_fraction

    name = "WINDOW"

    def partition(
        self,
        graph: Hypergraph,
        balance: Optional[BalanceConstraint] = None,
        initial_sides: Optional[Sequence[int]] = None,  # noqa: ARG002 - clustering chooses its own start
        seed: Optional[int] = None,
    ) -> BipartitionResult:
        """Bisect ``graph`` with the ordering/clustering + FM pipeline."""
        if balance is None:
            balance = BalanceConstraint.fifty_fifty(graph)
        rng = random.Random(seed)
        start = time.perf_counter()

        order = attraction_ordering(graph)
        cluster_of = [0] * graph.num_nodes
        for position, v in enumerate(order):
            cluster_of[v] = position // self.cluster_size
        contraction = contract(graph, cluster_of)
        coarse = contraction.coarse

        # Coarse balance: same absolute bounds, slackened by one cluster.
        coarse_balance = balance.slackened(max(coarse.node_weights))
        best_coarse: Optional[List[int]] = None
        best_coarse_cut = float("inf")
        for _ in range(self.coarse_runs):
            init = random_balanced_sides(coarse, rng.randrange(1 << 30))
            res = run_fm(coarse, init, coarse_balance, container="tree")
            if res.cut < best_coarse_cut:
                best_coarse_cut = res.cut
                best_coarse = res.sides
        assert best_coarse is not None
        projected = contraction.project_sides(best_coarse)

        # Flat FM refinement: the projected partition plus perturbed
        # variants, `refine_runs` runs in total.
        best_sides = projected
        best_cut = cut_cost(graph, projected)
        for run in range(self.refine_runs):
            if run == 0:
                init = projected
            else:
                init = _perturb(projected, self.perturb_fraction, rng)
            res = run_fm(graph, init, balance, container="bucket")
            if res.cut < best_cut:
                best_cut = res.cut
                best_sides = res.sides

        elapsed = time.perf_counter() - start
        result = BipartitionResult(
            sides=best_sides,
            cut=best_cut,
            algorithm="WINDOW",
            seed=seed,
            passes=self.refine_runs,
            runtime_seconds=elapsed,
            stats={
                "coarse_nodes": float(coarse.num_nodes),
                "coarse_cut": float(best_coarse_cut),
            },
        )
        result.verify(graph)
        return result
