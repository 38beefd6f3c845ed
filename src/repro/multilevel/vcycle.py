"""Multilevel (V-cycle) bisection with PROP refinement.

Coarsen by heavy-edge matching (:mod:`repro.multilevel.coarsen`), partition
the coarsest graph from several random starts, then walk back up the
hierarchy, projecting the partition and refining it at every level with an
FM-family engine (PROP by default, started from the projected sides).

This generalizes the paper's Sec. 5 "clustering initial phase" suggestion
from one clustering level to a full hierarchy, and serves as the repo's
strongest partitioner on large instances.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..core import PropPartitioner
from ..hypergraph import Hypergraph
from ..multirun.runner import Partitioner
from ..partition import (
    BalanceConstraint,
    BipartitionResult,
    cut_cost,
    random_balanced_sides,
)
from .coarsen import coarsen_to


class MultilevelPartitioner:
    """Heavy-edge V-cycle around any 2-way refinement engine."""

    def __init__(
        self,
        refiner: Optional[Partitioner] = None,
        coarsest_nodes: int = 80,
        coarsest_runs: int = 8,
    ) -> None:
        if coarsest_nodes < 2:
            raise ValueError("coarsest_nodes must be >= 2")
        if coarsest_runs < 1:
            raise ValueError("coarsest_runs must be >= 1")
        self.refiner = refiner if refiner is not None else PropPartitioner()
        self.coarsest_nodes = coarsest_nodes
        self.coarsest_runs = coarsest_runs

    name = "ML-PROP"

    def partition(
        self,
        graph: Hypergraph,
        balance: Optional[BalanceConstraint] = None,
        initial_sides: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
    ) -> BipartitionResult:
        """V-cycle bisection of ``graph``.

        ``initial_sides`` (when given) skips the V-cycle and runs the
        refiner directly — interface compatibility with the harness.
        """
        if balance is None:
            balance = BalanceConstraint.fifty_fifty(graph)
        base_seed = 0 if seed is None else seed
        start = time.perf_counter()

        if initial_sides is not None:
            result = self.refiner.partition(
                graph, balance=balance, initial_sides=initial_sides, seed=seed
            )
            result.algorithm = self.name
            return result

        hierarchy = coarsen_to(
            graph, target_nodes=self.coarsest_nodes, seed=base_seed
        )
        levels = 0

        # Partition the coarsest graph from several random starts.  Coarse
        # bounds get one max-weight super-node of slack, so coarse-level
        # moves stay feasible (weights grow with contraction).
        coarsest = hierarchy[-1].coarse if hierarchy else graph
        coarse_balance = balance.slackened(
            max(coarsest.node_weights, default=1.0)
        )
        best_sides = None
        best_cut = float("inf")
        for i in range(self.coarsest_runs):
            init = random_balanced_sides(coarsest, base_seed + 17 * i)
            res = self.refiner.partition(
                coarsest, balance=coarse_balance, initial_sides=init,
                seed=base_seed + 17 * i,
            )
            if res.cut < best_cut:
                best_cut = res.cut
                best_sides = res.sides
        assert best_sides is not None
        sides = best_sides

        # Uncoarsen: project one level up and refine from the projection.
        for idx in range(len(hierarchy) - 1, -1, -1):
            levels += 1
            fine = graph if idx == 0 else hierarchy[idx - 1].coarse
            sides = hierarchy[idx].project_sides(sides)
            level_balance = (
                balance if idx == 0
                else balance.slackened(max(fine.node_weights, default=1.0))
            )
            res = self.refiner.partition(
                fine, balance=level_balance, initial_sides=sides,
                seed=base_seed + levels,
            )
            sides = res.sides

        result = BipartitionResult(
            sides=list(sides),
            cut=cut_cost(graph, sides),
            algorithm=self.name,
            seed=seed,
            passes=levels + 1,
            runtime_seconds=time.perf_counter() - start,
            stats={
                "levels": float(len(hierarchy)),
                "coarsest_nodes": float(coarsest.num_nodes),
            },
        )
        result.verify(graph)
        return result

