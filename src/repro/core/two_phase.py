"""Two-phase partitioning: clustering front end + PROP (paper Sec. 5).

The paper closes with: "we believe that in conjunction with a clustering
initial phase it will yield a high-quality partitioning tool."  This
module builds that tool:

1. **Cluster** — attraction-ordering windows (the same front end the
   WINDOW baseline uses) contract the netlist by ``cluster_size``;
2. **Coarse PROP** — PROP partitions the contracted netlist (weighted
   nodes, merged net costs) from a few random starts;
3. **Project + refine** — the best coarse partition is projected onto the
   flat netlist and PROP runs again from it, now with a high-quality
   initial partition instead of a random one.

Because PROP already handles weighted nets and weighted balance natively,
no machinery beyond :mod:`repro.hypergraph.transforms` is needed.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..hypergraph import Hypergraph, contract
from ..partition import (
    BalanceConstraint,
    BipartitionResult,
    random_balanced_sides,
)
from .config import PropConfig
from .engine import run_prop


class TwoPhasePropPartitioner:
    """Clustering + PROP, the paper's proposed "high-quality tool"."""

    def __init__(
        self,
        config: Optional[PropConfig] = None,
        cluster_size: int = 6,
        coarse_runs: int = 4,
    ) -> None:
        if cluster_size < 1:
            raise ValueError("cluster_size must be >= 1")
        if coarse_runs < 1:
            raise ValueError("coarse_runs must be >= 1")
        self.config = config if config is not None else PropConfig()
        self.cluster_size = cluster_size
        self.coarse_runs = coarse_runs

    name = "PROP-CL"

    def partition(
        self,
        graph: Hypergraph,
        balance: Optional[BalanceConstraint] = None,
        initial_sides: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
    ) -> BipartitionResult:
        """Partition ``graph`` with the cluster-then-refine flow.

        When ``initial_sides`` is given the clustering phase is skipped
        and this degenerates to plain PROP (interface compatibility with
        the multi-run harness).
        """
        if balance is None:
            balance = BalanceConstraint.fifty_fifty(graph)
        start = time.perf_counter()
        base_seed = 0 if seed is None else seed

        if initial_sides is None:
            initial_sides = self._clustered_initial(graph, balance, base_seed)

        result = run_prop(
            graph, initial_sides, balance, config=self.config, seed=seed
        )
        result.algorithm = self.name
        result.runtime_seconds = time.perf_counter() - start
        result.verify(graph)
        return result

    def _clustered_initial(
        self,
        graph: Hypergraph,
        balance: BalanceConstraint,
        seed: int,
    ) -> Sequence[int]:
        # Imported here: repro.baselines imports repro.kernels, which
        # imports this package.
        from ..baselines.window import attraction_ordering

        order = attraction_ordering(graph)
        cluster_of = [0] * graph.num_nodes
        for position, v in enumerate(order):
            cluster_of[v] = position // self.cluster_size
        contraction = contract(graph, cluster_of)
        coarse = contraction.coarse

        coarse_balance = balance.slackened(max(coarse.node_weights))
        best = None
        for i in range(self.coarse_runs):
            init = random_balanced_sides(coarse, seed + 31 * i)
            res = run_prop(coarse, init, coarse_balance, config=self.config)
            if best is None or res.cut < best.cut:
                best = res
        assert best is not None
        return contraction.project_sides(best.sides)
