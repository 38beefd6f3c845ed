"""PARABOLI-style analytical-placement bisection.

The paper's Table 3 competitor "PARABOLI" [Riess, Doll & Johannes,
DAC 1994] partitions very large circuits by *analytical placement*: a
quadratic (wire-length) placement is solved globally, nodes are ordered by
their placed coordinate and the ordering is split.

Faithfulness note (see DESIGN.md, substitutions): the original iterates
placement with progressive repulsion around the cut; we implement the
defining mechanism — a global quadratic solve with two anchored seed sets
(Dirichlet boundary values 0 and 1), node ordering by the resulting
potential, best balanced split — optionally iterated a few times with the
extreme nodes of the previous solution re-anchored.  This preserves the
profile the DAC-96 comparison exercises: a global, move-free method whose
cost is dominated by sparse linear solves and which is strong on circuits
with long-range structure but much slower than FM-family heuristics.
"""

from __future__ import annotations

import time
from collections import deque
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..hypergraph import Hypergraph
from ..partition import (
    BalanceConstraint,
    BipartitionResult,
    best_split_of_ordering,
)
from .spectral.laplacian import laplacian_matrix, load_scipy


def _bfs_farthest(graph: Hypergraph, start: int) -> int:
    """Farthest node from ``start`` by hypergraph BFS (ties → lowest id)."""
    dist = [-1] * graph.num_nodes
    dist[start] = 0
    queue = deque([start])
    farthest = start
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                if dist[v] > dist[farthest] or (
                    dist[v] == dist[farthest] and v < farthest
                ):
                    farthest = v
                queue.append(v)
    return farthest


def pseudo_peripheral_pair(graph: Hypergraph) -> Tuple[int, int]:
    """Two far-apart nodes found by double BFS (the classic heuristic).

    These act as the placement anchors — stand-ins for PARABOLI's pad/seed
    modules.  Starting point: the maximum-degree node.
    """
    if graph.num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    start = max(range(graph.num_nodes), key=graph.node_degree)
    a = _bfs_farthest(graph, start)
    b = _bfs_farthest(graph, a)
    if a == b:
        b = (a + 1) % graph.num_nodes
    return a, b


def quadratic_placement(
    graph: Hypergraph,
    anchors_zero: Sequence[int],
    anchors_one: Sequence[int],
) -> np.ndarray:
    """1-D quadratic placement with Dirichlet anchors.

    Solves ``L_ii · x_i = −L_ib · x_b`` where the anchor nodes are fixed at
    coordinates 0 and 1 — the harmonic extension minimizing quadratic
    wirelength ``Σ w(u,v)(x_u − x_v)²`` over the clique expansion.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = graph.num_nodes
    fixed = {}
    for v in anchors_zero:
        fixed[v] = 0.0
    for v in anchors_one:
        if v in fixed:
            raise ValueError(f"node {v} anchored to both sides")
        fixed[v] = 1.0
    if not fixed or len(fixed) >= n:
        raise ValueError("need anchors on both sides and free interior nodes")

    laplacian = laplacian_matrix(graph).tocsc()
    free = np.array([v for v in range(n) if v not in fixed], dtype=int)
    fixed_idx = np.array(sorted(fixed), dtype=int)
    fixed_val = np.array([fixed[v] for v in fixed_idx])

    l_ii = laplacian[free][:, free]
    l_ib = laplacian[free][:, fixed_idx]
    # Tiny Tikhonov term keeps components with no anchor path solvable.
    reg = sp.identity(len(free), format="csc") * 1e-9
    rhs = -l_ib @ fixed_val
    interior = spla.spsolve(l_ii + reg, rhs)

    x = np.zeros(n)
    x[fixed_idx] = fixed_val
    x[free] = np.atleast_1d(interior)
    return x


class ParaboliPartitioner:
    """Quadratic-placement bisection (PARABOLI-style)."""

    def __init__(self, iterations: int = 3, anchor_fraction: float = 0.02) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < anchor_fraction < 0.5:
            raise ValueError("anchor_fraction must be in (0, 0.5)")
        self.iterations = iterations
        self.anchor_fraction = anchor_fraction
        load_scipy()

    name = "PARABOLI"
    #: Seed-independent: the multirun harness clamps extra runs to one.
    deterministic = True

    def partition(
        self,
        graph: Hypergraph,
        balance: Optional[BalanceConstraint] = None,
        initial_sides: Optional[Sequence[int]] = None,  # noqa: ARG002 - deterministic method
        seed: Optional[int] = None,
    ) -> BipartitionResult:
        """Bisect ``graph`` by iterated quadratic placement.

        Deterministic; ``initial_sides``/``seed`` exist for interface
        compatibility.
        """
        if balance is None:
            balance = BalanceConstraint.forty_five_fifty_five(graph)
        start = time.perf_counter()

        a, b = pseudo_peripheral_pair(graph)
        anchors_zero: List[int] = [a]
        anchors_one: List[int] = [b]
        best_sides: Optional[List[int]] = None
        best_cut = float("inf")

        k = max(1, int(graph.num_nodes * self.anchor_fraction))
        for _ in range(self.iterations):
            x = quadratic_placement(graph, anchors_zero, anchors_one)
            order = [int(v) for v in np.argsort(x, kind="stable")]
            sides, cut = best_split_of_ordering(graph, order, balance)
            if cut < best_cut:
                best_cut = cut
                best_sides = sides
            # Re-anchor: the k extreme nodes of each end of the placement
            # (progressive stiffening around the emerging split).
            anchors_zero = order[:k]
            anchors_one = order[-k:]

        elapsed = time.perf_counter() - start
        assert best_sides is not None
        result = BipartitionResult(
            sides=best_sides,
            cut=best_cut,
            algorithm="PARABOLI",
            seed=seed,
            passes=self.iterations,
            runtime_seconds=elapsed,
        )
        result.verify(graph)
        return result
