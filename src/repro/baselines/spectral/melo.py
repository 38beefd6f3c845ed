"""MELO-style multi-eigenvector linear ordering [Alpert & Yao, DAC 1995].

The paper's Table 3 competitor "MELO": instead of ordering nodes by the
Fiedler vector alone, MELO embeds every node with its components in the
``d`` smallest non-trivial Laplacian eigenvectors ("the more eigenvectors
the better") and derives a linear ordering from that d-dimensional
embedding; the ordering is then split at the best balanced point.

Faithfulness note (see DESIGN.md, substitutions): Alpert & Yao construct
the ordering by solving a max-TSP-like problem over the embedded points;
we use the standard greedy nearest-neighbor chain through the embedding
starting from an extreme vertex — the same mechanism class (multi-
eigenvector spatial ordering) with the same cost profile (dominated by the
eigensolve), which is what the Table 3/4 comparisons exercise.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from ...hypergraph import Hypergraph
from ...partition import (
    BalanceConstraint,
    BipartitionResult,
    best_split_of_ordering,
)
from .laplacian import TIE_TOL, component_order, load_scipy


def _greedy_chain_order(points: np.ndarray) -> List[int]:
    """Greedy nearest-neighbor chain through embedded points.

    Starts from the point most distant from the centroid (an "extreme"
    vertex, mirroring MELO's endpoint heuristics) and repeatedly appends
    the nearest unvisited point; distances within :data:`TIE_TOL` of the
    extreme count as ties and go to the lowest index.  O(n²) — acceptable
    at benchmark scale; each step measures only the unvisited points.
    """
    spread = np.linalg.norm(points - points.mean(axis=0), axis=1)
    current = int(np.argmax(spread >= spread.max() - TIE_TOL))
    order = [current]
    unvisited = np.delete(np.arange(points.shape[0]), current)  # ascending
    rest = points[unvisited]
    for _ in range(len(unvisited)):
        diff = rest - points[current]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        pick = int(np.argmax(dist <= dist.min() + TIE_TOL))
        current = int(unvisited[pick])
        order.append(current)
        unvisited = np.delete(unvisited, pick)
        rest = np.delete(rest, pick, axis=0)
    return order


class MeloPartitioner:
    """Multi-eigenvector linear ordering + best balanced split."""

    def __init__(self, num_eigenvectors: int = 4) -> None:
        if num_eigenvectors < 1:
            raise ValueError("num_eigenvectors must be >= 1")
        self.num_eigenvectors = num_eigenvectors
        load_scipy()

    name = "MELO"
    #: Seed-independent: the multirun harness clamps extra runs to one.
    deterministic = True

    def partition(
        self,
        graph: Hypergraph,
        balance: Optional[BalanceConstraint] = None,
        initial_sides: Optional[Sequence[int]] = None,  # noqa: ARG002 - deterministic method
        seed: Optional[int] = None,
    ) -> BipartitionResult:
        """Bisect ``graph`` via the multi-eigenvector ordering.

        Deterministic; ``initial_sides``/``seed`` exist for interface
        compatibility.
        """
        if balance is None:
            balance = BalanceConstraint.forty_five_fifty_five(graph)
        start = time.perf_counter()
        d = min(self.num_eigenvectors, graph.num_nodes - 1)
        order = component_order(graph, d, _greedy_chain_order)
        sides, cut = best_split_of_ordering(graph, order, balance)
        elapsed = time.perf_counter() - start
        result = BipartitionResult(
            sides=sides,
            cut=cut,
            algorithm="MELO",
            seed=seed,
            passes=1,
            runtime_seconds=elapsed,
            stats={"eigenvectors": float(d)},
        )
        result.verify(graph)
        return result
