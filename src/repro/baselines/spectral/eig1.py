"""EIG1 — spectral bisection [Hagen & Kahng, ICCAD 1991].

The paper's Table 3 competitor "EIG1": compute the Fiedler vector (second
eigenvector of the clique-model Laplacian), sort nodes by their component,
and take the best balanced split point along that ordering.  Hagen & Kahng
target the ratio-cut objective; used as a min-cut partitioner under an
(r1, r2) constraint, the split scan below picks the feasible minimum-cut
prefix — the protocol the MELO paper (and hence the DAC-96 paper's
Table 3) used for its EIG1 numbers.

The Fiedler vector is defined for a connected graph.  A disconnected
netlist (every Table-1 circuit at scale 0.25 has isolated nodes) is
ordered one component at a time, largest first, each by its own Fiedler
vector (:func:`~.laplacian.component_order`); entries within
:data:`~.laplacian.TIE_TOL` of each other order by node id.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ...hypergraph import Hypergraph
from ...partition import (
    BalanceConstraint,
    BipartitionResult,
    best_split_of_ordering,
)
from .laplacian import TIE_TOL, component_order, load_scipy


def _fiedler_rows(vectors: np.ndarray) -> np.ndarray:
    """Rows sorted by the first column; near-ties (:data:`TIE_TOL`) by row."""
    values = vectors[:, 0]
    by_value = np.argsort(values, kind="stable")
    tie_group = np.concatenate(
        ([0], np.cumsum(np.diff(values[by_value]) > TIE_TOL))
    )
    return by_value[np.lexsort((by_value, tie_group))]


class Eig1Partitioner:
    """Fiedler-vector ordering + best balanced split.

    ``objective="cut"`` (default) minimizes the cutset among feasible
    splits, matching the Table-3 comparison protocol;
    ``objective="ratio"`` minimizes the Wei–Cheng ratio cut, the objective
    Hagen & Kahng designed EIG1 for.
    """

    name = "EIG1"
    #: Seed-independent: the multirun harness clamps extra runs to one.
    deterministic = True

    def __init__(self, objective: str = "cut") -> None:
        if objective not in ("cut", "ratio"):
            raise ValueError(f"unknown objective {objective!r}")
        self.objective = objective
        load_scipy()

    def partition(
        self,
        graph: Hypergraph,
        balance: Optional[BalanceConstraint] = None,
        initial_sides: Optional[Sequence[int]] = None,  # noqa: ARG002 - deterministic method
        seed: Optional[int] = None,
    ) -> BipartitionResult:
        """Bisect ``graph`` spectrally.

        EIG1 is deterministic: ``initial_sides`` and ``seed`` are accepted
        only for interface compatibility with the iterative partitioners.
        """
        if balance is None:
            balance = BalanceConstraint.forty_five_fifty_five(graph)
        start = time.perf_counter()
        order = component_order(graph, 1, _fiedler_rows)
        sides, cut = best_split_of_ordering(
            graph, order, balance, objective=self.objective
        )
        elapsed = time.perf_counter() - start
        result = BipartitionResult(
            sides=sides,
            cut=cut,
            algorithm="EIG1",
            seed=seed,
            passes=1,
            runtime_seconds=elapsed,
        )
        result.verify(graph)
        return result
