"""(r1, r2) balance constraints — paper Sec. 1.

An ``(r1, r2)``-balanced 2-way partition requires ``r1 <= |Vi|/n <= r2``
for both subsets (weights generalize node counts).  The paper evaluates two
regimes (Sec. 4):

* **50-50%** (``r1 = r2 = 0.5``): exact bisection.  Single-node moves make
  exact bisection momentarily infeasible, so — as in every FM
  implementation — a slack of one (maximum-weight) node is allowed while a
  pass is in flight; :meth:`BalanceConstraint.fifty_fifty` builds this.
* **45-55%** (``r1 = 0.45, r2 = 0.55``): :meth:`BalanceConstraint.from_fractions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..hypergraph import Hypergraph


@dataclass(frozen=True)
class BalanceConstraint:
    """Absolute weight bounds ``lo <= side weight <= hi`` for each side."""

    lo: float
    hi: float
    total: float

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError(f"invalid balance bounds [{self.lo}, {self.hi}]")
        if self.total < self.lo + self.lo or self.total > self.hi + self.hi:
            raise ValueError(
                f"no feasible split: total={self.total} "
                f"bounds=[{self.lo}, {self.hi}]"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_fractions(
        cls, graph: Hypergraph, r1: float, r2: float
    ) -> "BalanceConstraint":
        """Bounds ``[r1*W, r2*W]`` on total node weight ``W``."""
        if not 0.0 < r1 <= r2 < 1.0:
            raise ValueError(f"need 0 < r1 <= r2 < 1, got ({r1}, {r2})")
        if r1 > 0.5 or r2 < 0.5:
            raise ValueError(
                f"2-way balance needs r1 <= 0.5 <= r2, got ({r1}, {r2})"
            )
        total = graph.total_node_weight
        return cls(lo=r1 * total, hi=r2 * total, total=total)

    @classmethod
    def fifty_fifty(cls, graph: Hypergraph) -> "BalanceConstraint":
        """Exact bisection with one-node slack (the paper's 50-50% case)."""
        total = graph.total_node_weight
        slack = max(graph.node_weights) if graph.num_nodes else 0.0
        slack = max(slack, 1.0)
        return cls(
            lo=max(0.0, total / 2.0 - slack),
            hi=min(total, total / 2.0 + slack),
            total=total,
        )

    @classmethod
    def forty_five_fifty_five(cls, graph: Hypergraph) -> "BalanceConstraint":
        """The paper's 45-55% criterion."""
        return cls.from_fractions(graph, 0.45, 0.55)

    def slackened(self, max_w: float) -> "BalanceConstraint":
        """The same bounds widened by one super-node of weight ``max_w``
        and clamped to ``[0, total]``: a coarse level's moves must stay
        feasible although contraction made its nodes heavy."""
        return BalanceConstraint(
            lo=max(0.0, self.lo - max_w),
            hi=min(self.total, self.hi + max_w),
            total=self.total,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_satisfied(self, side_weights: Sequence[float]) -> bool:
        """True when both side weights lie within the bounds."""
        return all(self.lo - 1e-9 <= w <= self.hi + 1e-9 for w in side_weights)

    def move_allowed(
        self, side_weights: Sequence[float], from_side: int, weight: float
    ) -> bool:
        """May a node of ``weight`` leave ``from_side``?

        The check is one-directional (target must not overflow ``hi``,
        source must not drop below ``lo``) so that an initially unbalanced
        partition can be repaired by moves toward balance.
        """
        to_side = 1 - from_side
        new_from = side_weights[from_side] - weight
        new_to = side_weights[to_side] + weight
        return new_from >= self.lo - 1e-9 and new_to <= self.hi + 1e-9

    def describe(self) -> str:
        """Human-readable bounds as fractions of the total weight."""
        lo_frac = self.lo / self.total if self.total else 0.0
        hi_frac = self.hi / self.total if self.total else 0.0
        return f"balance [{lo_frac:.3f}, {hi_frac:.3f}] of total {self.total:g}"


@dataclass(frozen=True)
class AsymmetricBalanceConstraint:
    """Per-side bounds: side 0 in ``[lo0, hi0]`` (side 1 is implied).

    Needed by recursive k-way partitioning when k is not a power of two —
    e.g. a 3-way split first bisects at a 2:1 ratio, so the two sides have
    *different* target weights.  Duck-type compatible with
    :class:`BalanceConstraint` (same ``move_allowed`` / ``is_satisfied``
    interface), so every partitioner accepts either.
    """

    lo0: float
    hi0: float
    total: float

    def __post_init__(self) -> None:
        if self.lo0 < 0 or self.hi0 < self.lo0:
            raise ValueError(f"invalid bounds [{self.lo0}, {self.hi0}]")
        if self.hi0 > self.total:
            raise ValueError(
                f"hi0={self.hi0} exceeds total weight {self.total}"
            )

    @classmethod
    def from_fraction(
        cls, graph: Hypergraph, fraction: float, tolerance: float
    ) -> "AsymmetricBalanceConstraint":
        """Side 0 gets ``fraction ± tolerance`` of the total weight."""
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        if tolerance < 0.0:
            raise ValueError(f"tolerance must be >= 0, got {tolerance}")
        total = graph.total_node_weight
        slack = max(tolerance * total, max(graph.node_weights, default=1.0))
        return cls(
            lo0=max(0.0, fraction * total - slack),
            hi0=min(total, fraction * total + slack),
            total=total,
        )

    def is_satisfied(self, side_weights: Sequence[float]) -> bool:
        """True when side 0's weight lies within [lo0, hi0]."""
        return self.lo0 - 1e-9 <= side_weights[0] <= self.hi0 + 1e-9

    def move_allowed(
        self, side_weights: Sequence[float], from_side: int, weight: float
    ) -> bool:
        """May a node of ``weight`` leave ``from_side`` (side-0 window check)?"""
        new_w0 = side_weights[0] + (weight if from_side == 1 else -weight)
        return self.lo0 - 1e-9 <= new_w0 <= self.hi0 + 1e-9

    def describe(self) -> str:
        """Human-readable side-0 bounds as fractions of the total weight."""
        lo = self.lo0 / self.total if self.total else 0.0
        hi = self.hi0 / self.total if self.total else 0.0
        return f"side-0 balance [{lo:.3f}, {hi:.3f}] of total {self.total:g}"


def split_sizes(total_nodes: int) -> Tuple[int, int]:
    """Exact-bisection side sizes (⌈n/2⌉, ⌊n/2⌋) for unit weights."""
    half = total_nodes // 2
    return total_nodes - half, half
