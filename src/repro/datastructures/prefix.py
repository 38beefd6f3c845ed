"""Pass journal: recorded moves, prefix gains, and rollback point.

Every FM-family pass (FM, LA, PROP — paper Fig. 2, steps 7/9/10) tentatively
moves the movable nodes, recording the immediate cut gain of each move;
afterwards only the prefix of moves achieving the maximum prefix-sum gain
``Gmax`` is kept, the rest are rolled back.  This module holds that journal,
and the dead-cut stop rule (:func:`pass_can_stop`) that ends a pass as soon
as no later prefix can beat the best one so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: Every integer of magnitude at most 2**53 is an exact IEEE double.
_EXACT_INTEGER_LIMIT = 2.0 ** 53


def exact_cost_sums(costs: Sequence[float]) -> bool:
    """True when every cost is an integer and the costs total below 2**53.

    Net costs are finite and non-negative, so then every cut, every
    immediate gain and every prefix sum of gains within a pass is an
    integer of magnitude below 2**53, and every float operation on them
    is exact.  :func:`pass_can_stop` is licensed only under this
    condition."""
    return (
        all(float(c).is_integer() for c in costs)
        and sum(costs) < _EXACT_INTEGER_LIMIT
    )


def pass_can_stop(
    exact: bool, start_cut: float, dead_cut: float, best_gain: float
) -> bool:
    """The dead-cut stop rule: True once no later prefix of the pass can
    beat the best prefix so far, so every further move would be rolled
    back.

    ``exact`` is :func:`exact_cost_sums` of the net costs; ``start_cut``
    is the cut at pass start; ``dead_cut`` is the total cost of the nets
    with a locked pin on each side now; ``best_gain`` is the largest
    prefix sum of the moves made so far (``PassJournal.best_gain``).

    Proof.  A dead net stays cut for the rest of the pass: locked pins
    never move, so it keeps a pin on each side.  Locks are only added
    within a pass, so the dead cut only grows, and every later prefix
    ends with cut ``>= dead_cut``, that is with gain ``start_cut - cut
    <= start_cut - dead_cut``.  Once that bound is ``<= best_gain``, no
    later prefix sum exceeds ``best_gain``, and the incumbent is
    replaced only by a strictly larger sum (:meth:`PassJournal.
    best_prefix`; the n-level region pass's ``cum > best + 1e-12``).  So
    the kept prefix, ``Gmax``, the rollback and the pass cut are those of
    the full pass.  The float prefix sums equal the true cut changes only
    when they are exact, hence ``exact``: with fractional costs a pass
    runs to its end."""
    return exact and start_cut - dead_cut <= best_gain


@dataclass(frozen=True)
class MoveRecord:
    """One tentative move inside a pass."""

    # Manual __slots__ (not dataclass(slots=True), which needs 3.10): one
    # record per tentative move, so a pass allocates n of these.
    __slots__ = ("node", "from_side", "immediate_gain")

    node: int
    from_side: int
    immediate_gain: float


class PassJournal:
    """Accumulates tentative moves and finds the best rollback prefix.

    The largest prefix sum and the shortest prefix reaching it are kept
    up to date as moves are recorded, so the move loops can read
    ``best_gain`` after every move (:func:`pass_can_stop`)."""

    __slots__ = ("_moves", "_running", "_best_gain", "_best_p")

    def __init__(self) -> None:
        self._moves: List[MoveRecord] = []
        self._running = 0.0
        self._best_gain = float("-inf")
        self._best_p = 0

    def record(self, node: int, from_side: int, immediate_gain: float) -> None:
        """Record one tentative move and its immediate cut gain."""
        self._moves.append(MoveRecord(node, from_side, immediate_gain))
        running = self._running + immediate_gain
        self._running = running
        if running > self._best_gain:
            self._best_gain = running
            self._best_p = len(self._moves)

    @property
    def moves(self) -> Sequence[MoveRecord]:
        return self._moves

    def __len__(self) -> int:
        return len(self._moves)

    @property
    def best_gain(self) -> float:
        """The largest prefix sum so far (``-inf`` before any move)."""
        return self._best_gain

    def prefix_sums(self) -> List[float]:
        """``S_k = sum of the first k immediate gains`` for k = 1..len."""
        sums: List[float] = []
        running = 0.0
        for mv in self._moves:
            running += mv.immediate_gain
            sums.append(running)
        return sums

    def best_prefix(self) -> Tuple[int, float]:
        """``(p, Gmax)``: the number of moves to keep and their total gain.

        ``p`` is the smallest prefix length achieving the maximum prefix sum
        (keeping fewer moves on ties preserves more freedom for later
        passes).  When every prefix sum is <= 0, returns ``(0, Gmax)`` with
        ``Gmax`` the (non-positive) best sum, or ``(0, 0.0)`` for an empty
        journal — the caller stops when ``Gmax <= 0`` (Fig. 2 step 2).

        The comparison is exact: a later prefix wins only when its sum is
        strictly greater.  An earlier revision used an absolute ``1e-12``
        tolerance, which silently discarded strictly-better later prefixes
        whose improvement fell below the tolerance — reachable with
        fractional (weighted) net costs, where prefix sums are not
        integers.  Ties still resolve to the earliest prefix because equal
        sums do not replace the incumbent.
        """
        if not self._moves:
            return 0, 0.0
        if self._best_gain <= 0:
            return 0, self._best_gain
        return self._best_p, self._best_gain

    def kept_moves(self) -> List[MoveRecord]:
        """The moves inside the best prefix (the ones actually made)."""
        p, _ = self.best_prefix()
        return self._moves[:p]

    def rolled_back_moves(self) -> List[MoveRecord]:
        """The moves beyond the best prefix (to be undone, last first)."""
        p, _ = self.best_prefix()
        return self._moves[p:]
