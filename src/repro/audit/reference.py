"""Brute-force reference oracles — direct transcriptions of definitions.

Every function here recomputes a quantity the incremental engines track,
straight from the paper's definitions, over plain Python lists (node →
side, node → locked, node → probability).  Nothing in this module reads a
:class:`~repro.partition.partition.Partition`'s internal counters or the
gain engines' caches — that independence is what makes these usable as
oracles: if an incremental shortcut is wrong, the disagreement shows up
here instead of being reproduced.

Float caveat: products and sums iterate pins/nets in the same (netlist)
order the incremental code uses, so reference and incremental values are
bit-equal in practice; audits still compare with a small tolerance.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..hypergraph import Hypergraph


# ---------------------------------------------------------------------------
# Structure: counts, weights, cut
# ---------------------------------------------------------------------------
def pin_counts(
    graph: Hypergraph, sides: Sequence[int], net_id: int
) -> Tuple[int, int]:
    """(pins on side 0, pins on side 1) of one net."""
    c0 = sum(1 for v in graph.net(net_id) if sides[v] == 0)
    return c0, graph.net_size(net_id) - c0


def locked_pin_counts(
    graph: Hypergraph,
    sides: Sequence[int],
    locked: Sequence[bool],
    net_id: int,
) -> Tuple[int, int]:
    """(locked pins on side 0, locked pins on side 1) of one net."""
    l0 = l1 = 0
    for v in graph.net(net_id):
        if locked[v]:
            if sides[v] == 0:
                l0 += 1
            else:
                l1 += 1
    return l0, l1


def cut_cost(graph: Hypergraph, sides: Sequence[int]) -> float:
    """Sum of costs of nets with pins on both sides (the cutset)."""
    total = 0.0
    for net_id in range(graph.num_nets):
        c0, c1 = pin_counts(graph, sides, net_id)
        if c0 and c1:
            total += graph.net_cost(net_id)
    return total


def side_weights(graph: Hypergraph, sides: Sequence[int]) -> Tuple[float, float]:
    """Total node weight on (side 0, side 1)."""
    w0 = sum(
        graph.node_weight(v) for v in range(graph.num_nodes) if sides[v] == 0
    )
    return w0, graph.total_node_weight - w0


# ---------------------------------------------------------------------------
# FM: Eqn. (1) deterministic gain
# ---------------------------------------------------------------------------
def immediate_gain(graph: Hypergraph, sides: Sequence[int], node: int) -> float:
    """FM's deterministic gain (paper Eqn. 1): cut decrease if moved now."""
    s = sides[node]
    gain = 0.0
    for net_id in graph.node_nets(node):
        mine, theirs = pin_counts(graph, sides, net_id)
        if s == 1:
            mine, theirs = theirs, mine
        cost = graph.net_cost(net_id)
        if theirs == 0:
            if mine > 1:
                gain -= cost
            # else: single-pin net follows the node; cut unchanged
        elif mine == 1:
            gain += cost
    return gain


# ---------------------------------------------------------------------------
# PROP: Eqns. (2)–(6) probabilistic gain
# ---------------------------------------------------------------------------
def prop_net_gain(
    graph: Hypergraph,
    sides: Sequence[int],
    locked: Sequence[bool],
    p: Sequence[float],
    node: int,
    net_id: int,
) -> float:
    """Gain of one net for free node ``u`` — the Eqn. 2–6 case split.

    With ``A = (net ∩ side(u)) − {u}`` and ``B = net ∩ other side``:

    * net in the cutset (B non-empty):  ``g = c · (Π_A p − Π_B p)``
      — Eqn. (3); a locked member zeroes its side's product, which is
      exactly the Eqn. (5)/(6) locked specializations;
    * net internal to side(u) (B empty):  ``g = −c · (1 − Π_A p)``
      — Eqn. (4).
    """
    s = sides[node]
    prod_a = 1.0
    prod_b = 1.0
    has_other = False
    for v in graph.net(net_id):
        if v == node:
            continue
        pv = 0.0 if locked[v] else p[v]
        if sides[v] == s:
            prod_a *= pv
        else:
            has_other = True
            prod_b *= pv
    cost = graph.net_cost(net_id)
    if has_other:
        return cost * (prod_a - prod_b)
    return cost * (prod_a - 1.0)


def prop_gain(
    graph: Hypergraph,
    sides: Sequence[int],
    locked: Sequence[bool],
    p: Sequence[float],
    node: int,
) -> float:
    """Total probabilistic gain ``g(u) = Σ_nets g_net(u)`` (Eqn. 2)."""
    return sum(
        prop_net_gain(graph, sides, locked, p, node, net_id)
        for net_id in graph.node_nets(node)
    )


# ---------------------------------------------------------------------------
# LA: Krishnamurthy gain vectors
# ---------------------------------------------------------------------------
def la_gain_vector(
    graph: Hypergraph,
    sides: Sequence[int],
    locked: Sequence[bool],
    node: int,
    k: int,
) -> Tuple[float, ...]:
    """The LA-k gain vector of a free node, from first principles.

    Element i (1-based) accumulates ``+cost`` for nets removable from the
    cut by moving ``i`` free pins off ``node``'s side (``node`` included),
    and ``−cost`` for nets whose removal through the *other* side is
    foreclosed at binding level ``i``; a locked pin on a side kills that
    side's term.  Element 1 is exactly the FM gain.
    """
    s = sides[node]
    vec = [0.0] * k
    for net_id in graph.node_nets(node):
        cost = graph.net_cost(net_id)
        pins = graph.net(net_id)
        same_free = sum(1 for v in pins if sides[v] == s and not locked[v])
        same_locked = any(sides[v] == s and locked[v] for v in pins)
        other = [v for v in pins if sides[v] != s]
        other_free = sum(1 for v in other if not locked[v])
        other_locked = any(locked[v] for v in other)

        if not same_locked and 1 <= same_free <= k:
            vec[same_free - 1] += cost
        if not other:
            vec[0] -= cost
        elif not other_locked:
            level = other_free + 1
            if 2 <= level <= k:
                vec[level - 1] -= cost
    return tuple(vec)


# ---------------------------------------------------------------------------
# Rollback: prefix sums over a journal, and the dead-cut stop rule
# ---------------------------------------------------------------------------
def best_prefix(gains: Sequence[float]) -> Tuple[int, float]:
    """``(p, Gmax)`` — smallest prefix achieving the maximum prefix sum.

    Mirrors the pass-journal contract: ``(0, 0.0)`` for an empty
    sequence, ``(0, Gmax)`` when no prefix is strictly positive.  The
    comparison is exact (no tolerance), in lockstep with
    :meth:`repro.datastructures.PassJournal.best_prefix` — a tolerance
    would discard strictly-better later prefixes under fractional
    (weighted) net costs.
    """
    if not gains:
        return 0, 0.0
    best_p = 0
    best_sum = float("-inf")
    running = 0.0
    for i, g in enumerate(gains, start=1):
        running += g
        if running > best_sum:
            best_sum = running
            best_p = i
    if best_sum <= 0:
        return 0, best_sum
    return best_p, best_sum


def dead_cut(
    graph: Hypergraph, sides: Sequence[int], locked: Sequence[bool]
) -> float:
    """Total cost of the nets with a locked pin on each side."""
    total = 0.0
    for net_id in range(graph.num_nets):
        l0, l1 = locked_pin_counts(graph, sides, locked, net_id)
        if l0 and l1:
            total += graph.net_cost(net_id)
    return total


def stop_licensed(
    graph: Hypergraph, start_cut: float, dead: float, best_gain: float
) -> bool:
    """Whether a pass may end after a move: every net cost is an integer
    and the costs total below 2**53 (so every sum is exact), and the cut
    at pass start minus the dead cut now is at most ``best_gain``, the
    largest prefix sum of the moves so far."""
    costs = graph.net_costs
    exact = (
        all(float(c).is_integer() for c in costs) and sum(costs) < 2.0 ** 53
    )
    return exact and start_cut - dead <= best_gain


def replay_moves(
    graph: Hypergraph, sides: Sequence[int], nodes: Sequence[int]
) -> Tuple[List[int], float, List[float]]:
    """Apply a move sequence to a copy of ``sides`` from first principles.

    Returns ``(final sides, final cut, per-move immediate gains)`` where
    each gain is the from-scratch cut delta of that move — the oracle for
    both journal records and prefix-sum rollback.
    """
    state = list(sides)
    cut = cut_cost(graph, state)
    gains: List[float] = []
    for node in nodes:
        state[node] = 1 - state[node]
        new_cut = cut_cost(graph, state)
        gains.append(cut - new_cut)
        cut = new_cut
    return state, cut, gains
