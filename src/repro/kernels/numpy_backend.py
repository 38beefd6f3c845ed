"""NumPy gain kernels — bit-identical vectorization of the scalar engines.

This module holds the one vectorized implementation of each gain
equation, and every vectorized caller goes through it: PROP's
:class:`NumpyGainEngine`, LA-k's pass-start sweep, the sub-round
engines of :mod:`repro.kernels.subround` and the shared-memory workers
of :mod:`repro.engine.shm`.

* :func:`prop_products` then :func:`prop_gains` — PROP's probabilistic
  gains (paper Eqns. 2–6, reduced to Eqns. 3/4 in
  :mod:`repro.core.gains`): per-net side clearing-products first, then
  per-incidence contributions and per-node gains;
* :func:`fm_gains` — FM's immediate gains (Eqn. 1);
* :func:`la_initial_vectors` — LA-k gain vectors at pass start.

The PROP and FM kernels work over any set of nets or nodes: all of them,
a contiguous range (a shared-memory worker's chunk, one slice of the CSR
arrays) or an index array (a sub-round's touched set, gathered with
:func:`gather_segments`).  Each net's product and each node's sum is
computed entirely from that net's or node's own CSR segment, so any
split into chunks or subsets yields the same floats.

The contract of this module is *exact* numerical equivalence with
:mod:`repro.core.gains` (and the FM/LA init loops): same floats, same
underflow-guard branches, same counter increments — so the move sequences,
prefix choices, and cuts of every partitioner are identical bit for bit
whichever sweep runs.  That contract rests on three verified properties
of the primitives used here (and *only* these primitives):

* ``np.multiply.at(out, idx, factors)`` applies factors **sequentially in
  input order** — the same left-to-right order as the scalar per-net
  product loops.  Multiplying by the masked-out ``1.0`` factors is an
  exact IEEE identity, so the per-side products match the scalar
  interleaved loop bit for bit.  (``np.multiply.reduceat`` does *not*
  guarantee this — it unrolls into multiple accumulators — and must never
  be used here.)
* ``np.bincount(idx, weights=w)`` accumulates weights sequentially in
  input order starting from ``+0.0`` — the same order as the scalar
  per-node sums over ``node_nets``.  Adding the masked-out ``+0.0`` terms
  is exact because no partial sum is ever ``-0.0`` (partial sums of the
  gain terms that cancel exactly yield ``+0.0`` under round-to-nearest).
  (``np.add.reduce``/``reduceat`` use pairwise summation and must never
  be used here.)
* Elementwise divide/subtract/multiply are IEEE-correct per element, so
  they match the corresponding scalar expressions exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.gains import DIV_SAFE_MIN, ProbabilisticGainEngine
from ..partition import Partition
from .csr import CsrView

__all__ = [
    "KernelScratch",
    "NumpyGainEngine",
    "fm_gains",
    "gather_segments",
    "la_initial_vectors",
    "prop_gains",
    "prop_products",
]

#: A kernel's net or node set: ``None`` (all), a contiguous ``slice``
#: with explicit bounds, or an index array of distinct ids.
Segments = Union[None, slice, np.ndarray]


def gather_segments(
    ids: np.ndarray, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flattened CSR indices for the segments ``ids``, in segment order.

    Returns ``(j, slot)``: ``j`` indexes the CSR value arrays so that
    segment ``ids[k]``'s elements appear contiguously and in their
    original CSR order, and ``slot[i] == k`` names the (compact) segment
    each flattened element belongs to.  This is what lets the kernels
    accumulate per-segment results with ``np.multiply.at`` /
    ``np.bincount`` in exactly the element order of a full sweep — the
    property their bit-identity rests on.
    """
    ids = np.asarray(ids, dtype=np.intp)
    starts = offsets[ids]
    sizes = offsets[ids + 1] - starts
    total = int(sizes.sum())
    slot = np.repeat(np.arange(ids.size, dtype=np.intp), sizes)
    prev = np.cumsum(sizes) - sizes
    j = (
        np.arange(total, dtype=np.intp)
        + np.repeat(starts - prev, sizes)
    )
    return j, slot


class KernelScratch:
    """Work arrays the gain kernels reuse from call to call.

    A PROP sweep makes about a dozen pin-sized temporaries.  Allocated
    afresh on every call, large ones come back from the allocator as new
    pages, and the page faults cost more than the arithmetic (industry2,
    48k pins: a ~1.4x slower sweep on a 2-vCPU x86 host).  A caller that
    sweeps repeatedly keeps one of these: each named buffer grows to the
    largest size requested and serves every later call as a view.  A name
    keeps the dtype of its first request.
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: Dict[str, np.ndarray] = {}

    def __call__(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is not None and buf.shape[0] == size:
            return buf
        if buf is None or buf.shape[0] < size:
            buf = self._bufs[name] = np.empty(size, dtype=dtype)
        return buf[:size]


def _select(ids: Segments, count: int, offsets, owner, scratch):
    """``(elements, slot, width)`` for the CSR segments ``ids``.

    ``elements`` indexes the CSR value arrays — a slice for a contiguous
    range, so a range costs no gather — and ``slot`` labels each element
    with its segment's position in ``ids``; ``width`` is the number of
    segments.  ``owner`` maps each CSR element to its segment id.
    """
    if ids is None:
        ids = slice(0, count)
    if isinstance(ids, slice):
        lo, hi = ids.start, ids.stop
        elements = slice(int(offsets[lo]), int(offsets[hi]))
        slot = owner[elements]
        if lo:
            slot = np.subtract(
                slot, lo, out=scratch("slot", slot.size, slot.dtype)
            )
        return elements, slot, hi - lo
    j, slot = gather_segments(ids, offsets)
    return j, slot, len(ids)


def _take(a: np.ndarray, elements, scratch, name: str) -> np.ndarray:
    """``a[elements]``: a view for a slice, else gathered into scratch."""
    if isinstance(elements, slice):
        return a[elements]
    return np.take(a, elements, out=scratch(name, elements.size, a.dtype))


# ----------------------------------------------------------------------
# PROP: Eqns. 3/4
# ----------------------------------------------------------------------
def prop_products(
    csr: CsrView,
    p: np.ndarray,
    sides: np.ndarray,
    prods: np.ndarray,
    nets: Segments = None,
    scratch: Optional[KernelScratch] = None,
) -> None:
    """Per-net side clearing-products for ``nets``.

    Writes into the side-major stack ``prods`` (length ``2 * num_nets``;
    side ``s`` of net ``e`` lives at ``s * num_nets + e``) the product of
    the pin probabilities on each side — the paper's p(n^{1→2}) without
    exclusions.  Pins on the other side contribute an exact ``×1.0``, so
    a side without pins keeps the empty product ``1.0``; locked pins
    carry ``p = 0`` and force their side's product to ``+0.0`` exactly as
    in the scalar path.
    """
    if scratch is None:
        scratch = KernelScratch()
    E = csr.num_nets
    pins = _select(nets, E, csr.net_offset, csr.pin_net, scratch)[0]
    if nets is None:
        nets = slice(0, E)
    pin_node = _take(csr.pin_node, pins, scratch, "pin_node")
    pin_net = _take(csr.pin_net, pins, scratch, "pin_net")
    k = pin_node.size
    pin_side = np.take(sides, pin_node, out=scratch("pin_side", k, sides.dtype))
    pin_p = np.take(p, pin_node, out=scratch("pin_p", k))
    mask = scratch("mask", k, bool)
    factors = scratch("factors", k)
    for side in (0, 1):
        np.equal(pin_side, side, out=mask)
        factors.fill(1.0)
        np.copyto(factors, pin_p, where=mask)
        prod = prods[side * E:(side + 1) * E]
        prod[nets] = 1.0
        np.multiply.at(prod, pin_net, factors)


def prop_gains(
    csr: CsrView,
    p: np.ndarray,
    sides: np.ndarray,
    locked: Optional[np.ndarray],
    prods: np.ndarray,
    nodes: Segments = None,
    scratch: Optional[KernelScratch] = None,
) -> Tuple[np.ndarray, int]:
    """Probabilistic gains (Eqns. 3/4) of ``nodes``.

    Reads the side-major stack that :func:`prop_products` wrote for
    every net of ``nodes``.  ``locked`` is a per-node bool array, or
    ``None`` when no node is locked.  Returns ``(gains, underflows)``:
    ``gains`` holds one gain per node of ``nodes``, in order, with
    locked nodes at ``0.0``; ``underflows`` counts the side products
    below :data:`DIV_SAFE_MIN` that took the exact recompute branch.

    Mine/other side values are fetched with one gather each from the
    flat index ``mine = side * num_nets + net`` and its mirror
    ``nm_flip - mine``.  The recompute branch visits incidences in
    node-major order — the scalar engines' (node, net) order — so
    ``underflows`` advances as it does there.
    """
    if scratch is None:
        scratch = KernelScratch()
    E = csr.num_nets
    inc, slot, width = _select(
        nodes, csr.num_nodes, csr.node_offset, csr.nm_owner, scratch
    )
    own = _take(csr.nm_owner, inc, scratch, "own")
    net = _take(csr.nm_net, inc, scratch, "net")
    k = own.size
    s = np.take(sides, own, out=scratch("s", k, sides.dtype))
    mine = np.multiply(s, E, out=scratch("mine", k, np.intp), dtype=np.intp)
    np.add(mine, net, out=mine)
    other = np.subtract(
        _take(csr.nm_flip, inc, scratch, "flip"), mine,
        out=scratch("other", k, np.intp),
    )
    pm = np.take(prods, mine, out=scratch("pm", k))
    pu = np.take(p, own, out=scratch("pu", k))
    ok = np.greater(pu, 0.0, out=scratch("ok", k, bool))
    ok2 = np.greater_equal(pm, DIV_SAFE_MIN, out=scratch("ok2", k, bool))
    np.logical_and(ok, ok2, out=ok)
    prod_a = scratch("prod_a", k)
    prod_a.fill(0.0)
    np.divide(pm, pu, out=prod_a, where=ok)
    underflows = 0
    if not ok.all():
        # Zero or underflowed products of free owners: recompute exactly.
        redo = np.flatnonzero(~ok if locked is None else ~ok & ~locked[own])
        pm_redo = pm[redo]
        underflows = int(np.count_nonzero(
            (pm_redo > 0.0) & (pm_redo < DIV_SAFE_MIN)
        ))
        prod_a[redo] = _clearing_products(
            csr, p, sides, net[redo], s[redo], own[redo]
        )
    # Eqn. 3's cost*(prod_a - po) on cut nets also covers Eqn. 4's
    # cost*(prod_a - 1.0) on internal ones: there po is the empty
    # product, exactly 1.0.
    contrib = np.subtract(
        prod_a, np.take(prods, other, out=scratch("po", k)),
        out=scratch("contrib", k),
    )
    np.multiply(_take(csr.nm_cost, inc, scratch, "cost"), contrib, out=contrib)
    gains = np.bincount(slot, weights=contrib, minlength=width)
    if locked is not None:
        gains[locked if nodes is None else locked[nodes]] = 0.0
    return gains, underflows


def _clearing_products(csr, p, sides, nets, side, exclude) -> np.ndarray:
    """Exact product of ``p`` over the pins of ``nets[i]`` on ``side[i]``
    except ``exclude[i]``, for each ``i`` — the scalar
    ``net_clearing_probability``: each product runs over its net's pins in
    CSR order, and once a factor zeroes it, it stays ``+0.0`` as at the
    scalar early exit (every factor is finite and non-negative)."""
    j, slot = gather_segments(nets, csr.net_offset)
    pins = csr.pin_node[j]
    keep = (sides[pins] == side[slot]) & (pins != exclude[slot])
    prods = np.ones(nets.size)
    np.multiply.at(prods, slot, np.where(keep, p[pins], 1.0))
    return prods


# ----------------------------------------------------------------------
# FM: Eqn. 1
# ----------------------------------------------------------------------
def fm_gains(
    csr: CsrView,
    sides: np.ndarray,
    counts0: np.ndarray,
    counts1: np.ndarray,
    nodes: Segments = None,
) -> np.ndarray:
    """FM Eqn. (1) immediate gains of ``nodes``, in order.

    Bit-identical to ``partition.immediate_gain(v)`` per node: ``bincount``
    sums the per-incidence ``±cost`` terms in node-major order — the same
    order and values as the scalar loop; masked terms add an exact
    ``+0.0``.
    """
    inc, slot, width = _select(
        nodes, csr.num_nodes, csr.node_offset, csr.nm_owner, KernelScratch()
    )
    net = csr.nm_net[inc]
    is0 = sides[csr.nm_owner[inc]] == 0
    mine = np.where(is0, counts0[net], counts1[net])
    theirs = np.where(is0, counts1[net], counts0[net])
    cost = csr.nm_cost[inc]
    term = np.where(
        theirs == 0,
        np.where(mine > 1, -cost, 0.0),
        np.where(mine == 1, cost, 0.0),
    )
    return np.bincount(slot, weights=term, minlength=width)


class NumpyGainEngine(ProbabilisticGainEngine):
    """Drop-in :class:`ProbabilisticGainEngine` with a vectorized
    :meth:`all_gains`.

    Overrides the O(m) sweep of the pass-start refinement with the array
    kernels above over a :class:`CsrView`.  Everything else — scalar
    ``node_gain``, probability maintenance, validation — is inherited, so
    the move loop is *identical* code after either sweep.
    """

    __slots__ = ("csr", "_prods", "_scratch")

    def __init__(
        self,
        partition: Partition,
        probabilities: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(partition, probabilities)
        self.csr = CsrView(partition.graph)
        # Side-major product stack the sweep writes.
        self._prods = np.empty(2 * partition.graph.num_nets)
        self._scratch = KernelScratch()

    def all_gains(self) -> List[float]:
        """Bit-identical :meth:`ProbabilisticGainEngine.all_gains`: one
        :func:`prop_products` + :func:`prop_gains` sweep over the whole
        graph from the engine's probabilities and the partition."""
        part = self.partition
        p = np.asarray(self.p, dtype=np.float64)
        sides = np.asarray(part.sides_view(), dtype=np.intp)
        locked = (
            np.asarray(part.locked_view(), dtype=bool)
            if part.num_locked else None
        )
        prop_products(self.csr, p, sides, self._prods, scratch=self._scratch)
        gains, underflows = prop_gains(
            self.csr, p, sides, locked, self._prods, scratch=self._scratch,
        )
        self.underflow_recomputes += underflows
        return gains.tolist()


# ----------------------------------------------------------------------
# LA-k pass-start gain vectors
# ----------------------------------------------------------------------
def la_initial_vectors(
    csr: CsrView, partition: Partition, k: int
) -> List[Tuple[float, ...]]:
    """Vectorized LA-k gain vectors for every node at *pass start*.

    Bit-identical to ``gain_vector(partition, v, k)`` per node **when no
    node is locked** (the pass-bootstrap precondition): with no locks,
    ``free_count == count`` and no net is locked in a side, which is the
    specialization vectorized here.  Each incidence contributes its
    positive prospect then its negative prospect — interleaving the two
    slot streams reproduces the scalar per-net add order exactly.
    """
    if partition.num_locked:
        raise ValueError("la_initial_vectors requires an unlocked partition")
    num_nodes = csr.num_nodes
    own = csr.nm_owner
    net = csr.nm_net
    side_arr = np.asarray(partition.sides_view(), dtype=np.intp)
    counts0 = np.asarray(partition.counts_view(0), dtype=np.int64)
    counts1 = np.asarray(partition.counts_view(1), dtype=np.int64)
    is0 = side_arr[own] == 0
    mine = np.where(is0, counts0[net], counts1[net])
    other = np.where(is0, counts1[net], counts0[net])
    cost = csr.net_cost[net]
    base = own * k

    # Positive prospect: net removable by emptying the node's own side at
    # lookahead level free_count(s) = mine (includes the node itself).
    pos_ok = (mine >= 1) & (mine <= k)
    pos_idx = base + np.where(pos_ok, mine - 1, 0)
    pos_w = np.where(pos_ok, cost, 0.0)

    # Negative prospect: an internal net gets cut immediately (level 1);
    # a cut net's other-side removal (level other+1) is foreclosed.
    internal = other == 0
    neg_ok = internal | (other <= k - 1)
    neg_idx = base + np.where(internal, 0, np.where(neg_ok, other, 0))
    neg_w = np.where(neg_ok, -cost, 0.0)

    idx = np.stack([pos_idx, neg_idx], axis=1).ravel()
    w = np.stack([pos_w, neg_w], axis=1).ravel()
    flat = np.bincount(idx, weights=w, minlength=num_nodes * k)
    return [tuple(row) for row in flat.reshape(num_nodes, k).tolist()]
