"""Property suite for sub-round batch selection and batched application.

The sub-round engine rests on three local facts, each checked here
differentially against the scalar :class:`~repro.partition.Partition`
machinery over hypothesis-generated instances:

1. :func:`select_batch` only ever returns net-disjoint batches whose
   one-at-a-time replay stays balance-feasible at every step.
2. the Eqn. (1) kernel :func:`~repro.kernels.numpy_backend.fm_gains`
   over a batch equals the scalar ``Partition.immediate_gain`` evaluated
   move-by-move during a replay — exactly, not approximately, because
   net-disjointness means no move in the batch can perturb another's
   nets.
3. ``Partition.apply_batch`` leaves the partition in the byte-identical
   state (sides, counts, locks, weights, cut) that a
   ``move_and_lock``-per-node replay produces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.csr import CsrView
from repro.kernels.numpy_backend import (
    fm_gains,
    gather_segments,
    prop_gains,
    prop_products,
)
from repro.kernels.subround import select_batch, split_ranges, tie_break_keys
from repro.partition import BalanceConstraint, Partition
from repro.testing import strategies as st_repro


@st.composite
def _batch_cases(draw):
    graph = draw(st_repro.hypergraphs(min_nodes=3, max_nodes=16, costed=True))
    sides = draw(st_repro.balanced_sides_for(graph))
    gains = draw(
        st.lists(
            st.floats(-8.0, 8.0, allow_nan=False, width=32),
            min_size=graph.num_nodes, max_size=graph.num_nodes,
        )
    )
    seed = draw(st.integers(0, 2**31 - 1))
    cap = draw(st.integers(1, graph.num_nodes))
    return graph, sides, gains, seed, cap


def _run_select(graph, sides, gains, seed, cap):
    csr = CsrView(graph)
    part = Partition(graph, list(sides))
    tie = tie_break_keys(graph.num_nodes, seed)
    balance = BalanceConstraint.fifty_fifty(graph)
    claimed = np.zeros(graph.num_nets, dtype=bool)
    gains_arr = np.asarray(gains, dtype=np.float64)
    free_idx = np.arange(graph.num_nodes, dtype=np.intp)
    batch, conflicts, brejects = select_batch(
        gains_arr, free_idx, tie, csr, graph.node_weights,
        part.sides_view(), part.side_weights, balance, claimed, cap,
    )
    return csr, part, balance, batch, conflicts, brejects


def _batch_gains(csr, part, batch):
    """Pre-batch Eqn. (1) gains of ``batch``, in batch order."""
    return fm_gains(
        csr,
        np.asarray(part.sides_view(), dtype=np.int8),
        np.asarray(part.counts_view(0), dtype=np.int64),
        np.asarray(part.counts_view(1), dtype=np.int64),
        np.asarray(batch, dtype=np.intp),
    )


@settings(max_examples=80, deadline=None)
@given(_batch_cases())
def test_select_batch_is_net_disjoint(case):
    graph, sides, gains, seed, cap = case
    _, _, _, batch, _, _ = _run_select(graph, sides, gains, seed, cap)
    seen = set()
    for v in batch:
        nets = set(graph.node_nets(v))
        assert not (nets & seen), f"node {v} shares a net with the batch"
        seen |= nets
    assert len(batch) <= cap
    assert len(batch) == len(set(batch)), "batch repeats a node"


@settings(max_examples=80, deadline=None)
@given(_batch_cases())
def test_select_batch_replay_stays_feasible(case):
    """Every prefix of the batch satisfies the balance bounds."""
    graph, sides, gains, seed, cap = case
    _, part, balance, batch, _, _ = _run_select(graph, sides, gains, seed, cap)
    for v in batch:
        w0, w1 = part.side_weights
        assert balance.move_allowed((w0, w1), part.side(v), graph.node_weights[v])
        part.move_and_lock(v)


@settings(max_examples=60, deadline=None)
@given(_batch_cases())
def test_select_batch_is_deterministic(case):
    graph, sides, gains, seed, cap = case
    _, _, _, a, ca, ba = _run_select(graph, sides, gains, seed, cap)
    _, _, _, b, cb, bb = _run_select(graph, sides, gains, seed, cap)
    assert (a, ca, ba) == (b, cb, bb)


@settings(max_examples=80, deadline=None)
@given(_batch_cases())
def test_batch_gains_equal_scalar_replay(case):
    """Pre-batch vectorized gains == scalar immediate_gain during replay.

    Net-disjointness is what licenses computing every gain against the
    *pre-batch* counts: no earlier move in the batch can change a later
    move's nets, so the replayed scalar gain matches bit for bit.
    """
    graph, sides, gains, seed, cap = case
    csr, part, _, batch, _, _ = _run_select(graph, sides, gains, seed, cap)
    imm = _batch_gains(csr, part, batch)
    for j, v in enumerate(batch):
        scalar = part.immediate_gain(v)
        assert imm[j] == scalar
        realized = part.move_and_lock(v)
        assert realized == scalar


@settings(max_examples=80, deadline=None)
@given(_batch_cases())
def test_apply_batch_matches_move_and_lock_replay(case):
    graph, sides, gains, seed, cap = case
    csr, part, _, batch, _, _ = _run_select(graph, sides, gains, seed, cap)
    imm = _batch_gains(csr, part, batch).tolist()

    batched = Partition(graph, list(sides))
    batched.apply_batch(batch, imm)

    replayed = Partition(graph, list(sides))
    for v in batch:
        replayed.move_and_lock(v)

    assert batched.sides == replayed.sides
    assert batched.cut_cost == replayed.cut_cost
    assert batched.side_weights == replayed.side_weights
    assert batched.counts_view(0) == replayed.counts_view(0)
    assert batched.counts_view(1) == replayed.counts_view(1)
    assert batched.locked_view() == replayed.locked_view()
    assert (
        batched.locked_counts_view(0) == replayed.locked_counts_view(0)
    )
    assert (
        batched.locked_counts_view(1) == replayed.locked_counts_view(1)
    )
    batched.check_invariants()


@settings(max_examples=40, deadline=None)
@given(_batch_cases())
def test_apply_batch_rejects_locked_nodes(case):
    graph, sides, gains, seed, cap = case
    _, part, _, batch, _, _ = _run_select(graph, sides, gains, seed, cap)
    if not batch:
        return
    part.lock(batch[0])
    with pytest.raises(ValueError):
        part.apply_batch(batch, [0.0] * len(batch))


def test_tie_break_keys_are_a_permutation_ingredient():
    """splitmix64 keys are distinct per node and differ across seeds."""
    a = tie_break_keys(512, 42)
    b = tie_break_keys(512, 43)
    assert a.dtype == np.uint64
    assert len(set(a.tolist())) == 512
    assert not np.array_equal(a, b)
    assert np.array_equal(a, tie_break_keys(512, 42))


@st.composite
def _subset_cases(draw):
    graph = draw(st_repro.hypergraphs(min_nodes=3, max_nodes=16, costed=True))
    sides = draw(st_repro.balanced_sides_for(graph))
    probs = draw(st_repro.probability_vectors(graph.num_nodes))
    locked = draw(
        st.lists(st.booleans(), min_size=graph.num_nodes,
                 max_size=graph.num_nodes)
    )
    nets = draw(
        st.lists(
            st.integers(0, graph.num_nets - 1),
            min_size=0, max_size=graph.num_nets, unique=True,
        )
    )
    nodes = draw(
        st.lists(
            st.integers(0, graph.num_nodes - 1),
            min_size=0, max_size=graph.num_nodes, unique=True,
        )
    )
    chunks = draw(st.integers(1, 5))
    return graph, sides, probs, locked, sorted(nets), sorted(nodes), chunks


@settings(max_examples=80, deadline=None)
@given(_subset_cases())
def test_subset_kernels_match_full_range_bitwise(case):
    """A chunked or subset sweep of the PROP and FM kernels equals the
    whole sweep bit for bit, underflow count included — the exactness
    that worker-count invariance and the sub-round engine's incremental
    updates rest on.  Locked nodes carry ``p = 0``, as in a pass."""
    graph, sides, probs, locked, nets, nodes, chunks = case
    csr = CsrView(graph)
    n, e = graph.num_nodes, graph.num_nets
    locked = np.asarray(locked, dtype=bool)
    p = np.where(locked, 0.0, np.asarray(probs, dtype=np.float64))
    sides_arr = np.asarray(sides, dtype=np.int8)
    part = Partition(graph, list(sides))
    counts0 = np.asarray(part.counts_view(0), dtype=np.int64)
    counts1 = np.asarray(part.counts_view(1), dtype=np.int64)

    prods = np.empty(2 * e)
    prop_products(csr, p, sides_arr, prods)
    gains, under = prop_gains(csr, p, sides_arr, locked, prods)
    fm = fm_gains(csr, sides_arr, counts0, counts1)

    # Chunked, as the shared-memory workers split the sweep.
    prods_c = np.full(2 * e, np.nan)
    for lo, hi in split_ranges(e, chunks):
        prop_products(csr, p, sides_arr, prods_c, slice(lo, hi))
    assert np.array_equal(prods_c, prods)
    gains_c, fm_c, under_c = np.full(n, np.nan), np.full(n, np.nan), 0
    for lo, hi in split_ranges(n, chunks):
        gains_c[lo:hi], u = prop_gains(
            csr, p, sides_arr, locked, prods, slice(lo, hi)
        )
        under_c += u
        fm_c[lo:hi] = fm_gains(
            csr, sides_arr, counts0, counts1, slice(lo, hi)
        )
    assert np.array_equal(gains_c, gains)
    assert np.array_equal(fm_c, fm)
    assert under_c == under

    # Subsets, as the sub-round engines update the touched nets/nodes.
    net_idx = np.asarray(nets, dtype=np.intp)
    prods_s = np.full(2 * e, np.nan)
    prop_products(csr, p, sides_arr, prods_s, net_idx)
    for side in (0, 1):
        assert np.array_equal(
            prods_s[side * e + net_idx], prods[side * e + net_idx]
        )
    node_idx = np.asarray(nodes, dtype=np.intp)
    gains_s, under_s = prop_gains(
        csr, p, sides_arr, locked, prods, node_idx
    )
    assert np.array_equal(gains_s, gains[node_idx])
    assert np.array_equal(
        fm_gains(csr, sides_arr, counts0, counts1, node_idx), fm[node_idx]
    )
    if len(nodes) == n:
        assert under_s == under


@settings(max_examples=60, deadline=None)
@given(_subset_cases())
def test_gather_segments_flattens_in_csr_order(case):
    graph, _, _, _, nets, _, _ = case
    csr = CsrView(graph)
    j, slot = gather_segments(np.asarray(nets, dtype=np.intp), csr.net_offset)
    expected_j = [
        i
        for net in nets
        for i in range(csr.net_offset[net], csr.net_offset[net + 1])
    ]
    expected_slot = [
        k
        for k, net in enumerate(nets)
        for _ in range(csr.net_offset[net], csr.net_offset[net + 1])
    ]
    assert j.tolist() == expected_j
    assert slot.tolist() == expected_slot
