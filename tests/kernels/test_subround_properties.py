"""Property suite for sub-round batch selection and batched application.

The sub-round engine rests on three local facts, each checked here
differentially against the scalar :class:`~repro.partition.Partition`
machinery over hypothesis-generated instances:

1. :func:`select_batch` only ever returns net-disjoint batches whose
   one-at-a-time replay stays balance-feasible at every step.
2. :func:`batch_immediate_gains` equals the scalar
   ``Partition.immediate_gain`` evaluated move-by-move during a replay —
   exactly, not approximately, because net-disjointness means no move in
   the batch can perturb another's nets.
3. ``Partition.apply_batch`` leaves the partition in the byte-identical
   state (sides, counts, locks, weights, cut) that a
   ``move_and_lock``-per-node replay produces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.csr import CsrView
from repro.kernels.subround import (
    batch_immediate_gains,
    select_batch,
    tie_break_keys,
)
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
    counts0 = np.asarray(part.counts_view(0), dtype=np.int64)
    counts1 = np.asarray(part.counts_view(1), dtype=np.int64)
    imm = batch_immediate_gains(batch, csr, part.sides_view(), counts0, counts1)
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
    counts0 = np.asarray(part.counts_view(0), dtype=np.int64)
    counts1 = np.asarray(part.counts_view(1), dtype=np.int64)
    imm = batch_immediate_gains(
        batch, csr, part.sides_view(), counts0, counts1
    ).tolist()

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
    return graph, sides, probs, sorted(nets), sorted(nodes)


@settings(max_examples=80, deadline=None)
@given(_subset_cases())
def test_subset_kernels_match_full_range_bitwise(case):
    """The incremental-update kernels must reproduce the full-range
    kernels bit for bit on any subset — the exactness the sub-round
    engine's stale-gain argument rests on."""
    from repro.kernels.subround import (
        prop_gains_range,
        prop_gains_subset,
        prop_products_range,
        prop_products_subset,
    )

    graph, sides, probs, nets, nodes = case
    csr = CsrView(graph)
    n, e = graph.num_nodes, graph.num_nets
    p = np.asarray(probs, dtype=np.float64)
    sides_arr = np.asarray(sides, dtype=np.int8)
    locked = np.zeros(n, dtype=bool)

    prod0_f = np.empty(e); prod1_f = np.empty(e); count1_f = np.empty(e)
    prop_products_range(
        0, e, p, sides_arr, csr.pin_node, csr.pin_net,
        csr.net_offset, csr.net_size, prod0_f, prod1_f, count1_f,
    )
    gains_f = np.empty(n)
    under_f = prop_gains_range(
        0, n, p, sides_arr, locked, prod0_f, prod1_f, count1_f,
        csr.net_size, csr.nm_net, csr.nm_owner, csr.nm_cost,
        csr.node_offset, csr.pin_node, csr.net_offset, gains_f,
    )

    prod0_s = np.full(e, np.nan); prod1_s = np.full(e, np.nan)
    count1_s = np.full(e, np.nan)
    prop_products_subset(
        np.asarray(nets, dtype=np.intp), p, sides_arr,
        csr.pin_node, csr.net_offset, prod0_s, prod1_s, count1_s,
    )
    for net in nets:
        assert prod0_s[net] == prod0_f[net]
        assert prod1_s[net] == prod1_f[net]
        assert count1_s[net] == count1_f[net]

    gains_s = np.full(n, np.nan)
    under_s = prop_gains_subset(
        np.asarray(nodes, dtype=np.intp), p, sides_arr, locked,
        prod0_f, prod1_f, count1_f, csr.net_size,
        csr.nm_net, csr.nm_owner, csr.nm_cost, csr.node_offset,
        csr.pin_node, csr.net_offset, gains_s,
    )
    for v in nodes:
        assert gains_s[v] == gains_f[v]
    if len(nodes) == graph.num_nodes:
        assert under_s == under_f


@settings(max_examples=60, deadline=None)
@given(_subset_cases())
def test_gather_segments_flattens_in_csr_order(case):
    from repro.kernels.subround import gather_segments

    graph, _, _, nets, _ = case
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
