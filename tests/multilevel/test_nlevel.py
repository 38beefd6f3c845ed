"""n-level coarsening engine: round-trips, determinism, journal resume.

Six contracts from docs/multilevel.md are fenced here:

1. **Exact round-trip** — undoing the memento stack restores the
   original hypergraph exactly: pin sets, incidence sets, bit-exact
   float node weights.
2. **Determinism** — coarsening is a pure function of (graph, knobs):
   identical contraction sequences across repeated runs, and a
   journal-resumed run reproduces the uninterrupted sequence even when
   the journal lost its tail (kill-and-resume).
3. **Exact incremental partition state** — :class:`UncoarsenState`'s
   cut/side-weight bookkeeping never drifts from the ground truth
   recomputed from scratch, with or without region refinement.
4. **Exact incremental ratings** — after every contraction, each alive
   node's queue entry is what a from-scratch rating gives, although the
   coarsener re-sums only the partners the contraction can change.
5. **Exact region rerates** — after every region-refinement and
   rebalance move, each still-queued pin of the moved node's small nets
   is keyed by its from-scratch Eqn.-1 gain, although it is re-keyed at
   most once, and only while a move has marked it: a pin that shares
   only nets the move leaves non-critical keeps its key.  Under integer
   costs totalling below 2**53 a re-key pushes the gain that FM's deltas
   kept current, and re-sums nothing; otherwise it re-sums the gain.
6. **Warm equals cold** — a later bisection of the same netlist object
   replays its memoized hierarchy and matches the first bisection of a
   pickled copy bit for bit; the memo entry dies with the netlist, is
   never pickled with it, and is safe under concurrent bisections.
"""

import gc
import json
import math
import pickle
import sys
import threading
import weakref
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastructures import AddressablePriorityQueue
from repro.hypergraph import Hypergraph, hierarchical_circuit
from repro.multilevel import (
    CoarseningJournal,
    DynamicHypergraph,
    MultilevelPartitioner,
    NLevelPartitioner,
    UncoarsenState,
    coarsening_fingerprint,
    nlevel,
    nlevel_coarsen,
)
from repro.multilevel import uncoarsen
from repro.multilevel.nlevel import NLevelCoarsener
from repro.partition import (
    BalanceConstraint,
    cut_cost,
    random_balanced_sides,
)
from repro.testing import strategies as st_repro


@pytest.fixture
def circuit():
    return hierarchical_circuit(300, 320, 1150, seed=4)


def _pairs(mementos):
    return [(m.u, m.v) for m in mementos]


# ---------------------------------------------------------------------------
# DynamicHypergraph round-trip
# ---------------------------------------------------------------------------
class TestRoundTrip:
    def _assert_restored(self, graph, dyn):
        assert dyn.alive == [True] * graph.num_nodes
        assert dyn.alive_count == graph.num_nodes
        for w, orig in zip(dyn.node_weight, graph.node_weights):
            assert w == orig  # bit-exact, not approx
        for net in range(graph.num_nets):
            assert set(dyn.pins[net]) == set(graph.net(net))
        for u in range(graph.num_nodes):
            assert set(dyn.nets_of[u]) == set(graph.node_nets(u))

    def test_single_contract_uncontract(self):
        graph = Hypergraph([[0, 1], [1, 2], [0, 2, 3]])
        dyn = DynamicHypergraph(graph)
        m = dyn.contract(0, 1)
        assert not dyn.alive[1]
        dyn.uncontract(m)
        self._assert_restored(graph, dyn)

    def test_full_stack_lifo_undo(self, circuit):
        dyn, mementos, _ = nlevel_coarsen(circuit, target_nodes=16)
        assert dyn.alive_count <= max(16, circuit.num_nodes)
        for m in reversed(mementos):
            dyn.uncontract(m)
        self._assert_restored(circuit, dyn)

    def test_pruned_single_pin_nets_revive(self):
        # Contracting {0,1} prunes the 2-pin net to one pin; the net is
        # detached from node 2's incidence and must reattach on undo.
        graph = Hypergraph([[0, 2], [1, 2], [0, 1, 2]])
        dyn = DynamicHypergraph(graph)
        m = dyn.contract(0, 1)
        assert 1 not in dyn.pins[1]
        dyn.uncontract(m)
        self._assert_restored(graph, dyn)

    def test_weighted_round_trip_is_bit_exact(self):
        graph = Hypergraph(
            [[0, 1], [1, 2], [2, 3]],
            node_weights=[0.1, 0.2, 0.30000000000000004, 7.25],
        )
        dyn = DynamicHypergraph(graph)
        ms = [dyn.contract(0, 1), dyn.contract(2, 3), dyn.contract(0, 2)]
        for m in reversed(ms):
            dyn.uncontract(m)
        self._assert_restored(graph, dyn)


# ---------------------------------------------------------------------------
# Coarsening determinism
# ---------------------------------------------------------------------------
class TestCoarseningDeterminism:
    def test_repeat_runs_identical(self, circuit):
        a = nlevel_coarsen(circuit, target_nodes=24)
        b = nlevel_coarsen(circuit, target_nodes=24)
        assert _pairs(a[1]) == _pairs(b[1])
        ga, _ = a[0].snapshot()
        gb, _ = b[0].snapshot()
        assert ga.nets == gb.nets
        assert ga.node_weights == gb.node_weights

    def test_reaches_target(self, circuit):
        dyn, _, stats = nlevel_coarsen(circuit, target_nodes=24)
        assert dyn.alive_count <= 24
        assert stats["contractions"] == circuit.num_nodes - dyn.alive_count

    def test_weight_cap_respected(self, circuit):
        target = 24
        cap = 4.0 * circuit.total_node_weight / target
        dyn, _, _ = nlevel_coarsen(circuit, target_nodes=target)
        heaviest = max(
            w for u, w in enumerate(dyn.node_weight) if dyn.alive[u]
        )
        assert heaviest <= cap

    def test_oversized_nets_do_not_strand(self):
        # Every net oversized: ratings are empty, so only the rescue
        # scan (sampled-pin fallback) can make progress.
        pins = list(range(30))
        graph = Hypergraph([pins, pins[::-1], list(range(15, 30))])
        dyn, _, stats = nlevel_coarsen(
            graph, target_nodes=4, max_net_size=5
        )
        assert dyn.alive_count <= 4
        assert stats["rescued_nodes"] > 0

    def test_isolated_nodes_contract(self):
        graph = Hypergraph([[0, 1]], num_nodes=6)  # 2..5 have no nets
        dyn, _, _ = nlevel_coarsen(graph, target_nodes=2)
        assert dyn.alive_count == 2


# ---------------------------------------------------------------------------
# Journal: resume, chaos, fingerprint binding
# ---------------------------------------------------------------------------
class TestJournalResume:
    TARGET = 16

    def _reference(self, circuit):
        return _pairs(nlevel_coarsen(circuit, target_nodes=self.TARGET)[1])

    def test_journaled_run_matches_unjournaled(self, circuit, tmp_path):
        path = tmp_path / "coarsen.jsonl"
        dyn, mementos, stats = nlevel_coarsen(
            circuit, target_nodes=self.TARGET,
            journal_path=path, journal_batch=8,
        )
        assert _pairs(mementos) == self._reference(circuit)
        assert stats["journal_replayed"] == 0
        assert path.exists()

    def test_resume_from_complete_journal_is_pure_replay(
        self, circuit, tmp_path
    ):
        path = tmp_path / "coarsen.jsonl"
        nlevel_coarsen(
            circuit, target_nodes=self.TARGET,
            journal_path=path, journal_batch=8,
        )
        dyn, mementos, stats = nlevel_coarsen(
            circuit, target_nodes=self.TARGET,
            journal_path=path, journal_batch=8,
        )
        ref = self._reference(circuit)
        assert _pairs(mementos) == ref
        assert stats["journal_replayed"] == len(ref)
        assert stats["contractions"] == 0.0  # replay did all the work

    def test_complete_replay_of_reached_target_skips_rating(self, tmp_path):
        # A chain reaches its target exactly, so a complete-journal
        # resume must do zero rating recomputation, not just zero fresh
        # contractions.
        graph = Hypergraph([[i, i + 1] for i in range(63)])
        path = tmp_path / "chain.jsonl"
        dyn, _, _ = nlevel_coarsen(graph, target_nodes=16, journal_path=path)
        assert dyn.alive_count == 16
        _, mementos, stats = nlevel_coarsen(
            graph, target_nodes=16, journal_path=path
        )
        assert stats["journal_replayed"] == len(mementos)
        assert stats["ratings_updated"] == 0.0

    @pytest.mark.parametrize("keep_fraction", [0.25, 0.6, 0.95])
    def test_kill_and_resume_bit_identical(
        self, circuit, tmp_path, keep_fraction
    ):
        """Chaos: lose the journal tail (crash mid-write), resume, and
        demand the exact uninterrupted contraction sequence."""
        path = tmp_path / "coarsen.jsonl"
        nlevel_coarsen(
            circuit, target_nodes=self.TARGET,
            journal_path=path, journal_batch=4,
        )
        data = path.read_bytes()
        path.write_bytes(data[: int(len(data) * keep_fraction)])

        dyn, mementos, stats = nlevel_coarsen(
            circuit, target_nodes=self.TARGET,
            journal_path=path, journal_batch=4,
        )
        ref = self._reference(circuit)
        assert _pairs(mementos) == ref
        assert 0 < stats["journal_replayed"] <= len(ref)
        # The resumed file must now replay the full sequence again.
        _, again, stats2 = nlevel_coarsen(
            circuit, target_nodes=self.TARGET,
            journal_path=path, journal_batch=4,
        )
        assert _pairs(again) == ref
        assert stats2["journal_replayed"] == len(ref)

    def test_corrupt_record_stops_replay_safely(self, circuit, tmp_path):
        path = tmp_path / "coarsen.jsonl"
        nlevel_coarsen(
            circuit, target_nodes=self.TARGET,
            journal_path=path, journal_batch=4,
        )
        lines = path.read_text().splitlines(keepends=True)
        # Flip a digit inside a mid-file record: its checksum fails, the
        # record is skipped, and replay validity-checks catch the gap.
        mid = len(lines) // 2
        lines[mid] = lines[mid].replace("pairs", "pairz", 1)
        path.write_text("".join(lines))
        _, mementos, _ = nlevel_coarsen(
            circuit, target_nodes=self.TARGET, journal_path=path
        )
        assert _pairs(mementos) == self._reference(circuit)

    def test_foreign_journal_ignored(self, circuit, tmp_path):
        other = hierarchical_circuit(200, 210, 760, seed=5)
        path = tmp_path / "coarsen.jsonl"
        nlevel_coarsen(other, target_nodes=self.TARGET, journal_path=path)
        _, mementos, stats = nlevel_coarsen(
            circuit, target_nodes=self.TARGET, journal_path=path
        )
        assert stats["journal_replayed"] == 0
        assert _pairs(mementos) == self._reference(circuit)

    def test_fingerprint_binds_graph_and_knobs(self, circuit):
        other = hierarchical_circuit(200, 210, 760, seed=5)
        base = coarsening_fingerprint(circuit, 16, "heavy-edge", 40, 8.0, 16)
        assert base == coarsening_fingerprint(
            circuit, 16, "heavy-edge", 40, 8.0, 16
        )
        variants = {
            coarsening_fingerprint(other, 16, "heavy-edge", 40, 8.0, 16),
            coarsening_fingerprint(circuit, 24, "heavy-edge", 40, 8.0, 16),
            coarsening_fingerprint(circuit, 16, "uniform", 40, 8.0, 16),
            coarsening_fingerprint(circuit, 16, "heavy-edge", 39, 8.0, 16),
            coarsening_fingerprint(circuit, 16, "heavy-edge", 40, 9.0, 16),
            coarsening_fingerprint(circuit, 16, "heavy-edge", 40, 8.0, 15),
        }
        assert base not in variants
        assert len(variants) == 6

    def test_journal_records_are_sealed(self, circuit, tmp_path):
        path = tmp_path / "coarsen.jsonl"
        nlevel_coarsen(
            circuit, target_nodes=self.TARGET,
            journal_path=path, journal_batch=8,
        )
        from repro.engine.records import checksum_ok

        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["type"] == "header"
        assert all(checksum_ok(rec) for rec in lines)

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            CoarseningJournal("x.jsonl", "fp", batch_pairs=0)


# ---------------------------------------------------------------------------
# NLevelPartitioner end to end
# ---------------------------------------------------------------------------
class TestNLevelPartitioner:
    def test_deterministic_per_seed(self, circuit):
        a = NLevelPartitioner().partition(circuit, seed=3)
        b = NLevelPartitioner().partition(circuit, seed=3)
        assert a.cut == b.cut
        assert a.sides == b.sides

    def test_result_verifies_and_is_balanced(self, circuit):
        balance = BalanceConstraint.fifty_fifty(circuit)
        res = NLevelPartitioner().partition(circuit, balance=balance, seed=1)
        assert res.cut == cut_cost(circuit, res.sides)
        w0 = sum(
            circuit.node_weight(u)
            for u in range(circuit.num_nodes) if res.sides[u] == 0
        )
        assert balance.is_satisfied([w0, circuit.total_node_weight - w0])

    def test_quality_comparable_to_vcycle(self, circuit):
        nl = NLevelPartitioner().partition(circuit, seed=3)
        ml = MultilevelPartitioner().partition(circuit, seed=3)
        assert nl.cut <= ml.cut * 1.5 + 4.0

    def test_initial_sides_bypass(self, circuit):
        balance = BalanceConstraint.fifty_fifty(circuit)
        init = random_balanced_sides(circuit, seed=0)
        res = NLevelPartitioner().partition(
            circuit, balance=balance, initial_sides=init, seed=0
        )
        assert res.algorithm == "NLEVEL"
        assert res.cut == cut_cost(circuit, res.sides)

    def test_empty_graph(self):
        res = NLevelPartitioner().partition(Hypergraph([], num_nodes=0))
        assert res.sides == [] and res.cut == 0.0

    def test_small_graph_no_hierarchy(self):
        graph = Hypergraph([[0, 1], [1, 2], [2, 3]])
        res = NLevelPartitioner(coarsest_nodes=80).partition(graph, seed=0)
        assert res.cut == cut_cost(graph, res.sides)

    def test_journal_resumed_partition_bit_identical(self, circuit, tmp_path):
        path = tmp_path / "nl.jsonl"
        fresh = NLevelPartitioner().partition(circuit, seed=5)
        first = NLevelPartitioner(coarsen_journal=path).partition(
            circuit, seed=5
        )
        resumed = NLevelPartitioner(coarsen_journal=path).partition(
            circuit, seed=5
        )
        assert first.sides == fresh.sides
        assert resumed.sides == fresh.sides
        assert resumed.stats["journal_replayed"] > 0

    def test_rebalance_repairs_coarse_slack(self):
        # Aggressive coarsening leaves super-nodes so heavy that the
        # coarsest partition is only feasible under slackened bounds;
        # the projected fine partition must still be repaired into the
        # *true* bounds before the final refine (regression: the engine
        # used to return the infeasible projection unchanged).
        graph = hierarchical_circuit(195, 192, 547, seed=0)
        balance = BalanceConstraint.from_fractions(graph, 0.495, 0.505)
        total = graph.total_node_weight
        for seed in (0, 1):
            res = NLevelPartitioner(
                coarsest_nodes=60, coarsest_runs=4
            ).partition(graph, balance=balance, seed=seed)
            w1 = sum(
                graph.node_weight(u)
                for u in range(graph.num_nodes) if res.sides[u] == 1
            )
            assert balance.is_satisfied([total - w1, w1])
            assert "rebalance_moves" in res.stats

    def test_telemetry_counters_surface(self, circuit):
        res = NLevelPartitioner().partition(circuit, seed=2)
        for key in (
            "coarsen_seconds", "local_refine_seconds", "contractions",
            "ratings_updated", "uncontract_batches", "region_moves",
        ):
            assert key in res.stats

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            NLevelPartitioner(coarsest_nodes=1)
        with pytest.raises(ValueError):
            NLevelPartitioner(coarsest_runs=0)
        with pytest.raises(ValueError):
            NLevelPartitioner(rating="nope")


# ---------------------------------------------------------------------------
# Hypothesis property suite
# ---------------------------------------------------------------------------
@st.composite
def _graphs(draw, max_nodes=14, max_net_size=5, rich=False,
            integer_costs=False):
    """Weighted, costed random hypergraphs.  ``rich`` redraws the net
    costs as floats, zeros and repeats (integers, zeros and repeats
    with ``integer_costs``), and the node weights as zeros and
    fractions."""
    graph = draw(st_repro.hypergraphs(
        min_nodes=2, max_nodes=max_nodes, max_net_size=max_net_size,
        weighted=True, costed=True,
    ))
    if not rich:
        return graph
    if integer_costs:
        cost = st.sampled_from([0.0, 1.0, 2.0]) | st.integers(0, 4).map(float)
    else:
        cost = st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0]) | st.floats(0.0, 4.0)
    weight = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 5.0)
    return Hypergraph(
        graph.nets,
        num_nodes=graph.num_nodes,
        net_costs=draw(st.lists(
            cost, min_size=graph.num_nets, max_size=graph.num_nets
        )),
        node_weights=draw(st.lists(
            weight, min_size=graph.num_nodes, max_size=graph.num_nodes
        )),
    )


@settings(max_examples=60, deadline=None)
@given(_graphs())
def test_property_round_trip_restores_graph(graph):
    dyn, mementos, _ = nlevel_coarsen(graph, target_nodes=2)
    for m in reversed(mementos):
        dyn.uncontract(m)
    assert dyn.alive_count == graph.num_nodes
    for w, orig in zip(dyn.node_weight, graph.node_weights):
        assert w == orig
    for net in range(graph.num_nets):
        assert set(dyn.pins[net]) == set(graph.net(net))
    for u in range(graph.num_nodes):
        assert set(dyn.nets_of[u]) == set(graph.node_nets(u))


@settings(max_examples=60, deadline=None)
@given(_graphs())
def test_property_alive_weight_conserved(graph):
    dyn, _, _ = nlevel_coarsen(graph, target_nodes=2)
    alive_total = sum(
        dyn.node_weight[u] for u in range(dyn.num_nodes) if dyn.alive[u]
    )
    assert alive_total == pytest.approx(graph.total_node_weight)
    coarse, reps = dyn.snapshot()
    assert coarse.num_nodes == dyn.alive_count
    assert sorted(reps) == [
        u for u in range(dyn.num_nodes) if dyn.alive[u]
    ]


@settings(max_examples=40, deadline=None)
@given(_graphs(), st.integers(0, 2**16))
def test_property_uncoarsen_state_stays_exact(graph, seed):
    """Incremental cut/side-weight bookkeeping == recompute from scratch,
    through full uncontraction with region refinement enabled."""
    dyn, mementos, _ = nlevel_coarsen(graph, target_nodes=2)
    coarse, reps = dyn.snapshot()
    balance = BalanceConstraint.fifty_fifty(graph)
    sides = [0] * graph.num_nodes
    if coarse.num_nodes:
        coarse_sides = random_balanced_sides(coarse, seed)
        for i, u in enumerate(reps):
            sides[u] = coarse_sides[i]
    state = UncoarsenState(dyn, sides, balance)
    state.uncoarsen(mementos, refine=True)
    assert state.cut == pytest.approx(cut_cost(graph, state.sides))
    w0 = sum(
        graph.node_weight(u)
        for u in range(graph.num_nodes) if state.sides[u] == 0
    )
    assert state.side_weights[0] == pytest.approx(w0)
    assert state.side_weights[1] == pytest.approx(
        graph.total_node_weight - w0
    )


@settings(max_examples=40, deadline=None)
@given(_graphs(), st.integers(0, 2**16))
def test_property_projection_without_refinement_preserves_cut(graph, seed):
    """refine=False uncoarsening is pure projection: the fine cut equals
    the coarse cut (uncontraction can never change a net's cut state)."""
    dyn, mementos, _ = nlevel_coarsen(graph, target_nodes=2)
    coarse, reps = dyn.snapshot()
    balance = BalanceConstraint.fifty_fifty(graph)
    sides = [0] * graph.num_nodes
    coarse_cut = 0.0
    if coarse.num_nodes:
        coarse_sides = random_balanced_sides(coarse, seed)
        for i, u in enumerate(reps):
            sides[u] = coarse_sides[i]
        coarse_cut = cut_cost(coarse, coarse_sides)
    state = UncoarsenState(dyn, sides, balance)
    assert state.cut == pytest.approx(coarse_cut)
    state.uncoarsen(mementos, refine=False)
    assert state.cut == pytest.approx(coarse_cut)
    assert state.cut == pytest.approx(cut_cost(graph, state.sides))


@settings(max_examples=60, deadline=None)
@given(_graphs())
def test_property_coarsening_is_deterministic(graph):
    a = nlevel_coarsen(graph, target_nodes=2)
    b = nlevel_coarsen(graph, target_nodes=2)
    assert _pairs(a[1]) == _pairs(b[1])


# ---------------------------------------------------------------------------
# The hierarchy memo: a warm bisection is a cold one
# ---------------------------------------------------------------------------
def _cold_copy(graph):
    """Another netlist object with ``graph``'s content: no memo entry."""
    return pickle.loads(pickle.dumps(graph))


def _assert_warm_equals_cold(warm, cold):
    """``warm`` (a memo hit) matches ``cold`` (the first bisection of a
    copy) in everything but timing, and its coarsening counters read
    like a complete journal replay."""
    assert cold.stats["journal_replayed"] == 0.0
    assert warm.sides == cold.sides
    assert warm.cut == cold.cut
    assert warm.passes == cold.passes
    assert warm.pass_cuts == cold.pass_cuts
    expected = {
        k: v for k, v in cold.stats.items() if not k.endswith("_seconds")
    }
    expected.update(
        contractions=0.0,
        ratings_updated=0.0,
        rescued_nodes=0.0,
        journal_replayed=cold.stats["contractions"],
    )
    assert {
        k: v for k, v in warm.stats.items() if not k.endswith("_seconds")
    } == expected


@settings(max_examples=40, deadline=None)
@given(
    _graphs(rich=True),
    st.sampled_from(["heavy-edge", "uniform"]),
    st.lists(st.integers(2, 6), min_size=2, max_size=2, unique=True),
    st.integers(0, 2**16),
    st.booleans(),
)
def test_property_warm_bisection_equals_cold(
    graph, rating, targets, seed, same_partitioner
):
    """Later bisections of one netlist object replay its hierarchy, one
    memo entry per coarsest-node target, from the partitioner that
    recorded it or a new one, and match a cold copy's bisection."""

    def make(target):
        return NLevelPartitioner(
            coarsest_nodes=target, coarsest_runs=2, rating=rating
        )

    recorders = {target: make(target) for target in targets}
    for target in targets:
        recorders[target].partition(graph, seed=seed + 1)
    for target in targets:
        partitioner = recorders[target] if same_partitioner else make(target)
        warm = partitioner.partition(graph, seed=seed)
        cold = partitioner.partition(_cold_copy(graph), seed=seed)
        _assert_warm_equals_cold(warm, cold)


def test_warm_bisection_of_a_stalled_coarsening_builds_no_queue(monkeypatch):
    """Node 0 cannot pair under the weight cap (9 + 1 > 4 * 20 / 9), and
    once 1-2 and 3-4 merge every other node reaches only node 0:
    coarsening stalls at 10 alive nodes, above its target of 9.  A warm
    bisection replays the two pairs and never builds a rating queue."""
    graph = Hypergraph(
        [[0, i] for i in range(1, 12)] + [[1, 2], [3, 4]],
        node_weights=[9.0] + [1.0] * 11,
    )
    partitioner = NLevelPartitioner(coarsest_nodes=9, coarsest_runs=2)
    first = partitioner.partition(graph, seed=0)
    assert first.stats["coarsest_nodes"] == 10.0
    assert first.stats["contractions"] == 2.0
    cold = partitioner.partition(_cold_copy(graph), seed=1)

    def no_queue(*args, **kwargs):
        raise AssertionError("a memo hit built a coarsener")

    monkeypatch.setattr(nlevel, "NLevelCoarsener", no_queue)
    _assert_warm_equals_cold(partitioner.partition(graph, seed=1), cold)


class TestHierarchyMemo:
    TARGET = 16

    def test_entry_dies_with_its_netlist(self):
        # Not the fixture: pytest keeps a reference to fixture values.
        graph = hierarchical_circuit(300, 320, 1150, seed=4)
        memo = nlevel.HierarchyMemo()
        _, mementos, _ = nlevel_coarsen(
            graph, target_nodes=self.TARGET, memo=memo
        )
        knobs = (
            self.TARGET, "heavy-edge", nlevel.DEFAULT_MAX_NET_SIZE,
            4.0 * graph.total_node_weight / self.TARGET,
            nlevel.DEFAULT_SAMPLE_PINS,
        )
        pairs = memo.get(graph, knobs)
        assert list(pairs) == [x for pair in _pairs(mementos) for x in pair]
        assert len(memo) == 1
        pairs = weakref.ref(pairs)
        graph_ref = weakref.ref(graph)
        del graph, mementos
        gc.collect()
        assert graph_ref() is None
        assert pairs() is None
        assert len(memo) == 0

    def test_memo_serves_only_the_object_and_knobs_it_recorded(
        self, circuit
    ):
        memo = nlevel.HierarchyMemo()
        _, cold, _ = nlevel_coarsen(
            circuit, target_nodes=self.TARGET, memo=memo
        )
        _, warm, stats = nlevel_coarsen(
            circuit, target_nodes=self.TARGET, memo=memo
        )
        assert _pairs(warm) == _pairs(cold)
        assert stats == {
            "contractions": 0.0, "ratings_updated": 0.0,
            "rescued_nodes": 0.0, "journal_replayed": float(len(cold)),
        }
        for graph, target in (
            (_cold_copy(circuit), self.TARGET),
            (circuit, self.TARGET + 1),
        ):
            _, _, stats = nlevel_coarsen(graph, target_nodes=target, memo=memo)
            assert stats["journal_replayed"] == 0.0
            assert stats["ratings_updated"] > 0.0

    def test_work_unit_pickles_no_hierarchy(self, circuit):
        from repro.engine.units import (
            WorkUnit,
            partitioner_fingerprint,
            unit_key,
        )

        partitioner = NLevelPartitioner(coarsest_runs=2)
        unit = WorkUnit(circuit, partitioner, seed=0)
        partitioner.partition(circuit, seed=0)
        cold_size = len(pickle.dumps(unit))
        fingerprint = partitioner_fingerprint(partitioner)
        key = unit_key(unit, "test")
        for seed in (1, 2):
            warm = partitioner.partition(circuit, seed=seed)
            assert warm.stats["journal_replayed"] > 0.0
        data = pickle.dumps(unit)
        assert len(data) == cold_size
        assert partitioner_fingerprint(partitioner) == fingerprint
        assert unit_key(unit, "test") == key
        copy = pickle.loads(data)
        first = copy.partitioner.partition(copy.graph, seed=3)
        assert first.stats["journal_replayed"] == 0.0
        assert first.stats["ratings_updated"] > 0.0

    def test_threads_bisecting_one_netlist_match_cold(self, circuit):
        """More threads than cores, switching often: every bisection,
        whichever thread records the hierarchy, matches a cold copy's."""
        seeds = (0, 1, 2, 3)
        cold = {
            seed: NLevelPartitioner(coarsest_runs=2).partition(
                _cold_copy(circuit), seed=seed
            )
            for seed in seeds
        }
        barrier = threading.Barrier(len(seeds))
        results = {}
        errors = []

        def bisect(seed):
            try:
                barrier.wait(timeout=60)
                partitioner = NLevelPartitioner(coarsest_runs=2)
                results[seed] = [
                    partitioner.partition(circuit, seed=seed)
                    for _ in range(2)
                ]
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=bisect, args=(seed,))
                for seed in seeds
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for seed in seeds:
            for result in results[seed]:
                assert result.sides == cold[seed].sides
                assert result.cut == cold[seed].cut
                assert result.pass_cuts == cold[seed].pass_cuts
            assert results[seed][1].stats["journal_replayed"] > 0.0


# ---------------------------------------------------------------------------
# The coarsening oracle: incremental queue == from-scratch ratings
# ---------------------------------------------------------------------------
def _assert_queue_exact(coarsener):
    """Every alive node's queue entry is a from-scratch ``_best_partner``
    (absent when that is None), and ``_targets`` inverts the payloads."""
    dyn = coarsener.dyn
    fresh = NLevelCoarsener(
        dyn,
        target_nodes=coarsener.target_nodes,
        rating=coarsener.rating,
        max_net_size=coarsener.max_net_size,
        max_cluster_weight=coarsener.max_cluster_weight,
    )
    fresh._rebuild_queue()
    pq = coarsener.pq
    partners = {}
    for w in range(dyn.num_nodes):
        best = fresh._best_partner(w) if dyn.alive[w] else None
        if best is None:
            assert w not in pq
        else:
            assert (pq.priority(w), pq.payload(w)) == best
            partners.setdefault(best[1], set()).add(w)
    targets = {
        p: set(ws) for p, ws in coarsener._targets.items() if ws
    }
    assert targets == partners


class _CheckedCoarsener(NLevelCoarsener):
    """Runs the oracle after every contraction."""

    def _contract(self, u, v):
        super()._contract(u, v)
        _assert_queue_exact(self)


@settings(max_examples=120, deadline=None)
@given(
    _graphs(max_nodes=20, max_net_size=8, rich=True),
    st.sampled_from(["heavy-edge", "uniform"]),
    st.sampled_from([3, 5, 40]),
    st.integers(2, 20),
    st.sampled_from([1.0, 2.0, 4.0, math.inf]),
)
def test_property_queue_matches_from_scratch_ratings(
    graph, rating, max_net_size, target, slack
):
    cap = math.inf
    if slack < math.inf:
        cap = slack * graph.total_node_weight / target
    coarsener = _CheckedCoarsener(
        DynamicHypergraph(graph),
        target_nodes=target,
        rating=rating,
        max_net_size=max_net_size,
        max_cluster_weight=cap,
    )
    coarsener.coarsen()
    assert coarsener.contractions == len(coarsener.mementos)


def test_queue_matches_from_scratch_ratings_after_journal_resume(
    tmp_path, monkeypatch
):
    graph = hierarchical_circuit(120, 130, 460, seed=6)
    path = tmp_path / "coarsen.jsonl"
    _, reference, _ = nlevel_coarsen(
        graph, target_nodes=8, journal_path=path, journal_batch=4
    )
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    monkeypatch.setattr(nlevel, "NLevelCoarsener", _CheckedCoarsener)
    _, mementos, stats = nlevel_coarsen(
        graph, target_nodes=8, journal_path=path, journal_batch=4
    )
    assert 0 < stats["journal_replayed"] < len(reference)
    assert stats["contractions"] > 0
    assert _pairs(mementos) == _pairs(reference)


def test_heir_tie_goes_to_the_smaller_unchanged_partner():
    """Node 2's partner 0 is absorbed into the larger-id node 3 at
    exactly the rating node 2 has toward node 1: node 1 must win.

    Contracting 4 into 3 first appends nets 0 and 1 to node 3's net
    list, so r(3, 0) = 0.1 + 0.2 + 0.3 = 0.6000000000000001 while
    r(0, 3) = 0.2 + 0.3 + 0.1 = 0.6: node 3 pops next, with partner 0.
    """
    graph = Hypergraph(
        [[4, 0], [4, 0], [3, 0], [2, 0], [2, 1], [3, 4]],
        net_costs=[0.2, 0.3, 0.1, 0.25, 0.25, 10.0],
    )
    coarsener = _CheckedCoarsener(
        DynamicHypergraph(graph), target_nodes=3, max_net_size=2
    )
    coarsener.coarsen()
    assert _pairs(coarsener.mementos) == [(3, 4), (3, 0)]
    assert coarsener.pq.payload(2) == 1


# ---------------------------------------------------------------------------
# The region oracle: rerated keys == from-scratch gains, one rerate each
# ---------------------------------------------------------------------------
def _fresh_gain(state, y):
    """Eqn.-1 gain of ``y`` recounted from the sides alone, summed in
    ``_gain``'s order so the two agree bit for bit."""
    dyn = state.dyn
    s = state.sides[y]
    g = 0.0
    for net in dyn.nets_of[y]:
        pins = dyn.pins[net]
        if len(pins) < 2:
            continue
        same = sum(1 for z in pins if state.sides[z] == s)
        if same == 1:
            g += dyn.net_cost[net]
        if same == len(pins):
            g -= dyn.net_cost[net]
    return g


class _CountingQueue(AddressablePriorityQueue):
    """Counts every push, identical re-keys included."""

    def __init__(self):
        super().__init__()
        self.pushes = Counter()

    def push(self, item, priority, payload=None):
        self.pushes[item] += 1
        super().push(item, priority, payload)


def _counting_queue(state, nodes):
    """``state``'s pass queue over ``nodes`` as a :class:`_CountingQueue`
    whose count starts after the build."""
    with mock.patch.object(
        uncoarsen, "AddressablePriorityQueue", _CountingQueue
    ):
        pq = UncoarsenState._queue(state, nodes)
    pq.pushes.clear()
    return pq


def _counted_rerate(state, pq, x):
    """Run ``state._rerate_neighbors(pq, x)``; returns ``(re-keys,
    _gain calls)`` per pin.  Every ``_gain`` call must find its pin
    marked."""
    calls = Counter()
    gain = state._gain

    def counted(y):
        assert y in state.marked
        calls[y] += 1
        return gain(y)

    pq.pushes.clear()
    state._gain = counted
    try:
        UncoarsenState._rerate_neighbors(state, pq, x)
    finally:
        del state._gain
    return Counter(pq.pushes), calls


class _CheckedState(UncoarsenState):
    """Runs the oracle after every region and rebalance move, counting
    the moves it checked in ``checked``, and the re-keys and the re-sums
    they took in ``rekeys`` and ``resums``."""

    checked = rekeys = resums = 0

    def _queue(self, nodes):
        return _counting_queue(self, nodes)

    def _rerate_neighbors(self, pq, x):
        rekeyed, calls = _counted_rerate(self, pq, x)
        dyn = self.dyn
        queued = {
            y
            for net in dyn.nets_of[x]
            if 2 <= len(dyn.pins[net]) <= self.max_net_size
            for y in dyn.pins[net]
            if y in pq
        }
        assert set(rekeyed) <= queued
        assert all(count == 1 for count in rekeyed.values())
        assert not self.marked & set(rekeyed)
        assert calls == (Counter() if self.exact else rekeyed)
        for y in queued:
            assert pq.priority(y) == _fresh_gain(self, y)
        if self.exact:
            for y, g in self.gains.items():
                if y in pq:
                    assert g == _fresh_gain(self, y)
        cls = type(self)
        cls.checked += 1
        cls.rekeys += len(rekeyed)
        cls.resums += len(calls)


def _checked_uncoarsening(graph, seed, max_net_size, lopsided):
    """Uncoarsening with region refinement under the oracle, then a
    rebalance; a ``lopsided`` start puts every node on side 0 so the
    rebalance has work to do.  Returns the state."""
    dyn, mementos, _ = nlevel_coarsen(
        graph, target_nodes=2, max_net_size=max_net_size
    )
    coarse, reps = dyn.snapshot()
    sides = [0] * graph.num_nodes
    if coarse.num_nodes and not lopsided:
        coarse_sides = random_balanced_sides(coarse, seed)
        for i, u in enumerate(reps):
            sides[u] = coarse_sides[i]
    balance = BalanceConstraint.fifty_fifty(graph)
    state = _CheckedState(dyn, sides, balance, max_net_size=max_net_size)
    state.uncoarsen(mementos, refine=True)
    state.rebalance()
    assert state.cut == pytest.approx(cut_cost(graph, state.sides))
    return state


@settings(max_examples=80, deadline=None)
@given(
    _graphs(max_nodes=20, max_net_size=8, rich=True),
    st.integers(0, 2**16),
    st.sampled_from([3, 5, 40]),
    st.booleans(),
)
def test_property_region_rerates_match_from_scratch_gains(
    graph, seed, max_net_size, lopsided
):
    """Mostly fractional costs: a rerate re-sums the gain."""
    _checked_uncoarsening(graph, seed, max_net_size, lopsided)


@settings(max_examples=80, deadline=None)
@given(
    _graphs(max_nodes=20, max_net_size=8, rich=True, integer_costs=True),
    st.integers(0, 2**16),
    st.sampled_from([3, 5, 40]),
    st.booleans(),
)
def test_property_region_rerates_match_from_scratch_gains_integer_costs(
    graph, seed, max_net_size, lopsided
):
    """Integer costs: a rerate pushes the gain kept by deltas."""
    state = _checked_uncoarsening(graph, seed, max_net_size, lopsided)
    assert state.exact


def _checked_run(monkeypatch, graph):
    """One n-level run of ``graph`` under the oracle, on an instance
    whose run makes both region and rebalance moves; returns the
    oracle's ``(rekeys, resums)``."""
    monkeypatch.setattr(uncoarsen, "UncoarsenState", _CheckedState)
    for counter in ("checked", "rekeys", "resums"):
        monkeypatch.setattr(_CheckedState, counter, 0)
    balance = BalanceConstraint.from_fractions(graph, 0.495, 0.505)
    res = NLevelPartitioner(coarsest_nodes=60, coarsest_runs=4).partition(
        graph, balance=balance, seed=0
    )
    assert res.stats["region_moves"] > 0
    assert res.stats["rebalance_moves"] > 0
    assert _CheckedState.checked >= (
        res.stats["region_moves"] + res.stats["rebalance_moves"]
    )
    assert _CheckedState.rekeys > 0
    return _CheckedState.rekeys, _CheckedState.resums


def test_region_rerates_match_from_scratch_gains_in_a_run(monkeypatch):
    """The whole n-level engine with unit costs: no rerate re-sums."""
    graph = hierarchical_circuit(195, 192, 547, seed=0)
    _rekeys, resums = _checked_run(monkeypatch, graph)
    assert resums == 0


def test_region_rerates_match_from_scratch_gains_in_a_run_fractional(
    monkeypatch,
):
    """The same circuit with every third net at cost 1.5: every rerate
    re-sums."""
    graph = hierarchical_circuit(195, 192, 547, seed=0)
    graph = graph.with_net_costs(
        [1.5 if net % 3 == 0 else 1.0 for net in range(graph.num_nets)]
    )
    rekeys, resums = _checked_run(monkeypatch, graph)
    assert resums == rekeys


@pytest.mark.parametrize("big", [2.0**53 - 3, 2.0**53], ids=["below", "at"])
def test_region_rerate_resums_once_costs_reach_2_to_the_53(big):
    """Pin 0 is alone on side 0 of net 2, of cost ``big``; pins 1 and 2
    then leave it alone on nets 0 and 1, of cost 1.  ``_gain`` sums 1,
    1, ``big``.  Costs totalling ``big + 2 < 2**53`` keep the gain by
    deltas, exactly.  From ``2**53`` on ``exact`` is off: the deltas
    would round ``2**53 + 1`` to ``2**53`` twice, so the rerate
    re-sums, and the key is ``_gain``'s ``2**53 + 2``."""
    graph = Hypergraph(
        [[0, 1, 3], [0, 2, 3], [0, 3]], net_costs=[1.0, 1.0, big]
    )
    balance = BalanceConstraint.fifty_fifty(graph)
    state = UncoarsenState(DynamicHypergraph(graph), [0, 0, 0, 1], balance)
    assert state.exact == (big + 2 < 2.0**53)
    pq = _counting_queue(state, [0])
    for x in (1, 2):
        state._apply_move(x)
        rekeyed, calls = _counted_rerate(state, pq, x)
        assert rekeyed == Counter([0])
        assert calls == (Counter() if state.exact else rekeyed)
        assert pq.priority(0) == _fresh_gain(state, 0)
    assert pq.priority(0) == big + 2


@pytest.mark.parametrize("a", [1, 2, 3, 4])
@pytest.mark.parametrize("b", [0, 1, 2, 3])
def test_region_rerate_skips_pins_of_non_critical_nets(a, b):
    """Node 0 leaves side 0 of a net with ``a`` pins there (node 0
    included) and ``b`` on side 1.  That changes another pin's Eqn.-1
    term only if ``a <= 2`` or ``b <= 1``; otherwise the other pins,
    which share only this net with node 0, keep their keys untouched.
    Under an integer cost a re-key pushes the kept gain, under a
    fractional one it re-sums the gain."""
    for cost in (1.0, 0.5):
        graph = Hypergraph([list(range(a + b))], net_costs=[cost])
        sides = [0] * a + [1] * b
        balance = BalanceConstraint.fifty_fifty(graph)
        state = UncoarsenState(DynamicHypergraph(graph), sides, balance)
        pq = _counting_queue(state, range(1, a + b))
        state._apply_move(0)
        rekeyed, calls = _counted_rerate(state, pq, 0)
        critical = a <= 2 or b <= 1
        assert rekeyed == Counter(range(1, a + b) if critical else ())
        assert calls == (Counter() if cost == 1.0 else rekeyed)
        for y in range(1, a + b):
            assert pq.priority(y) == _fresh_gain(state, y)


def test_region_rerate_counts_critical_large_nets():
    """A net above ``max_net_size`` queues no pins, but ``_gain`` sums
    it, so a move that makes it critical marks its pins too.  Node 0's
    move leaves pin 1 alone on side 0 of the large net 0; node 2's move
    then leaves the small net 1 non-critical, yet pin 1 must be re-keyed
    there, with a gain that counts net 0's change.  Under integer costs
    and under fractional ones."""
    for cost in (1.0, 0.5):
        graph = Hypergraph(
            [[0, 1, 3, 4, 5, 9], [1, 2, 6, 7, 8]], net_costs=[cost, cost]
        )
        sides = [0, 0, 0, 1, 1, 1, 0, 1, 1, 1]
        balance = BalanceConstraint.fifty_fifty(graph)
        state = UncoarsenState(
            DynamicHypergraph(graph), sides, balance, max_net_size=5
        )
        pq = _counting_queue(state, [*range(3, 10), 1])
        rerated = []
        for x in (0, 2):
            state._apply_move(x)
            rekeyed, calls = _counted_rerate(state, pq, x)
            assert calls == (Counter() if cost == 1.0 else rekeyed)
            rerated.append(rekeyed)
        assert rerated == [Counter(), Counter([1])]
        assert pq.priority(1) == _fresh_gain(state, 1)


def test_slackened_clamps_to_physical_bounds():
    b = BalanceConstraint(lo=4.0, hi=6.0, total=10.0)
    s = b.slackened(5.0)
    assert s.lo == 0.0 and s.hi == 10.0 and s.total == 10.0
