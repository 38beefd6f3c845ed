"""Tests for the probabilistic gain engine (paper Eqns. 2–6).

The unified rule (DESIGN.md decision 1) must reproduce each of the paper's
equations, including every locked-net specialization, and the O(m)
``all_gains`` must agree with per-node recomputation bit for bit.
``node_gain`` skips nets locked on both sides; it must still equal, bit
for bit, a plain left-to-right sum that visits them.  The PROP pass sums
memoized per-net terms instead; that sum must equal ``node_gain`` bit
for bit after any sequence of moves and probability writes.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PropConfig
from repro.core.engine import PropGains
from repro.core.gains import ProbabilisticGainEngine
from repro.hypergraph import Hypergraph, hierarchical_circuit
from repro.kernels import make_gain_engine
from repro.partition import Partition, random_balanced_sides
from repro.testing import strategies as st_repro


def make_engine(nets, sides, probabilities, net_costs=None, locked=()):
    graph = Hypergraph(nets, num_nodes=len(sides), net_costs=net_costs)
    partition = Partition(graph, sides)
    for v in locked:
        partition.lock(v)
    engine = ProbabilisticGainEngine(partition)
    for v, p in enumerate(probabilities):
        if not partition.is_locked(v):
            engine.set_probability(v, p)
    return engine


class TestEquation3_NetInCut:
    def test_basic(self):
        """u=0 with partner 1 (p=0.6) on side 0; nodes 2,3 (p=0.5, 0.7) on
        side 1.  g = prodA - prodB = 0.6 - 0.35."""
        engine = make_engine(
            nets=[[0, 1, 2, 3]],
            sides=[0, 0, 1, 1],
            probabilities=[0.9, 0.6, 0.5, 0.7],
        )
        assert engine.net_gain(0, 0) == pytest.approx(0.6 - 0.35)

    def test_sole_pin_prodA_is_one(self):
        """u is the only pin on its side: moving it removes the net for
        sure -> prodA = 1 (empty product)."""
        engine = make_engine(
            nets=[[0, 1, 2]],
            sides=[0, 1, 1],
            probabilities=[0.9, 0.5, 0.5],
        )
        assert engine.net_gain(0, 0) == pytest.approx(1.0 - 0.25)

    def test_cost_scales(self):
        engine = make_engine(
            nets=[[0, 1]],
            sides=[0, 1],
            probabilities=[0.9, 0.4],
            net_costs=[3.0],
        )
        assert engine.net_gain(0, 0) == pytest.approx(3.0 * (1.0 - 0.4))


class TestEquation4_InternalNet:
    def test_basic(self):
        """Internal net {0,1,2}: g = -c(1 - p(1)p(2))."""
        engine = make_engine(
            nets=[[0, 1, 2]],
            sides=[0, 0, 0],
            probabilities=[0.9, 0.5, 0.4],
        )
        assert engine.net_gain(0, 0) == pytest.approx(-(1 - 0.2))

    def test_two_pin_internal(self):
        engine = make_engine(
            nets=[[0, 1]],
            sides=[0, 0],
            probabilities=[0.9, 0.7],
        )
        assert engine.net_gain(0, 0) == pytest.approx(-(1 - 0.7))

    def test_internal_net_locked_partner_forces_minus_c(self):
        """A locked same-side partner can never follow: g = -c exactly."""
        engine = make_engine(
            nets=[[0, 1]],
            sides=[0, 0],
            probabilities=[0.9, 0.7],
            locked=[1],
        )
        assert engine.net_gain(0, 0) == pytest.approx(-1.0)


class TestEquation5and6_LockedNets:
    def test_eqn5_net_locked_other_side(self):
        """Net locked in V2: p(n^{2->1}) = 0, so g = +c * prodA."""
        engine = make_engine(
            nets=[[0, 1, 2]],
            sides=[0, 0, 1],
            probabilities=[0.9, 0.6, 0.0],
            locked=[2],
        )
        assert engine.net_gain(0, 0) == pytest.approx(0.6)

    def test_eqn6_net_locked_own_side(self):
        """u free on a side where the net is locked: the positive term dies,
        leaving g = -c * p(n^{1->2}) (the Eqn. 6 mirror)."""
        engine = make_engine(
            nets=[[0, 1, 2, 3]],
            sides=[0, 0, 1, 1],
            probabilities=[0.9, 0.0, 0.5, 0.8],
            locked=[1],
        )
        # u = 0: locked partner on side 0 -> prodA = 0; prodB = 0.4
        assert engine.net_gain(0, 0) == pytest.approx(-0.4)

    def test_net_locked_both_sides_contributes_nothing(self):
        """A net locked in the cutset can never change: gain 0."""
        engine = make_engine(
            nets=[[0, 1, 2]],
            sides=[0, 0, 1],
            probabilities=[0.9, 0.0, 0.0],
            locked=[1, 2],
        )
        assert engine.net_gain(0, 0) == pytest.approx(0.0)


class TestNodeGain:
    def test_sums_over_nets(self):
        engine = make_engine(
            nets=[[0, 1], [0, 2]],
            sides=[0, 1, 0],
            probabilities=[0.9, 0.5, 0.6],
        )
        expected = (1.0 - 0.5) + (-(1 - 0.6))
        assert engine.node_gain(0) == pytest.approx(expected)

    def test_clearing_probability_exclude(self):
        engine = make_engine(
            nets=[[0, 1, 2]],
            sides=[0, 0, 0],
            probabilities=[0.5, 0.6, 0.7],
        )
        assert engine.net_clearing_probability(0, 0) == pytest.approx(0.21)
        assert engine.net_clearing_probability(0, 0, exclude=0) == (
            pytest.approx(0.42)
        )
        assert engine.net_clearing_probability(0, 1) == pytest.approx(1.0)


class TestProbabilityMaintenance:
    def test_set_probability_validates_range(self, tiny_graph, tiny_sides):
        engine = ProbabilisticGainEngine(Partition(tiny_graph, tiny_sides))
        with pytest.raises(ValueError):
            engine.set_probability(0, 1.5)
        with pytest.raises(ValueError):
            engine.set_probability(0, -0.1)

    def test_locked_node_must_stay_zero(self, tiny_graph, tiny_sides):
        partition = Partition(tiny_graph, tiny_sides)
        partition.lock(0)
        engine = ProbabilisticGainEngine(partition)
        with pytest.raises(ValueError, match="locked"):
            engine.set_probability(0, 0.5)
        engine.set_probability(0, 0.0)  # zero is fine

    def test_fill_skips_locked(self, tiny_graph, tiny_sides):
        partition = Partition(tiny_graph, tiny_sides)
        partition.lock(3)
        engine = ProbabilisticGainEngine(partition)
        engine.fill(0.8)
        assert engine.p[3] == 0.0
        assert engine.p[0] == 0.8

    def test_initial_probabilities_vector(self, tiny_graph, tiny_sides):
        engine = ProbabilisticGainEngine(
            Partition(tiny_graph, tiny_sides), probabilities=[0.5] * 6
        )
        assert engine.p == [0.5] * 6

    def test_initial_vector_length_checked(self, tiny_graph, tiny_sides):
        with pytest.raises(ValueError):
            ProbabilisticGainEngine(
                Partition(tiny_graph, tiny_sides), probabilities=[0.5]
            )

    def test_on_lock_zeroes(self, tiny_graph, tiny_sides):
        partition = Partition(tiny_graph, tiny_sides)
        engine = ProbabilisticGainEngine(partition)
        engine.fill(0.9)
        partition.move_and_lock(2)
        engine.on_lock(2)
        assert engine.p[2] == 0.0


class TestAllGainsConsistency:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_all_gains_matches_per_node(self, seed):
        """The O(m) bulk computation equals per-node recomputation, with
        random probabilities and a random set of locked nodes."""
        rng = random.Random(seed)
        graph = hierarchical_circuit(60, 66, 240, seed=seed % 6)
        partition = Partition(graph, random_balanced_sides(graph, seed))
        for v in rng.sample(range(graph.num_nodes), 8):
            if not partition.is_locked(v):
                partition.move_and_lock(v)
        engine = ProbabilisticGainEngine(partition)
        for v in range(graph.num_nodes):
            if not partition.is_locked(v):
                engine.set_probability(v, rng.uniform(0.4, 0.95))
        bulk = engine.all_gains()
        for v in range(graph.num_nodes):
            if partition.is_locked(v):
                assert bulk[v] == 0.0
            else:
                assert bulk[v] == pytest.approx(
                    engine.node_gain(v), rel=1e-9, abs=1e-12
                )


def _left_to_right_gain(graph, sides, p, node):
    """Eqns. 3/4 summed over every net of ``node`` in order, dead nets
    (locked on both sides) included."""
    s = sides[node]
    total = 0.0
    for net_id in graph.node_nets(node):
        prod_a = prod_b = 1.0
        has_other = False
        for v in graph.net(net_id):
            if v == node:
                continue
            if sides[v] == s:
                prod_a *= p[v]
            else:
                has_other = True
                prod_b *= p[v]
        cost = graph.net_cost(net_id)
        if has_other:
            total += cost * (prod_a - prod_b)
        else:
            total += cost * (prod_a - 1.0)
    return total


@st.composite
def _locked_states(draw):
    """A graph with zero, repeated and fractional net costs and
    single-pin nets, plus sides, a lock set and probabilities."""
    graph = draw(st_repro.hypergraphs(max_nodes=10, max_net_size=6))
    cost = st.sampled_from([0.0, 0.1, 0.3, 1.0]) | st.floats(0.0, 4.0)
    graph = Hypergraph(
        graph.nets,
        num_nodes=graph.num_nodes,
        net_costs=draw(st.lists(
            cost, min_size=graph.num_nets, max_size=graph.num_nets
        )),
    )
    n = graph.num_nodes
    sides = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    locked = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    probability = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    p = draw(st.lists(probability, min_size=n, max_size=n))
    return graph, sides, locked, p


class TestDeadNetSkip:
    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    @given(state=_locked_states())
    @settings(max_examples=150, deadline=None)
    def test_node_gain_equals_a_sum_over_every_net(self, kernel, state):
        graph, sides, locked, probabilities = state
        partition = Partition(graph, sides)
        for v in range(graph.num_nodes):
            if locked[v]:
                partition.lock(v)
        engine = make_gain_engine(partition, kernel)
        for v in range(graph.num_nodes):
            if not locked[v]:
                engine.set_probability(v, probabilities[v])
        for v in range(graph.num_nodes):
            if not locked[v]:
                assert engine.node_gain(v) == _left_to_right_gain(
                    graph, sides, engine.p, v
                )

    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    def test_node_with_only_dead_nets_gains_exactly_zero(self, kernel):
        """Both of node 0's nets hold a locked pin on each side."""
        graph = Hypergraph(
            [[0, 1, 2], [0, 3, 4], [1, 3]],
            num_nodes=5, net_costs=[0.3, 2.0, 1.0],
        )
        sides = [0, 0, 1, 0, 1]
        partition = Partition(graph, sides)
        for v in (1, 2, 3, 4):
            partition.lock(v)
        engine = make_gain_engine(partition, kernel)
        engine.set_probability(0, 0.7)
        gain = engine.node_gain(0)
        assert gain == 0.0 and math.copysign(1.0, gain) == 1.0
        assert _left_to_right_gain(graph, sides, engine.p, 0) == 0.0


class _CountingList(list):
    """A probability vector that counts its element reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


@st.composite
def _memo_runs(draw):
    """A graph with single-pin and parallel nets and zero, repeated and
    fractional costs, sides, probabilities, and a list of steps: a move
    of a free node, or a probability write to one."""
    graph = draw(st_repro.hypergraphs(max_nodes=10, max_net_size=6))
    nets = list(graph.nets)
    nets += draw(st.lists(st.sampled_from(nets), max_size=3))
    cost = st.sampled_from([0.0, 0.1, 0.3, 1.0]) | st.floats(0.0, 4.0)
    graph = Hypergraph(
        nets,
        num_nodes=graph.num_nodes,
        net_costs=draw(st.lists(cost, min_size=len(nets), max_size=len(nets))),
    )
    n = graph.num_nodes
    sides = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    probability = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    p = draw(st.lists(probability, min_size=n, max_size=n))
    steps = draw(st.lists(
        st.tuples(st.booleans(), st.integers(0, n - 1), probability),
        max_size=12,
    ))
    return graph, sides, p, steps


class TestTermMemo:
    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    @given(run=_memo_runs())
    @settings(max_examples=150, deadline=None)
    def test_memoized_gain_equals_node_gain(self, kernel, run):
        """Moves go through ``PropGains.apply_move`` (epoch bump,
        neighbour and top-k refresh, their probability writes) and
        probability writes through ``_set_probability`` right after the
        node's own gain, as in a pass."""
        graph, sides, probabilities, steps = run
        partition = Partition(graph, sides)
        policy = PropGains(partition, PropConfig(), kernel)
        engine = policy.engine
        for v, value in enumerate(probabilities):
            engine.set_probability(v, value)
        engine.p = p = _CountingList(engine.p)
        policy.initial_keys()
        containers = policy.new_containers()
        for v in range(graph.num_nodes):
            containers[sides[v]].insert(v, engine.node_gain(v))

        def free_nodes():
            return [
                v for v in range(graph.num_nodes)
                if not partition.is_locked(v)
            ]

        def check():
            for v in free_nodes():
                gain = policy._memo_gain(v)
                p.reads = 0
                assert policy._memo_gain(v) == gain
                assert p.reads == 0
                assert gain == engine.node_gain(v)

        check()
        for is_move, index, value in steps:
            free = free_nodes()
            if not free:
                break
            node = free[index % len(free)]
            if is_move:
                side = partition.side(node)
                containers[side].remove(node)
                policy.apply_move(node, side, containers, None)
            else:
                policy._memo_gain(node)
                policy._set_probability(node, value)
                # The node's own terms do not read its own probability.
                p.reads = 0
                policy._memo_gain(node)
                assert p.reads == 0
            check()
