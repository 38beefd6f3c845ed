"""Pin the probabilistic-gain implementation to the paper's equations.

``_paper_gain`` below is a deliberately naive, self-contained
transcription of Dutt & Deng's Eqns. (2)-(6) — written from the paper
text, not from :mod:`repro.core.gains` or :mod:`repro.audit.reference` —
evaluated on tiny hand-built nets where the expected value is also
derivable by hand.  The engine, the audit oracle and this transcription
must all agree; the hand-built cases additionally pin the *numbers*, so
all three cannot drift together.
"""

import random

import pytest

from repro.audit import reference
from repro.core.gains import ProbabilisticGainEngine
from repro.core.probability import LinearProbabilityMap, SigmoidProbabilityMap
from repro.hypergraph import Hypergraph
from repro.partition import Partition
from repro.testing import random_instance

pytestmark = pytest.mark.audit


def _paper_gain(graph, sides, locked, p, u):
    """Eqns. (2)-(6), straight off the page (u must be free).

    For each net of ``u``: A = its other pins on u's side, B = its pins
    on the other side; locked pins contribute probability 0.  A cut net
    (B nonempty) contributes ``c * (prod_A - prod_B)`` — Eqn. (3), with
    (5)/(6) as the locked cases; an internal net contributes
    ``c * (prod_A - 1)`` — Eqn. (4).  Total gain is the sum, Eqn. (2).
    """
    total = 0.0
    for net_id in graph.node_nets(u):
        pins = graph.net(net_id)
        prob = lambda v: 0.0 if locked[v] else p[v]
        prod_a = prod_b = 1.0
        cut = False
        for v in pins:
            if v == u:
                continue
            if sides[v] == sides[u]:
                prod_a *= prob(v)
            else:
                cut = True
                prod_b *= prob(v)
        c = graph.net_cost(net_id)
        total += c * (prod_a - prod_b) if cut else c * (prod_a - 1.0)
    return total


def _engine(graph, sides, p, locked=()):
    part = Partition(graph, sides)
    for v in locked:
        part.lock(v)
    return ProbabilisticGainEngine(part, p)


class TestHandBuiltNets:
    """Tiny nets with hand-derived expected gains."""

    def test_two_pin_cut_net(self):
        # u=0 on side 0, its only net cut by node 1: A = {}, B = {1}.
        # Eqn (3): g = c * (1 - p(1)).
        graph = Hypergraph([(0, 1)], net_costs=[2.0])
        engine = _engine(graph, [0, 1], [0.5, 0.7])
        assert engine.node_gain(0) == pytest.approx(2.0 * (1.0 - 0.7))
        assert engine.node_gain(1) == pytest.approx(2.0 * (1.0 - 0.5))

    def test_two_pin_internal_net(self):
        # Both pins on side 0: Eqn (4): g = c * (p(other) - 1) <= 0.
        graph = Hypergraph([(0, 1)])
        engine = _engine(graph, [0, 0], [0.5, 0.7])
        assert engine.node_gain(0) == pytest.approx(0.7 - 1.0)
        assert engine.node_gain(1) == pytest.approx(0.5 - 1.0)

    def test_three_pin_cut_net(self):
        # u=0 with companion 1 (p=0.6) and opponent 2 (p=0.9):
        # g = c * (p(1) - p(2)).
        graph = Hypergraph([(0, 1, 2)], net_costs=[3.0])
        engine = _engine(graph, [0, 0, 1], [0.5, 0.6, 0.9])
        assert engine.node_gain(0) == pytest.approx(3.0 * (0.6 - 0.9))

    def test_locked_opponent_is_a_sure_thing(self):
        # Node 2 locked on side 1: the other side can never clear, so the
        # foreclosed-option term vanishes — Eqn (5): g = c * prod_A.
        graph = Hypergraph([(0, 1, 2)])
        engine = _engine(graph, [0, 0, 1], [0.5, 0.6, 0.9], locked=[2])
        assert engine.p[2] == 0.0  # lock forces p = 0
        assert engine.node_gain(0) == pytest.approx(0.6)

    def test_locked_companion_zeroes_the_upside(self):
        # Node 1 locked on u's side: the net can never leave u's side, so
        # only the negative term survives — Eqn (6): g = -c * prod_B.
        graph = Hypergraph([(0, 1, 2)])
        engine = _engine(graph, [0, 0, 1], [0.5, 0.6, 0.9], locked=[1])
        assert engine.node_gain(0) == pytest.approx(-0.9)

    def test_locked_companion_internal_net(self):
        # Internal net with a locked companion: moving u cuts it for sure.
        graph = Hypergraph([(0, 1)], net_costs=[4.0])
        engine = _engine(graph, [0, 0], [0.5, 0.6], locked=[1])
        assert engine.node_gain(0) == pytest.approx(-4.0)

    def test_multi_net_gain_is_the_sum(self):
        # Eqn (2): one cut net (+1*(1-0.8)) and one internal (+2*(0.25-1)).
        graph = Hypergraph([(0, 1), (0, 2)], net_costs=[1.0, 2.0])
        engine = _engine(graph, [0, 1, 0], [0.5, 0.8, 0.25])
        expected = 1.0 * (1.0 - 0.8) + 2.0 * (0.25 - 1.0)
        assert engine.node_gain(0) == pytest.approx(expected)

    def test_zero_probabilities_reduce_to_fm_gain(self):
        # With p = 0 for every other node, Eqns (3)/(4) collapse to
        # Eqn (1): +c where u is its side's only pin, -c per internal
        # net, 0 otherwise — PROP's advertised FM specialization.
        graph = Hypergraph([(0, 1), (0, 2), (0, 3), (0, 1, 3)])
        sides = [0, 1, 1, 0]
        engine = _engine(graph, sides, [1.0, 0.0, 0.0, 0.0])
        fm = reference.immediate_gain(graph, sides, 0)
        assert fm == 2.0 - 1.0  # two sole-pin cut nets... minus (0,3)
        assert engine.node_gain(0) == pytest.approx(fm)


class TestThreeWayAgreement:
    """engine == audit oracle == in-test transcription, everywhere."""

    @pytest.mark.parametrize("seed", range(30, 40))
    def test_random_instances_random_probabilities(self, seed):
        graph = random_instance(seed, max_nodes=10)
        rng = random.Random(seed)
        sides = [rng.randint(0, 1) for _ in range(graph.num_nodes)]
        p = [rng.uniform(0.05, 0.95) for _ in range(graph.num_nodes)]
        lock = [v for v in range(graph.num_nodes) if rng.random() < 0.3]
        engine = _engine(graph, sides, p, locked=lock)
        locked = [v in set(lock) for v in range(graph.num_nodes)]
        for u in range(graph.num_nodes):
            if locked[u]:
                continue
            expected = _paper_gain(graph, sides, locked, p, u)
            assert engine.node_gain(u) == pytest.approx(expected), u
            assert reference.prop_gain(
                graph, sides, locked, engine.p, u
            ) == pytest.approx(expected), u

    @pytest.mark.parametrize("seed", range(30, 35))
    def test_bulk_paths_match_node_gain(self, seed):
        """all_gains agrees with the per-node path."""
        graph = random_instance(seed, max_nodes=10)
        rng = random.Random(seed ^ 0xBEEF)
        sides = [rng.randint(0, 1) for _ in range(graph.num_nodes)]
        p = [rng.uniform(0.05, 0.95) for _ in range(graph.num_nodes)]
        engine = _engine(graph, sides, p)
        gains = engine.all_gains()
        for u in range(graph.num_nodes):
            assert gains[u] == pytest.approx(engine.node_gain(u)), u


class TestProbabilityMapValues:
    """Pin the Sec. 4 linear map (and the sigmoid's clamp semantics)."""

    def test_paper_parameter_values(self):
        # pmin=0.4, pmax=0.95, glo=-1, gup=1 (PropConfig defaults).
        f = LinearProbabilityMap(0.4, 0.95, -1.0, 1.0)
        assert f(-1.0) == 0.4 and f(1.0) == 0.95  # exact at thresholds
        assert f(-5.0) == 0.4 and f(3.0) == 0.95  # clamped beyond them
        assert f(0.0) == pytest.approx(0.675)     # midpoint
        assert f(0.5) == pytest.approx(0.8125)
        assert f(-0.5) == pytest.approx(0.5375)

    def test_figure1_parameter_values(self):
        # The Figure-1 reproduction's standalone use: pmin=0, pmax=1.
        f = LinearProbabilityMap(0.0, 1.0, -1.0, 1.0)
        assert f(0.0) == pytest.approx(0.5)
        assert f(0.6) == pytest.approx(0.8)

    @pytest.mark.parametrize("cls", [LinearProbabilityMap, SigmoidProbabilityMap])
    def test_monotone_and_clamped(self, cls):
        f = cls(0.4, 0.95, -1.0, 1.0)
        xs = [i / 10.0 for i in range(-20, 21)]
        ys = [f(x) for x in xs]
        assert all(b >= a for a, b in zip(ys, ys[1:]))
        assert all(0.4 <= y <= 0.95 for y in ys)
        assert f(1.0) == 0.95 and f(-1.0) == 0.4

    def test_sigmoid_centred_between_thresholds(self):
        f = SigmoidProbabilityMap(0.4, 0.95, -1.0, 1.0)
        assert f(0.0) == pytest.approx((0.4 + 0.95) / 2.0)

    @pytest.mark.parametrize("cls", [LinearProbabilityMap, SigmoidProbabilityMap])
    def test_rejects_bad_parameters(self, cls):
        with pytest.raises(ValueError):
            cls(0.9, 0.4, -1.0, 1.0)  # pmin > pmax
        with pytest.raises(ValueError):
            cls(0.4, 0.95, 1.0, 1.0)  # glo == gup
