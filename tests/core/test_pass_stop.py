"""The dead-cut stop rule changes no outcome, only how many moves a pass makes.

A pass ends right after the first move at which the cut at pass start
minus the dead cut (nets with a locked pin on each side) is at most the
best prefix gain so far (:func:`repro.datastructures.pass_can_stop`).
PROP has no from-scratch reference run, so each engine here is compared
against itself with the rule switched off by patching the predicate:

* integer net costs: identical sides, ``pass_cuts`` and ``passes``, and
  each pass's moves a prefix of the full pass's;
* n-level region passes: the same, pass by pass;
* one fractional net cost: every pass makes every move the full pass
  makes, since the rule is licensed only for exact cost sums.
"""

from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.subround as subround
import repro.multilevel.uncoarsen as uncoarsen
import repro.passes as passes
from repro.baselines.fm import run_fm
from repro.baselines.la import run_la
from repro.core import PropConfig, PropPartitioner
from repro.core.engine import run_prop
from repro.hypergraph import hierarchical_circuit, large_circuit, make_benchmark
from repro.multilevel import NLevelPartitioner, UncoarsenState
from repro.multilevel.nlevel import nlevel_coarsen
from repro.partition import BalanceConstraint, random_balanced_sides
from repro.telemetry import MemoryRecorder
from repro.testing import strategies as st_repro

pytestmark = pytest.mark.audit

#: name -> runner(graph, sides, balance, recorder)
RUNNERS = {
    "prop": lambda g, s, b, r: run_prop(
        g, s, b, PropConfig(kernel="python"), recorder=r
    ),
    "fm-bucket": lambda g, s, b, r: run_fm(
        g, s, b, container="bucket", kernel="python", recorder=r
    ),
    "fm-tree": lambda g, s, b, r: run_fm(
        g, s, b, container="tree", kernel="python", recorder=r
    ),
    "la-3": lambda g, s, b, r: run_la(
        g, s, b, k=3, kernel="python", recorder=r
    ),
    "prop-subround": lambda g, s, b, r: run_prop(
        g, s, b, PropConfig(kernel="subround"), recorder=r
    ),
    "fm-subround": lambda g, s, b, r: run_fm(
        g, s, b, kernel="subround", recorder=r
    ),
}

#: Every module whose move loop calls the stop rule.
_LOOPS = (passes, subround, uncoarsen)


def _rule_off():
    """Patch the stop rule off in every move loop."""
    stack = ExitStack()
    for module in _LOOPS:
        stack.enter_context(
            mock.patch.object(module, "pass_can_stop", lambda *args: False)
        )
    return stack


def _run(name, graph, sides, balance):
    """``(result, moves per pass)`` of one run."""
    rec = MemoryRecorder()
    result = RUNNERS[name](graph, sides, balance, rec)
    moves = [[] for _ in range(result.passes)]
    for m in rec.moves:
        moves[m.pass_index].append((m.node, m.from_side, m.immediate_gain))
    return result, moves


def _assert_same_outcome(name, graph, sides, balance):
    """The run with the rule equals the run without it, except that its
    passes may end early; returns the moves (with, without)."""
    stopped, stopped_moves = _run(name, graph, sides, balance)
    with _rule_off():
        full, full_moves = _run(name, graph, sides, balance)
    assert stopped.sides == full.sides
    assert stopped.pass_cuts == full.pass_cuts
    assert stopped.passes == full.passes
    assert stopped.cut == full.cut
    for short, whole in zip(stopped_moves, full_moves):
        assert short == whole[:len(short)]
    return stopped_moves, full_moves


@pytest.mark.parametrize("name", sorted(RUNNERS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_stop_keeps_every_outcome(name, data):
    """Integer costs >= 1 (unit costs for FM-bucket, which needs them):
    the kept prefixes, pass cuts and sides are those of the full passes,
    and each pass's moves are a prefix."""
    graph, sides = data.draw(st_repro.graphs_with_sides(
        min_nodes=2, max_nodes=14, balanced=True,
        costed=name != "fm-bucket",
    ))
    balance = BalanceConstraint.fifty_fifty(graph)
    _assert_same_outcome(name, graph, sides, balance)


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_stop_ends_passes_early_on_a_circuit(name):
    """The rule is not idle: on a Table-1 circuit some pass ends early."""
    graph = make_benchmark("t6", scale=0.05)
    sides = random_balanced_sides(graph, 9)
    balance = BalanceConstraint.fifty_fifty(graph)
    stopped, full = _assert_same_outcome(name, graph, sides, balance)
    assert sum(map(len, stopped)) < sum(map(len, full))


def _nlevel_run(graph, seed):
    """``(result, forward moves per region pass)`` of one n-level run;
    the rebalance's moves form their own entry."""
    log = []
    refine_region = UncoarsenState._refine_region
    rebalance = UncoarsenState.rebalance
    rerate = UncoarsenState._rerate_neighbors

    def logged_refine_region(self, region):
        log.append([])
        return refine_region(self, region)

    def logged_rebalance(self, bounds=None):
        log.append(["rebalance"])
        return rebalance(self, bounds)

    def logged_rerate(self, pq, x):
        log[-1].append(x)
        rerate(self, pq, x)

    with ExitStack() as stack:
        for name, fn in (
            ("_refine_region", logged_refine_region),
            ("rebalance", logged_rebalance),
            ("_rerate_neighbors", logged_rerate),
        ):
            stack.enter_context(mock.patch.object(UncoarsenState, name, fn))
        result = NLevelPartitioner(
            refiner=PropPartitioner(PropConfig(max_passes=1)),
            coarsest_nodes=40, coarsest_runs=2,
        ).partition(graph, seed=seed)
    return result, log


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("instance", ["hier195", "large600"])
def test_nlevel_region_passes_keep_every_outcome(instance, seed):
    graph = {
        "hier195": lambda: hierarchical_circuit(195, 192, 547, seed=0),
        "large600": lambda: large_circuit(600, seed=7, hub_nets=1),
    }[instance]()
    stopped, stopped_log = _nlevel_run(graph, seed)
    with _rule_off():
        full, full_log = _nlevel_run(graph, seed)
    assert stopped.sides == full.sides
    assert stopped.pass_cuts == full.pass_cuts
    assert stopped.passes == full.passes
    for key in ("region_moves", "rebalance_moves", "uncontract_batches"):
        assert stopped.stats[key] == full.stats[key]
    assert len(stopped_log) == len(full_log)
    for short, whole in zip(stopped_log, full_log):
        assert short == whole[:len(short)]
    assert sum(map(len, stopped_log)) < sum(map(len, full_log))


def _region_cuts_from_scratch(state, region, popped):
    """``(cut, dead cut)`` of the region's nets, counted from the pins:
    a pin outside the region or already popped counts as locked."""
    dyn = state.dyn
    cut = dead = 0.0
    for net in sorted({net for x in region for net in dyn.nets_of[x]}):
        pins = dyn.pins[net]
        if len({state.sides[y] for y in pins}) == 2:
            cut += dyn.net_cost[net]
        locked = {
            state.sides[y] for y in pins if y not in region or y in popped
        }
        if len(locked) == 2:
            dead += dyn.net_cost[net]
    return cut, dead


class _DeadCutCheckedState(UncoarsenState):
    """Recounts a region pass's start cut and dead cut from scratch when
    the pass starts and after every pop; counts the pops it checked."""

    checked = 0

    def _region_cuts(self, region):
        nets, cut, dead = super()._region_cuts(region)
        self._checked_region, self._popped = region, set()
        assert (cut, dead) == _region_cuts_from_scratch(self, region, set())
        return nets, cut, dead

    def _lock_popped(self, x, moved, dead):
        dead = super()._lock_popped(x, moved, dead)
        self._popped.add(x)
        assert dead == _region_cuts_from_scratch(
            self, self._checked_region, self._popped
        )[1]
        type(self).checked += 1
        return dead


@settings(max_examples=100, deadline=None)
@given(
    st_repro.hypergraphs(
        min_nodes=2, max_nodes=24, max_net_size=6, costed=True
    ),
    st.integers(0, 2**16),
)
def test_property_region_dead_cut_matches_from_scratch(graph, seed):
    """Integer costs: through a whole uncoarsening with region
    refinement, the region's dead cut is exact after every pop.  The
    rule is patched off so that every region pass pops every pin."""
    dyn, mementos, _ = nlevel_coarsen(graph, target_nodes=2)
    coarse, reps = dyn.snapshot()
    sides = [0] * graph.num_nodes
    if coarse.num_nodes:
        coarse_sides = random_balanced_sides(coarse, seed)
        for i, u in enumerate(reps):
            sides[u] = coarse_sides[i]
    state = _DeadCutCheckedState(
        dyn, sides, BalanceConstraint.fifty_fifty(graph)
    )
    assert state.exact
    with _rule_off():
        state.uncoarsen(mementos, refine=True)


def test_region_dead_cut_matches_from_scratch_in_a_run():
    _DeadCutCheckedState.checked = 0
    graph = hierarchical_circuit(195, 192, 547, seed=0)
    with mock.patch.object(uncoarsen, "UncoarsenState", _DeadCutCheckedState):
        NLevelPartitioner(coarsest_nodes=60, coarsest_runs=2).partition(
            graph, seed=0
        )
    assert _DeadCutCheckedState.checked > 0


def _fractional(graph):
    """``graph`` with net 0's cost made fractional."""
    return graph.with_net_costs([1.5] + list(graph.net_costs[1:]))


@pytest.mark.parametrize("name", sorted(set(RUNNERS) - {"fm-bucket"}))
def test_fractional_cost_keeps_whole_passes(name):
    """One fractional net cost (FM-bucket takes unit costs only): the
    rule never fires, and every pass makes all the moves of the full
    pass."""
    graph = _fractional(make_benchmark("t6", scale=0.05))
    sides = random_balanced_sides(graph, 9)
    balance = BalanceConstraint.fifty_fifty(graph)
    stopped, full = _assert_same_outcome(name, graph, sides, balance)
    assert stopped == full


def test_fractional_cost_keeps_whole_region_passes():
    graph = _fractional(hierarchical_circuit(195, 192, 547, seed=0))
    stopped, stopped_log = _nlevel_run(graph, 0)
    with _rule_off():
        full, full_log = _nlevel_run(graph, 0)
    assert stopped.sides == full.sides
    assert stopped_log == full_log
