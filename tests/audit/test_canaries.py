"""Mutation canaries: deliberately broken engines must be caught.

A zero-violation audit is only evidence if the auditor can actually
detect breakage.  Each test here monkeypatches one incremental shortcut
to be subtly wrong — the kind of bug the audit subsystem exists for —
and asserts the auditor raises :class:`InvariantViolation` naming the
right invariant.  If a refactor ever silences one of these canaries, the
auditor lost its teeth for that whole invariant family.
"""

import pytest

from repro import AuditConfig, FMPartitioner, LAPartitioner, PropPartitioner
from repro.audit import InvariantViolation
from repro.core.gains import ProbabilisticGainEngine
from repro.datastructures import PassJournal
from repro.hypergraph import make_benchmark
from repro.partition import Partition

pytestmark = pytest.mark.audit


@pytest.fixture
def graph():
    return make_benchmark("t6", scale=0.05)


def _expect_violation(partitioner, graph, *invariants, audit=None):
    with pytest.raises(InvariantViolation) as err:
        partitioner.partition(
            graph, seed=9, audit=audit or AuditConfig()
        )
    assert err.value.invariant in invariants, err.value
    # The violation must carry enough context to replay the run.
    assert err.value.seed == 9
    assert "repro seed 9" in str(err.value)
    return err.value


def test_fm_broken_delta_rule_is_caught(monkeypatch, graph):
    """Dropping positive FM gain deltas leaves stale container gains."""
    import repro.baselines.fm as fm

    original = fm._apply_delta

    def lossy(containers, partition, node, delta, counters=None):
        if delta > 0:
            return  # "forgot" the critical-net +cost rule
        original(containers, partition, node, delta, counters)

    monkeypatch.setattr(fm, "_apply_delta", lossy)
    _expect_violation(FMPartitioner("tree"), graph, "fm-gain")


def test_la_wrong_vector_is_caught(monkeypatch, graph):
    """An off-by-cost lookahead level must fail the vector check."""
    import repro.baselines.la as la

    original = la.gain_vector
    calls = {"n": 0}

    def skewed(partition, node, k):
        vec = original(partition, node, k)
        calls["n"] += 1
        if calls["n"] > graph.num_nodes:  # corrupt only in-pass refreshes
            return (vec[0] + 1.0,) + vec[1:]
        return vec

    monkeypatch.setattr(la, "gain_vector", skewed)
    _expect_violation(LAPartitioner(2), graph, "la-gain-vector")


def test_prop_missing_lock_discipline_is_caught(monkeypatch, graph):
    """on_lock must zero the moved node's probability; skipping it is an
    audited probability violation (and would poison every later gain)."""
    monkeypatch.setattr(
        ProbabilisticGainEngine, "on_lock", lambda self, node: None
    )
    violation = _expect_violation(
        PropPartitioner(), graph, "lock-probability"
    )
    assert violation.node is not None


def test_prop_wrong_incremental_gain_is_caught(monkeypatch, graph):
    """A biased incremental gain must disagree with the Eqn. 2–6 oracle."""
    original = ProbabilisticGainEngine.node_gain

    def biased(self, node):
        return original(self, node) + 0.125

    monkeypatch.setattr(ProbabilisticGainEngine, "node_gain", biased)
    _expect_violation(PropPartitioner(), graph, "prop-gain")


def _flags_only(mark_stale):
    """Wrap a mutated flagging rule ``mark_stale(policy, node, flags)``
    around the real stale walk, which also advances the term memo's
    epochs: the memo stays exact, so only the stale flags are wrong."""
    from repro.core.engine import PropGains

    original = PropGains._mark_stale

    def walk(self, node):
        flags = list(self.stale)
        original(self, node)
        mark_stale(self, node, flags)
        self.stale[:] = flags

    return walk


def test_prop_unflagged_stale_gain_is_caught(monkeypatch, graph):
    """If a probability change flags no pin stale, the top-k refresh
    skips nodes whose gain did change; their keys must fail the
    clean-key check."""
    from repro.core.engine import PropGains

    monkeypatch.setattr(
        PropGains, "_mark_stale", _flags_only(lambda self, node, flags: None)
    )
    _expect_violation(PropPartitioner(), graph, "prop-clean-key")


def _locked_on_a_side(partition, net_id):
    """The too-wide dead-net rule: a locked pin on *either* side (the
    exact rule needs one on both)."""
    return (
        partition.locked_counts_view(0)[net_id]
        or partition.locked_counts_view(1)[net_id]
    )


def test_prop_gain_skipping_half_locked_nets_is_caught(monkeypatch, graph):
    """A net locked on one side only still moves a free pin's gain
    (Eqn. 5/6's surviving term); skipping it must fail the Eqn. 2–6
    oracle."""

    def skips_half_locked(self, node):
        part = self.partition
        return sum(
            self.net_gain(node, net_id)
            for net_id in part.graph.node_nets(node)
            if not _locked_on_a_side(part, net_id)
        )

    monkeypatch.setattr(
        ProbabilisticGainEngine, "node_gain", skips_half_locked
    )
    _expect_violation(PropPartitioner(), graph, "prop-gain")


def test_prop_stale_walk_skipping_half_locked_nets_is_caught(
    monkeypatch, graph
):
    """A probability change on a net locked on one side only still
    stales its free pins; a walk that skips such nets leaves clean flags
    on changed gains, which the clean-key check must catch."""
    from repro.core.engine import PropGains

    def skips_half_locked(self, node, flags):
        part = self.partition
        for net_id in part.graph.node_nets(node):
            if not _locked_on_a_side(part, net_id):
                for v in part.graph.net(net_id):
                    flags[v] = True

    monkeypatch.setattr(
        PropGains, "_mark_stale", _flags_only(skips_half_locked)
    )
    _expect_violation(PropPartitioner(), graph, "prop-clean-key")


def test_prop_move_skipping_its_epoch_bump_is_caught(monkeypatch, graph):
    """A move changes every term on the moved node's nets; if it leaves
    their epochs alone, the neighbour refresh sums memoized terms that
    still see the node unmoved, which the term-memo check must catch."""
    from repro.core.engine import PropGains

    monkeypatch.setattr(PropGains, "_bump", lambda self, moved: None)
    _expect_violation(PropPartitioner(), graph, "prop-term-memo")


def test_prop_restamp_of_a_slot_not_just_computed_is_caught(
    monkeypatch, graph
):
    """After a probability change only the changed node's own slots may
    be stamped current again (its terms do not read its own p).  Also
    re-stamping the other pins' slots on its nets keeps terms that read
    the old p, which the term-memo check must catch."""
    from repro.core.engine import PropGains

    original = PropGains._mark_stale

    def restamps_every_pin(self, node):
        original(self, node)
        part = self.partition
        graph_ = part.graph
        for net_id in graph_.node_nets(node):
            for v in graph_.net(net_id):
                if v != node and not part.is_locked(v):
                    k = self.slot_base[v] + graph_.node_nets(v).index(net_id)
                    self.stamps[k] = self.epoch[net_id]

    monkeypatch.setattr(PropGains, "_mark_stale", restamps_every_pin)
    _expect_violation(PropPartitioner(), graph, "prop-term-memo")


def test_corrupted_cut_bookkeeping_is_caught(monkeypatch, graph):
    """Drifting the tracked cut must fail the structure cross-check."""
    original = Partition.move

    def leaky(self, node):
        gain = original(self, node)
        self._cut_cost -= 0.5  # double-counts half a net somewhere
        return gain

    monkeypatch.setattr(Partition, "move", leaky)
    _expect_violation(
        FMPartitioner("tree"), graph, "cut-cost", "journal-cut"
    )


def test_lock_skipping_the_dead_cut_update_is_caught(monkeypatch, graph):
    """A lock that forgets to add the nets it kills to the dead cut
    leaves the stop rule a bound too weak; the structure check's dead-cut
    recount must catch it."""
    original = Partition.lock

    def forgetful(self, node):
        dead = self.dead_cut
        original(self, node)
        self._dead_cut = dead

    monkeypatch.setattr(Partition, "lock", forgetful)
    _expect_violation(FMPartitioner("tree"), graph, "dead-cut")


def test_pass_stopping_one_move_early_is_caught(monkeypatch, graph):
    """A move loop that ends a pass one move before the dead-cut rule
    licenses it must fail the pass-stop check.  A first, unbroken run
    finds the first licensed stop; the broken run stops one call of the
    rule earlier, in the same pass."""
    import repro.passes as passes

    real = passes.pass_can_stop
    verdicts = []

    def spy(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    monkeypatch.setattr(passes, "pass_can_stop", spy)
    FMPartitioner("tree").partition(graph, seed=9)
    first = verdicts.index(True)
    assert first > 0
    calls = []

    def early(*args):
        calls.append(None)
        return len(calls) == first or real(*args)

    monkeypatch.setattr(passes, "pass_can_stop", early)
    _expect_violation(FMPartitioner("tree"), graph, "pass-stop")


def test_broken_best_prefix_is_caught(monkeypatch, graph):
    """Rolling back to the wrong prefix must fail the rollback check.

    The auditor recomputes the max-prefix decision from independently
    replayed gains, so it catches a broken ``best_prefix`` even though
    the engine trusts that same method for its rollback.
    """
    original = PassJournal.best_prefix

    def off_by_one(self):
        p, gmax = original(self)
        return (p - 1 if p > 0 else len(self.moves) and 1), gmax

    monkeypatch.setattr(PassJournal, "best_prefix", off_by_one)
    _expect_violation(FMPartitioner("tree"), graph, "rollback-prefix")


def test_unlocked_rollback_node_is_caught(monkeypatch, graph):
    """Replaying one move too few leaves state diverged from the replay."""
    original = PassJournal.rolled_back_moves

    def short(self):
        rolled = original(self)
        return rolled[:-1] if len(rolled) > 1 else rolled

    monkeypatch.setattr(PassJournal, "rolled_back_moves", short)
    _expect_violation(
        FMPartitioner("tree"), graph, "rollback-state", "rollback-cut"
    )


def test_canaries_do_not_fire_unbroken(graph):
    """Control: the same graph/seed passes clean without the mutations."""
    for partitioner in (
        FMPartitioner("tree"), LAPartitioner(2), PropPartitioner()
    ):
        result = partitioner.partition(graph, seed=9, audit=AuditConfig())
        assert result.stats["audited"] == 1.0
