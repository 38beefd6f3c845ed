"""The PROP pass engine — paper Fig. 2, Secs. 3.2–3.4.

One :func:`run_prop` call executes the full algorithm:

1. start from a given (random or clustered) balanced bisection;
2. per pass: bootstrap node probabilities (``pinit`` or deterministic FM
   gains), refine gains ↔ probabilities for ``refinement_iterations``
   cycles, then move-and-lock best-gain nodes under the balance constraint,
   updating neighbors and the top-ranked nodes after every move
   (Sec. 3.4), journaling immediate gains;
3. keep the maximum-prefix-gain prefix of the pass, roll back the rest;
4. repeat until a pass yields ``Gmax <= 0``.
"""

from __future__ import annotations

import time
from itertools import accumulate
from typing import List, Optional, Sequence

from ..audit import AuditConfig
from ..hypergraph import Hypergraph
from ..kernels import make_gain_engine, resolve_kernel
from ..partition import BalanceConstraint, BipartitionResult, Partition
from ..passes import GainPolicy, run_passes
from ..telemetry import Recorder
from .config import PropConfig
from .probability import make_probability_fn


def run_prop(
    graph: Hypergraph,
    initial_sides: Sequence[int],
    balance: BalanceConstraint,
    config: Optional[PropConfig] = None,
    seed: Optional[int] = None,
    audit: Optional[AuditConfig] = None,
    recorder: Optional[Recorder] = None,
) -> BipartitionResult:
    """Run PROP from an explicit initial partition.

    ``seed`` is recorded in the result for bookkeeping only — PROP itself
    is deterministic given the initial partition.

    ``audit`` attaches a read-only :class:`~repro.audit.PassAuditor` that
    cross-checks cut/count/lock/gain/rollback bookkeeping against brute
    force after every (Nth) move; ``None`` defers to the ``REPRO_AUDIT``
    environment variable.  Audited runs make identical moves, and the
    time spent inside audit hooks is excluded from ``runtime_seconds``
    (reported separately as the ``audit_seconds`` stat).

    ``recorder`` attaches a :class:`repro.telemetry.Recorder` receiving
    spans, per-move events and counters; recording never changes moves
    or cuts.  Per-phase timings land in ``stats`` whether or not a
    recorder is attached.
    """
    if config is None:
        config = PropConfig()
    start = time.perf_counter()

    partition = Partition(graph, initial_sides)
    # Backend selection (repro.kernels): the sequential backends are
    # bit-identical, so that choice affects runtime only — never moves
    # or cuts.  The subround kernel replaces the whole pass and is only
    # ever selected explicitly.
    kernel = resolve_kernel(config.kernel, num_pins=graph.num_pins)
    if kernel == "subround":
        from ..kernels.subround import SubroundPropEngine

        engine = SubroundPropEngine(partition, config, seed)
    else:
        engine = PropGains(partition, config, kernel)
    return run_passes(
        engine, balance, algorithm="PROP", seed=seed,
        max_passes=config.max_passes, min_pass_gain=config.min_pass_gain,
        audit=audit, recorder=recorder, start=start,
    )


class PropGains(GainPolicy):
    """PROP's gain rule for the sequential move loop (Fig. 2 steps 3–8).

    Per pass: bootstrap the probabilities, refine gains ↔ probabilities,
    key the containers by the refined gains; after every move, refresh
    the gain and probability of each free neighbor and of the
    top-ranked nodes of each side (Sec. 3.4).  ``kernel`` names a
    resolved sequential backend (``"python"`` or ``"numpy"``).

    ``stale`` flags each node whose gain inputs — the side and
    probability of every other pin of its nets — may have changed since
    its gain was last computed.  A node with a clear flag holds exactly
    that gain as its key, so the top-k refresh skips it: recomputing
    would return the stored key bit for bit.  A move flags nothing by
    itself: every free pin whose gain reads the moved node is its
    neighbour, and the neighbour refresh recomputes each of them
    straight after.

    Both refreshes sum gains from a per-pass memo of per-net terms
    (:meth:`_memo_gain`).  Each net has an ``epoch`` that advances
    whenever one of its terms may change: at a move, on every net of the
    moved node (:meth:`_bump`); at a probability change, on every live
    net of the changed node (:meth:`_mark_stale`).  Slot ``k`` of node
    ``v`` (``slot_base[v]`` plus the net's position in
    ``node_nets(v)``) holds the term of that net and counts as current
    while its stamp equals the net's epoch.
    """

    phases = ("bootstrap", "refine", "gain_init", "move_loop")

    def __init__(
        self, partition: Partition, config: PropConfig, kernel: str
    ) -> None:
        engine = make_gain_engine(partition, kernel)
        super().__init__(partition, getattr(engine, "csr", None))
        self.engine = engine
        self.config = config
        self.prob_fn = make_probability_fn(config)
        self.gains: List[float] = []
        self.stale: List[bool] = []
        graph = partition.graph
        self.slot_base = [0, *accumulate(
            graph.node_degree(v) for v in range(graph.num_nodes)
        )]
        self.epoch: List[int] = []
        self.stamps: List[int] = []
        self.terms: List[float] = []
        self._memo = ()

    def run_pass(self, balance, pass_index, auditor, rec, counters):
        engine = self.engine
        writes_before = engine.probability_writes
        with self.clock("bootstrap"):
            self._bootstrap_probabilities()
        with self.clock("refine"):
            self.gains = self._refine()
        journal = super().run_pass(balance, pass_index, auditor, rec, counters)
        if counters is not None:
            counters.probability_refreshes = (
                engine.probability_writes - writes_before
            )
        return journal

    def _bootstrap_probabilities(self) -> None:
        """Fig. 2 step 3: the initial probability estimate.

        Either every node starts at ``pinit`` ("blind" method), or
        probabilities are derived from the deterministic FM gains
        (Eqn. 1).
        """
        if self.config.init_method == "pinit":
            self.engine.fill(self.config.pinit)
            return
        partition = self.partition
        for v in range(partition.graph.num_nodes):
            if not partition.is_locked(v):
                self.engine.set_probability(
                    v, self.prob_fn(partition.immediate_gain(v))
                )

    def _refine(self) -> List[float]:
        """Fig. 2 step 4: iterate gain ↔ probability refinement.

        Returns the final gains (after the last refinement cycle, gains
        are recomputed once more so they reflect the final
        probabilities).
        """
        partition = self.partition
        engine = self.engine
        gains = engine.all_gains()
        for _ in range(self.config.refinement_iterations):
            for v, g in enumerate(gains):
                if not partition.is_locked(v):
                    engine.set_probability(v, self.prob_fn(g))
            gains = engine.all_gains()
        return gains

    def initial_keys(self) -> List[float]:
        # all_gains() conditions by division (prod_mine / p(u)), which is
        # not bit-identical to node_gain's direct product: no pass-start
        # key counts as clean, and the memo starts empty.
        partition = self.partition
        graph = partition.graph
        self.stale = [True] * graph.num_nodes
        self.epoch = [0] * graph.num_nets
        self.stamps = [-1] * graph.num_pins
        self.terms = [0.0] * graph.num_pins
        # What the memo reads, bound once per pass (unlock_all replaces
        # the locked-count lists between passes).
        self._memo = (
            graph.node_nets, self.slot_base, graph.nets,
            graph.net_costs, partition.sides_view(), self.engine.p,
            partition.locked_counts_view(0),
            partition.locked_counts_view(1),
            self.epoch, self.stamps, self.terms,
        )
        return self.gains

    def apply_move(self, node, from_side, containers, counters) -> float:
        immediate = self.partition.move_and_lock(node)
        self.engine.on_lock(node)
        self._bump(node)
        self._update_neighbors(node, containers, counters)
        self._update_top_ranked(containers, counters)
        return immediate

    def audit(self, auditor, containers) -> None:
        auditor.check_containers(self.partition, containers)
        auditor.check_prop_gains(self.partition, self.engine)
        auditor.check_prop_term_memo(
            self.partition, self.engine, self.memo_terms
        )
        auditor.check_prop_clean_keys(
            self.partition, self.engine, containers, self.stale
        )

    def run_stats(self) -> dict:
        stats = super().run_stats()
        stats["underflow_recomputes"] = float(self.engine.underflow_recomputes)
        return stats

    def _update_neighbors(self, moved, containers, counters) -> None:
        """Sec. 3.4: refresh gain and probability of each free neighbor."""
        partition = self.partition
        graph = partition.graph
        stale = self.stale
        seen = {moved}
        for net_id in graph.node_nets(moved):
            for nbr in graph.net(net_id):
                if nbr in seen or partition.is_locked(nbr):
                    seen.add(nbr)
                    continue
                seen.add(nbr)
                gain = self._memo_gain(nbr)
                self._set_probability(nbr, self.prob_fn(gain))
                stale[nbr] = False
                if counters is not None:
                    counters.neighbor_updates += 1
                container = containers[partition.side(nbr)]
                if container.gain_of(nbr) != gain:
                    container.update(nbr, gain)
                    if counters is not None:
                        counters.container_updates += 1

    def _update_top_ranked(self, containers, counters) -> None:
        """Sec. 3.4: re-evaluate the top-ranked nodes of each side.

        Needed because a top node may be a neighbor-of-a-neighbor of the
        moved node, whose probability just changed; the paper argues
        refreshing the top few contenders is all that is necessary.  A
        node whose ``stale`` flag is clear is examined (and counted)
        without a recompute: its key already is its gain.
        """
        k = self.config.top_update_count
        if k <= 0:
            return
        stale = self.stale
        for side in (0, 1):
            for node, key in containers[side].top(k):
                if counters is not None:
                    counters.topk_updates += 1
                if not stale[node]:
                    continue
                gain = self._memo_gain(node)
                if gain != key:
                    self._set_probability(node, self.prob_fn(gain))
                    containers[side].update(node, gain)
                    if counters is not None:
                        counters.container_updates += 1
                stale[node] = False

    def _mark_stale(self, node) -> None:
        """``p(node)`` changed: flag every pin of ``node``'s live nets and
        advance those nets' epochs, since the pins' gains and terms read
        ``p(node)``.  A net locked on both sides adds exactly 0 to every
        free pin's gain for the rest of the pass
        (:meth:`~repro.core.gains.ProbabilisticGainEngine.node_gain`
        skips it), so nothing that changes on it can stale a gain.

        ``node``'s own slots on those nets are then stamped current
        again: its terms do not read its own probability, and this walk
        always follows ``node``'s own gain, which has just made each of
        its live slots current."""
        (node_nets, slot_base, nets, _, _, _, locked0, locked1,
         epoch, stamps, _) = self._memo
        stale = self.stale
        for k, net_id in enumerate(node_nets(node), slot_base[node]):
            if locked0[net_id] and locked1[net_id]:
                continue
            for v in nets[net_id]:
                stale[v] = True
            e = epoch[net_id] + 1
            epoch[net_id] = e
            stamps[k] = e

    def _set_probability(self, node, value) -> None:
        """Write ``p(node)``; a changed value flags the gains and advances
        the epochs of the terms that read it.  Called just after
        ``node``'s own gain was computed, so the caller clears ``node``'s
        flag again: a node's gain does not read its own probability."""
        if value != self.engine.p[node]:
            self._mark_stale(node)
        self.engine.set_probability(node, value)

    def _memo_gain(self, node) -> float:
        """``engine.node_gain(node)``, summed from the term memo.

        Walks ``node``'s nets in ``node_nets`` order.  A current slot
        holds the very term ``node_gain`` would compute.  A dead net,
        skipped as ``node_gain`` skips it, never has a current slot: the
        move that kills a net advances its epoch, and nothing stamps a
        dead net's slot.  Any other slot is recomputed (the same loop as
        ``node_gain``'s) and stamped.  So the sum adds the same terms in
        the same order as ``node_gain`` and is the same float, but it
        reads the pins only of nets whose epoch moved since ``node``'s
        last gain."""
        (node_nets, slot_base, nets, net_costs, sides, p, locked0, locked1,
         epoch, stamps, terms) = self._memo
        s = sides[node]
        total = 0.0
        for k, net_id in enumerate(node_nets(node), slot_base[node]):
            e = epoch[net_id]
            if stamps[k] == e:
                total += terms[k]
                continue
            if locked0[net_id] and locked1[net_id]:
                continue
            prod_a = 1.0
            prod_b = 1.0
            has_other = False
            for v in nets[net_id]:
                if v == node:
                    continue
                pv = p[v]
                if sides[v] == s:
                    prod_a *= pv
                else:
                    has_other = True
                    prod_b *= pv
            if has_other:
                term = net_costs[net_id] * (prod_a - prod_b)
            else:
                term = net_costs[net_id] * (prod_a - 1.0)
            terms[k] = term
            stamps[k] = e
            total += term
        return total

    def _bump(self, moved) -> None:
        """``moved`` changed side and probability: every term on each of
        its nets may have changed."""
        epoch = self.epoch
        for net_id in self.partition.graph.node_nets(moved):
            epoch[net_id] += 1

    def memo_terms(self, node) -> List[tuple]:
        """``(net_id, term)`` for each current memo slot of ``node``."""
        epoch = self.epoch
        stamps = self.stamps
        terms = self.terms
        nets = self.partition.graph.node_nets(node)
        return [
            (net_id, terms[k])
            for k, net_id in enumerate(nets, self.slot_base[node])
            if stamps[k] == epoch[net_id]
        ]
