"""One pass skeleton for PROP, FM and LA (paper Fig. 2, Sec. 2).

Every iterative-improvement engine in this package runs the same pass:
take the best-gain free node whose move keeps balance, move and lock
it, update gains, journal the realized cut gain; then keep the
maximum-prefix-gain prefix, roll back the rest, and repeat until a pass
yields ``Gmax <= min_pass_gain``.  A pass ends early, right after the
first move at which the nets locked on both sides rule out a better
prefix (:func:`repro.datastructures.pass_can_stop`); the moves it skips
would all have been rolled back.  The engines differ only in how they
compute and update gains, so this module holds everything else:

* :func:`run_passes` — the run driver: auditor and recorder set-up, the
  pass loop, best-prefix rollback, the stop test, ``pass_cuts``, stats
  and the :class:`~repro.partition.BipartitionResult`;
* :class:`GainPolicy` — the one sequential move loop (with
  :func:`pick_move`, the one move picker).  A policy builds the two
  per-side gain containers at pass start and applies a move with its
  gain updates: FM's Eqn. (1) delta rules
  (:class:`repro.baselines.fm.FMGains`), Krishnamurthy's LA-k vectors
  (:class:`repro.baselines.la.LAGains`) and PROP's Eqns. (2)–(6)
  (:class:`repro.core.engine.PropGains`).

The sub-round engines (:mod:`repro.kernels.subround`) move whole batches
inside a pass and bring their own ``run_pass``; they run under the same
driver.  Anything with ``partition``, ``phases``, ``run_pass``,
``run_stats`` and ``close`` as below is a pass engine.  The driver hands
each engine the run's :class:`~repro.telemetry.PhaseClock` as
``engine.clock``; the engine times its phases on it, and the driver
emits them as the pass's spans once ``run_pass`` returns.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Tuple

from .audit import AuditConfig, PassAuditor, resolve_audit
from .datastructures import HeapGainContainer, PassJournal, pass_can_stop
from .partition import BalanceConstraint, BipartitionResult, Partition
from .telemetry import PassCounters, PhaseClock, Recorder, resolve_recorder


def pick_move(
    containers: Tuple, partition: Partition, balance: BalanceConstraint
) -> Optional[int]:
    """Fig. 2 step 6: the best-key node whose move keeps balance.

    The overall best node is preferred; if moving it would violate
    balance, the best node of the *other* side is tried instead (the FM
    rule the paper inherits).  Returns None when no move is possible.
    """
    candidates = []
    for side in (0, 1):
        if containers[side]:
            node, key = containers[side].peek_best()
            candidates.append((key, side, node))
    candidates.sort(reverse=True)
    weights = partition.side_weights
    for _, side, node in candidates:
        if balance.move_allowed(weights, side, partition.graph.node_weight(node)):
            return node
    return None


class GainPolicy:
    """A sequential pass engine: how one algorithm keys and updates gains.

    Subclasses supply the gain rule — :meth:`initial_keys`,
    :meth:`apply_move` and :meth:`audit` — and inherit the one move loop
    (:meth:`run_pass`): pick, remove, apply the policy's move, record,
    audit.  ``csr`` is the :class:`repro.kernels.CsrView` of the numpy
    backend, or ``None`` on the scalar path.
    """

    #: Phases one pass reports, in span order (the driver adds rollback).
    phases: Tuple[str, ...] = ("gain_init", "move_loop")
    #: The run's phase clock, set by :func:`run_passes`.
    clock: PhaseClock

    def __init__(self, partition: Partition, csr=None) -> None:
        self.partition = partition
        self.csr = csr

    def new_containers(self) -> Tuple:
        """Empty side-0/side-1 gain containers for one pass: heaps in
        ``(key, node)`` max order (PROP and LA; FM overrides this)."""
        return HeapGainContainer(), HeapGainContainer()

    def initial_keys(self) -> Iterable:
        """Selection key of every node at pass start (all nodes are free)."""
        raise NotImplementedError

    def apply_move(
        self,
        node: int,
        from_side: int,
        containers: Tuple,
        counters: Optional[PassCounters],
    ) -> float:
        """Move and lock ``node`` (already out of its container), update
        the free nodes' keys, and return the realized cut gain."""
        raise NotImplementedError

    def audit(self, auditor: PassAuditor, containers: Tuple) -> None:
        """Deep-check the policy's gain state after an audited move."""

    def run_stats(self) -> dict:
        """Run-level stats after the phase timings: the backend used."""
        stats = {"kernel_numpy": 1.0 if self.csr is not None else 0.0}
        if self.csr is not None:
            stats["csr_build_seconds"] = self.csr.build_seconds
        return stats

    def close(self) -> None:
        """Release run resources (nothing to release by default)."""

    def run_pass(
        self,
        balance: BalanceConstraint,
        pass_index: int,
        auditor: Optional[PassAuditor],
        rec: Optional[Recorder],
        counters: Optional[PassCounters],
    ) -> PassJournal:
        """One tentative-move pass; locks are left set.

        The pass ends when no node can move, or right after the first
        move at which :func:`~repro.datastructures.pass_can_stop` holds.
        ``rec`` is already resolved (enabled or ``None``).
        """
        partition = self.partition
        clock = self.clock
        with clock("gain_init"):
            containers = self.new_containers()
            for v, key in enumerate(self.initial_keys()):
                containers[partition.side(v)].insert(v, key)

        exact = partition.graph.exact_cut_sums
        start_cut = partition.cut_cost
        journal = PassJournal()
        with clock("move_loop"):
            while True:
                node = pick_move(containers, partition, balance)
                if node is None:
                    break
                from_side = partition.side(node)
                key = containers[from_side].remove(node)
                immediate = self.apply_move(
                    node, from_side, containers, counters
                )
                if rec is not None:
                    rec.move(
                        pass_index, len(journal), node, from_side, key,
                        immediate,
                    )
                    counters.moves += 1
                journal.record(node, from_side, immediate)
                if auditor is not None and auditor.after_move(
                    partition, node, immediate
                ):
                    self.audit(auditor, containers)
                if pass_can_stop(
                    exact, start_cut, partition.dead_cut, journal.best_gain
                ):
                    break
        return journal


def run_passes(
    engine,
    balance: BalanceConstraint,
    *,
    algorithm: str,
    seed: Optional[int],
    max_passes: int,
    min_pass_gain: float,
    audit: Optional[AuditConfig],
    recorder: Optional[Recorder],
    start: float,
) -> BipartitionResult:
    """Run the pass engine ``engine`` (a :class:`GainPolicy` or a
    sub-round engine) pass by pass from its partition's current state.

    ``audit`` ``None`` defers to ``REPRO_AUDIT``; time spent in audit
    hooks is excluded from ``runtime_seconds`` and reported as the
    ``audit_seconds`` stat.  ``start`` is the run's ``perf_counter``
    origin.  Phase seconds come from one :class:`PhaseClock`, which
    feeds both the ``<phase>_seconds`` stats and the pass's spans.  The
    engine is closed however the run ends.
    """
    partition = engine.partition
    graph = partition.graph
    audit = resolve_audit(audit)
    auditor = (
        PassAuditor(graph, balance, audit, algorithm=algorithm, seed=seed)
        if audit is not None
        else None
    )
    rec = resolve_recorder(recorder)
    engine.clock = clock = PhaseClock(engine.phases + ("rollback",), rec)
    if rec is not None:
        rec.run_start(algorithm, seed, graph.num_nodes, graph.num_nets)

    passes = 0
    total_moves = 0
    pass_cuts = []
    try:
        while passes < max_passes:
            pass_start = time.perf_counter()
            if rec is not None:
                rec.pass_start(passes)
            if auditor is not None:
                auditor.start_pass(partition)
            counters = PassCounters() if rec is not None else None
            journal = engine.run_pass(balance, passes, auditor, rec, counters)
            clock.flush(passes)
            if rec is not None:
                rec.counters(passes, counters.as_dict())
            total_moves += len(journal)
            p, gmax = journal.best_prefix()
            # Undo the tentative moves beyond the best prefix (last first).
            with clock("rollback"):
                partition.unlock_all()
                for record in reversed(journal.rolled_back_moves()):
                    partition.move(record.node)
            pass_cuts.append(partition.cut_cost)
            if auditor is not None:
                auditor.after_rollback(partition, journal)
            clock.flush(passes)
            if rec is not None:
                rec.pass_end(
                    passes, partition.cut_cost, len(journal), p, gmax,
                    time.perf_counter() - pass_start,
                )
            passes += 1
            if gmax <= min_pass_gain or p == 0:
                break
    finally:
        engine.close()

    elapsed = time.perf_counter() - start
    stats = {"tentative_moves": float(total_moves)}
    stats.update(clock.stats())
    stats.update(engine.run_stats())
    if auditor is not None:
        stats.update(auditor.summary())
        elapsed -= auditor.seconds
    result = BipartitionResult(
        sides=partition.sides,
        cut=partition.cut_cost,
        algorithm=algorithm,
        seed=seed,
        passes=passes,
        runtime_seconds=elapsed,
        stats=stats,
        pass_cuts=pass_cuts,
    )
    if rec is not None:
        rec.run_end(algorithm, result.cut, passes, elapsed, stats)
    return result


__all__ = ["GainPolicy", "pick_move", "run_passes"]
