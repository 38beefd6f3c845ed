"""The runtime pass auditor.

A :class:`PassAuditor` rides along inside an FM/LA/PROP pass loop.  The
engine tells it when a pass starts, after every tentative move, and after
the prefix rollback; the auditor cross-checks the engine's incremental
state against the brute-force oracles in :mod:`repro.audit.reference` and
raises :class:`~repro.audit.violations.InvariantViolation` on the first
disagreement.  All checks are read-only — an audited run makes exactly
the same moves as an unaudited one.

Invariant families (see :class:`~repro.audit.config.AuditConfig`):

* **structure** — per-net pin counts, locked-pin counts, side weights,
  the tracked cut cost, the dead cut (nets locked on both sides), and
  the running journal cut;
* **gains** — FM container gains vs Eqn. (1), LA vectors vs the
  Krishnamurthy rules, PROP incremental gains vs Eqns. (2)–(6), PROP's
  clean keys vs a fresh recompute, and container membership (exactly the
  free nodes, on the right side);
* **probabilities** — PROP lock discipline (locked ⇒ p = 0) and range;
* **balance** — a pass that starts inside the window stays inside it;
* **rollback** — journal gains, the maximum-prefix-sum decision, and the
  post-rollback state all match an independent replay, and a pass that
  ended while a move was still possible had its stop licensed by the
  dead-cut rule.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence

from ..hypergraph import Hypergraph
from ..telemetry.clock import PhaseClock
from . import reference
from .config import AuditConfig
from .violations import InvariantViolation


def _timed(hook):
    """Count ``hook``'s wall time into the auditor's ``audit`` phase,
    also when it raises a violation."""

    @functools.wraps(hook)
    def timed(self, *args, **kwargs):
        with self._clock("audit"):
            return hook(self, *args, **kwargs)

    return timed


class PassAuditor:
    """Cross-checks one run's incremental state against brute force.

    One auditor instance audits one run (it tracks pass/move indices and
    accumulates counters); create a fresh one per run.
    """

    def __init__(
        self,
        graph: Hypergraph,
        balance,
        config: Optional[AuditConfig] = None,
        *,
        algorithm: str = "",
        seed: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.balance = balance
        self.config = config or AuditConfig()
        self.algorithm = algorithm
        self.seed = seed
        self.passes_audited = 0
        self.moves_seen = 0
        self.moves_audited = 0
        self.checks_run = 0
        self._clock = PhaseClock(("audit",))
        self._pass_index = -1
        self._move_index = 0
        self._pre_pass_sides: List[int] = []
        self._running_cut = 0.0
        self._started_balanced = False

    @property
    def seconds(self) -> float:
        """Wall-clock seconds spent inside audit hooks.  The engines
        subtract this from their elapsed time so ``runtime_seconds``
        measures the algorithm, not the auditing riding along."""
        return self._clock.seconds["audit"]

    # ------------------------------------------------------------------
    # Pass lifecycle hooks (called by the engines)
    # ------------------------------------------------------------------
    @_timed
    def start_pass(self, partition) -> None:
        """Snapshot pre-pass state and verify the starting bookkeeping."""
        self._pass_index += 1
        self._move_index = 0
        self.passes_audited += 1
        self._pre_pass_sides = partition.sides
        self._running_cut = partition.cut_cost
        weights = reference.side_weights(self.graph, self._pre_pass_sides)
        self._started_balanced = self.balance is not None and bool(
            self.balance.is_satisfied(weights)
        )
        if self.config.check_structure:
            self._check_structure(partition, node=None)

    @_timed
    def after_move(self, partition, node: int, reported_gain: float) -> bool:
        """Account for one tentative move; deep-check every Nth.

        Returns True when this move was audited — the engine then calls
        the relevant gain/probability checks with its own containers.
        """
        self.moves_seen += 1
        self._move_index += 1
        self._running_cut -= reported_gain
        if self._move_index % self.config.every != 0:
            return False
        self.moves_audited += 1
        if self.config.check_structure:
            self._check_structure(partition, node=node)
        if self.config.check_balance and self._started_balanced:
            self._check_balance(partition, node)
        return True

    @_timed
    def after_rollback(self, partition, journal) -> None:
        """Verify journal gains, the prefix decision, and the rollback."""
        if not self.config.check_rollback:
            return
        tol = self.config.tolerance
        moves = list(journal.moves)
        nodes = [record.node for record in moves]
        final_sides, _, ref_gains = reference.replay_moves(
            self.graph, self._pre_pass_sides, nodes
        )
        del final_sides  # full-sequence replay; only the gains matter here
        sides = list(self._pre_pass_sides)
        for i, record in enumerate(moves):
            self.checks_run += 1
            if record.from_side != sides[record.node]:
                raise self._violation(
                    "journal-from-side",
                    sides[record.node],
                    record.from_side,
                    move_index=i,
                    node=record.node,
                )
            if abs(record.immediate_gain - ref_gains[i]) > tol:
                raise self._violation(
                    "journal-gain",
                    ref_gains[i],
                    record.immediate_gain,
                    move_index=i,
                    node=record.node,
                )
            sides[record.node] = 1 - sides[record.node]

        ref_p, ref_gmax = reference.best_prefix(ref_gains)
        p, gmax = journal.best_prefix()
        self.checks_run += 1
        if p != ref_p or abs(gmax - ref_gmax) > tol:
            raise self._violation(
                "rollback-prefix", (ref_p, ref_gmax), (p, gmax)
            )
        self._check_pass_stop(sides, nodes, ref_gmax)

        kept_sides, kept_cut, _ = reference.replay_moves(
            self.graph, self._pre_pass_sides, nodes[:ref_p]
        )
        actual_sides = partition.sides
        self.checks_run += 1
        if kept_sides != actual_sides:
            diff = [
                v
                for v in range(self.graph.num_nodes)
                if kept_sides[v] != actual_sides[v]
            ]
            raise self._violation(
                "rollback-state",
                f"{len(diff)} nodes match replay",
                f"nodes {diff[:10]} differ",
                detail=f"kept prefix {ref_p} of {len(nodes)} moves",
            )
        self.checks_run += 1
        if abs(kept_cut - partition.cut_cost) > tol:
            raise self._violation(
                "rollback-cut", kept_cut, partition.cut_cost
            )

    def _check_pass_stop(
        self, end_sides: List[int], nodes: Sequence[int], best_gain: float
    ) -> None:
        """A pass that ended while a move was still possible must have
        ended by the dead-cut stop rule.

        ``end_sides`` are the sides at pass end, before the rollback, and
        ``nodes`` the moved (so locked) nodes.  A move is still possible
        when some side has free nodes and balance lets every one of them
        move: then the sequential picker and the sub-round batch sweep
        would both have found one.  The license is recounted from
        scratch: the cut at pass start, the dead cut at pass end and the
        best prefix sum of the replayed gains."""
        graph = self.graph
        locked = [False] * graph.num_nodes
        for v in nodes:
            locked[v] = True
        weights = reference.side_weights(graph, end_sides)
        movable = False
        for side in (0, 1):
            free = [
                v for v in range(graph.num_nodes)
                if not locked[v] and end_sides[v] == side
            ]
            if free and (self.balance is None or all(
                self.balance.move_allowed(weights, side, graph.node_weight(v))
                for v in free
            )):
                movable = True
        self.checks_run += 1
        if not movable:
            return
        start_cut = reference.cut_cost(graph, self._pre_pass_sides)
        dead = reference.dead_cut(graph, end_sides, locked)
        best = best_gain if nodes else float("-inf")
        if not reference.stop_licensed(graph, start_cut, dead, best):
            raise self._violation(
                "pass-stop",
                f"a licensed stop: cut at start {start_cut} - dead cut "
                f"{dead} <= best prefix gain {best}",
                f"pass ended after {len(nodes)} moves",
                detail="a pass ended while a move was still possible",
            )

    @_timed
    def after_batch(
        self, partition, nodes: Sequence[int], gains: Sequence[float]
    ) -> bool:
        """Account for one applied sub-round batch; deep-check on the
        ``every`` cadence.

        The sub-round engines commit moves in batches, so the per-move
        :meth:`after_move` hook (whose structure check compares the
        running journal cut against the *current* partition) cannot run
        mid-batch — the partition is only consistent at batch
        boundaries.  This hook advances the same counters by the whole
        batch and deep-checks the post-batch state whenever the batch
        crossed an ``every`` boundary.  Returns True when it audited.
        """
        every = self.config.every
        self.moves_seen += len(nodes)
        before = self._move_index
        self._move_index += len(nodes)
        for g in gains:
            self._running_cut -= g
        if before // every == self._move_index // every:
            return False
        self.moves_audited += 1
        if self.config.check_structure:
            self._check_structure(partition, node=None)
        if self.config.check_balance and self._started_balanced:
            self._check_balance(partition, nodes[-1] if nodes else None)
        return True

    @_timed
    def check_subround_batch(
        self, partition, pre_sides: Sequence[int], batch: Sequence[int],
        gains: Sequence[float],
    ) -> None:
        """Independent scalar replay of one sub-round batch.

        The sub-round kernel commits a whole batch with precomputed
        gains (:meth:`repro.partition.Partition.apply_batch`), justified
        by net-disjointness.  This check re-derives everything the
        shortcut relies on: the batch shares no net between its nodes,
        and a one-move-at-a-time replay from the pre-batch sides
        (``reference.replay_moves``) realizes exactly the reported gains
        and lands exactly on the engine's post-batch state and cut.
        Called once per batch, after the engine's ``after_move`` calls.
        """
        if not self.config.check_gains:
            return
        tol = self.config.tolerance
        seen_nets = set()
        for v in batch:
            for net_id in self.graph.node_nets(v):
                self.checks_run += 1
                if net_id in seen_nets:
                    raise self._violation(
                        "subround-net-disjoint",
                        f"net {net_id} claimed by one batch move",
                        f"also touched by node {v}",
                        node=v,
                    )
                seen_nets.add(net_id)
        final_sides, final_cut, ref_gains = reference.replay_moves(
            self.graph, list(pre_sides), list(batch)
        )
        for i, v in enumerate(batch):
            self.checks_run += 1
            if abs(gains[i] - ref_gains[i]) > tol:
                raise self._violation(
                    "subround-batch-gain", ref_gains[i], gains[i], node=v
                )
        actual_sides = partition.sides
        self.checks_run += 1
        if final_sides != actual_sides:
            diff = [
                v
                for v in range(self.graph.num_nodes)
                if final_sides[v] != actual_sides[v]
            ]
            raise self._violation(
                "subround-batch-state",
                "batched state equals scalar replay",
                f"nodes {diff[:10]} differ",
                detail=f"batch of {len(batch)} moves",
            )
        self.checks_run += 1
        if abs(final_cut - partition.cut_cost) > tol:
            raise self._violation(
                "subround-batch-cut", final_cut, partition.cut_cost
            )

    # ------------------------------------------------------------------
    # Structure / balance
    # ------------------------------------------------------------------
    def _check_structure(self, partition, node: Optional[int]) -> None:
        graph = self.graph
        sides = partition.sides
        locked = [partition.is_locked(v) for v in range(graph.num_nodes)]
        tol = self.config.tolerance
        dead = 0.0
        for net_id in range(graph.num_nets):
            c0, c1 = reference.pin_counts(graph, sides, net_id)
            self.checks_run += 1
            if (partition.count(net_id, 0), partition.count(net_id, 1)) != (c0, c1):
                raise self._violation(
                    "pin-counts",
                    (c0, c1),
                    (partition.count(net_id, 0), partition.count(net_id, 1)),
                    node=node,
                    detail=f"net {net_id}",
                )
            l0, l1 = reference.locked_pin_counts(graph, sides, locked, net_id)
            if (
                partition.locked_count(net_id, 0),
                partition.locked_count(net_id, 1),
            ) != (l0, l1):
                raise self._violation(
                    "locked-pin-counts",
                    (l0, l1),
                    (
                        partition.locked_count(net_id, 0),
                        partition.locked_count(net_id, 1),
                    ),
                    node=node,
                    detail=f"net {net_id}",
                )
            if l0 and l1:
                dead += graph.net_cost(net_id)
        self.checks_run += 1
        if abs(dead - partition.dead_cut) > tol:
            raise self._violation(
                "dead-cut",
                dead,
                partition.dead_cut,
                node=node,
                detail="cost of the nets with a locked pin on each side",
            )
        ref_cut = reference.cut_cost(graph, sides)
        self.checks_run += 1
        if abs(ref_cut - partition.cut_cost) > tol:
            raise self._violation(
                "cut-cost", ref_cut, partition.cut_cost, node=node
            )
        self.checks_run += 1
        if abs(ref_cut - self._running_cut) > tol:
            raise self._violation(
                "journal-cut",
                ref_cut,
                self._running_cut,
                node=node,
                detail="initial cut minus journaled immediate gains",
            )
        ref_w = reference.side_weights(graph, sides)
        self.checks_run += 1
        if any(
            abs(a - b) > tol for a, b in zip(ref_w, partition.side_weights)
        ):
            raise self._violation(
                "side-weights", ref_w, partition.side_weights, node=node
            )

    def _check_balance(self, partition, node: int) -> None:
        weights = reference.side_weights(self.graph, partition.sides)
        self.checks_run += 1
        if not self.balance.is_satisfied(weights):
            raise self._violation(
                "balance",
                f"side weights within {self.balance.describe()}",
                weights,
                node=node,
                detail="pass started balanced but left the window",
            )

    # ------------------------------------------------------------------
    # Gain checks (engine-specific; called only on audited moves)
    # ------------------------------------------------------------------
    def _check_containers(self, partition, containers) -> None:
        """Containers hold exactly the free nodes, each on its side."""
        if not self.config.check_gains:
            return
        for v in range(self.graph.num_nodes):
            self.checks_run += 1
            if partition.is_locked(v):
                if v in containers[0] or v in containers[1]:
                    raise self._violation(
                        "container-membership",
                        "locked node absent from containers",
                        "present",
                        node=v,
                        move_index=self._move_index,
                    )
            else:
                s = partition.side(v)
                if v not in containers[s] or v in containers[1 - s]:
                    raise self._violation(
                        "container-membership",
                        f"free node in side-{s} container only",
                        (v in containers[0], v in containers[1]),
                        node=v,
                        move_index=self._move_index,
                    )

    #: The timed hook over :meth:`_check_containers`, which the gain
    #: checks below also run, untimed, inside their own timing.
    check_containers = _timed(_check_containers)

    @_timed
    def check_fm_gains(self, partition, containers) -> None:
        """Every free node's container gain equals Eqn. (1) from scratch."""
        if not self.config.check_gains:
            return
        self._check_containers(partition, containers)
        sides = partition.sides
        tol = self.config.tolerance
        for v in self._gain_sweep_nodes(partition):
            ref = reference.immediate_gain(self.graph, sides, v)
            got = containers[partition.side(v)].gain_of(v)
            self.checks_run += 1
            if abs(float(got) - ref) > tol:
                raise self._violation(
                    "fm-gain",
                    ref,
                    got,
                    node=v,
                    move_index=self._move_index,
                )

    @_timed
    def check_la_vectors(self, partition, containers, k: int) -> None:
        """Every free node's stored LA vector matches the definition."""
        if not self.config.check_gains:
            return
        self._check_containers(partition, containers)
        sides = partition.sides
        locked = [partition.is_locked(v) for v in range(self.graph.num_nodes)]
        tol = self.config.tolerance
        for v in self._gain_sweep_nodes(partition):
            ref = reference.la_gain_vector(self.graph, sides, locked, v, k)
            got = tuple(containers[partition.side(v)].gain_of(v))
            self.checks_run += 1
            if len(got) != len(ref) or any(
                abs(a - b) > tol for a, b in zip(got, ref)
            ):
                raise self._violation(
                    "la-gain-vector",
                    ref,
                    got,
                    node=v,
                    move_index=self._move_index,
                )

    @_timed
    def check_prop_gains(self, partition, engine) -> None:
        """Incremental Eqn. 2–6 evaluation matches the direct transcription.

        PROP's containers intentionally hold *stale* gains (only neighbors
        and the top-k are refreshed — Sec. 3.4), so the exact invariant is
        the gain computation itself: for every free node, the incremental
        ``node_gain`` must equal the brute-force Eqns. (2)–(6) under the
        current probabilities.
        """
        if self.config.check_probabilities:
            self._check_probabilities(partition, engine)
        if not self.config.check_gains:
            return
        sides = partition.sides
        locked = [partition.is_locked(v) for v in range(self.graph.num_nodes)]
        tol = self.config.tolerance
        for v in self._gain_sweep_nodes(partition):
            ref = reference.prop_gain(self.graph, sides, locked, engine.p, v)
            got = engine.node_gain(v)
            self.checks_run += 1
            if abs(got - ref) > tol:
                raise self._violation(
                    "prop-gain",
                    ref,
                    got,
                    node=v,
                    move_index=self._move_index,
                )

    @_timed
    def check_prop_term_memo(self, partition, engine, memo_terms) -> None:
        """Every current slot of PROP's term memo holds its exact term.

        PROP's refreshes sum a node's gain from memoized per-net terms
        and recompute only the slots whose net epoch moved.  So each slot
        ``memo_terms(v)`` reports as current must equal the Eqn. 2–6 term
        of that net from scratch **exactly**: the memoized sum is only the
        same float as ``node_gain``'s if every term is.
        """
        if not self.config.check_gains:
            return
        graph = self.graph
        sides = partition.sides
        locked = [partition.is_locked(v) for v in range(graph.num_nodes)]
        for v in self._gain_sweep_nodes(partition):
            for net_id, term in memo_terms(v):
                ref = reference.prop_net_gain(
                    graph, sides, locked, engine.p, v, net_id
                )
                self.checks_run += 1
                if term != ref:
                    raise self._violation(
                        "prop-term-memo",
                        ref,
                        term,
                        node=v,
                        move_index=self._move_index,
                        detail=f"net {net_id} holds a stale memoized term",
                    )

    @_timed
    def check_prop_clean_keys(
        self, partition, engine, containers, stale
    ) -> None:
        """Every free node with a clear stale flag holds its exact gain.

        PROP's top-k refresh skips a node whose flag is clear, on the
        grounds that recomputing it would return its stored key.  So that
        key must equal ``node_gain`` **exactly**, as a recompute would
        compare it.
        """
        if not self.config.check_gains:
            return
        for v in self._gain_sweep_nodes(partition):
            if stale[v]:
                continue
            key = containers[partition.side(v)].gain_of(v)
            gain = engine.node_gain(v)
            self.checks_run += 1
            if key != gain:
                raise self._violation(
                    "prop-clean-key",
                    gain,
                    key,
                    node=v,
                    move_index=self._move_index,
                    detail="a node flagged clean holds a stale key",
                )

    def _check_probabilities(self, partition, engine) -> None:
        for v in range(self.graph.num_nodes):
            p = engine.p[v]
            self.checks_run += 1
            if partition.is_locked(v):
                if p != 0.0:
                    raise self._violation(
                        "lock-probability",
                        0.0,
                        p,
                        node=v,
                        move_index=self._move_index,
                        detail="locked nodes must have p = 0",
                    )
            elif not 0.0 <= p <= 1.0:
                raise self._violation(
                    "probability-range",
                    "[0, 1]",
                    p,
                    node=v,
                    move_index=self._move_index,
                )

    def _gain_sweep_nodes(self, partition) -> List[int]:
        """Free nodes to sweep this move (all, or a rotating sample)."""
        free = [
            v
            for v in range(self.graph.num_nodes)
            if not partition.is_locked(v)
        ]
        cap = self.config.max_gain_nodes
        if not cap or len(free) <= cap:
            return free
        offset = self._move_index % len(free)
        rotated = free[offset:] + free[:offset]
        return rotated[:cap]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Counter snapshot, merged into ``BipartitionResult.stats``."""
        return {
            "audited": 1.0,
            "audit_passes": float(self.passes_audited),
            "audit_moves": float(self.moves_audited),
            "audit_checks": float(self.checks_run),
            **self._clock.stats(),
        }

    def _violation(
        self,
        invariant: str,
        expected,
        actual,
        *,
        move_index: Optional[int] = None,
        node: Optional[int] = None,
        detail: str = "",
    ) -> InvariantViolation:
        return InvariantViolation(
            invariant,
            expected,
            actual,
            algorithm=self.algorithm,
            seed=self.seed,
            pass_index=self._pass_index,
            move_index=self._move_index if move_index is None else move_index,
            node=node,
            detail=detail,
        )
