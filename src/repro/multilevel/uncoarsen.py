"""Localized uncoarsening and the n-level partitioner.

The V-cycle projects the partition one whole level up and re-runs the
refiner over the *entire* level graph — at a million nodes that is
twenty full-graph refinement passes.  The n-level engine instead
uncontracts the memento stack in exponentially growing batches and
refines only the *region* around each batch: the uncontracted pairs plus
the pins of their small nets.  One full-graph refinement (the configured
PROP/FM engine, with its CSR + numpy gain machinery built exactly once)
finishes the job at the finest level.

Cut and balance bookkeeping stay exact throughout: uncontracting a pair
``(u, v)`` gives ``v`` the side of ``u``, which changes neither any
net's cut state nor either side's weight (proof in docs/multilevel.md),
so the incremental per-net side counts carried across batches never
drift from the true partition state.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core import PropPartitioner
from ..datastructures import (
    AddressablePriorityQueue,
    exact_cost_sums,
    pass_can_stop,
)
from ..hypergraph import Hypergraph
from ..partition import (
    BalanceConstraint,
    BipartitionResult,
    cut_cost,
    random_balanced_sides,
)
from ..telemetry import PhaseClock, Recorder, resolve_recorder
from .coarsen import DEFAULT_MAX_NET_SIZE
from .nlevel import (
    DEFAULT_SAMPLE_PINS,
    HIERARCHIES,
    DynamicHypergraph,
    Memento,
    nlevel_coarsen,
)

#: Interleaved full refinement: every time the alive node count grows
#: past this many times its size at the previous full refinement,
#: uncoarsening pauses and the refiner runs on a snapshot of the whole
#: intermediate graph.  This recovers the V-cycle's
#: refine-at-every-level quality at a geometric (not per-level) cost.
REFINE_GROWTH = 8.0


class UncoarsenState:
    """Exact incremental partition state over a :class:`DynamicHypergraph`.

    Tracks sides (in original node ids), per-net side counts, side
    weights and the cut while mementos are undone and region-local FM
    moves are applied.  Per-net counts are maintained for every
    *attached* net; pruned (detached single-pin) nets go stale while
    detached and have their counts rebuilt directly at uncontraction,
    when their full pin set — two nodes on one side — is known exactly.

    Each batch's region refinement is timed as the ``local_refine`` phase
    of ``clock`` (the n-level run's :class:`~repro.telemetry.PhaseClock`,
    or a private one) and flushed under the batch ordinal.
    """

    def __init__(
        self,
        dyn: DynamicHypergraph,
        sides: List[int],
        balance: BalanceConstraint,
        max_net_size: int = DEFAULT_MAX_NET_SIZE,
        clock: Optional[PhaseClock] = None,
    ) -> None:
        self.dyn = dyn
        self.sides = sides
        self.balance = balance
        self.max_net_size = max_net_size
        self.clock = PhaseClock(("local_refine",)) if clock is None else clock
        self.c0: List[int] = [0] * dyn.num_nets
        self.c1: List[int] = [0] * dyn.num_nets
        self.cut = 0.0
        self.side_weights: List[float] = [0.0, 0.0]
        for net in range(dyn.num_nets):
            for x in dyn.pins[net]:
                if sides[x] == 0:
                    self.c0[net] += 1
                else:
                    self.c1[net] += 1
            if (
                len(dyn.pins[net]) >= 2
                and self.c0[net] > 0
                and self.c1[net] > 0
            ):
                self.cut += dyn.net_cost[net]
        for u in range(dyn.num_nodes):
            if dyn.alive[u]:
                self.side_weights[sides[u]] += dyn.node_weight[u]
        #: Pins whose queued key may differ from their gain: every pin
        #: of each net a region or rebalance move made critical since
        #: the pin's key was last set (see :meth:`_rerate_neighbors`).
        self.marked: Set[int] = set()
        #: Whether region passes may end early (:func:`pass_can_stop`),
        #: and per net, the region pins on each side that a region pass
        #: has not popped yet (all 0 between passes).
        self.exact = exact_cost_sums(dyn.net_cost)
        self.free0: List[int] = [0] * dyn.num_nets
        self.free1: List[int] = [0] * dyn.num_nets
        self.uncontract_batches = 0
        self.region_moves = 0
        self.rebalance_moves = 0

    # ------------------------------------------------------------------
    # Exact incremental moves (Eqn. 1 gains from the side counts)
    # ------------------------------------------------------------------
    def _gain(self, x: int) -> float:
        dyn = self.dyn
        pins = dyn.pins
        net_cost = dyn.net_cost
        if self.sides[x] == 0:
            same, other = self.c0, self.c1
        else:
            same, other = self.c1, self.c0
        g = 0.0
        for net in dyn.nets_of[x]:
            if len(pins[net]) < 2:
                continue
            cost = net_cost[net]
            if same[net] == 1:
                g += cost
            if other[net] == 0:
                g -= cost
        return g

    def _apply_move(self, x: int) -> float:
        """Flip ``x`` to the other side; returns the exact cut gain."""
        delta = self._gain(x)
        s = self.sides[x]
        if s == 0:
            for net in self.dyn.nets_of[x]:
                self.c0[net] -= 1
                self.c1[net] += 1
        else:
            for net in self.dyn.nets_of[x]:
                self.c1[net] -= 1
                self.c0[net] += 1
        w = self.dyn.node_weight[x]
        self.side_weights[s] -= w
        self.side_weights[1 - s] += w
        self.sides[x] = 1 - s
        self.cut -= delta
        return delta

    def _rerate_neighbors(self, pq: AddressablePriorityQueue, x: int) -> None:
        """Re-key the still-queued pins of ``x``'s small nets whose gain
        ``x``'s move may have changed.

        Moving ``x`` from side A to side B, with ``a`` and ``b`` pins
        there before the move, changes another pin's Eqn.-1 term on a
        net only if ``a <= 2`` or ``b <= 1`` (the net becomes or stops
        being critical).  The pins of every such net of ``x``, large
        nets included, are marked; a queued pin of a small net is
        rerated, once, only while marked, and its mark then cleared.
        An unmarked pin's gain is the key it holds, and re-pushing an
        identical entry would leave the queue as it is."""
        dyn = self.dyn
        pins = dyn.pins
        nets = dyn.nets_of[x]
        max_net_size = self.max_net_size
        marked = self.marked
        if self.sides[x] == 0:
            was, now = self.c1, self.c0
        else:
            was, now = self.c0, self.c1
        for net in nets:
            if was[net] <= 1 or now[net] <= 2:
                marked.update(pins[net])
        rerate: Dict[int, None] = {}
        for net in nets:
            net_pins = pins[net]
            if 2 <= len(net_pins) <= max_net_size:
                for y in net_pins:
                    if y in marked and y in pq:
                        rerate[y] = None
        for y in rerate:
            pq.push(y, self._gain(y))
        marked.difference_update(rerate)

    # ------------------------------------------------------------------
    # Uncontraction
    # ------------------------------------------------------------------
    def _undo(self, m: Memento) -> None:
        """Undo one contraction and fold ``v`` into the partition state.

        ``v`` takes the side of ``u``: shrunk nets gain one pin on an
        already-populated side, replaced nets swap ``u`` for the
        same-side ``v``, and revived pruned nets hold exactly
        ``{u, v}`` on one side — none of which changes the cut or the
        side weights.
        """
        self.dyn.uncontract(m)
        s = self.sides[m.u]
        self.sides[m.v] = s
        if s == 0:
            for net in m.shrunk:
                self.c0[net] += 1
            for net, _last in m.pruned:
                self.c0[net], self.c1[net] = 2, 0
        else:
            for net in m.shrunk:
                self.c1[net] += 1
            for net, _last in m.pruned:
                self.c0[net], self.c1[net] = 0, 2
        # replaced nets: v inherits u's side, so their counts are already
        # correct; pin identity is all that changed.

    def _region(self, batch: Sequence[Memento]) -> Dict[int, None]:
        """Refinement region: the batch's endpoints plus all pins of
        their small nets (insertion-ordered, hence deterministic)."""
        dyn = self.dyn
        region: Dict[int, None] = {}
        for m in batch:
            region[m.u] = None
            region[m.v] = None
        for x in list(region):
            for net in dyn.nets_of[x]:
                net_pins = dyn.pins[net]
                if 2 <= len(net_pins) <= self.max_net_size:
                    region.update(dict.fromkeys(net_pins))
        return region

    def _region_cuts(self, region: Dict[int, None]) -> Tuple[
        List[int], float, float
    ]:
        """Set up the dead-cut stop rule for a region pass.

        A region pass moves only region pins, each at most once, so a
        pin outside the region and a pin the pass has popped count as
        locked.  Counts each region net's region pins per side into
        ``free0``/``free1`` and returns ``(region nets, cut of the
        region nets, dead cut of the region nets)``: a net is dead when
        it has a pin outside the region on each side.  Nets without a
        region pin cannot change, so they add the same to both cuts and
        are left out of both."""
        sides = self.sides
        nets_of = self.dyn.nets_of
        free0, free1 = self.free0, self.free1
        region_nets: List[int] = []
        for x in region:
            free = free0 if sides[x] == 0 else free1
            for net in nets_of[x]:
                if not (free0[net] or free1[net]):
                    region_nets.append(net)
                free[net] += 1
        c0, c1 = self.c0, self.c1
        net_cost = self.dyn.net_cost
        cut = dead = 0.0
        for net in region_nets:
            if c0[net] and c1[net]:
                cut += net_cost[net]
                if c0[net] > free0[net] and c1[net] > free1[net]:
                    dead += net_cost[net]
        return region_nets, cut, dead

    def _lock_popped(self, x: int, moved: bool, dead: float) -> float:
        """Count the popped pin ``x`` as locked on its side now; returns
        ``dead`` plus the cost of every net this makes dead."""
        free0, free1 = self.free0, self.free1
        if self.sides[x] == 0:
            mine, other, fmine, fother = self.c0, self.c1, free0, free1
        else:
            mine, other, fmine, fother = self.c1, self.c0, free1, free0
        was = fother if moved else fmine
        net_cost = self.dyn.net_cost
        for net in self.dyn.nets_of[x]:
            was[net] -= 1
            if mine[net] - fmine[net] == 1 and other[net] > fother[net]:
                dead += net_cost[net]
        return dead

    def _refine_region(self, region: Dict[int, None]) -> int:
        """One best-gain FM pass restricted to ``region``, with
        best-prefix rollback.  Balance bounds are slackened by the
        heaviest region node so coarse super-nodes stay movable.

        With exact cost sums the dead-cut stop rule (:func:`pass_can_stop`,
        with :meth:`_region_cuts`' locks) ends the pass right after the
        first move at which it holds.  The region's incumbent is the empty
        prefix's 0 before any move, so a region whose nets leave no cut to
        remove is not searched at all."""
        if len(region) < 2:
            return 0
        if not self.exact:
            return self._region_pass(region, False, 0.0, 0.0)
        region_nets, start_cut, dead = self._region_cuts(region)
        kept = 0
        if not pass_can_stop(True, start_cut, dead, 0.0):
            kept = self._region_pass(region, True, start_cut, dead)
        free0, free1 = self.free0, self.free1
        for net in region_nets:
            free0[net] = free1[net] = 0
        return kept

    def _region_pass(
        self, region: Dict[int, None], exact: bool, start_cut: float,
        dead: float,
    ) -> int:
        """The pass of :meth:`_refine_region`; returns the kept moves."""
        dyn = self.dyn
        max_w = max(dyn.node_weight[x] for x in region)
        bounds = self.balance.slackened(max_w)
        pq = AddressablePriorityQueue()
        self.marked.clear()
        for x in region:
            pq.push(x, self._gain(x))
        moves: List[int] = []
        cum = 0.0
        best = 0.0
        best_k = 0
        while True:
            entry = pq.pop()
            if entry is None:
                break
            x, _gain, _ = entry
            if not bounds.move_allowed(
                self.side_weights, self.sides[x], dyn.node_weight[x]
            ):
                # Locked out this pass (balance reject).
                if exact:
                    dead = self._lock_popped(x, False, dead)
                continue
            cum += self._apply_move(x)
            moves.append(x)
            if cum > best + 1e-12:
                best = cum
                best_k = len(moves)
            self._rerate_neighbors(pq, x)
            if exact:
                dead = self._lock_popped(x, True, dead)
                if pass_can_stop(exact, start_cut, dead, best):
                    break
        for x in reversed(moves[best_k:]):
            self._apply_move(x)
        self.region_moves += best_k
        return best_k

    def rebalance(self, bounds: Optional[BalanceConstraint] = None) -> int:
        """Greedy repair when the partition violates ``bounds`` (the true
        balance bounds by default) — possible because the coarsest
        partition is only feasible under bounds slackened by the heaviest
        super-node, and no refiner recovers from an infeasible start.
        Flips best-gain nodes off the overweight side until both sides
        are inside the bounds; each node flips at most once, so
        termination is guaranteed.  :class:`NLevelPartitioner` calls it
        once, at the finest level, before the final refine, so the
        repair happens at single-node granularity (forcing it earlier,
        at super-node granularity, measurably hurts the final cut) and
        the final refiner starts from a feasible partition.  Returns the
        number of moves made."""
        bal = self.balance if bounds is None else bounds
        if bal.is_satisfied(self.side_weights):
            return 0
        dyn = self.dyn
        heavy = 0 if self.side_weights[0] > bal.hi else 1
        pq = AddressablePriorityQueue()
        self.marked.clear()
        for u in range(dyn.num_nodes):
            if dyn.alive[u] and self.sides[u] == heavy:
                pq.push(u, self._gain(u))
        moved = 0
        while self.side_weights[heavy] > bal.hi + 1e-9:
            entry = pq.pop()
            if entry is None:
                break  # degenerate weights: no repairing move exists
            x, _gain, _ = entry
            if self.side_weights[heavy] - dyn.node_weight[x] < bal.lo - 1e-9:
                continue  # would overshoot the heavy side below lo
            self._apply_move(x)
            moved += 1
            self._rerate_neighbors(pq, x)
        self.rebalance_moves += moved
        return moved

    def uncoarsen(self, mementos: List[Memento], refine: bool = True) -> None:
        """Undo the whole memento stack in exponentially growing batches
        (1, 2, 4, ...), locally refining around each batch."""
        i = len(mementos)
        size = 1
        while i > 0:
            b = min(size, i)
            batch = mementos[i - b:i]
            i -= b
            for m in reversed(batch):
                self._undo(m)
            if refine:
                with self.clock("local_refine"):
                    self._refine_region(self._region(batch))
                self.clock.flush(self.uncontract_batches)
            self.uncontract_batches += 1
            size *= 2


class NLevelPartitioner:
    """n-level bisection: PQ coarsening + localized uncoarsening.

    Drop-in peer of :class:`~repro.multilevel.vcycle.MultilevelPartitioner`
    (same constructor shape, same harness protocol) built on
    :func:`~repro.multilevel.nlevel.nlevel_coarsen`.  ``coarsen_journal``
    (a path) enables resumable coarsening through a sealed JSONL journal.

    The hierarchy depends on the netlist and the coarsening knobs, never
    on the seed, so only a netlist object's first bisection coarsens:
    every later one in the same process, from this partitioner or
    another with the same knobs, replays the contraction sequence kept
    in :data:`~repro.multilevel.nlevel.HIERARCHIES`, with identical
    results and stats that read like a complete journal replay.  With
    ``coarsen_journal`` set the journal governs instead.
    """

    name = "NLEVEL"
    supports_telemetry = True

    def __init__(
        self,
        refiner=None,
        coarsest_nodes: int = 80,
        coarsest_runs: int = 8,
        rating: str = "heavy-edge",
        max_net_size: int = DEFAULT_MAX_NET_SIZE,
        sample_pins: int = DEFAULT_SAMPLE_PINS,
        coarsen_journal=None,
        journal_batch: Optional[int] = None,
    ) -> None:
        if coarsest_nodes < 2:
            raise ValueError("coarsest_nodes must be >= 2")
        if coarsest_runs < 1:
            raise ValueError("coarsest_runs must be >= 1")
        if rating not in ("heavy-edge", "uniform"):
            raise ValueError(f"unknown rating {rating!r}")
        self.refiner = refiner if refiner is not None else PropPartitioner()
        self.coarsest_nodes = coarsest_nodes
        self.coarsest_runs = coarsest_runs
        self.rating = rating
        self.max_net_size = max_net_size
        self.sample_pins = sample_pins
        self.coarsen_journal = (
            None if coarsen_journal is None else str(coarsen_journal)
        )
        self.journal_batch = journal_batch

    @staticmethod
    def _stage_boundaries(total: int, coarse_nodes: int) -> List[int]:
        """Memento indices at which to pause for a full stage refine.

        Walking the stack from the coarsest end, a boundary is placed
        whenever the alive count reaches :data:`REFINE_GROWTH` times its
        value at the previous boundary.  Index 0 (the fully uncontracted
        graph) is excluded — the final full refinement covers it.
        """
        bounds: List[int] = []
        alive = max(coarse_nodes, 1)
        nxt = alive * REFINE_GROWTH
        for i in range(total - 1, -1, -1):
            alive += 1
            if alive >= nxt and i > 0:
                bounds.append(i)
                nxt = alive * REFINE_GROWTH
        return bounds

    def _stage_refine(
        self,
        state: UncoarsenState,
        balance: BalanceConstraint,
        seed: int,
    ) -> None:
        """Refine the whole intermediate graph and fold the improved
        sides back into the exact incremental partition state."""
        coarse, reps = state.dyn.snapshot()
        if coarse.num_nodes < 2:
            return
        init = [state.sides[u] for u in reps]
        res = self.refiner.partition(
            coarse,
            balance=balance.slackened(max(coarse.node_weights)),
            initial_sides=init,
            seed=seed,
        )
        if res.cut > state.cut + 1e-9:
            return  # refiner never worsens; guard stays for safety
        for i, u in enumerate(reps):
            if res.sides[i] != state.sides[u]:
                state._apply_move(u)

    def partition(
        self,
        graph: Hypergraph,
        balance: Optional[BalanceConstraint] = None,
        initial_sides: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
        recorder: Optional[Recorder] = None,
    ) -> BipartitionResult:
        """n-level bisection of ``graph``.

        ``initial_sides`` (when given) skips the hierarchy and runs the
        refiner directly — interface compatibility with the harness.
        """
        if balance is None:
            balance = BalanceConstraint.fifty_fifty(graph)
        base_seed = 0 if seed is None else seed
        start = time.perf_counter()

        if initial_sides is not None:
            result = self.refiner.partition(
                graph, balance=balance, initial_sides=initial_sides, seed=seed
            )
            result.algorithm = self.name
            return result
        if graph.num_nodes == 0:
            return BipartitionResult(sides=[], cut=0.0, algorithm=self.name,
                                     seed=seed)

        rec = resolve_recorder(recorder)
        if rec is not None:
            rec.run_start(self.name, seed, graph.num_nodes, graph.num_nets)
        # Run-scope phases are flushed as they end, under span index -1;
        # uncoarsen contains every local_refine and stage_refine.
        clock = PhaseClock(
            ("coarsen", "uncoarsen", "local_refine", "stage_refine"), rec
        )

        journal_kwargs = {}
        if self.journal_batch is not None:
            journal_kwargs["journal_batch"] = self.journal_batch
        with clock("coarsen"):
            dyn, mementos, cstats = nlevel_coarsen(
                graph,
                target_nodes=self.coarsest_nodes,
                rating=self.rating,
                max_net_size=self.max_net_size,
                sample_pins=self.sample_pins,
                journal_path=self.coarsen_journal,
                memo=HIERARCHIES,
                **journal_kwargs,
            )
        clock.flush(-1)

        # Partition the coarsest graph from several random starts.
        coarse, reps = dyn.snapshot()
        coarse_balance = balance.slackened(
            max(coarse.node_weights, default=1.0)
        )
        best_sides = None
        best_cut = float("inf")
        for i in range(self.coarsest_runs):
            init = random_balanced_sides(coarse, base_seed + 17 * i)
            res = self.refiner.partition(
                coarse, balance=coarse_balance, initial_sides=init,
                seed=base_seed + 17 * i,
            )
            if res.cut < best_cut:
                best_cut = res.cut
                best_sides = res.sides
        assert best_sides is not None

        sides = [0] * graph.num_nodes
        for i, u in enumerate(reps):
            sides[u] = best_sides[i]

        stage_refines = 0
        with clock("uncoarsen"):
            state = UncoarsenState(
                dyn, sides, balance, max_net_size=self.max_net_size,
                clock=clock,
            )
            hi = len(mementos)
            for lo in self._stage_boundaries(hi, coarse.num_nodes):
                state.uncoarsen(mementos[lo:hi])
                hi = lo
                with clock("stage_refine"):
                    self._stage_refine(
                        state, balance, base_seed + 7919 * (stage_refines + 1)
                    )
                clock.flush(-1)
                stage_refines += 1
            state.uncoarsen(mementos[:hi])
            state.rebalance()
        clock.flush(-1)

        passes = state.uncontract_batches
        pass_cuts: List[float] = []
        final_stats: Dict[str, float] = {}
        if mementos:
            res = self.refiner.partition(
                graph, balance=balance, initial_sides=state.sides,
                seed=base_seed + 1,
            )
            sides = list(res.sides)
            passes += res.passes
            pass_cuts = list(res.pass_cuts)
            final_stats = {
                f"final_{k}": v
                for k, v in res.stats.items()
                if isinstance(v, (int, float))
            }
        else:
            sides = state.sides

        stats: Dict[str, float] = {
            "coarsest_nodes": float(coarse.num_nodes),
            "contractions": cstats["contractions"],
            "ratings_updated": cstats["ratings_updated"],
            "rescued_nodes": cstats["rescued_nodes"],
            "journal_replayed": cstats["journal_replayed"],
            "stage_refines": float(stage_refines),
            "uncontract_batches": float(state.uncontract_batches),
            "region_moves": float(state.region_moves),
            "rebalance_moves": float(state.rebalance_moves),
            **clock.stats(),
        }
        stats.update(final_stats)
        result = BipartitionResult(
            sides=sides,
            cut=cut_cost(graph, sides),
            algorithm=self.name,
            seed=seed,
            passes=passes,
            runtime_seconds=time.perf_counter() - start,
            stats=stats,
            pass_cuts=pass_cuts,
        )
        result.verify(graph)
        if rec is not None:
            rec.counters(-1, {
                "contractions": int(cstats["contractions"]),
                "ratings_updated": int(cstats["ratings_updated"]),
                "rescued_nodes": int(cstats["rescued_nodes"]),
                "uncontract_batches": state.uncontract_batches,
            })
            rec.run_end(
                self.name, result.cut, result.passes,
                result.runtime_seconds, result.stats,
            )
        return result
