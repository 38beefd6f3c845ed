"""Deterministic sub-round parallel refinement on the CSR view.

The sequential move loop (:class:`repro.passes.GainPolicy`, shared by
PROP, FM and LA) moves one node at a time and pays per-move container
maintenance and neighbor-gain updates — the cost that
``BENCH_kernels.json`` shows dominating ``full_pass`` even after the
numpy kernels made ``all_gains`` ~4.6x faster.  The ``"subround"``
kernel restructures a pass along the synchronous sub-round scheme of
*Deterministic Parallel Hypergraph Partitioning* (Gottesbüren et al.):

1. **gains** — all node gains are computed vectorized on the
   :class:`~repro.kernels.csr.CsrView` by the one kernel per gain
   equation in :mod:`repro.kernels.numpy_backend` (probabilistic
   Eqns. 3/4 for PROP, Eqn. 1 for FM — the kernels PROP's numpy
   engine uses too), and between sub-rounds only for the nodes a batch
   touched;
2. **select** — a batch of best-gain, balance-feasible, **net-disjoint**
   moves is chosen by one deterministic greedy sweep over the candidates
   in ``(-gain, tie_key(seed, node))`` order;
3. **apply** — the whole batch is committed at once:
   :meth:`repro.partition.Partition.apply_batch` flips every node with
   precomputed immediate gains (exact, because net-disjointness means no
   batch move can change another's gain), and the next sub-round's
   vectorized gain sweep doubles as the wholesale gain refresh that the
   sequential loop performs move by move.

**Determinism contract.**  Results are a pure function of
``(graph, initial sides, config, seed)`` — *never* of the worker count.
The gain kernels compute each net's product and each node's gain sum
entirely from that net's or node's own CSR segment (a net's product
never crosses a chunk boundary, a node's gain sum never crosses one
either, and the exact-recompute fallback visits incidences in node-major
order), so any chunking — one inline sweep, a subset of touched nodes,
or N workers over ``multiprocessing.shared_memory`` each taking one
contiguous slice (see :mod:`repro.engine.shm`) — produces bit-identical
floats.  Tie-breaking is keyed on a seeded splitmix64 hash of the node
id, computed once by the coordinator.  The worker-count-invariance
matrix in ``tests/kernels/test_subround_determinism.py`` enforces this.

**Audit contract.**  Each batch is net-disjoint and sequentially
balance-feasible in journal order, so replaying it one node at a time
with the scalar :meth:`Partition.move_and_lock` reaches the identical
state with identical per-move gains.
:meth:`repro.audit.PassAuditor.check_subround_batch` performs exactly
that replay, and the pass journal feeds the existing
``after_rollback`` full-pass replay unchanged.

Note the sub-round kernel is a **different algorithm** from the
sequential pass (same family, different move interleaving): cuts are
comparable but not identical.  It therefore participates in
experiment-cache fingerprints (see ``PropConfig.fingerprint_extra`` /
:mod:`repro.engine.units`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..datastructures import PassJournal, pass_can_stop
from ..partition import BalanceConstraint, Partition
from .csr import CsrView
from .numpy_backend import (
    KernelScratch,
    fm_gains,
    gather_segments,
    prop_gains,
    prop_products,
)

__all__ = [
    "DEFAULT_BATCH_FRACTION",
    "SubroundFMEngine",
    "SubroundPropEngine",
    "select_batch",
    "tie_break_keys",
    "vectorized_probability_map",
]

#: Fraction of the remaining free nodes a sub-round may move (at least
#: one).  Smaller fractions track the sequential algorithm more closely
#: (fresher gains per move) at the price of more sub-rounds per pass.
DEFAULT_BATCH_FRACTION = 0.1


# ----------------------------------------------------------------------
# Deterministic tie-breaking
# ----------------------------------------------------------------------
def tie_break_keys(num_nodes: int, seed: int) -> np.ndarray:
    """Seed-keyed splitmix64 hash per node (uint64, collision-free).

    splitmix64 is a bijection on uint64, so distinct nodes always get
    distinct keys — the ``(-gain, key)`` sort order is a strict total
    order, identical for every worker count and platform (numpy uint64
    arithmetic wraps mod 2^64 everywhere).
    """
    with np.errstate(over="ignore"):
        z = np.arange(num_nodes, dtype=np.uint64)
        z = z + np.uint64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        z = z + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def split_ranges(total: int, parts: int) -> List[Tuple[int, int]]:
    """``parts`` contiguous ``[lo, hi)`` ranges covering ``[0, total)``.

    Deterministic given ``(total, parts)``; some ranges may be empty
    when ``parts > total``.  Chunk boundaries never affect kernel
    results (see module docstring) — this is a load-split, not a
    semantic split.
    """
    base, extra = divmod(total, parts)
    ranges = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


# ----------------------------------------------------------------------
# Probability maps, vectorized
# ----------------------------------------------------------------------
def vectorized_probability_map(config):
    """Array-in/array-out version of :mod:`repro.core.probability`.

    Elementwise float operations only, so the map is deterministic for
    any input chunking; it is *not* required to match the scalar map
    bit for bit (the sub-round kernel is its own algorithm), only to be
    a clamped monotone map with the same ``pmin/pmax/glo/gup`` shape.
    """
    pmin, pmax = config.pmin, config.pmax
    glo, gup = config.glo, config.gup
    if config.probability_function == "linear":
        slope = (pmax - pmin) / (gup - glo)

        def linear(gains: np.ndarray) -> np.ndarray:
            p = pmin + slope * (gains - glo)
            return np.clip(p, pmin, pmax)

        return linear

    mid = (glo + gup) / 2.0
    scale = 8.0 / (gup - glo)
    lo = 1.0 / (1.0 + np.exp(4.0))
    span = 1.0 / (1.0 + np.exp(-4.0)) - lo

    def sigmoid(gains: np.ndarray) -> np.ndarray:
        sigma = 1.0 / (1.0 + np.exp(-scale * (gains - mid)))
        t = (sigma - lo) / span
        p = pmin + (pmax - pmin) * t
        out = np.clip(p, pmin, pmax)
        out[gains >= gup] = pmax
        out[gains <= glo] = pmin
        return out

    return sigmoid


# ----------------------------------------------------------------------
# Batch selection and application
# ----------------------------------------------------------------------
def select_batch(
    gains: np.ndarray,
    free_idx: np.ndarray,
    tie: np.ndarray,
    csr: CsrView,
    node_weights: Sequence[float],
    sides: Sequence[int],
    side_weights: Tuple[float, float],
    balance: BalanceConstraint,
    claimed: np.ndarray,
    cap: int,
) -> Tuple[List[int], int, int]:
    """One deterministic greedy sweep: best-gain, feasible, net-disjoint.

    Candidates are visited in ``(-gain, tie_key)`` order (a strict total
    order — see :func:`tie_break_keys`); a candidate is rejected when a
    net of an already-accepted move touches it (net conflict) or when
    moving it would violate ``balance`` given the moves accepted so far
    (sequential feasibility — the exact trajectory a one-at-a-time
    replay of the batch sees).  The sweep stops at ``cap`` accepted
    moves or when the candidate list is exhausted, so a feasible move
    anywhere in the order is always found (the FM both-sides rule,
    generalized).

    Returns ``(batch, net_conflicts, balance_rejects)``; ``claimed`` is
    an ``(num_nets,)`` bool scratch, cleared on entry.
    """
    claimed.fill(False)
    order = free_idx[np.lexsort((tie[free_idx], -gains[free_idx]))]
    node_offset = csr.node_offset_list
    nm_net = csr.nm_net
    w0, w1 = side_weights
    batch: List[int] = []
    conflicts = 0
    balance_rejects = 0
    for v in order.tolist():
        nets = nm_net[node_offset[v]:node_offset[v + 1]]
        if claimed[nets].any():
            conflicts += 1
            continue
        s = sides[v]
        w = node_weights[v]
        if not balance.move_allowed((w0, w1), s, w):
            balance_rejects += 1
            continue
        claimed[nets] = True
        batch.append(v)
        if s == 0:
            w0 -= w
            w1 += w
        else:
            w1 -= w
            w0 += w
        if len(batch) >= cap:
            break
    return batch, conflicts, balance_rejects


# ----------------------------------------------------------------------
# Pass engines
# ----------------------------------------------------------------------
class _SubroundEngineBase:
    """Shared machinery of the PROP and FM sub-round pass engines.

    One engine instance serves one run (it owns the CSR view, the
    optional shared-memory worker pool, and the run-level telemetry);
    the run driver (:func:`repro.passes.run_passes`) sets ``clock``,
    calls :meth:`run_pass` per pass and :meth:`close` in a ``finally``.
    """

    algorithm = "subround"

    def __init__(
        self,
        partition: Partition,
        seed: Optional[int],
        workers: int = 0,
        batch_fraction: float = DEFAULT_BATCH_FRACTION,
    ) -> None:
        if not 0.0 < batch_fraction <= 1.0:
            raise ValueError(
                f"batch_fraction must be in (0, 1], got {batch_fraction}"
            )
        self.partition = partition
        self.csr = CsrView(partition.graph)
        self.seed = seed if seed is not None else 0
        self.requested_workers = max(0, int(workers))
        self.batch_fraction = batch_fraction
        self.tie = tie_break_keys(partition.graph.num_nodes, self.seed)
        # Run-level telemetry (surfaced in BipartitionResult.stats).
        self.subrounds = 0
        self.conflicts = 0
        self.balance_rejects = 0
        self.batch_max = 0
        self.underflow_recomputes = 0
        self.probability_writes = 0
        self.shm_fallbacks = 0
        self.shm_attach_seconds = 0.0
        self.workers_attached = 0
        # Scratch reused across sub-rounds.
        E = self.csr.num_nets
        n = self.csr.num_nodes
        self._claimed = np.zeros(E, dtype=bool)
        self._gains = np.zeros(n, dtype=np.float64)
        self._sides = np.empty(n, dtype=np.int8)
        self._locked = np.empty(n, dtype=bool)
        self._pool = None
        self._pool_tried = False

    # -- worker pool --------------------------------------------------
    def _ensure_pool(self):
        """Start the shared-memory pool lazily; inline on any failure."""
        if self._pool is not None or self._pool_tried:
            return self._pool
        self._pool_tried = True
        if self.requested_workers < 2:
            return None
        from ..engine.shm import SubroundPool, pool_supported

        if not pool_supported():
            self.shm_fallbacks += 1
            return None
        try:
            self._pool = SubroundPool(self.csr, self.requested_workers)
            self.shm_attach_seconds += self._pool.attach_seconds
            self.workers_attached = self._pool.workers
        except Exception:
            self.shm_fallbacks += 1
            self._pool = None
        return self._pool

    def _pool_failed(self) -> None:
        """Tear the pool down after a worker failure; inline from here on."""
        self.shm_fallbacks += 1
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def close(self) -> None:
        """Shut the worker pool down and unlink its shared segments."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    @property
    def effective_workers(self) -> int:
        """Workers that attached over the run (0 = ran fully inline)."""
        return self.workers_attached

    # -- state mirrors ------------------------------------------------
    def _refresh_mirrors(self) -> None:
        part = self.partition
        np.copyto(
            self._sides, np.asarray(part.sides_view(), dtype=np.int8)
        )
        np.copyto(
            self._locked, np.asarray(part.locked_view(), dtype=bool)
        )

    # -- the pass -----------------------------------------------------
    def run_pass(
        self,
        balance: BalanceConstraint,
        pass_index: int,
        auditor,
        rec,
        counters,
    ) -> PassJournal:
        """One tentative-move pass as a sequence of sub-rounds.

        Mirrors the sequential move loop's contract
        (:meth:`repro.passes.GainPolicy.run_pass`): locks are left set,
        the journal records every tentative move with its realized
        immediate gain, phases are timed on ``self.clock``, and the
        driver performs the best-prefix rollback.  The pass ends when no
        batch can be selected, or right after the first batch at whose
        end :func:`~repro.datastructures.pass_can_stop` holds.
        """
        part = self.partition
        node_weights = part.graph.node_weights
        exact = part.graph.exact_cut_sums
        start_cut = part.cut_cost
        gains = self._start_pass()
        journal = PassJournal()
        with self.clock("move_loop"):
            while True:
                free_idx = np.flatnonzero(~self._locked)
                if free_idx.size == 0:
                    break
                cap = max(1, int(free_idx.size * self.batch_fraction))
                batch, conflicts, brejects = select_batch(
                    gains, free_idx, self.tie, self.csr, node_weights,
                    part.sides_view(), part.side_weights, balance,
                    self._claimed, cap,
                )
                self.conflicts += conflicts
                self.balance_rejects += brejects
                if not batch:
                    break
                self.subrounds += 1
                self.batch_max = max(self.batch_max, len(batch))
                if counters is not None:
                    counters.subrounds += 1
                    counters.subround_batch_nodes += len(batch)
                    counters.subround_conflicts += conflicts
                    counters.subround_balance_rejects += brejects

                # Pre-move Eqn. (1) gains of the batch.  Net-disjointness
                # means no batch move changes another's nets, so these
                # equal what a one-at-a-time replay realizes move by move.
                counts0 = np.asarray(part.counts_view(0), dtype=np.int64)
                counts1 = np.asarray(part.counts_view(1), dtype=np.int64)
                imm = fm_gains(
                    self.csr, self._sides, counts0, counts1,
                    np.asarray(batch, dtype=np.intp),
                ).tolist()
                pre_sides = part.sides if auditor is not None else None
                from_sides = [part.side(v) for v in batch]
                part.apply_batch(batch, imm)
                self._on_batch_applied(batch)

                for j, v in enumerate(batch):
                    journal.record(v, from_sides[j], imm[j])
                    if rec is not None:
                        rec.move(
                            pass_index, len(journal) - 1, v, from_sides[j],
                            float(gains[v]), imm[j],
                        )
                        counters.moves += 1
                if auditor is not None:
                    auditor.after_batch(part, batch, imm)
                    auditor.check_subround_batch(part, pre_sides, batch, imm)
                if pass_can_stop(
                    exact, start_cut, part.dead_cut, journal.best_gain
                ):
                    break

                gains = self._next_gains(gains)
        return journal

    def run_stats(self) -> dict:
        """Kernel and sub-round telemetry for ``BipartitionResult.stats``."""
        return {
            "kernel_numpy": 0.0,
            "kernel_subround": 1.0,
            "csr_build_seconds": self.csr.build_seconds,
            "subrounds": float(self.subrounds),
            "subround_conflicts": float(self.conflicts),
            "subround_balance_rejects": float(self.balance_rejects),
            "subround_batch_max": float(self.batch_max),
            "subround_workers": float(self.effective_workers),
            "subround_shm_fallbacks": float(self.shm_fallbacks),
            "shm_attach_seconds": self.shm_attach_seconds,
        }

    # -- hooks implemented by the PROP / FM specializations -----------
    def _start_pass(self) -> np.ndarray:
        """Refresh the state mirrors and return the pass's first gains,
        timing the pre-loop phases on ``self.clock``."""
        raise NotImplementedError

    def _next_gains(self, gains: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _on_batch_applied(self, batch: Sequence[int]) -> None:
        for v in batch:
            self._locked[v] = True
            self._sides[v] ^= 1


class SubroundPropEngine(_SubroundEngineBase):
    """PROP pass engine with sub-round batched moves.

    Keeps the paper's probability machinery: bootstrap (``pinit`` or
    deterministic FM gains), ``refinement_iterations`` gain↔probability
    cycles at pass start, and a probability refresh for the *neighbors
    of the applied batch* after every sub-round (the batched analogue of
    the per-move neighbor updates of Sec. 3.4).  The locality of that
    refresh is also what makes the inter-sub-round update incremental:
    only nets whose pins changed probability or side need new products,
    and only nodes on those nets need new gains — every other gain is
    mathematically unchanged, so the subset recompute is exact, not
    approximate.
    """

    algorithm = "PROP"
    phases = ("bootstrap", "refine", "gain_init", "move_loop")

    def __init__(
        self,
        partition: Partition,
        config,
        seed: Optional[int],
    ) -> None:
        super().__init__(
            partition, seed,
            workers=config.subround_workers,
            batch_fraction=config.subround_batch_fraction,
        )
        self.config = config
        self.prob_map = vectorized_probability_map(config)
        self.p = np.zeros(partition.graph.num_nodes, dtype=np.float64)
        # Side-major per-net products (prop_products).
        self._prods = np.empty(2 * self.csr.num_nets, dtype=np.float64)
        self._scratch = KernelScratch()
        self._last_batch: Optional[np.ndarray] = None

    # -- gains --------------------------------------------------------
    def _compute_gains(self) -> np.ndarray:
        pool = self._ensure_pool()
        if pool is not None:
            try:
                underflows = pool.prop_gains(
                    self.p, self._sides, self._locked, self._prods,
                    self._gains,
                )
                self.underflow_recomputes += underflows
                return self._gains
            except Exception:
                self._pool_failed()
        prop_products(
            self.csr, self.p, self._sides, self._prods, scratch=self._scratch
        )
        self._gains[:], underflows = prop_gains(
            self.csr, self.p, self._sides, self._locked, self._prods,
            scratch=self._scratch,
        )
        self.underflow_recomputes += underflows
        return self._gains

    def _set_free_probabilities(self, values: np.ndarray) -> None:
        free = ~self._locked
        self.p[free] = values[free]
        self.p[self._locked] = 0.0
        self.probability_writes += 1

    def _start_pass(self) -> np.ndarray:
        with self.clock("bootstrap"):
            self._refresh_mirrors()
            self._bootstrap()
        with self.clock("refine"):
            return self._refine()

    def run_stats(self) -> dict:
        stats = super().run_stats()
        stats["underflow_recomputes"] = float(self.underflow_recomputes)
        return stats

    def _bootstrap(self) -> None:
        config = self.config
        if config.init_method == "pinit":
            self._set_free_probabilities(
                np.full(self.p.shape, config.pinit)
            )
            return
        part = self.partition
        counts0 = np.asarray(part.counts_view(0), dtype=np.int64)
        counts1 = np.asarray(part.counts_view(1), dtype=np.int64)
        self._set_free_probabilities(
            self.prob_map(fm_gains(self.csr, self._sides, counts0, counts1))
        )

    def _refine(self) -> np.ndarray:
        gains = self._compute_gains()
        for _ in range(self.config.refinement_iterations):
            self._set_free_probabilities(self.prob_map(gains))
            gains = self._compute_gains()
        return gains.copy()

    def _next_gains(self, gains: np.ndarray) -> np.ndarray:
        csr = self.csr
        batch = self._last_batch
        if batch is None or batch.size == 0:
            return self._compute_gains().copy()
        bj, _ = gather_segments(batch, csr.node_offset)
        pj, _ = gather_segments(np.unique(csr.nm_net[bj]), csr.net_offset)
        neighbors = np.unique(csr.pin_node[pj])
        refresh = neighbors[~self._locked[neighbors]]
        if refresh.size:
            self.p[refresh] = self.prob_map(gains[refresh])
            self.probability_writes += 1
        changed = np.union1d(batch, refresh)
        cj, _ = gather_segments(changed, csr.node_offset)
        nets = np.unique(csr.nm_net[cj])
        prop_products(
            csr, self.p, self._sides, self._prods, nets, self._scratch
        )
        uj, _ = gather_segments(nets, csr.net_offset)
        touched = np.unique(csr.pin_node[uj])
        if touched.size >= csr.num_nodes:
            # Everything is affected anyway: take the full sweep, which
            # the worker pool parallelizes.  Same values either way.
            return self._compute_gains().copy()
        self._gains[touched], underflows = prop_gains(
            csr, self.p, self._sides, self._locked, self._prods, touched,
            scratch=self._scratch,
        )
        self.underflow_recomputes += underflows
        return self._gains.copy()

    def _on_batch_applied(self, batch: Sequence[int]) -> None:
        super()._on_batch_applied(batch)
        arr = np.asarray(batch, dtype=np.intp)
        self.p[arr] = 0.0
        self._last_batch = arr


class SubroundFMEngine(_SubroundEngineBase):
    """FM pass engine with sub-round batched moves.

    Selection gains are the exact Eqn. (1) immediate gains; batches are
    net-disjoint so applied gains equal selection gains.  Between
    sub-rounds only the pins of nets attached to the applied batch are
    recomputed (:func:`~repro.kernels.numpy_backend.fm_gains` over the
    touched nodes) — a batch changes pin counts only on its own nets and
    sides only on its own nodes, so every other node's Eqn. (1) sum is
    mathematically unchanged and the subset update is exact, not
    approximate.
    """

    algorithm = "FM"
    phases = ("gain_init", "move_loop")

    def __init__(
        self,
        partition: Partition,
        seed: Optional[int],
        workers: int = 0,
        batch_fraction: float = DEFAULT_BATCH_FRACTION,
    ) -> None:
        super().__init__(
            partition, seed, workers=workers, batch_fraction=batch_fraction
        )
        self._last_batch: Optional[np.ndarray] = None

    def _compute_gains(self) -> np.ndarray:
        part = self.partition
        counts0 = np.asarray(part.counts_view(0), dtype=np.int64)
        counts1 = np.asarray(part.counts_view(1), dtype=np.int64)
        pool = self._ensure_pool()
        if pool is not None:
            try:
                pool.fm_gains(
                    self._sides, self._locked, counts0, counts1, self._gains
                )
                return self._gains
            except Exception:
                self._pool_failed()
        self._gains[:] = fm_gains(self.csr, self._sides, counts0, counts1)
        return self._gains

    def _start_pass(self) -> np.ndarray:
        with self.clock("gain_init"):
            self._refresh_mirrors()
            self._last_batch = None
            return self._compute_gains().copy()

    def _next_gains(self, gains: np.ndarray) -> np.ndarray:
        csr = self.csr
        batch = self._last_batch
        if batch is None or batch.size == 0:
            return self._compute_gains().copy()
        bj, _ = gather_segments(batch, csr.node_offset)
        nets = np.unique(csr.nm_net[bj])
        uj, _ = gather_segments(nets, csr.net_offset)
        touched = np.unique(csr.pin_node[uj])
        if touched.size >= csr.num_nodes:
            # Everything is affected anyway: take the full sweep, which
            # the worker pool parallelizes.  Same values either way.
            return self._compute_gains().copy()
        part = self.partition
        counts0 = np.asarray(part.counts_view(0), dtype=np.int64)
        counts1 = np.asarray(part.counts_view(1), dtype=np.int64)
        self._gains[touched] = fm_gains(
            csr, self._sides, counts0, counts1, touched
        )
        return self._gains.copy()

    def _on_batch_applied(self, batch: Sequence[int]) -> None:
        super()._on_batch_applied(batch)
        self._last_batch = np.asarray(batch, dtype=np.intp)
