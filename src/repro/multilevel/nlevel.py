"""n-level coarsening: one-pair-at-a-time contraction under a PQ rating.

The V-cycle coarsener (:mod:`repro.multilevel.coarsen`) builds whole
matching levels at once and pays O(q²) per net for its clique affinity.
This module implements the *n-level* alternative of Henne, Sanders,
Schlag et al. (*n-Level Hypergraph Partitioning*, see PAPERS.md):

* :class:`DynamicHypergraph` — a mutable pin/incidence structure
  supporting KaHyPar-style single-pair contraction in O(deg(v)) dict
  operations, with a :class:`Memento` per contraction so the exact
  pre-contraction state can be restored during uncoarsening;
* :class:`NLevelCoarsener` — heavy-edge ratings maintained in an
  :class:`~repro.datastructures.AddressablePriorityQueue`, contracting
  the best-rated pair one at a time down to a target node count, with a
  rescue scan that pairs nodes whose every net is oversized (sampled-pin
  fallback) instead of stranding them;
* :class:`CoarseningJournal` — the contraction sequence serialized
  through the sha256-sealed JSONL machinery of
  :mod:`repro.engine.journal`, so a partially coarsened million-node
  instance resumes with zero rating recomputation for journaled pairs;
* :class:`HierarchyMemo` — the contraction sequence kept in memory per
  netlist object, so every later coarsening of that netlist in the same
  process is a replay (:data:`HIERARCHIES` serves the n-level engine).

Determinism contract (docs/multilevel.md): coarsening is a pure function
of ``(graph, target_nodes, rating, max_net_size, max_cluster_weight,
sample_pins)`` — no seeds, no wall-clock, no iteration over
unordered containers.  After every contraction the entries of the entire
affected neighborhood are updated *eagerly*, each to exactly what a
from-scratch rating would give (only the partners the contraction can
change are re-summed).  So the queue never holds a stale entry, and its
pop order — total order on ``(-rating, node)`` — depends only on the
current dynamic graph, never on update history.
That is what makes a journal-resumed coarsening bit-identical to an
uninterrupted one: replay reapplies the journaled pairs mechanically,
the queue is rebuilt from the resulting state, and the continuation
makes exactly the moves the original run would have made.  A memo hit
is the same replay of a complete sequence, with no queue at all.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from array import array
from functools import partial
from pathlib import Path
from typing import Collection, Dict, Iterable, List, Optional, Tuple

from ..datastructures import AddressablePriorityQueue
from ..engine.journal import SealedAppender, iter_journal_records
from ..engine.units import hypergraph_fingerprint
from ..hypergraph import Hypergraph
from .coarsen import DEFAULT_MAX_NET_SIZE, DEFAULT_SAMPLE_PINS

#: ``kind`` field of a coarsening-journal header record.
JOURNAL_KIND = "nlevel-coarsen"

#: Contraction pairs per sealed journal record.  Each record is one
#: line-atomic append (write+flush+fsync), so a crash loses at most the
#: unflushed tail of one batch — which resume simply re-derives.
DEFAULT_JOURNAL_BATCH = 4096

#: Largest candidate set whose ratings are summed one partner at a time
#: (a membership test per net) rather than in one pass over the nets'
#: pins; four was the fastest cut-over on dense and sparse instances.
_PER_CANDIDATE_PASSES = 4


class Memento:
    """Everything needed to undo one contraction ``v -> u`` exactly.

    ``shrunk`` lists nets that contained both endpoints (v was removed,
    the net got smaller); ``replaced`` nets that contained only v (v's
    slot was taken over by u, size unchanged); ``pruned`` holds
    ``(net, last_pin)`` for shrunk nets that collapsed to a single pin
    and were detached from that pin's incidence list (a 1-pin net can
    never be cut, so refinement must not iterate it).  ``uw`` is u's
    weight *before* the contraction — restored by assignment, not
    subtraction, so float weights round-trip bit-exactly.
    """

    __slots__ = ("u", "v", "uw", "shrunk", "replaced", "pruned")

    def __init__(self, u: int, v: int, uw: float) -> None:
        self.u = u
        self.v = v
        self.uw = uw
        self.shrunk: List[int] = []
        self.replaced: List[int] = []
        self.pruned: List[Tuple[int, int]] = []


class DynamicHypergraph:
    """Mutable incidence structure for single-pair contraction.

    Pins and per-node net lists are stored as dicts-used-as-ordered-sets:
    O(1) membership, insertion and deletion with deterministic
    (insertion-order) iteration — so replaying the same contraction
    sequence reconstructs byte-identical iteration orders, which the
    determinism contract relies on for float accumulation.

    Invariants: ``pins[net]`` contains only alive nodes; ``net in
    nets_of[x]`` iff ``x in pins[net]``, except for dead nodes (whose
    ``nets_of`` is left frozen at contraction time for the undo) and
    pruned nets (detached from their last pin until uncontracted).
    """

    __slots__ = (
        "pins",
        "nets_of",
        "net_cost",
        "node_weight",
        "alive",
        "alive_count",
        "num_nets",
    )

    def __init__(self, graph: Hypergraph) -> None:
        self.pins: List[Dict[int, None]] = [
            dict.fromkeys(net) for net in graph.nets
        ]
        self.nets_of: List[Dict[int, None]] = [
            dict.fromkeys(graph.node_nets(u)) for u in range(graph.num_nodes)
        ]
        self.net_cost: List[float] = list(graph.net_costs)
        self.node_weight: List[float] = list(graph.node_weights)
        self.alive: List[bool] = [True] * graph.num_nodes
        self.alive_count: int = graph.num_nodes
        self.num_nets: int = graph.num_nets

    @property
    def num_nodes(self) -> int:
        """Size of the *original* node id space (dead ids included)."""
        return len(self.alive)

    def contract(self, u: int, v: int) -> Memento:
        """Merge ``v`` into ``u`` (KaHyPar-style), returning the undo
        record.  O(deg(v)) dict operations."""
        m = Memento(u, v, self.node_weight[u])
        pins = self.pins
        for net in self.nets_of[v]:
            net_pins = pins[net]
            if u in net_pins:
                del net_pins[v]
                if len(net_pins) == 1:
                    last = next(iter(net_pins))
                    del self.nets_of[last][net]
                    m.pruned.append((net, last))
                else:
                    m.shrunk.append(net)
            else:
                del net_pins[v]
                net_pins[u] = None
                self.nets_of[u][net] = None
                m.replaced.append(net)
        self.node_weight[u] += self.node_weight[v]
        self.alive[v] = False
        self.alive_count -= 1
        return m

    def uncontract(self, m: Memento) -> None:
        """Exact inverse of :meth:`contract`.  Mementos must be undone
        in LIFO order (later contractions may touch the same nets)."""
        u, v = m.u, m.v
        pins = self.pins
        for net in m.replaced:
            net_pins = pins[net]
            del net_pins[u]
            net_pins[v] = None
            del self.nets_of[u][net]
        for net in m.shrunk:
            pins[net][v] = None
        for net, last in m.pruned:
            pins[net][v] = None
            self.nets_of[last][net] = None
        self.node_weight[u] = m.uw
        self.alive[v] = True
        self.alive_count += 1

    def snapshot(self) -> Tuple[Hypergraph, List[int]]:
        """The current coarse graph as an immutable Hypergraph.

        Returns ``(coarse, reps)`` where ``reps[i]`` is the original node
        id of compact coarse node ``i``.  Nets with fewer than two alive
        pins are dropped (they can never be cut)."""
        reps = [u for u in range(len(self.alive)) if self.alive[u]]
        compact = {u: i for i, u in enumerate(reps)}
        nets: List[List[int]] = []
        costs: List[float] = []
        for net in range(self.num_nets):
            net_pins = self.pins[net]
            if len(net_pins) < 2:
                continue
            nets.append([compact[x] for x in net_pins])
            costs.append(self.net_cost[net])
        coarse = Hypergraph(
            nets,
            num_nodes=len(reps),
            net_costs=costs,
            node_weights=[self.node_weight[u] for u in reps],
        )
        return coarse, reps


def coarsening_fingerprint(
    graph: Hypergraph,
    target_nodes: int,
    rating: str,
    max_net_size: int,
    max_cluster_weight: float,
    sample_pins: int,
) -> str:
    """Journal binding: netlist content hash + every coarsening knob.

    The seed is deliberately absent — n-level coarsening is
    seed-independent, so one journal serves every seed of a config."""
    h = hashlib.sha256()
    h.update(hypergraph_fingerprint(graph).encode())
    h.update(
        f"|{JOURNAL_KIND}-v1|{target_nodes}|{rating}|{max_net_size}"
        f"|{max_cluster_weight!r}|{sample_pins}".encode()
    )
    return h.hexdigest()


class CoarseningJournal:
    """Sealed JSONL log of the contraction sequence.

    Written through :class:`repro.engine.journal.SealedAppender`, like
    the engine's run journals: each record is one newline-terminated
    ``write`` + flush + fsync, a torn final line is closed out before the
    next append, torn or checksum-failing lines are skipped on read, and
    all I/O errors are counted in :attr:`errors` (journalling is
    best-effort and must never abort the coarsening it protects).  The
    header binds the file to a :func:`coarsening_fingerprint`; a mismatch
    on replay means the journal belongs to a different graph/config and
    is ignored.
    """

    def __init__(
        self,
        path,
        fingerprint: str,
        batch_pairs: int = DEFAULT_JOURNAL_BATCH,
    ) -> None:
        if batch_pairs < 1:
            raise ValueError("batch_pairs must be >= 1")
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.batch_pairs = batch_pairs
        self.appended_pairs = 0
        self._buffer: List[List[int]] = []
        self._log = SealedAppender(self.path)
        # Cumulative pair index of the next record to write.  Replay
        # sets it to the intact-prefix length, so appended records chain
        # onto the prefix even when the file has a corrupt middle.
        self._seq = 0

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def replay_pairs(self) -> List[Tuple[int, int]]:
        """The journaled contraction pairs — longest intact prefix.

        Empty when the file is missing or its header does not match this
        journal's fingerprint (different graph or different knobs).
        Every record carries the cumulative pair index it starts at
        (``seq``); a record that does not chain onto the pairs read so
        far (its predecessor was torn or corrupt) ends the trusted
        prefix — replaying across a gap would silently reorder the
        contraction sequence."""
        pairs: List[Tuple[int, int]] = []
        saw_header = False
        for record in iter_journal_records(self.path):
            rtype = record.get("type")
            if not saw_header:
                if (
                    rtype != "header"
                    or record.get("kind") != JOURNAL_KIND
                    or record.get("fingerprint") != self.fingerprint
                ):
                    return []
                saw_header = True
                continue
            if rtype != "contractions":
                continue
            if record.get("seq") != len(pairs):
                break
            for pair in record.get("pairs", ()):
                pairs.append((int(pair[0]), int(pair[1])))
        self._seq = len(pairs)
        return pairs

    @property
    def errors(self) -> int:
        """Appends that failed (I/O or encoding errors)."""
        return self._log.errors

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def ensure_header(self) -> None:
        """Write the fingerprint header when starting a fresh file."""
        try:
            exists = self.path.exists() and self.path.stat().st_size > 0
        except OSError:
            exists = False
        if exists:
            return
        self._log.append({
            "type": "header",
            "kind": JOURNAL_KIND,
            "fingerprint": self.fingerprint,
        })

    def append(self, u: int, v: int) -> None:
        """Buffer one contraction; flushes a sealed record per batch."""
        self._buffer.append([u, v])
        if len(self._buffer) >= self.batch_pairs:
            self.flush()

    def flush(self) -> None:
        """Write the buffered pairs as one sealed record."""
        if not self._buffer:
            return
        self._log.append({
            "type": "contractions",
            "seq": self._seq,
            "pairs": self._buffer,
        })
        self._seq += len(self._buffer)
        self.appended_pairs += len(self._buffer)
        self._buffer = []

    def close(self) -> None:
        """Flush the tail batch and release the file handle."""
        self.flush()
        self._log.close()


def replay_contractions(
    dyn: DynamicHypergraph,
    pairs: Iterable[Tuple[int, int]],
    target_nodes: int,
) -> List[Memento]:
    """Contract ``pairs`` into ``dyn`` in order, with no rating work.

    The one replay of a recorded contraction sequence, for journal
    resume and memo hits alike: the same ``contract`` calls in the same
    order rebuild the same mementos and dict orders.  It stops at the
    target, and at the first pair that does not fit the graph (a
    journal that diverged from it; replaying past it is not trusted).
    """
    mementos: List[Memento] = []
    n = dyn.num_nodes
    alive = dyn.alive
    for u, v in pairs:
        if dyn.alive_count <= target_nodes:
            break
        if (
            u == v
            or not 0 <= u < n
            or not 0 <= v < n
            or not alive[u]
            or not alive[v]
        ):
            break
        mementos.append(dyn.contract(u, v))
    return mementos


class HierarchyMemo:
    """Contraction sequences kept per netlist object, in this process.

    Coarsening is a pure function of the netlist and the knobs that
    :func:`coarsening_fingerprint` binds, so a sequence recorded once
    serves every later coarsening of the same ``Hypergraph`` object with
    the same knobs: :func:`nlevel_coarsen` replays it instead of rating.
    Entries are keyed by object identity, not content — a content key
    would hash every pin per lookup — and each holds a weak reference to
    its netlist, whose death drops the entry.  So nothing rides along
    when the netlist is pickled: an unpickled copy (a pool worker's) is
    another object and coarsens cold.  Each knob set
    costs one flat ``array('l')`` of ``u, v`` pairs, 16 bytes a
    contraction on 64-bit Linux.

    Thread-safe: the service's job threads bisect one job's netlist
    concurrently (two first calls both coarsen, and both store the same
    pairs).  The lock is re-entrant because a netlist can die, and its
    weak-reference callback run, inside a locked section whose
    allocation started a garbage collection.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        #: id(graph) -> (weak reference to graph, {knobs: flat pairs})
        self._entries: Dict[
            int, Tuple[weakref.ref, Dict[tuple, array]]
        ] = {}

    def get(self, graph: Hypergraph, knobs: tuple) -> Optional[array]:
        """The flat ``u, v`` pairs recorded for ``graph`` under
        ``knobs``, or None."""
        with self._lock:
            entry = self._entries.get(id(graph))
            if entry is None or entry[0]() is not graph:
                return None
            return entry[1].get(knobs)

    def put(
        self, graph: Hypergraph, knobs: tuple, mementos: List[Memento]
    ) -> None:
        """Record the contraction sequence of ``mementos`` for
        ``graph`` under ``knobs``."""
        pairs = array("l")
        for m in mementos:
            pairs.append(m.u)
            pairs.append(m.v)
        key = id(graph)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0]() is not graph:
                entry = (weakref.ref(graph, partial(self._forget, key)), {})
                self._entries[key] = entry
            entry[1][knobs] = pairs

    def _forget(self, key: int, ref: weakref.ref) -> None:
        """Weak-reference callback of a dead netlist: drop its entry,
        unless a new netlist with the same id owns the key by now."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is ref:
                del self._entries[key]

    def __len__(self) -> int:
        """Netlists with at least one recorded sequence."""
        with self._lock:
            return len(self._entries)


#: The process-wide memo that ``NLevelPartitioner`` coarsens through.
HIERARCHIES = HierarchyMemo()


class NLevelCoarsener:
    """Priority-queue driven one-pair-at-a-time coarsening.

    Ratings follow the heavy-edge rule of the V-cycle coarsener —
    ``r(u, v) = Σ c(net)/(|net|-1)`` over shared nets of size at most
    ``max_net_size`` (``rating="uniform"`` drops the ``1/(|net|-1)``
    factor) — but are computed per *node* (best feasible partner), not
    per O(q²) clique edge.  The pair ``(u, best(u))`` with the highest
    rating is contracted; ties break toward the smaller node id at both
    levels, so the sequence is fully deterministic.
    """

    def __init__(
        self,
        dyn: DynamicHypergraph,
        target_nodes: int,
        rating: str = "heavy-edge",
        max_net_size: int = DEFAULT_MAX_NET_SIZE,
        max_cluster_weight: float = float("inf"),
        sample_pins: int = DEFAULT_SAMPLE_PINS,
        journal: Optional[CoarseningJournal] = None,
        mementos: Optional[List[Memento]] = None,
    ) -> None:
        if target_nodes < 2:
            raise ValueError("target_nodes must be >= 2")
        if rating not in ("heavy-edge", "uniform"):
            raise ValueError(f"unknown rating {rating!r}")
        if sample_pins < 1:
            raise ValueError("sample_pins must be >= 1")
        self.dyn = dyn
        self.target_nodes = target_nodes
        self.rating = rating
        self.max_net_size = max_net_size
        self.max_cluster_weight = max_cluster_weight
        self.sample_pins = sample_pins
        self.journal = journal
        self.mementos: List[Memento] = mementos if mementos is not None else []
        self.pq = AddressablePriorityQueue()
        # Reverse partner index: _targets[p] = nodes whose queued best
        # partner is p.  Only the *set* per partner matters (each member
        # is rerated independently from pure graph state), so its
        # history-dependent iteration order cannot leak into results.
        self._targets: Dict[int, Dict[int, None]] = {}
        # Per-net rating term (see _term), built by _rebuild_queue and
        # refreshed for every contraction's shrunk and pruned nets.
        self._terms: List[Optional[float]] = []
        self.contractions = 0
        self.ratings_updated = 0
        self.rescued_nodes = 0

    # ------------------------------------------------------------------
    # Rating
    # ------------------------------------------------------------------
    def _term(self, net: int) -> Optional[float]:
        """``net``'s rating term for each pair of its pins —
        ``c/(|net|-1)``, or ``c`` under ``rating="uniform"`` — or None
        when the net is out of range (fewer than 2 or more than
        ``max_net_size`` pins)."""
        q = len(self.dyn.pins[net])
        if q < 2 or q > self.max_net_size:
            return None
        cost = self.dyn.net_cost[net]
        return cost / (q - 1) if self.rating == "heavy-edge" else cost

    def _best_partner(
        self, u: int, cands: Optional[Collection[int]] = None
    ) -> Optional[Tuple[float, int]]:
        """Highest-rated weight-feasible partner of ``u`` over its small
        nets, or None.  Ties break toward the smaller partner id.

        Each rating is summed over ``nets_of[u]`` in order, so it is the
        same float whichever partners are rated: every co-pin, or only
        the partners in ``cands`` (which must not contain ``u``).  Up to
        ``_PER_CANDIDATE_PASSES`` candidates — most rerates after a
        contraction have one — are summed one at a time, a pass over
        ``nets_of[u]`` each."""
        dyn = self.dyn
        pins = dyn.pins
        terms = self._terms
        nets = dyn.nets_of[u]
        affinity: Dict[int, float] = {}
        if cands is not None and len(cands) <= _PER_CANDIDATE_PASSES:
            for v in cands:
                r = 0.0
                shared = False
                for net in nets:
                    if v in pins[net]:
                        t = terms[net]
                        if t is not None:
                            r += t
                            shared = True
                if shared:
                    affinity[v] = r
        else:
            get = affinity.get
            for net in nets:
                t = terms[net]
                if t is not None:
                    for v in pins[net]:
                        if v != u and (cands is None or v in cands):
                            affinity[v] = get(v, 0.0) + t
        best_v = -1
        best_r = 0.0
        node_weight = dyn.node_weight
        wu = node_weight[u]
        cap = self.max_cluster_weight
        for v, r in affinity.items():
            if wu + node_weight[v] > cap:
                continue
            if r > best_r or (r == best_r and (best_v < 0 or v < best_v)):
                best_r = r
                best_v = v
        if best_v < 0:
            return None
        return best_r, best_v

    def _requeue(
        self, u: int, best: Optional[Tuple[float, int]], old: Optional[int]
    ) -> None:
        """Make ``best`` (``(rating, partner)`` or None) ``u``'s entry;
        ``old`` is ``u``'s queued partner, or None."""
        if best is None:
            if old is not None:
                self._targets[old].pop(u, None)
            self.pq.discard(u)
        else:
            rating, partner = best
            if old != partner:
                if old is not None:
                    self._targets[old].pop(u, None)
                self._targets.setdefault(partner, {})[u] = None
            self.pq.push(u, rating, partner)
        self.ratings_updated += 1

    def _update_node(self, u: int) -> None:
        """Rerate ``u`` in full, over every co-pin."""
        pq = self.pq
        self._requeue(
            u, self._best_partner(u), pq.payload(u) if u in pq else None
        )

    def _rerate(self, w: int, v: int, cands: Collection[int]) -> None:
        """Rerate ``w`` after contracting ``v`` into ``u`` over the
        candidate partners ``cands`` only: ``u`` and the pins of ``w``'s
        in-range shrunk nets, ``w`` excluded (see :meth:`_update_region`)."""
        pq = self.pq
        best = self._best_partner(w, cands)
        if w not in pq:
            self._requeue(w, best, None)
            return
        old = (pq.priority(w), pq.payload(w))
        if best is None or (best[0], -best[1]) < (old[0], -old[1]):
            if old[1] not in cands and old[1] != v:
                # The incumbent's rating and feasibility are unchanged,
                # and it beats every candidate and unchanged partner.
                best = old
            else:
                # The heir rule failed: an unchanged partner may win.
                best = self._best_partner(w)
        self._requeue(w, best, old[1])

    def _update_region(self, m: Memento) -> None:
        """Rerate the exact affected set of contraction ``m`` (v into u).

        *Who is affected.*  A rating term changes only through a net
        whose size or membership changed — precisely the memento's nets
        — and net sizes never grow, so an oversized net stays
        rating-inert unless it shrank into range (again a memento net).
        Feasibility only worsens (weights only grow, and only ``u``'s
        grew), so a node's entry can be invalidated only when its
        partner *is* ``u`` (now heavier) or ``v`` (now dead) — the
        reverse-index sets.  Everything else keeps a valid entry.

        *Candidate rerate.*  ``u`` is rerated in full.  Any other
        affected ``w`` re-sums ``r(w, x)`` only for ``x`` in ``{u} ∪
        G_w``, where ``G_w`` are the pins of ``w``'s in-range shrunk
        nets, in ``nets_of[w]`` order — the same floats a full rerate
        computes.  That is exact because of four facts:

        * *Unchanged partners.*  For ``x ∉ {u, v} ∪ G_w``, ``w``'s terms
          toward ``x`` come from the same nets, in the same order, with
          the same values: ``nets_of[w]`` changes only for ``w = u`` (a
          pruned net's last pin is always ``u``); replaced nets keep
          their size; and a shrunk net that is out of range stays out
          of range unless it has just entered the range, and then its
          pins are in ``G_w``.
        * *Growth only.*  For ``x ∈ G_w ∪ {u}``, ``r(w, x)`` can only
          grow: terms grow or appear and never shrink, because costs
          are ≥ 0 and IEEE division and addition are monotone.  So an
          incumbent whose own rating grew still beats every unchanged
          ``x``.
        * *Feasibility.*  Only pairs that include ``u`` can change
          feasibility, because only ``u``'s weight grew.
        * *The heir rule.*  If ``w``'s partner was ``v``, then
          ``r(w, u)`` now is at least ``r(w, v)`` before.  But an
          unchanged ``x`` tied at the old key with ``x < u`` must still
          win.  So the candidate winner is accepted only if it beats the
          old ``(key, v)`` in the queue's order (a strictly higher
          rating, or an equal one with id ``< v``); otherwise ``w`` is
          rerated in full.  The same test covers a partner ``u`` that
          is now over the weight cap.

        An incumbent outside ``{u, v} ∪ G_w`` stays unless a candidate
        beats it.  The terms of the shrunk and pruned nets are refreshed
        first; replaced nets keep theirs.
        """
        dyn = self.dyn
        pins = dyn.pins
        terms = self._terms
        for net in m.shrunk:
            terms[net] = self._term(net)
        for net, _last in m.pruned:
            terms[net] = None
        u = m.u
        affected: Dict[int, None] = {u: None}
        # Candidate partners of each pin of an in-range shrunk net.
        grown: Dict[int, Dict[int, None]] = {}
        for net in m.shrunk:
            if terms[net] is not None:
                net_pins = pins[net]
                affected.update(net_pins)
                for w in net_pins:
                    cands = grown.get(w)
                    if cands is None:
                        grown[w] = cands = {}
                    cands.update(net_pins)
        for w, cands in grown.items():
            del cands[w]
        for net in m.replaced:
            if terms[net] is not None:
                affected.update(pins[net])
        node_weight = dyn.node_weight
        cap = self.max_cluster_weight
        stale = self._targets.get(u)
        if stale:
            # Nodes whose cached best is u keep a valid entry unless the
            # pair outgrew the cap (their rating toward u via unmodified
            # nets is unchanged; modified-net pins are covered above).
            wu = node_weight[u]
            for w in stale:
                if wu + node_weight[w] > cap:
                    affected[w] = None
        stale = self._targets.get(m.v)
        if stale:
            affected.update(stale)
        alive = dyn.alive
        only_u = (u,)
        for w in affected:
            if w == u:
                self._update_node(w)
            elif alive[w]:
                self._rerate(w, m.v, grown.get(w, only_u))
        self._targets.pop(m.v, None)

    # ------------------------------------------------------------------
    # Contraction loop
    # ------------------------------------------------------------------
    def _contract(self, u: int, v: int) -> None:
        m = self.dyn.contract(u, v)
        self.mementos.append(m)
        self.contractions += 1
        old = self.pq.payload(v) if v in self.pq else None
        if old is not None:
            self._targets[old].pop(v, None)
        self.pq.discard(v)
        if self.journal is not None:
            self.journal.append(u, v)
        self._update_region(m)

    def _rebuild_queue(self) -> None:
        """Rate every alive node from scratch (startup and resume)."""
        self.pq = AddressablePriorityQueue()
        self._targets = {}
        dyn = self.dyn
        self._terms = [self._term(net) for net in range(dyn.num_nets)]
        for u in range(len(dyn.alive)):
            if dyn.alive[u]:
                self._update_node(u)

    def _fallback_partner(self, u: int) -> Optional[int]:
        """Rescue partner for a node the rating cannot match: the first
        weight-feasible pin among the first ``sample_pins`` of its
        smallest net (pad-heavy nodes whose every net is oversized), or
        the nearest alive node by id when ``u`` is isolated."""
        dyn = self.dyn
        wu = dyn.node_weight[u]
        best_net = -1
        best_q = -1
        for net in dyn.nets_of[u]:
            q = len(dyn.pins[net])
            if q < 2:
                continue
            if best_q < 0 or q < best_q or (q == best_q and net < best_net):
                best_q = q
                best_net = net
        if best_net >= 0:
            sampled = 0
            for v in dyn.pins[best_net]:
                if v == u:
                    continue
                sampled += 1
                if sampled > self.sample_pins:
                    break
                if wu + dyn.node_weight[v] <= self.max_cluster_weight:
                    return v
            return None
        n = len(dyn.alive)
        for step in range(1, n):
            v = (u + step) % n
            if dyn.alive[v] and wu + dyn.node_weight[v] <= self.max_cluster_weight:
                return v
        return None

    def _rescue_round(self) -> bool:
        """One fallback contraction when the queue is dry.

        Scans alive nodes from id 0 — a pure function of the current
        graph (no cursor state), so a resumed run rescues the same pair
        an uninterrupted one would."""
        dyn = self.dyn
        for u in range(len(dyn.alive)):
            if not dyn.alive[u]:
                continue
            v = self._fallback_partner(u)
            if v is None:
                continue
            self._contract(u, v)
            self.rescued_nodes += 1
            return True
        return False

    def coarsen(self) -> List[Memento]:
        """Contract down to ``target_nodes`` (or until nothing can
        contract).  Returns the accumulated memento stack."""
        dyn = self.dyn
        if dyn.alive_count <= self.target_nodes:
            # Already coarse enough (e.g. resumed from a complete
            # journal): zero rating work.
            return self.mementos
        self._rebuild_queue()
        while dyn.alive_count > self.target_nodes:
            entry = self.pq.pop()
            if entry is None:
                if not self._rescue_round():
                    break
                continue
            u, _rating, v = entry
            if (
                not dyn.alive[v]
                or dyn.node_weight[u] + dyn.node_weight[v]
                > self.max_cluster_weight
            ):
                # Unreachable under eager updates; rerate from pure
                # state so even a missed case cannot break determinism.
                self._update_node(u)
                continue
            self._contract(u, v)
        if self.journal is not None:
            self.journal.flush()
        return self.mementos


def nlevel_coarsen(
    graph: Hypergraph,
    target_nodes: int,
    rating: str = "heavy-edge",
    max_net_size: int = DEFAULT_MAX_NET_SIZE,
    max_cluster_weight: Optional[float] = None,
    sample_pins: int = DEFAULT_SAMPLE_PINS,
    journal_path=None,
    journal_batch: int = DEFAULT_JOURNAL_BATCH,
    memo: Optional[HierarchyMemo] = None,
) -> Tuple[DynamicHypergraph, List[Memento], Dict[str, float]]:
    """Coarsen ``graph`` to about ``target_nodes`` alive nodes.

    When ``journal_path`` is given, a matching journal's pairs are
    replayed mechanically (no rating work) before the priority queue
    takes over, and every new contraction is appended to it.

    Otherwise ``memo`` (a :class:`HierarchyMemo`), when given, records
    the sequence of this netlist object's first coarsening under these
    knobs and replays it on every later one, queue construction
    included: the stats then read like a complete journal replay
    (``journal_replayed`` = the pairs, no contractions, ratings or
    rescues).  A journal governs alone; the memo stands aside.

    Returns ``(dyn, mementos, stats)``; ``mementos`` is the full
    hierarchy (replayed + fresh) in contraction order.
    """
    if max_cluster_weight is None:
        # The V-cycle recomputes its 4x-average cap per level, so by the
        # coarsest level the cap is ~4x(total/target).  n-level has no
        # levels; use that final cap directly, else the fixed-cap floor
        # of n/4 alive nodes makes the target unreachable.
        max_cluster_weight = (
            4.0 * graph.total_node_weight / max(target_nodes, 1)
        )
    dyn = DynamicHypergraph(graph)
    knobs = (target_nodes, rating, max_net_size, max_cluster_weight,
             sample_pins)
    if journal_path is not None:
        memo = None  # the journal governs
    elif memo is not None:
        pairs = memo.get(graph, knobs)
        if pairs is not None:
            it = iter(pairs)
            hierarchy = replay_contractions(dyn, zip(it, it), target_nodes)
            return dyn, hierarchy, {
                "contractions": 0.0,
                "ratings_updated": 0.0,
                "rescued_nodes": 0.0,
                "journal_replayed": float(len(hierarchy)),
            }
    mementos: List[Memento] = []
    journal: Optional[CoarseningJournal] = None
    if journal_path is not None:
        fingerprint = coarsening_fingerprint(graph, *knobs)
        journal = CoarseningJournal(
            journal_path, fingerprint, batch_pairs=journal_batch
        )
        mementos = replay_contractions(
            dyn, journal.replay_pairs(), target_nodes
        )
        journal.ensure_header()
    replayed = len(mementos)
    coarsener = NLevelCoarsener(
        dyn,
        target_nodes=target_nodes,
        rating=rating,
        max_net_size=max_net_size,
        max_cluster_weight=max_cluster_weight,
        sample_pins=sample_pins,
        journal=journal,
        mementos=mementos,
    )
    coarsener.coarsen()
    if journal is not None:
        journal.close()
    if memo is not None:
        memo.put(graph, knobs, mementos)
    stats: Dict[str, float] = {
        "contractions": float(coarsener.contractions),
        "ratings_updated": float(coarsener.ratings_updated),
        "rescued_nodes": float(coarsener.rescued_nodes),
        "journal_replayed": float(replayed),
    }
    return dyn, mementos, stats
