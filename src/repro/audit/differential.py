"""Differential oracles: incremental vs. reference whole-run trajectories.

The runtime auditor (:mod:`repro.audit.auditor`) checks invariants *inside*
one run.  This module attacks the same bookkeeping from the outside: it
re-implements the FM and LA algorithms with zero incremental state — every
gain recomputed from scratch before every move, selection and rollback
done over plain lists — and asserts that the real engines produce
**identical trajectories** (same moves in the same order, same per-move
gains, same kept prefixes, same final cuts) over seeded generator grids.

The reference passes are literal Fig.-2 passes: they move every movable
node.  The engines end a pass early once the dead-cut stop rule
(:func:`repro.datastructures.pass_can_stop`) holds, so the reference
also records, per pass, the first move at which a from-scratch dead-cut
recount licenses that stop, and :func:`compare_trajectories` accepts a
pass that ends exactly there.

Two engines that share tie-breaking rules must agree move for move:

* ``run_fm(container="tree")``  vs  :func:`reference_fm_run`
* ``run_la(k)``                 vs  :func:`reference_la_run`
* any audited run vs its unaudited twin (auditing is read-only)

FM-bucket is excluded from move-level comparison: its LIFO bucket ties
differ from the tree container's highest-node-id rule by design.

Engines are imported lazily inside functions — this module sits below
:mod:`repro.core`/`repro.baselines` in the import graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..hypergraph import Hypergraph
from . import reference

#: One tentative move: (pass index, node, immediate cut gain).
TrajectoryMove = Tuple[int, int, float]


@dataclass
class Trajectory:
    """Everything observable about one run, move by move."""

    algorithm: str
    moves: List[TrajectoryMove] = field(default_factory=list)
    kept: List[int] = field(default_factory=list)  # kept prefix per pass
    pass_cuts: List[float] = field(default_factory=list)
    final_sides: List[int] = field(default_factory=list)
    final_cut: float = 0.0
    #: Per pass of a reference run, the number of moves after which the
    #: stop rule first holds (None when it never does); empty otherwise.
    stops: List[Optional[int]] = field(default_factory=list)


@dataclass(frozen=True)
class Mismatch:
    """First point where two trajectories diverge."""

    # "move" | "stop" | "length" | "kept" | "pass-cuts" | "sides" | "cut"
    kind: str
    index: int
    left: object
    right: object

    def __str__(self) -> str:
        return (
            f"trajectory mismatch [{self.kind}] at {self.index}: "
            f"{self.left!r} != {self.right!r}"
        )


def _moves_by_pass(traj: Trajectory) -> List[List[TrajectoryMove]]:
    passes = 1 + max((m[0] for m in traj.moves), default=-1)
    grouped: List[List[TrajectoryMove]] = [
        [] for _ in range(max(passes, len(traj.kept)))
    ]
    for m in traj.moves:
        grouped[m[0]].append(m)
    return grouped


def compare_trajectories(
    a: Trajectory, b: Trajectory, tolerance: float = 1e-6
) -> Optional[Mismatch]:
    """The first divergence of trajectory ``a`` from ``b``, or ``None``.

    Pass by pass, ``a``'s moves must be ``b``'s, except that a pass of
    ``a`` may end early at exactly the move ``b.stops`` names for it:
    the first move at which the dead-cut stop rule holds.  Everything
    else must match in full: kept prefixes, pass cuts, sides and cut.
    """
    index = 0
    passes_a, passes_b = _moves_by_pass(a), _moves_by_pass(b)
    for k in range(max(len(passes_a), len(passes_b))):
        pa = passes_a[k] if k < len(passes_a) else []
        pb = passes_b[k] if k < len(passes_b) else []
        for ma, mb in zip(pa, pb):
            if ma[:2] != mb[:2] or abs(ma[2] - mb[2]) > tolerance:
                return Mismatch("move", index, ma, mb)
            index += 1
        if len(pa) < len(pb):
            stop = b.stops[k] if k < len(b.stops) else None
            if len(pa) != stop:
                return Mismatch("stop", index, len(pa), stop)
        elif len(pa) > len(pb):
            return Mismatch("length", index, len(pa), len(pb))
    if a.kept != b.kept:
        return Mismatch("kept", 0, a.kept, b.kept)
    for i, (ca, cb) in enumerate(zip(a.pass_cuts, b.pass_cuts)):
        if abs(ca - cb) > tolerance:
            return Mismatch("pass-cuts", i, ca, cb)
    if a.final_sides != b.final_sides:
        diff = [i for i, (sa, sb) in
                enumerate(zip(a.final_sides, b.final_sides)) if sa != sb]
        return Mismatch("sides", diff[0] if diff else -1,
                        len(a.final_sides), len(b.final_sides))
    if abs(a.final_cut - b.final_cut) > tolerance:
        return Mismatch("cut", 0, a.final_cut, b.final_cut)
    return None


# ---------------------------------------------------------------------------
# Reference runs (no incremental state whatsoever)
# ---------------------------------------------------------------------------
def _reference_pick(
    graph: Hypergraph,
    sides: List[int],
    locked: List[bool],
    weights: List[float],
    balance,
    gain_of,
) -> Optional[int]:
    """Selection rule shared by the tree-container engines.

    Per side, the best free node is the one maximizing ``(gain, node)``;
    across sides, candidates are tried in descending ``(gain, side,
    node)`` order and the first whose move keeps balance wins.
    """
    candidates = []
    for side in (0, 1):
        best = None
        for v in range(graph.num_nodes):
            if locked[v] or sides[v] != side:
                continue
            key = (gain_of(v), v)
            if best is None or key > best:
                best = key
        if best is not None:
            candidates.append((best[0], side, best[1]))
    candidates.sort(reverse=True)
    for _, side, node in candidates:
        if balance.move_allowed(weights, side, graph.node_weight(node)):
            return node
    return None


def _reference_run(
    graph: Hypergraph,
    initial_sides: Sequence[int],
    balance,
    gain_key_fn,
    algorithm: str,
    max_passes: int,
    min_pass_gain: float = 1e-9,
) -> Trajectory:
    """Generic from-scratch pass loop for deterministic-gain engines.

    ``gain_key_fn(sides, locked, node)`` returns the selection key of a
    free node (a float for FM, a vector for LA); its first element (or
    itself) is *not* assumed to be the immediate gain — realized gains
    come from :func:`reference.replay_moves` semantics, i.e. from-scratch
    cut deltas.  Every pass moves every movable node, as Fig. 2 does;
    ``stops`` records after how many moves a from-scratch dead-cut
    recount first licenses the engines' early end.
    """
    traj = Trajectory(algorithm=algorithm)
    sides = list(initial_sides)
    passes = 0
    while passes < max_passes:
        locked = [False] * graph.num_nodes
        weights = list(reference.side_weights(graph, sides))
        pass_nodes: List[int] = []
        pass_gains: List[float] = []
        state = list(sides)
        cut = start_cut = reference.cut_cost(graph, state)
        best = float("-inf")
        stop: Optional[int] = None
        while True:
            node = _reference_pick(
                graph, state, locked, weights, balance,
                lambda v: gain_key_fn(state, locked, v),
            )
            if node is None:
                break
            s = state[node]
            state[node] = 1 - s
            locked[node] = True
            w = graph.node_weight(node)
            weights[s] -= w
            weights[1 - s] += w
            new_cut = reference.cut_cost(graph, state)
            pass_nodes.append(node)
            pass_gains.append(cut - new_cut)
            cut = new_cut
            best = max(best, start_cut - cut)
            if stop is None and reference.stop_licensed(
                graph, start_cut, reference.dead_cut(graph, state, locked),
                best,
            ):
                stop = len(pass_nodes)
        p, gmax = reference.best_prefix(pass_gains)
        passes += 1
        for i, node in enumerate(pass_nodes):
            traj.moves.append((passes - 1, node, pass_gains[i]))
        traj.kept.append(p)
        traj.stops.append(stop)
        sides, kept_cut, _ = reference.replay_moves(
            graph, sides, pass_nodes[:p]
        )
        traj.pass_cuts.append(kept_cut)
        if gmax <= min_pass_gain or p == 0:
            break
    traj.final_sides = sides
    traj.final_cut = reference.cut_cost(graph, sides)
    return traj


def reference_fm_run(
    graph: Hypergraph,
    initial_sides: Sequence[int],
    balance,
    max_passes: int = 100,
) -> Trajectory:
    """Brute-force FM (tree tie-breaking): gains from Eqn. (1) every move."""
    return _reference_run(
        graph,
        initial_sides,
        balance,
        lambda sides, locked, v: reference.immediate_gain(graph, sides, v),
        algorithm="FM-reference",
        max_passes=max_passes,
    )


def reference_la_run(
    graph: Hypergraph,
    initial_sides: Sequence[int],
    balance,
    k: int = 2,
    max_passes: int = 100,
) -> Trajectory:
    """Brute-force LA-k: every vector recomputed before every move."""
    return _reference_run(
        graph,
        initial_sides,
        balance,
        lambda sides, locked, v: reference.la_gain_vector(
            graph, sides, locked, v, k
        ),
        algorithm=f"LA-{k}-reference",
        max_passes=max_passes,
    )


# ---------------------------------------------------------------------------
# Incremental-engine trajectory capture
# ---------------------------------------------------------------------------
def _capture(run_fn, graph, initial_sides, balance, algorithm, **kwargs):
    from ..telemetry import MemoryRecorder

    rec = MemoryRecorder()
    result = run_fn(graph, initial_sides, balance, recorder=rec, **kwargs)
    traj = Trajectory(algorithm=algorithm)
    traj.moves = [
        (m.pass_index, int(m.node), float(m.immediate_gain))
        for m in rec.moves
    ]
    # One pass event per pass, including a terminal pass in which no
    # move was balance-allowed (kept prefix 0).
    traj.kept = [p.kept for p in rec.passes]
    traj.pass_cuts = list(result.pass_cuts)
    traj.final_sides = list(result.sides)
    traj.final_cut = result.cut
    return traj


def fm_trajectory(
    graph: Hypergraph,
    initial_sides: Sequence[int],
    balance,
    max_passes: int = 100,
) -> Trajectory:
    """Trajectory of the incremental FM-tree engine."""
    from ..baselines.fm import run_fm

    return _capture(
        run_fm, graph, initial_sides, balance, "FM-tree",
        container="tree", max_passes=max_passes,
    )


def la_trajectory(
    graph: Hypergraph,
    initial_sides: Sequence[int],
    balance,
    k: int = 2,
    max_passes: int = 100,
) -> Trajectory:
    """Trajectory of the incremental LA-k engine."""
    from ..baselines.la import run_la

    return _capture(
        run_la, graph, initial_sides, balance, f"LA-{k}",
        k=k, max_passes=max_passes,
    )


# ---------------------------------------------------------------------------
# Seeded grids
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one incremental-vs-reference comparison."""

    label: str
    seed: int
    num_nodes: int
    num_moves: int
    mismatch: Optional[Mismatch]

    @property
    def ok(self) -> bool:
        return self.mismatch is None


def differential_fm(graph, initial_sides, balance, seed=0) -> DifferentialReport:
    """FM-tree incremental vs. brute-force reference, one instance."""
    inc = fm_trajectory(graph, initial_sides, balance)
    ref = reference_fm_run(graph, initial_sides, balance)
    return DifferentialReport(
        label="fm-tree", seed=seed, num_nodes=graph.num_nodes,
        num_moves=len(inc.moves), mismatch=compare_trajectories(inc, ref),
    )


def differential_la(graph, initial_sides, balance, k=2, seed=0) -> DifferentialReport:
    """LA-k incremental vs. brute-force reference, one instance."""
    inc = la_trajectory(graph, initial_sides, balance, k=k)
    ref = reference_la_run(graph, initial_sides, balance, k=k)
    return DifferentialReport(
        label=f"la-{k}", seed=seed, num_nodes=graph.num_nodes,
        num_moves=len(inc.moves), mismatch=compare_trajectories(inc, ref),
    )


def run_differential_grid(
    seeds: Sequence[int],
    *,
    max_nodes: int = 14,
    balance_spec: str = "50-50",
    checks: Sequence[str] = ("fm", "la2", "la3"),
) -> List[DifferentialReport]:
    """Run every requested differential over a seeded instance grid.

    Instances come from :func:`repro.testing.random_instance` with a
    seeded random balanced start, so any failure reproduces from
    ``(seed, max_nodes)`` alone.
    """
    from ..partition import BalanceConstraint, random_balanced_sides
    from ..testing import random_instance

    reports: List[DifferentialReport] = []
    for seed in seeds:
        graph = random_instance(seed, max_nodes=max_nodes)
        sides = random_balanced_sides(graph, seed)
        if balance_spec == "50-50":
            balance = BalanceConstraint.fifty_fifty(graph)
        else:
            lo, hi = balance_spec.split("-")
            balance = BalanceConstraint.from_fractions(
                graph, float(lo) / 100.0, float(hi) / 100.0
            )
        if "fm" in checks:
            reports.append(differential_fm(graph, sides, balance, seed=seed))
        if "la2" in checks:
            reports.append(differential_la(graph, sides, balance, k=2, seed=seed))
        if "la3" in checks:
            reports.append(differential_la(graph, sides, balance, k=3, seed=seed))
    return reports
