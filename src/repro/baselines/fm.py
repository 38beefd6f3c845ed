"""Fidducia–Mattheyses iterative-improvement bisection.

The classic linear-time netlist partitioner [Fidducia & Mattheyses 1982],
implemented in both variants the paper times in Table 4:

* **FM-bucket** — the original O(1) gain-bucket data structure; requires
  unit net costs (integer gains in ±p_max).
* **FM-tree** — the same algorithm with an AVL-tree gain container; works
  for arbitrary net costs (the structure FM must fall back to for
  timing-driven weighting, paper Sec. 4) at Θ(n d log n) per pass.

Node gains follow Eqn. (1): ``gain(u) = Σ c(E(u)) − Σ c(I(u))`` — the
immediate cut decrease if ``u`` moved now.  After each move the standard
FM delta rules touch only pins of *critical* nets, keeping updates O(pins).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..audit import AuditConfig
from ..datastructures import BucketGainContainer, TreeGainContainer
from ..hypergraph import Hypergraph
from ..kernels import CsrView, fm_gains, resolve_kernel
from ..partition import (
    BalanceConstraint,
    BipartitionResult,
    Partition,
    random_balanced_sides,
)
from ..passes import GainPolicy, run_passes
from ..telemetry import PassCounters, Recorder

Container = Union[BucketGainContainer, TreeGainContainer]

#: Safety cap; FM empirically converges in 2–4 passes (paper Sec. 2).
DEFAULT_MAX_PASSES = 100


def _make_containers(
    graph: Hypergraph, container: str
) -> Tuple[Container, Container]:
    if container == "bucket":
        max_gain = max(
            (graph.node_degree(v) for v in range(graph.num_nodes)), default=1
        )
        max_gain = max(max_gain, 1)
        return (
            BucketGainContainer(graph.num_nodes, max_gain),
            BucketGainContainer(graph.num_nodes, max_gain),
        )
    return TreeGainContainer(), TreeGainContainer()


def _apply_delta(
    containers: Tuple[Container, Container],
    partition: Partition,
    node: int,
    delta: float,
    counters: Optional[PassCounters] = None,
) -> None:
    if delta == 0:
        return
    if counters is not None:
        counters.neighbor_updates += 1
        counters.container_updates += 1
    side = partition.side(node)
    container = containers[side]
    if isinstance(container, BucketGainContainer):
        container.adjust(node, int(delta))
    else:
        container.update(node, container.gain_of(node) + delta)


def _move_with_gain_updates(
    moved: int,
    from_side: int,
    partition: Partition,
    containers: Tuple[Container, Container],
    counters: Optional[PassCounters] = None,
) -> float:
    """Move ``moved``, lock it, and apply the FM critical-net delta rules.

    The "before" rules run against pin counts prior to the move, the
    "after" rules against counts following it; only pins of critical nets
    (nets with 0 or 1 pins on one side) are touched, which is what makes
    FM's updates O(pins of the moved node).  Returns the realized
    immediate gain of the move.
    """
    graph = partition.graph
    to_side = 1 - from_side

    for net_id in graph.node_nets(moved):
        cost = graph.net_cost(net_id)
        to_count = partition.count(net_id, to_side)
        if to_count == 0:
            # Net was entirely on from_side: every other free pin gains the
            # option of keeping the net uncut by following the move.
            for v in graph.net(net_id):
                if v != moved and not partition.is_locked(v):
                    _apply_delta(containers, partition, v, +cost, counters)
        elif to_count == 1:
            # The single to_side pin loses its "sole pin" bonus.
            for v in graph.net(net_id):
                if (
                    v != moved
                    and partition.side(v) == to_side
                    and not partition.is_locked(v)
                ):
                    _apply_delta(containers, partition, v, -cost, counters)
                    break

    realized = partition.move(moved)

    for net_id in graph.node_nets(moved):
        cost = graph.net_cost(net_id)
        from_count = partition.count(net_id, from_side)
        if from_count == 0:
            # Net now entirely on to_side: other pins would newly cut it.
            for v in graph.net(net_id):
                if v != moved and not partition.is_locked(v):
                    _apply_delta(containers, partition, v, -cost, counters)
        elif from_count == 1:
            # The single remaining from_side pin becomes the sole pin.
            for v in graph.net(net_id):
                if (
                    v != moved
                    and partition.side(v) == from_side
                    and not partition.is_locked(v)
                ):
                    _apply_delta(containers, partition, v, +cost, counters)
                    break

    partition.lock(moved)
    return realized


class FMGains(GainPolicy):
    """FM's gain rule for the sequential move loop: Eqn. (1) keys, kept
    exact by the critical-net delta rules after every move.

    A ``csr`` view switches the pass-start gain sweep to the vectorized
    kernel — bit-identical values either way.
    """

    def __init__(
        self,
        partition: Partition,
        container: str = "bucket",
        csr: Optional[CsrView] = None,
    ) -> None:
        if container == "bucket" and not partition.graph.has_unit_net_costs:
            raise ValueError(
                "FM-bucket requires unit net costs; use container='tree'"
            )
        super().__init__(partition, csr)
        self.container = container

    def new_containers(self) -> Tuple[Container, Container]:
        return _make_containers(self.partition.graph, self.container)

    def initial_keys(self) -> List[float]:
        partition = self.partition
        if self.csr is not None:
            gains = fm_gains(
                self.csr,
                np.asarray(partition.sides_view(), dtype=np.intp),
                np.asarray(partition.counts_view(0), dtype=np.int64),
                np.asarray(partition.counts_view(1), dtype=np.int64),
            ).tolist()
        else:
            gains = [
                partition.immediate_gain(v)
                for v in range(partition.graph.num_nodes)
            ]
        if self.container == "bucket":
            return [int(g) for g in gains]
        return gains

    def apply_move(self, node, from_side, containers, counters) -> float:
        return _move_with_gain_updates(
            node, from_side, self.partition, containers, counters
        )

    def audit(self, auditor, containers) -> None:
        auditor.check_fm_gains(self.partition, containers)


def run_fm(
    graph: Hypergraph,
    initial_sides: Sequence[int],
    balance: BalanceConstraint,
    container: str = "bucket",
    max_passes: int = DEFAULT_MAX_PASSES,
    seed: Optional[int] = None,
    audit: Optional[AuditConfig] = None,
    recorder: Optional[Recorder] = None,
    kernel: Optional[str] = None,
    subround_workers: int = 0,
) -> BipartitionResult:
    """Run FM from an explicit initial partition.

    ``audit`` attaches a read-only invariant auditor (see
    :mod:`repro.audit`); ``None`` defers to ``REPRO_AUDIT``.  FM's
    delta-rule updates keep every container gain exact, so the audited
    invariant is full equality with Eqn. (1) for every free node.  Time
    spent in audit hooks is excluded from ``runtime_seconds`` and
    reported as the ``audit_seconds`` stat.

    ``recorder`` attaches a :class:`repro.telemetry.Recorder` (spans,
    per-move events, counters); recording never changes moves or cuts.

    ``kernel`` selects the gain backend (see :mod:`repro.kernels`;
    ``None`` means ``"auto"``).  The python/numpy backends are
    bit-identical, so moves and cuts never depend on choosing between
    them; ``"subround"`` switches the pass loop to deterministic batched
    sub-rounds (:mod:`repro.kernels.subround`) — worker-count-invariant,
    but a different move interleaving than the sequential loop.
    Sub-rounds select moves by one vectorized sweep per round, not from
    a gain container, so ``container`` only names the run there.
    ``subround_workers`` fans that kernel's sweeps over shared-memory
    workers (0/1 = inline); it never affects results.
    """
    if container not in ("bucket", "tree"):
        raise ValueError(
            f"unknown container {container!r} (want 'bucket' or 'tree')"
        )
    start = time.perf_counter()
    partition = Partition(graph, initial_sides)
    kernel_name = resolve_kernel(kernel, num_pins=graph.num_pins)
    if kernel_name == "subround":
        from ..kernels.subround import SubroundFMEngine

        engine = SubroundFMEngine(partition, seed, workers=subround_workers)
    else:
        csr = CsrView(graph) if kernel_name == "numpy" else None
        engine = FMGains(partition, container, csr)
    return run_passes(
        engine, balance, algorithm=f"FM-{container}", seed=seed,
        max_passes=max_passes, min_pass_gain=1e-9,
        audit=audit, recorder=recorder, start=start,
    )


class FMPartitioner:
    """Fidducia–Mattheyses partitioner (bucket or tree gain container)."""

    #: FM accepts a per-call ``audit`` config (see :mod:`repro.audit`).
    supports_audit = True

    #: FM accepts a per-call ``recorder`` (see :mod:`repro.telemetry`).
    supports_telemetry = True

    def __init__(
        self,
        container: str = "bucket",
        max_passes: int = DEFAULT_MAX_PASSES,
        kernel: str = "auto",
        subround_workers: int = 0,
    ) -> None:
        if container not in ("bucket", "tree"):
            raise ValueError(f"unknown container {container!r}")
        self.container = container
        self.max_passes = max_passes
        # Underscore-prefixed: the sequential gain kernels cannot change
        # results, so they must stay out of the experiment-cache
        # fingerprint (which hashes only public attributes — see
        # repro.engine.units).  The subround kernel *does* change move
        # interleaving, so selecting it sets a public family marker that
        # keys its runs separately.
        self._kernel = kernel
        self._subround_workers = subround_workers
        if kernel == "subround":
            self.kernel_family = "subround"

    @property
    def kernel(self) -> str:
        """Configured gain-kernel backend (see :mod:`repro.kernels`)."""
        return self._kernel

    @property
    def name(self) -> str:
        return f"FM-{self.container}"

    def partition(
        self,
        graph: Hypergraph,
        balance: Optional[BalanceConstraint] = None,
        initial_sides: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
        audit: Optional[AuditConfig] = None,
        recorder: Optional[Recorder] = None,
    ) -> BipartitionResult:
        """Bisect ``graph`` with FM (50-50 balance and seeded random start by default)."""
        if balance is None:
            balance = BalanceConstraint.fifty_fifty(graph)
        if initial_sides is None:
            initial_sides = random_balanced_sides(graph, seed)
        result = run_fm(
            graph,
            initial_sides,
            balance,
            container=self.container,
            max_passes=self.max_passes,
            seed=seed,
            audit=audit,
            recorder=recorder,
            kernel=self._kernel,
            subround_workers=self._subround_workers,
        )
        result.verify(graph)
        return result
