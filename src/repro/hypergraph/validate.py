"""Netlist linting and connectivity analysis.

Real netlists arrive with warts — duplicate nets, single-pin stubs,
isolated spare cells, disconnected blocks — that partitioners tolerate but
users should know about.  :func:`lint` produces a structured report;
:func:`connected_components` / :func:`is_connected` give the netlist's
connectivity.  The spectral baselines order each component on its own
(a disconnected Laplacian has a degenerate Fiedler vector); they take the
components from the clique Laplacian
(:func:`repro.baselines.spectral.laplacian.laplacian_components`), where a
zero-cost net joins nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List

from .hypergraph import Hypergraph


def connected_components(graph: Hypergraph) -> List[List[int]]:
    """Node sets of the connected components (via shared-net adjacency).

    Components are returned sorted by size (largest first), nodes sorted
    within each.  Isolated nodes form singleton components.
    """
    n = graph.num_nodes
    seen = [False] * n
    components: List[List[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for net_id in graph.node_nets(u):
                for v in graph.net(net_id):
                    if not seen[v]:
                        seen[v] = True
                        component.append(v)
                        queue.append(v)
        components.append(sorted(component))
    components.sort(key=len, reverse=True)
    return components


def is_connected(graph: Hypergraph) -> bool:
    """True when every node is reachable from every other."""
    if graph.num_nodes <= 1:
        return True
    return len(connected_components(graph)) == 1


@dataclass
class LintReport:
    """Findings of a netlist lint pass."""

    num_components: int
    isolated_nodes: List[int] = field(default_factory=list)
    single_pin_nets: List[int] = field(default_factory=list)
    duplicate_net_groups: List[List[int]] = field(default_factory=list)
    huge_nets: List[int] = field(default_factory=list)
    zero_cost_nets: List[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            self.num_components == 1
            and not self.isolated_nodes
            and not self.single_pin_nets
            and not self.duplicate_net_groups
            and not self.huge_nets
        )

    def summary(self) -> str:
        """Human-readable multi-line summary of the findings."""
        lines = [
            f"components: {self.num_components}"
            + ("" if self.num_components == 1 else "  (disconnected!)"),
        ]
        if self.isolated_nodes:
            lines.append(f"isolated nodes: {len(self.isolated_nodes)}")
        if self.single_pin_nets:
            lines.append(f"single-pin nets: {len(self.single_pin_nets)}")
        if self.duplicate_net_groups:
            dups = sum(len(g) - 1 for g in self.duplicate_net_groups)
            lines.append(f"duplicate nets: {dups}")
        if self.huge_nets:
            lines.append(f"huge nets (>10% of nodes): {len(self.huge_nets)}")
        if self.zero_cost_nets:
            lines.append(f"zero-cost nets: {len(self.zero_cost_nets)}")
        if self.clean:
            lines.append("netlist is clean")
        return "\n".join(lines)


def lint(graph: Hypergraph, huge_net_fraction: float = 0.1) -> LintReport:
    """Inspect ``graph`` for the usual netlist warts.

    ``huge_net_fraction``: nets touching more than this fraction of all
    nodes are flagged (clock/reset/power-like; most flows filter them
    before clustering — see
    :func:`repro.hypergraph.transforms.remove_large_nets`).
    """
    if not 0.0 < huge_net_fraction <= 1.0:
        raise ValueError("huge_net_fraction must be in (0, 1]")

    duplicate_groups: Dict[tuple, List[int]] = {}
    single_pin: List[int] = []
    huge: List[int] = []
    zero_cost: List[int] = []
    threshold = max(2, int(graph.num_nodes * huge_net_fraction))
    for net_id, pins in enumerate(graph.nets):
        key = tuple(sorted(pins))
        duplicate_groups.setdefault(key, []).append(net_id)
        if len(pins) == 1:
            single_pin.append(net_id)
        if len(pins) > threshold:
            huge.append(net_id)
        if graph.net_cost(net_id) == 0.0:
            zero_cost.append(net_id)

    return LintReport(
        num_components=len(connected_components(graph)),
        isolated_nodes=graph.isolated_nodes(),
        single_pin_nets=single_pin,
        duplicate_net_groups=[
            sorted(g) for g in duplicate_groups.values() if len(g) > 1
        ],
        huge_nets=huge,
        zero_cost_nets=zero_cost,
    )
