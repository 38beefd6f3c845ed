"""Min-cut placement by recursive bisection.

The paper's introduction motivates 2-way min-cut partitioning as "a
fundamental tool for obtaining good VLSI cell placement"; this module is
that consumer: the classic Breuer-style min-cut placer.  The chip is a
rectangle; the netlist is recursively bisected (PROP by default), each
half assigned to a half-region, alternating cut direction with region
aspect ratio, until regions hold at most ``leaf_cells`` nodes, which are
then spread on a grid inside their region.

Quality is measured with the standard half-perimeter wirelength (HPWL);
``examples/placement_flow.py`` demonstrates that better partitioners
(PROP vs FM vs random) produce measurably shorter wirelength through this
flow — the indirect benefit the paper's Sec. 1 promises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core import PropPartitioner
from ..hypergraph import Hypergraph, induced_subhypergraph
from ..multirun.runner import Partitioner
from ..partition import BalanceConstraint, random_balanced_sides


@dataclass(frozen=True)
class Region:
    """An axis-aligned placement region (unit-square coordinates)."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    def split(self, vertical: bool) -> Tuple["Region", "Region"]:
        """Halve the region; vertical=True cuts with a vertical line."""
        if vertical:
            mid = (self.x0 + self.x1) / 2
            return (
                Region(self.x0, self.y0, mid, self.y1),
                Region(mid, self.y0, self.x1, self.y1),
            )
        mid = (self.y0 + self.y1) / 2
        return (
            Region(self.x0, self.y0, self.x1, mid),
            Region(self.x0, mid, self.x1, self.y1),
        )


@dataclass
class Placement:
    """Node coordinates inside the unit square, plus the source netlist."""

    graph: Hypergraph
    x: List[float]
    y: List[float]

    def position(self, node: int) -> Tuple[float, float]:
        """(x, y) coordinates of ``node``."""
        return self.x[node], self.y[node]

    def hpwl(self) -> float:
        """Total half-perimeter wirelength over all nets."""
        total = 0.0
        for net_id, pins in enumerate(self.graph.nets):
            if len(pins) < 2:
                continue
            xs = [self.x[v] for v in pins]
            ys = [self.y[v] for v in pins]
            total += self.graph.net_cost(net_id) * (
                (max(xs) - min(xs)) + (max(ys) - min(ys))
            )
        return total

    def net_hpwl(self, net_id: int) -> float:
        """Half-perimeter wirelength of one net."""
        pins = self.graph.net(net_id)
        xs = [self.x[v] for v in pins]
        ys = [self.y[v] for v in pins]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def check_in_bounds(self) -> None:
        """Assert all coordinates lie in the unit square (test helper)."""
        for v in range(self.graph.num_nodes):
            assert -1e-9 <= self.x[v] <= 1 + 1e-9, f"node {v} x out of square"
            assert -1e-9 <= self.y[v] <= 1 + 1e-9, f"node {v} y out of square"


def _spread_in_region(nodes: Sequence[int], region: Region, placement: Placement) -> None:
    """Grid-place leaf nodes inside their region (row-major)."""
    count = len(nodes)
    if count == 0:
        return
    cols = max(1, math.ceil(math.sqrt(count)))
    rows = max(1, math.ceil(count / cols))
    for idx, node in enumerate(nodes):
        r, c = divmod(idx, cols)
        placement.x[node] = region.x0 + region.width * (c + 0.5) / cols
        placement.y[node] = region.y0 + region.height * (r + 0.5) / rows


def mincut_placement(
    graph: Hypergraph,
    partitioner: Optional[Partitioner] = None,
    leaf_cells: int = 4,
    balance_tolerance: float = 0.1,
    seed: int = 0,
    terminal_propagation: bool = False,
) -> Placement:
    """Place ``graph`` in the unit square by recursive min-cut bisection.

    Parameters
    ----------
    partitioner:
        Inner 2-way engine (PROP by default); any library partitioner works.
    leaf_cells:
        Regions with at most this many nodes are grid-placed directly.
    balance_tolerance:
        Per-split fractional imbalance allowed (tighter -> squarer
        distribution, looser -> smaller cuts).
    terminal_propagation:
        Dunlop–Kernighan terminal propagation: nets crossing out of the
        current region pull their local pins toward the half-region
        nearest the external pins' current position estimates, so each
        bisection minimizes *wirelength*, not just the local cut.
    """
    if leaf_cells < 1:
        raise ValueError("leaf_cells must be >= 1")
    if not 0.0 < balance_tolerance < 1.0:
        raise ValueError("balance_tolerance must be in (0, 1)")
    if partitioner is None:
        partitioner = PropPartitioner()

    placement = Placement(
        graph=graph,
        x=[0.5] * graph.num_nodes,
        y=[0.5] * graph.num_nodes,
    )
    _place(
        graph,
        list(range(graph.num_nodes)),
        Region(0.0, 0.0, 1.0, 1.0),
        placement,
        partitioner,
        leaf_cells,
        balance_tolerance,
        seed,
        terminal_propagation,
    )
    return placement


def _place(
    graph: Hypergraph,
    nodes: List[int],
    region: Region,
    placement: Placement,
    partitioner: Partitioner,
    leaf_cells: int,
    tolerance: float,
    seed: int,
    terminals: bool = False,
) -> None:
    # Coarse position estimate for every node in this region (outside
    # readers — terminal propagation at sibling regions — use these).
    cx = (region.x0 + region.x1) / 2
    cy = (region.y0 + region.y1) / 2
    for v in nodes:
        placement.x[v] = cx
        placement.y[v] = cy

    if len(nodes) <= leaf_cells:
        _spread_in_region(nodes, region, placement)
        return

    vertical = region.width >= region.height
    left_region, right_region = region.split(vertical)

    if terminals:
        sides = _bisect_with_terminals(
            graph, nodes, placement, partitioner, tolerance, seed,
            left_region, right_region,
        )
    else:
        sides = _bisect_plain(graph, nodes, partitioner, tolerance, seed)

    left = [nodes[i] for i, s in enumerate(sides) if s == 0]
    right = [nodes[i] for i, s in enumerate(sides) if s == 1]
    _place(graph, left, left_region, placement, partitioner,
           leaf_cells, tolerance, seed * 2 + 1, terminals)
    _place(graph, right, right_region, placement, partitioner,
           leaf_cells, tolerance, seed * 2 + 2, terminals)


def _bisect_plain(
    graph: Hypergraph,
    nodes: List[int],
    partitioner: Partitioner,
    tolerance: float,
    seed: int,
) -> List[int]:
    """Local min-cut bisection, blind to the rest of the chip."""
    sub = induced_subhypergraph(graph, nodes)
    if sub.graph.num_nets == 0:
        # Degenerate pocket with no internal connectivity: any split works.
        return random_balanced_sides(sub.graph, seed)
    balance = BalanceConstraint.from_fractions(
        sub.graph, 0.5 - tolerance / 2, 0.5 + tolerance / 2
    )
    return partitioner.partition(sub.graph, balance=balance, seed=seed).sides


def _bisect_with_terminals(
    graph: Hypergraph,
    nodes: List[int],
    placement: Placement,
    partitioner: Partitioner,
    tolerance: float,
    seed: int,
    left_region: Region,
    right_region: Region,
) -> List[int]:
    """Bisection with Dunlop–Kernighan terminal propagation.

    Two immovable *anchor* nodes represent the two half-regions; every net
    crossing out of the region gains a pin on the anchor whose half-region
    center is nearer the external pins' current position estimate.
    Anchors are pinned by weight: heavier than the balance window, so no
    feasible move can relocate them.
    """
    sub = induced_subhypergraph(graph, nodes, keep_dangling=True)
    node_set = set(nodes)
    n_real = sub.graph.num_nodes

    real_total = sum(graph.node_weight(v) for v in nodes)
    tol_abs = max(
        tolerance * real_total / 2.0,
        max(graph.node_weight(v) for v in nodes),
    )
    anchor_weight = 2.0 * tol_abs + 1.0

    centers = (
        ((left_region.x0 + left_region.x1) / 2,
         (left_region.y0 + left_region.y1) / 2),
        ((right_region.x0 + right_region.x1) / 2,
         (right_region.y0 + right_region.y1) / 2),
    )

    nets: List[List[int]] = []
    costs: List[float] = []
    anchor0, anchor1 = n_real, n_real + 1
    for sub_net_id, pins in enumerate(sub.graph.nets):
        parent_id = sub.net_to_parent[sub_net_id]
        parent_pins = graph.net(parent_id)
        outside = [v for v in parent_pins if v not in node_set]
        new_pins = list(pins)
        if outside:
            ox = sum(placement.x[v] for v in outside) / len(outside)
            oy = sum(placement.y[v] for v in outside) / len(outside)
            dist0 = (ox - centers[0][0]) ** 2 + (oy - centers[0][1]) ** 2
            dist1 = (ox - centers[1][0]) ** 2 + (oy - centers[1][1]) ** 2
            new_pins.append(anchor0 if dist0 <= dist1 else anchor1)
        if len(new_pins) >= 2:
            nets.append(new_pins)
            costs.append(sub.graph.net_cost(sub_net_id))

    anchored = Hypergraph(
        nets,
        num_nodes=n_real + 2,
        net_costs=costs,
        node_weights=list(sub.graph.node_weights)
        + [anchor_weight, anchor_weight],
    )
    if anchored.num_nets == 0:
        return random_balanced_sides(sub.graph, seed)

    # Each side holds one anchor plus half the real weight (± tolerance).
    balance = BalanceConstraint(
        lo=anchor_weight + real_total / 2.0 - tol_abs,
        hi=anchor_weight + real_total / 2.0 + tol_abs,
        total=anchored.total_node_weight,
    )
    initial = random_balanced_sides(sub.graph, seed) + [0, 1]
    result = partitioner.partition(
        anchored, balance=balance, initial_sides=initial, seed=seed
    )
    # Anchors cannot have moved (their weight exceeds the window)...
    assert result.sides[anchor0] == 0 and result.sides[anchor1] == 1
    return result.sides[:n_real]


def random_placement(graph: Hypergraph, seed: int = 0) -> Placement:
    """Uniform-random placement — the wirelength baseline."""
    import random as _random

    rng = _random.Random(seed)
    return Placement(
        graph=graph,
        x=[rng.random() for _ in range(graph.num_nodes)],
        y=[rng.random() for _ in range(graph.num_nodes)],
    )
