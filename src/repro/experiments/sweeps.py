"""Parameter sweeps over PROP's configuration space.

The ablation benches probe one knob at a time; this module provides the
general machinery — sweep any subset of :class:`~repro.core.PropConfig`
fields over value grids, run the multi-start protocol for each point, and
tabulate.  Used by ``benchmarks/test_ablations.py`` successors and by
users tuning PROP for their own netlists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import PropConfig, PropPartitioner
from ..hypergraph import Hypergraph
from ..multirun import Cell, run_cells
from ..partition import BalanceConstraint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine import Engine


@dataclass(frozen=True)
class SweepPoint:
    """One configuration point and its measured outcome.

    ``phase_seconds`` sums per-phase pass-engine timings over the point's
    runs (see :data:`repro.telemetry.PHASE_STAT_KEYS`); empty for results
    recorded before phase timing existed.
    """

    overrides: Tuple[Tuple[str, Any], ...]
    best_cut: float
    mean_cut: float
    seconds_per_run: float
    phase_seconds: Tuple[Tuple[str, float], ...] = ()

    def phase_dict(self) -> Dict[str, float]:
        """The per-phase timings as a plain {phase_stat: seconds} dict."""
        return dict(self.phase_seconds)

    def override_dict(self) -> Dict[str, Any]:
        """The grid point as a plain {field: value} dict."""
        return dict(self.overrides)


@dataclass
class SweepResult:
    """All points of one sweep, with convenience accessors."""

    circuit: str
    runs_per_point: int
    points: List[SweepPoint] = field(default_factory=list)

    def best_point(self) -> SweepPoint:
        """The point with the lowest best cut (mean cut breaks ties)."""
        if not self.points:
            raise ValueError("empty sweep")
        return min(self.points, key=lambda p: (p.best_cut, p.mean_cut))

    def format_text(self) -> str:
        """Fixed-width text table of every sweep point."""
        if not self.points:
            return "(empty sweep)"
        keys = [k for k, _ in self.points[0].overrides]
        header = (
            "  ".join(f"{k:>22s}" for k in keys)
            + f"{'best':>8s}{'mean':>9s}{'s/run':>8s}"
        )
        lines = [f"sweep on {self.circuit} ({self.runs_per_point} runs/point)",
                 header, "-" * len(header)]
        for p in self.points:
            cells = "  ".join(
                f"{str(v):>22s}" for _, v in p.overrides
            )
            lines.append(
                f"{cells}{p.best_cut:>8.0f}{p.mean_cut:>9.1f}"
                f"{p.seconds_per_run:>8.3f}"
            )
        return "\n".join(lines)


def sweep_prop_config(
    graph: Hypergraph,
    grid: Mapping[str, Sequence[Any]],
    base_config: Optional[PropConfig] = None,
    runs: int = 3,
    balance: Optional[BalanceConstraint] = None,
    base_seed: int = 0,
    circuit_name: str = "",
    engine: Optional["Engine"] = None,
) -> SweepResult:
    """Cartesian sweep of PropConfig fields.

    ``grid`` maps field names to candidate values, e.g.
    ``{"refinement_iterations": [0, 1, 2, 4], "pinit": [0.8, 0.95]}``.
    Invalid field names or values surface as the usual PropConfig
    validation errors at sweep-construction time (fail fast, before any
    compute is spent).

    The whole (config point × seed) grid runs as one batch
    (:func:`repro.multirun.run_cells`); with ``engine`` given every worker
    stays busy across point boundaries, and the engine's cache memoizes
    repeated points across sweeps.  The measured cuts are bit-identical
    either way.  Under an error-collecting engine each point folds its
    surviving runs; a point whose runs all failed raises ``ValueError``.
    """
    if not grid:
        raise ValueError("empty sweep grid")
    if base_config is None:
        base_config = PropConfig()
    if engine is None:
        from .tables import engine_from_env

        engine = engine_from_env()

    keys = list(grid)
    combos = list(itertools.product(*(grid[k] for k in keys)))
    # Validate every configuration before running anything.
    configs = [
        base_config.with_overrides(**dict(zip(keys, combo)))
        for combo in combos
    ]
    cells = [
        Cell(PropPartitioner(config), graph, runs, balance, base_seed,
             circuit_name, tag=f"{circuit_name}#{point}")
        for point, config in enumerate(configs)
    ]

    result = SweepResult(circuit=circuit_name, runs_per_point=runs)
    for combo, outcome in zip(combos, run_cells(cells, engine)):
        result.points.append(
            SweepPoint(
                overrides=tuple(zip(keys, combo)),
                best_cut=outcome.best_cut,
                mean_cut=outcome.mean_cut,
                seconds_per_run=outcome.seconds_per_run,
                phase_seconds=tuple(sorted(outcome.phase_seconds.items())),
            )
        )
    return result
