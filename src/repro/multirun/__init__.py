"""Multi-start run protocol (best-of-N with sequential seeds)."""

from .runner import (
    PAPER_RUN_COUNTS,
    Cell,
    MultiRunResult,
    Partitioner,
    effective_runs,
    run_cells,
    run_many,
)

__all__ = [
    "run_many",
    "run_cells",
    "Cell",
    "MultiRunResult",
    "Partitioner",
    "PAPER_RUN_COUNTS",
    "effective_runs",
]
