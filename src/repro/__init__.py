"""PROP — probability-based VLSI circuit partitioning.

A complete, from-scratch reproduction of

    Shantanu Dutt and Wenyong Deng,
    "A Probability-Based Approach to VLSI Circuit Partitioning",
    Proc. 33rd Design Automation Conference (DAC), 1996.

Top-level surface (the most common entry points)::

    from repro import (
        Hypergraph, PropPartitioner, PropConfig, BalanceConstraint,
        FMPartitioner, LAPartitioner, run_many,
    )

Subpackages:

* ``repro.hypergraph``   — netlist data structure, I/O, circuit generators
* ``repro.datastructures`` — gain containers (heap, AVL tree, FM buckets),
  pass journal
* ``repro.partition``    — partition state, balance, metrics
* ``repro.core``         — PROP itself (the paper's contribution)
* ``repro.kernels``      — vectorized gain kernels (CSR view, sub-round pass)
* ``repro.baselines``    — FM, LA, KL, EIG1, MELO, WINDOW, PARABOLI
* ``repro.multirun``     — best-of-N run protocol
* ``repro.engine``       — parallel work-unit execution engine + result cache
* ``repro.faults``       — seeded deterministic fault injection (chaos testing)
* ``repro.audit``        — runtime invariant auditing + differential oracles
* ``repro.telemetry``    — zero-overhead-when-off tracing of the pass engines
* ``repro.testing``      — shared hypothesis strategies and seeded instances
* ``repro.kway``         — recursive k-way partitioning
* ``repro.timing``       — timing-driven net weighting
* ``repro.fpga``         — multi-FPGA partitioning flow
* ``repro.experiments``  — regeneration of the paper's tables and Figure 1
"""

# numpy loads before any repro module.  Every ``import repro`` loads it
# anyway, for the kernels; loaded later, from inside repro.kernels, it
# measured 1-2 ms slower per cold start on a 2-vCPU x86 host, partly in
# cyclic-GC passes over the repro objects already alive.
import numpy  # noqa: F401

from .audit import AuditConfig, InvariantViolation
from .baselines import (
    AnnealingPartitioner,
    Eig1Partitioner,
    FMPartitioner,
    KLPartitioner,
    LAPartitioner,
    MeloPartitioner,
    ParaboliPartitioner,
    RandomPartitioner,
    WindowPartitioner,
)
from .core import (
    PAPER_CONFIG,
    PropConfig,
    PropPartitioner,
    TwoPhasePropPartitioner,
    prop_bisect,
)
from .hypergraph import (
    Hypergraph,
    HypergraphBuilder,
    HypergraphError,
    benchmark_suite,
    compute_stats,
    make_benchmark,
)
from .multilevel import MultilevelPartitioner
from .multirun import MultiRunResult, run_many
from .partition import (
    BalanceConstraint,
    BipartitionResult,
    Partition,
    cut_cost,
)
from .telemetry import (
    MemoryRecorder,
    NullRecorder,
    Recorder,
    TraceRecorder,
    summarize_path,
)

#: Participates in every engine cache key: bumping it invalidates the
#: on-disk result cache (see repro.engine.cache).
__version__ = "1.17.0"

from .engine import Engine, EngineConfig, WorkUnit  # noqa: E402 - engine cache keys need __version__ defined first
from .faults import FaultPlan, FaultSpec, injected_faults  # noqa: E402

__all__ = [
    "__version__",
    # netlists
    "Hypergraph",
    "HypergraphBuilder",
    "HypergraphError",
    "make_benchmark",
    "benchmark_suite",
    "compute_stats",
    # partition substrate
    "Partition",
    "BalanceConstraint",
    "BipartitionResult",
    "cut_cost",
    # PROP
    "PropPartitioner",
    "TwoPhasePropPartitioner",
    "PropConfig",
    "PAPER_CONFIG",
    "prop_bisect",
    # baselines
    "FMPartitioner",
    "LAPartitioner",
    "KLPartitioner",
    "Eig1Partitioner",
    "MeloPartitioner",
    "WindowPartitioner",
    "ParaboliPartitioner",
    "RandomPartitioner",
    "AnnealingPartitioner",
    "MultilevelPartitioner",
    # harness
    "run_many",
    "MultiRunResult",
    # execution engine
    "Engine",
    "EngineConfig",
    "WorkUnit",
    # fault injection
    "FaultPlan",
    "FaultSpec",
    "injected_faults",
    # invariant auditing
    "AuditConfig",
    "InvariantViolation",
    # telemetry
    "Recorder",
    "NullRecorder",
    "MemoryRecorder",
    "TraceRecorder",
    "summarize_path",
]
