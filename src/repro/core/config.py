"""PROP configuration (paper Secs. 3.2–3.4 and the Sec. 4 defaults).

The default values are exactly the ones the paper reports using for both
balance regimes: "single moves, AVL tree data structure, pinit = 0.95,
pmax = 0.95, pmin = 0.4, the linear probability function, gup = 1, and
glo = −1" — plus 2 gain↔probability refinement iterations (Sec. 3) and the
"few, say, five" top-node updates after each move (Sec. 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict


#: Bootstrap-probability methods (paper Sec. 3, the "chicken-and-egg" start).
INIT_METHODS = ("pinit", "deterministic")

#: Probability functions f: gain -> [pmin, pmax] (Sec. 3.2 suggests linear;
#: sigmoid is provided for the ablation benches).
PROBABILITY_FUNCTIONS = ("linear", "sigmoid")

#: Pass engines for PROP and FM (see :mod:`repro.kernels`): "auto" runs
#: the paper's sequential pass, whose pass-start gain sweep each engine
#: picks for itself; "subround" replaces the pass loop with
#: deterministic batched sub-rounds (:mod:`repro.kernels.subround`).
#: That changes move interleaving and hence results, so it enters
#: experiment-cache fingerprints, via :meth:`PropConfig.fingerprint_extra`.
KERNELS = ("auto", "subround")

@dataclass(frozen=True)
class PropConfig:
    """All knobs of the PROP partitioner.

    Attributes
    ----------
    pinit:
        Initial node-move probability used by the "blind" bootstrap
        (Sec. 3, first method).
    pmax / pmin:
        Probability clamp: node probabilities always lie in
        ``[pmin, pmax]``; the paper requires ``pmin > 0`` (footnote 3) so
        that no move is deemed impossible.
    gup / glo:
        Gain thresholds (Sec. 3.2): gains >= ``gup`` map to ``pmax``,
        gains < ``glo`` map to ``pmin``.
    probability_function:
        ``"linear"`` (paper) or ``"sigmoid"`` (ablation).
    init_method:
        ``"pinit"`` — all nodes start at ``pinit``; ``"deterministic"`` —
        probabilities bootstrapped from FM deterministic gains (Sec. 3,
        second method).
    refinement_iterations:
        Number of gain↔probability refinement cycles before moving
        (the paper uses 2).
    top_update_count:
        How many top-ranked nodes per side get a full gain recomputation
        after every move (the paper uses ~5).
    max_passes:
        Safety cap on improvement passes; the loop normally exits when a
        pass yields ``Gmax <= 0`` (empirically 2–4 passes).
    min_pass_gain:
        A pass must improve the cut by more than this to continue
        (guards against infinite loops with tiny float net costs).
    kernel:
        Pass engine — see :data:`KERNELS`.  ``"subround"`` changes
        results and is fingerprinted via :meth:`fingerprint_extra`.
    subround_workers:
        Shared-memory workers for the ``"subround"`` kernel (0/1 = run
        the sweeps inline).  Never affects results — the sub-round
        kernels are chunk-invariant — only wall-clock; ignored by the
        other kernels.
    subround_batch_fraction:
        Fraction of the remaining free nodes one sub-round may move (at
        least one node always moves).  Affects results when
        ``kernel="subround"`` (smaller batches track the sequential
        algorithm more closely); fingerprinted via
        :meth:`fingerprint_extra` in exactly that case.
    """

    pinit: float = 0.95
    pmax: float = 0.95
    pmin: float = 0.4
    gup: float = 1.0
    glo: float = -1.0
    probability_function: str = "linear"
    init_method: str = "pinit"
    refinement_iterations: int = 2
    top_update_count: int = 5
    max_passes: int = 100
    min_pass_gain: float = 1e-9
    kernel: str = "auto"
    subround_workers: int = 0
    subround_batch_fraction: float = 0.1

    #: Fields that cannot affect results and are therefore skipped by the
    #: experiment-cache fingerprint (see :mod:`repro.engine.units`).  Not
    #: a dataclass field (no annotation) — a class-level constant.
    #: ``kernel`` and ``subround_batch_fraction`` are listed here so
    #: sequential runs keep their keys; when the subround kernel is
    #: selected (the only case where they matter)
    #: :meth:`fingerprint_extra` adds a family marker and the batch
    #: fraction to the key.
    _RESULT_NEUTRAL_FIELDS = frozenset(
        {"kernel", "subround_workers", "subround_batch_fraction"}
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.pmin <= self.pmax <= 1.0:
            raise ValueError(
                f"need 0 < pmin <= pmax <= 1, got pmin={self.pmin} pmax={self.pmax}"
            )
        if not 0.0 < self.pinit <= 1.0:
            raise ValueError(f"pinit must be in (0, 1], got {self.pinit}")
        if not self.glo < self.gup:
            raise ValueError(f"need glo < gup, got glo={self.glo} gup={self.gup}")
        if self.probability_function not in PROBABILITY_FUNCTIONS:
            raise ValueError(
                f"unknown probability_function {self.probability_function!r}; "
                f"choose from {PROBABILITY_FUNCTIONS}"
            )
        if self.init_method not in INIT_METHODS:
            raise ValueError(
                f"unknown init_method {self.init_method!r}; "
                f"choose from {INIT_METHODS}"
            )
        if self.kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; choose from {KERNELS}"
            )
        if self.refinement_iterations < 0:
            raise ValueError("refinement_iterations must be >= 0")
        if self.top_update_count < 0:
            raise ValueError("top_update_count must be >= 0")
        if self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")
        if self.subround_workers < 0:
            raise ValueError("subround_workers must be >= 0")
        if not 0.0 < self.subround_batch_fraction <= 1.0:
            raise ValueError(
                "subround_batch_fraction must be in (0, 1], got "
                f"{self.subround_batch_fraction}"
            )

    def fingerprint_extra(self) -> Dict[str, Any]:
        """Extra experiment-cache key material (see :mod:`repro.engine.units`).

        The sub-round kernel is a different algorithm, so runs under it
        must not share cache entries with sequential runs: the family
        marker and the batch fraction (which shapes its move order)
        enter the key.  For the sequential pass this returns ``{}``.
        """
        if self.kernel == "subround":
            return {
                "kernel_family": "subround",
                "subround_batch_fraction": self.subround_batch_fraction,
            }
        return {}

    def with_overrides(self, **kwargs: Any) -> "PropConfig":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **kwargs)


#: The paper's published parameterization (Sec. 4) — also the default.
PAPER_CONFIG = PropConfig()
