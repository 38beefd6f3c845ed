"""Gain-kernel backend selection for the partitioning hot paths.

Three backends compute the per-net side products and node gains that
dominate PROP/FM/LA runtime:

* ``"python"`` — the scalar loops in :mod:`repro.core.gains` and the
  baseline modules (always available; the reference implementation);
* ``"numpy"`` — :class:`NumpyGainEngine` over a CSR-packed hypergraph
  view (:class:`CsrView`), bit-identical to the scalar path (same moves,
  same cuts — see :mod:`repro.kernels.numpy_backend` for the contract);
* ``"subround"`` — the batched sub-round pass engines of
  :mod:`repro.kernels.subround`: vectorized gains plus net-disjoint
  batch moves, optionally fanned out over shared-memory workers
  (:mod:`repro.engine.shm`).  Deterministic for any worker count, but a
  *different algorithm* from the sequential backends — cuts are
  comparable, not identical.

Each gain equation has one vectorized implementation, in
:mod:`repro.kernels.numpy_backend`: :func:`prop_products` with
:func:`prop_gains` for PROP's Eqns. 3/4 and :func:`fm_gains` for FM's
Eqn. 1.  They take any net or node set — all, a contiguous range, or an
index array — and the numpy backend, FM's pass-start sweep, both
sub-round engines and the shared-memory workers all call them.

Selection precedence: an explicit backend name (``PropConfig.kernel``,
``run_fm(kernel=...)``, CLI ``--kernel``) wins; ``"auto"`` defers to the
``REPRO_KERNEL`` environment variable; failing that, numpy is used when
the instance is large enough (:data:`AUTO_SCALAR_CUTOFF_PINS` —
``BENCH_kernels.json`` shows the scalar path wins end-to-end below ~4k
pins, e.g. balu full_pass 0.92x), the scalar path otherwise.

``"auto"`` and ``REPRO_KERNEL`` never select ``"subround"``: the
sequential backends are result-identical (so the choice is excluded from
experiment-cache fingerprints — see :mod:`repro.engine.units`), and an
ambient environment variable silently changing *results* would poison
that cache.  Sub-round runs must be requested explicitly, and carry a
``kernel_family`` fingerprint marker.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional, Tuple

from .csr import CsrView

#: Accepted values for ``PropConfig.kernel`` / ``--kernel`` / ``REPRO_KERNEL``
#: (the env var accepts only the result-identical subset, see above).
KERNEL_CHOICES: Tuple[str, ...] = ("auto", "python", "numpy", "subround")

#: Environment variable consulted when the configured kernel is ``"auto"``.
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: Below this many pins, ``"auto"`` resolves to the scalar backend: the
#: vectorized kernels' per-call constants exceed their savings on tiny
#: instances (BENCH_kernels.json: balu at 2697 pins runs full_pass at
#: 0.92x under numpy, industry2 at 48404 pins at 1.06x).  Explicit
#: ``"numpy"`` requests are always honored.
AUTO_SCALAR_CUTOFF_PINS = 4096


def resolve_kernel(
    kernel: Optional[str] = None, num_pins: Optional[int] = None
) -> str:
    """Resolve a backend request to a concrete backend name.

    ``kernel`` is ``"auto"``/``None`` (consult ``REPRO_KERNEL``, then —
    when ``num_pins`` is given — the :data:`AUTO_SCALAR_CUTOFF_PINS`
    instance-size cutoff), ``"python"``, ``"numpy"``, or ``"subround"``.
    Returns a concrete name; rejects unknown *explicit* names.

    ``num_pins`` only influences ``"auto"`` resolution: explicit
    requests and ``REPRO_KERNEL`` selections are honored at any size.
    """
    if kernel is None:
        kernel = "auto"
    if kernel not in KERNEL_CHOICES:
        raise ValueError(
            f"unknown kernel {kernel!r} (choices: {', '.join(KERNEL_CHOICES)})"
        )
    if kernel != "auto":
        return kernel
    env = os.environ.get(KERNEL_ENV_VAR, "").strip().lower()
    if env in ("python", "numpy"):
        return env
    if env and env != "auto":
        # "subround" lands here deliberately: it changes results, so an
        # ambient env var must not be able to select it (cached runs
        # would silently stop matching their fingerprints).
        warnings.warn(
            f"ignoring {KERNEL_ENV_VAR}={env!r} (the environment "
            "variable accepts only auto/python/numpy)",
            RuntimeWarning,
            stacklevel=2,
        )
    if num_pins is not None and num_pins < AUTO_SCALAR_CUTOFF_PINS:
        return "python"
    return "numpy"


def make_gain_engine(partition, kernel: str):
    """Construct the gain engine for a *resolved* backend name.

    The sub-round backend has no per-move gain engine — its pass loop
    *is* the engine (see :class:`repro.kernels.subround.SubroundPropEngine`);
    callers branch before reaching here.
    """
    if kernel == "subround":
        raise ValueError(
            "the subround kernel replaces the pass loop; "
            "construct a SubroundPropEngine/SubroundFMEngine instead"
        )
    if kernel == "numpy":
        return NumpyGainEngine(partition)
    from ..core.gains import ProbabilisticGainEngine

    return ProbabilisticGainEngine(partition)


# Imported after the selection functions: numpy_backend imports
# repro.core, whose engine imports them from this package.
from .numpy_backend import (  # noqa: E402
    NumpyGainEngine,
    fm_gains,
    la_initial_vectors,
    prop_gains,
    prop_products,
)

__all__ = [
    "AUTO_SCALAR_CUTOFF_PINS",
    "KERNEL_CHOICES",
    "KERNEL_ENV_VAR",
    "CsrView",
    "NumpyGainEngine",
    "fm_gains",
    "la_initial_vectors",
    "make_gain_engine",
    "prop_gains",
    "prop_products",
    "resolve_kernel",
]
