"""Gain kernels for the partitioning hot paths.

Each pass of the paper's Fig. 2 starts with a sweep that computes the
gain of every free node.  Each engine runs that sweep one way, fixed
here in code rather than by a user switch, because the two ways return
the same floats and differ only in speed:

* PROP sums Eqns. 3/4 with the scalar loop of
  :meth:`repro.core.gains.ProbabilisticGainEngine.all_gains` below
  :data:`AUTO_SCALAR_CUTOFF_PINS` pins, and with :class:`NumpyGainEngine`
  over a CSR-packed view (:class:`CsrView`) from there up (the choice is
  made in :class:`repro.core.engine.PropGains`);
* FM sums Eqn. 1 in Python (``Partition.immediate_gain``);
* LA-k always runs the vectorized :func:`la_initial_vectors`.

The scalar loops stay as the reference that the parity tests and the
auditor compare against.  ``make_gain_engine`` builds either PROP engine
by name, for tests and benchmarks.

Each gain equation has one vectorized implementation, in
:mod:`repro.kernels.numpy_backend`: :func:`prop_products` with
:func:`prop_gains` for PROP's Eqns. 3/4 and :func:`fm_gains` for FM's
Eqn. 1.  They take any net or node set — all, a contiguous range, or an
index array — and the numpy engine, both sub-round engines and the
shared-memory workers all call them.

The one user choice left is the *pass*: ``kernel="subround"``
(``PropConfig.kernel``, ``run_fm(kernel=...)``, CLI ``--kernel``) runs
the batched sub-round pass engines of :mod:`repro.kernels.subround`:
vectorized gains plus net-disjoint batch moves, optionally fanned out
over shared-memory workers (:mod:`repro.engine.shm`).  Deterministic for
any worker count, but a *different algorithm* from the sequential pass —
cuts are comparable, not identical — so those runs carry a
``kernel_family`` fingerprint marker (see :mod:`repro.engine.units`).
"""

from __future__ import annotations

from .csr import CsrView

#: From this many pins up, PROP's pass-start sweep runs on the numpy
#: engine, below it on the scalar loop.  Tuned when the vectorized
#: kernels' per-call constants still exceeded their savings on small
#: instances (BENCH_kernels.json at 1.5.0: balu at 2697 pins ran
#: full_pass at 0.92x under numpy); re-measured at 1.16.0, PROP's
#: crossover sits near 300 pins (docs/performance.md).  Read at every
#: PROP run, so a test or script can move it here.
AUTO_SCALAR_CUTOFF_PINS = 4096


def make_gain_engine(partition, kernel: str):
    """PROP's gain engine by name: ``"numpy"`` builds
    :class:`NumpyGainEngine`, ``"python"`` the scalar
    :class:`~repro.core.gains.ProbabilisticGainEngine`."""
    if kernel == "numpy":
        return NumpyGainEngine(partition)
    from ..core.gains import ProbabilisticGainEngine

    return ProbabilisticGainEngine(partition)


# Imported after make_gain_engine: numpy_backend imports repro.core,
# whose engine reads this package.
from .numpy_backend import (  # noqa: E402
    NumpyGainEngine,
    fm_gains,
    la_initial_vectors,
    prop_gains,
    prop_products,
)

__all__ = [
    "AUTO_SCALAR_CUTOFF_PINS",
    "CsrView",
    "NumpyGainEngine",
    "fm_gains",
    "la_initial_vectors",
    "make_gain_engine",
    "prop_gains",
    "prop_products",
]
