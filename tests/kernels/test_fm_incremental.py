"""Bitwise equivalence of the incremental FM sub-round gain updates.

The FM engine now recomputes only the pins of nets attached to the
applied batch between sub-rounds (:func:`fm_gains` over the touched
nodes) instead of a full Eqn. (1) sweep.  The update is exact — a batch
changes pin counts only on its own nets and sides only on its own nodes
— but only while the kernel accumulates a subset's per-node terms in the
same CSR pin order as the whole sweep.  These tests are that fence, at
both the kernel level (subset vs whole sweep on arbitrary node sets) and
the engine level (full runs with incremental vs forced-full updates must
produce byte-identical move sequences).
"""

import random

import numpy as np
import pytest

from repro.baselines.fm import run_fm
from repro.kernels.csr import CsrView
from repro.kernels import subround as subround_mod
from repro.kernels.numpy_backend import fm_gains
from repro.kernels.subround import SubroundFMEngine
from repro.partition import (
    BalanceConstraint,
    Partition,
    random_balanced_sides,
)
from repro.telemetry import MemoryRecorder
from repro.testing.golden import CIRCUITS, CORPUS_SEED, build_circuit

_CIRCUIT_NAMES = sorted(CIRCUITS)


def _arrays(name, seed):
    graph = build_circuit(CIRCUITS[name])
    sides = random_balanced_sides(graph, seed=seed)
    part = Partition(graph, sides)
    csr = CsrView(graph)
    sides_arr = np.asarray(part.sides_view(), dtype=np.int8)
    counts0 = np.asarray(part.counts_view(0), dtype=np.int64)
    counts1 = np.asarray(part.counts_view(1), dtype=np.int64)
    return graph, csr, sides_arr, counts0, counts1


@pytest.mark.parametrize("circuit", _CIRCUIT_NAMES)
def test_fm_gains_subset_matches_range(circuit):
    graph, csr, sides, counts0, counts1 = _arrays(circuit, CORPUS_SEED)
    n = csr.num_nodes
    full = fm_gains(csr, sides, counts0, counts1)
    assert full.shape == (n,)
    rng = random.Random(CORPUS_SEED)
    for size in (1, 2, n // 3 or 1, n):
        nodes = np.asarray(
            sorted(rng.sample(range(n), size)), dtype=np.intp
        )
        out = fm_gains(csr, sides, counts0, counts1, nodes)
        # Bitwise, not approximate: same terms summed in the same order.
        assert np.array_equal(out, full[nodes])


def test_fm_gains_subset_empty_is_noop():
    _, csr, sides, counts0, counts1 = _arrays("hier150", CORPUS_SEED)
    out = fm_gains(
        csr, sides, counts0, counts1, np.empty(0, dtype=np.intp)
    )
    assert out.shape == (0,)


class _FullRecomputeFMEngine(SubroundFMEngine):
    """Reference engine: the pre-incremental full sweep every sub-round."""

    def _next_gains(self, gains):
        return self._compute_gains().copy()


def _fm_run(graph, sides, balance, engine_cls):
    rec = MemoryRecorder()
    original = subround_mod.SubroundFMEngine
    subround_mod.SubroundFMEngine = engine_cls
    try:
        result = run_fm(
            graph, sides, balance,
            seed=CORPUS_SEED,
            kernel="subround",
            recorder=rec,
        )
    finally:
        subround_mod.SubroundFMEngine = original
    moves = [
        (m.pass_index, m.node, m.selection_key, m.immediate_gain)
        for m in rec.moves
    ]
    return moves, result


@pytest.mark.parametrize("circuit", _CIRCUIT_NAMES)
def test_incremental_engine_matches_full_recompute(circuit):
    graph = build_circuit(CIRCUITS[circuit])
    sides = random_balanced_sides(graph, seed=CORPUS_SEED)
    balance = BalanceConstraint.fifty_fifty(graph)
    ref_moves, ref_result = _fm_run(
        graph, sides, balance, _FullRecomputeFMEngine
    )
    inc_moves, inc_result = _fm_run(
        graph, sides, balance, SubroundFMEngine
    )
    assert inc_moves == ref_moves
    assert inc_result.cut == ref_result.cut
    assert inc_result.sides == ref_result.sides
    assert inc_result.pass_cuts == ref_result.pass_cuts
    assert inc_result.stats["subrounds"] == ref_result.stats["subrounds"]
