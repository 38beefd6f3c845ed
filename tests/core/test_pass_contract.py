"""The pass-engine contract: what every PROP/FM/LA run shows a recorder.

PROP, FM-bucket, FM-tree and LA-k all run through one pass skeleton
(:mod:`repro.passes`), and the sub-round engines run under the same
driver.  These tests pin what that skeleton shows a recorder, per
engine and kernel:

* the recorder event sequence with timings stripped — event names, pass
  indices, and every move's node, side, selection key and immediate
  gain, plus the per-pass counters and the pass/run summaries — as a
  sha256 digest of its canonical JSON form;
* the ``BipartitionResult.stats`` key set;
* ``result.pass_cuts == recorder.pass_cuts()``.

PROP uses the paper's linear probability map, so every float in the
sequence is IEEE arithmetic in a fixed order and the digests hold on any
platform.  Regenerate them after an intentional behaviour change with
``PYTHONPATH=src python tests/core/test_pass_contract.py``.
"""

import functools
import hashlib
import json

import pytest

from repro.baselines.fm import run_fm
from repro.baselines.la import run_la
from repro.core import PropConfig
from repro.core.engine import run_prop
from repro.partition import BalanceConstraint, random_balanced_sides
from repro.telemetry import MemoryRecorder
from repro.testing.golden import CIRCUITS, CORPUS_SEED, build_circuit

_PHASES = ("gain_init_seconds", "move_loop_seconds", "rollback_seconds")
_PROP_PHASES = ("bootstrap_seconds", "refine_seconds") + _PHASES
_CSR = ("csr_build_seconds",)
_SUBROUND = (
    "kernel_subround", "csr_build_seconds", "subrounds",
    "subround_conflicts", "subround_balance_rejects", "subround_batch_max",
    "subround_workers", "subround_shm_fallbacks", "shm_attach_seconds",
)

#: case -> (runner, expected stats keys, expected sequence digest)
CASES = {
    "prop-python": (
        lambda g, s, b, r: run_prop(
            g, s, b, PropConfig(kernel="python"), seed=CORPUS_SEED,
            recorder=r,
        ),
        ("tentative_moves", "kernel_numpy", "underflow_recomputes")
        + _PROP_PHASES,
        "e6ffd59185c9dca5",
    ),
    "prop-numpy": (
        lambda g, s, b, r: run_prop(
            g, s, b, PropConfig(kernel="numpy"), seed=CORPUS_SEED,
            recorder=r,
        ),
        ("tentative_moves", "kernel_numpy", "underflow_recomputes")
        + _PROP_PHASES + _CSR,
        "87ea8b723a52378e",
    ),
    "fm-bucket-python": (
        lambda g, s, b, r: run_fm(
            g, s, b, container="bucket", kernel="python", seed=CORPUS_SEED,
            recorder=r,
        ),
        ("tentative_moves", "kernel_numpy") + _PHASES,
        "a85f6bbc2be16c72",
    ),
    "fm-bucket-numpy": (
        lambda g, s, b, r: run_fm(
            g, s, b, container="bucket", kernel="numpy", seed=CORPUS_SEED,
            recorder=r,
        ),
        ("tentative_moves", "kernel_numpy") + _PHASES + _CSR,
        "15641e4f59135e88",
    ),
    "fm-tree-python": (
        lambda g, s, b, r: run_fm(
            g, s, b, container="tree", kernel="python", seed=CORPUS_SEED,
            recorder=r,
        ),
        ("tentative_moves", "kernel_numpy") + _PHASES,
        "f03e7880b8e55cbb",
    ),
    "fm-tree-numpy": (
        lambda g, s, b, r: run_fm(
            g, s, b, container="tree", kernel="numpy", seed=CORPUS_SEED,
            recorder=r,
        ),
        ("tentative_moves", "kernel_numpy") + _PHASES + _CSR,
        "071c19257b215800",
    ),
    "la-2-python": (
        lambda g, s, b, r: run_la(
            g, s, b, k=2, kernel="python", seed=CORPUS_SEED, recorder=r,
        ),
        ("tentative_moves", "kernel_numpy") + _PHASES,
        "b918d2b268ec8275",
    ),
    "la-2-numpy": (
        lambda g, s, b, r: run_la(
            g, s, b, k=2, kernel="numpy", seed=CORPUS_SEED, recorder=r,
        ),
        ("tentative_moves", "kernel_numpy") + _PHASES + _CSR,
        "c99f294dc2fef2d8",
    ),
    "prop-subround-2": (
        lambda g, s, b, r: run_prop(
            g, s, b, PropConfig(kernel="subround", subround_workers=2),
            seed=CORPUS_SEED, recorder=r,
        ),
        ("tentative_moves", "kernel_numpy", "underflow_recomputes")
        + _PROP_PHASES + _SUBROUND,
        "920b5a798f02a489",
    ),
    "fm-subround-2": (
        lambda g, s, b, r: run_fm(
            g, s, b, kernel="subround", subround_workers=2,
            seed=CORPUS_SEED, recorder=r,
        ),
        ("tentative_moves", "kernel_numpy") + _PHASES + _SUBROUND,
        "ceb5a09964544fac",
    ),
}


class SequenceRecorder(MemoryRecorder):
    """A :class:`MemoryRecorder` that also keeps the whole event
    sequence in emission order, with every timing stripped."""

    def __init__(self) -> None:
        super().__init__()
        self.sequence = []

    def run_start(self, algorithm, seed, num_nodes, num_nets) -> None:
        self.sequence.append(
            ["run_start", algorithm, seed, num_nodes, num_nets]
        )
        super().run_start(algorithm, seed, num_nodes, num_nets)

    def pass_start(self, pass_index) -> None:
        self.sequence.append(["pass_start", pass_index])

    def span(self, pass_index, name, seconds) -> None:
        self.sequence.append(["span", pass_index, name])
        super().span(pass_index, name, seconds)

    def move(
        self, pass_index, move_index, node, from_side, selection_key,
        immediate_gain,
    ) -> None:
        self.sequence.append([
            "move", pass_index, move_index, node, from_side,
            selection_key, immediate_gain,
        ])
        super().move(
            pass_index, move_index, node, from_side, selection_key,
            immediate_gain,
        )

    def counters(self, pass_index, counts) -> None:
        self.sequence.append(
            ["counters", pass_index, dict(sorted(counts.items()))]
        )
        super().counters(pass_index, counts)

    def pass_end(self, pass_index, cut, moves, kept, gmax, seconds) -> None:
        self.sequence.append(["pass_end", pass_index, cut, moves, kept, gmax])
        super().pass_end(pass_index, cut, moves, kept, gmax, seconds)

    def run_end(self, algorithm, cut, passes, runtime_seconds, stats) -> None:
        self.sequence.append(
            ["run_end", algorithm, cut, passes, sorted(stats)]
        )
        super().run_end(algorithm, cut, passes, runtime_seconds, stats)

    def digest(self) -> str:
        """First 16 hex digits of the sequence's sha256."""
        text = json.dumps(self.sequence, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def record(case):
    """Run ``case`` on the corpus circuit; returns (result, recorder)."""
    graph = build_circuit(CIRCUITS["hier150"])
    sides = random_balanced_sides(graph, seed=CORPUS_SEED)
    balance = BalanceConstraint.fifty_fifty(graph)
    rec = SequenceRecorder()
    result = CASES[case][0](graph, sides, balance, rec)
    return result, rec


@pytest.mark.parametrize("case", sorted(CASES))
def test_event_sequence_pinned(case):
    _, rec = record(case)
    assert rec.digest() == CASES[case][2]


@pytest.mark.parametrize("case", sorted(CASES))
def test_stats_keys_pinned(case):
    result, rec = record(case)
    assert sorted(result.stats) == sorted(CASES[case][1])
    assert sorted(rec.results[0]["stats"]) == sorted(CASES[case][1])


@pytest.mark.parametrize("case", sorted(CASES))
def test_pass_cuts_match_trace(case):
    result, rec = record(case)
    assert len(rec.runs) == len(rec.results) == 1
    assert result.pass_cuts == rec.pass_cuts()
    assert result.passes == len(rec.passes)


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"{name}: {record(name)[1].digest()}")
