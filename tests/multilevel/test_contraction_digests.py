"""n-level coarsening's contraction sequences, pinned.

Coarsening is a pure function of the graph and its knobs
(docs/multilevel.md), so each case below pins the exact ``(u, v)``
contraction sequence together with ``ratings_updated``, the number of
node rerates that produced it, as a sha256 digest of their canonical
JSON form.  Every case coarsens with :class:`NLevelPartitioner`'s
defaults (80 target nodes, default net-size limit, weight cap and pin
sample), so the pinned sequences are the ones the n-level engine
refines.  A speed-up of the rating code must leave every digest as it
is.

The ``hier6k`` case takes tens of seconds and runs only under
``REPRO_NLEVEL_CORPUS=1`` (the CI nlevel lane).  Regenerate the digests
after an intended behaviour change with
``PYTHONPATH=src python tests/multilevel/test_contraction_digests.py``.
"""

import hashlib
import json
import os

import pytest

from repro.hypergraph import (
    hierarchical_circuit,
    large_circuit,
    make_benchmark,
)
from repro.multilevel import nlevel_coarsen

TARGET_NODES = 80

RUN_GATED = os.environ.get("REPRO_NLEVEL_CORPUS") == "1"

#: case -> (graph builder, rating, contractions, ratings_updated, digest)
CASES = {
    "industry2-0.1-heavy-edge": (
        lambda: make_benchmark("industry2", scale=0.1), "heavy-edge",
        1176, 34355, "3817a46f8b069337",
    ),
    "industry2-0.1-uniform": (
        lambda: make_benchmark("industry2", scale=0.1), "uniform",
        1119, 21539, "f37c5eccb33e4b65",
    ),
    "large4000-hub1": (
        lambda: large_circuit(4000, seed=7, hub_nets=1), "heavy-edge",
        3920, 31267, "ccf073cfb226cbad",
    ),
    "s9234-0.5": (
        lambda: make_benchmark("s9234", scale=0.5), "heavy-edge",
        2729, 23091, "2a43b38636da0641",
    ),
    "hier6k": (
        lambda: hierarchical_circuit(6000, 6600, 24000, seed=3), "heavy-edge",
        5676, 296029, "5f90f9ee4b62aa7e",
    ),
}

GATED = ("hier6k",)


def record(case):
    """``(contractions, ratings_updated, digest)`` of one case."""
    build, rating = CASES[case][:2]
    _, mementos, stats = nlevel_coarsen(
        build(), target_nodes=TARGET_NODES, rating=rating
    )
    ratings = int(stats["ratings_updated"])
    body = json.dumps(
        {"pairs": [[m.u, m.v] for m in mementos], "ratings_updated": ratings},
        separators=(",", ":"),
    )
    digest = hashlib.sha256(body.encode()).hexdigest()[:16]
    return len(mementos), ratings, digest


@pytest.mark.parametrize("case", sorted(CASES))
def test_contraction_sequence_pinned(case):
    if case in GATED and not RUN_GATED:
        pytest.skip("gated case (set REPRO_NLEVEL_CORPUS=1)")
    assert record(case) == CASES[case][2:]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"{name}: {record(name)}")
