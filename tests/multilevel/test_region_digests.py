"""n-level uncoarsening's region refinement, pinned.

Each case runs one :class:`NLevelPartitioner` bisection with the
refiner that ``bench/``'s two n-level workloads use (PROP capped at one
pass) and pins the final sides together with ``region_moves``,
``rebalance_moves`` and ``uncontract_batches`` as a sha256 digest of
their canonical JSON form.  The region FM (``_refine_region``,
``rebalance`` and their neighbour rerates) decides which moves those
counters count and which partition the final refine starts from, so a
speed-up of that code must leave every digest as it is.

Regenerate the digests after an intended behaviour change with
``PYTHONPATH=src python tests/multilevel/test_region_digests.py``.
"""

import hashlib
import json

import pytest

from repro import PropConfig, PropPartitioner
from repro.hypergraph import large_circuit, make_benchmark
from repro.multilevel import NLevelPartitioner

#: instance -> graph builder
GRAPHS = {
    "industry2-0.1": lambda: make_benchmark("industry2", scale=0.1),
    "large4000-hub1": lambda: large_circuit(4000, seed=7, hub_nets=1),
}

#: (instance, seed) -> (region_moves, rebalance_moves, uncontract_batches,
#: digest)
CASES = {
    ("industry2-0.1", 0): (514, 41, 20, "6027e1ecce981974"),
    ("industry2-0.1", 1): (26, 253, 20, "782e5ea60b33e395"),
    ("industry2-0.1", 2): (447, 52, 20, "000a61f237f665e4"),
    ("large4000-hub1", 0): (11, 15, 22, "366ae2d3fd3b21d7"),
    ("large4000-hub1", 1): (3, 50, 22, "145f2c451602fd31"),
    ("large4000-hub1", 2): (3, 200, 22, "e014dfcbbc3f3955"),
}

_graphs = {}


def record(instance, seed):
    """``(region_moves, rebalance_moves, uncontract_batches, digest)`` of
    one bisection; the digest also covers its final sides."""
    if instance not in _graphs:
        _graphs[instance] = GRAPHS[instance]()
    partitioner = NLevelPartitioner(
        refiner=PropPartitioner(PropConfig(max_passes=1))
    )
    result = partitioner.partition(_graphs[instance], seed=seed)
    counts = {
        key: int(result.stats[key])
        for key in ("region_moves", "rebalance_moves", "uncontract_batches")
    }
    body = json.dumps(
        {"sides": list(result.sides), **counts}, separators=(",", ":")
    )
    digest = hashlib.sha256(body.encode()).hexdigest()[:16]
    return (*counts.values(), digest)


@pytest.mark.parametrize("instance,seed", sorted(CASES))
def test_region_refinement_pinned(instance, seed):
    assert record(instance, seed) == CASES[instance, seed]


if __name__ == "__main__":
    for instance, seed in sorted(CASES):
        print(f"    ({instance!r}, {seed}): {record(instance, seed)!r},")
