"""Public API surface checks."""

import os
import subprocess
import sys

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.17.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_quickstart_flow(self):
        """The README quickstart must work verbatim."""
        graph = repro.make_benchmark("struct", scale=0.1)
        result = repro.PropPartitioner().partition(graph, seed=42)
        assert result.cut >= 0
        assert len(result.sides) == graph.num_nodes

    def test_subpackages_importable(self):
        import repro.audit
        import repro.baselines
        import repro.core
        import repro.datastructures
        import repro.engine
        import repro.experiments
        import repro.fpga
        import repro.hypergraph
        import repro.kway
        import repro.multirun
        import repro.partition
        import repro.testing
        import repro.timing  # noqa: F401

    def test_partitioners_share_interface(self):
        """Every partitioner accepts (graph, balance=, initial_sides=, seed=)."""
        graph = repro.make_benchmark("t6", scale=0.05)
        balance = repro.BalanceConstraint.forty_five_fifty_five(graph)
        for cls in (
            repro.PropPartitioner,
            repro.KLPartitioner,
            repro.Eig1Partitioner,
            repro.MeloPartitioner,
            repro.WindowPartitioner,
            repro.ParaboliPartitioner,
            repro.RandomPartitioner,
        ):
            result = cls().partition(graph, balance=balance, seed=0)
            result.verify(graph)
        for container in ("bucket", "tree"):
            repro.FMPartitioner(container).partition(
                graph, balance=balance, seed=0
            ).verify(graph)
        for k in (1, 2, 3):
            repro.LAPartitioner(k).partition(
                graph, balance=balance, seed=0
            ).verify(graph)


#: Run in a fresh interpreter by ``test_cold_start_leaves_scipy_unloaded``.
COLD_START_SCRIPT = """
import sys
import repro, repro.cli, repro.service.app
from repro.multilevel import NLevelPartitioner

graph = repro.make_benchmark("t6", scale=0.05)
for partitioner in (
    repro.PropPartitioner(),
    repro.FMPartitioner("bucket"),
    repro.FMPartitioner("tree"),
    repro.LAPartitioner(2),
    repro.KLPartitioner(),
    repro.WindowPartitioner(),
    repro.MultilevelPartitioner(),
    NLevelPartitioner(),
):
    partitioner.partition(graph, seed=0).verify(graph)
assert "scipy" not in sys.modules, "scipy loaded before a scipy-backed partitioner was built"

spectral = repro.Eig1Partitioner()
assert "scipy.sparse.linalg" in sys.modules, "EIG1 built without scipy"
for partitioner in (spectral, repro.MeloPartitioner(), repro.ParaboliPartitioner()):
    partitioner.partition(graph, seed=0).verify(graph)
"""


def test_cold_start_leaves_scipy_unloaded():
    """``import repro`` (CLI and service included) and every move-based
    partitioner run without scipy; building EIG1 loads it before any
    ``partition()`` call, and the scipy-backed baselines still verify."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
