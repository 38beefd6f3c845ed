"""Bit-parity of the numpy gain kernels against the scalar reference.

The vectorized backend's contract is *exact* equivalence — every gain
and counter equals the scalar value bit for bit, because
the gain containers break ties on ``(gain, node)`` and a one-ulp drift
changes move order.  So every assertion here is ``==``, never
``pytest.approx``.
"""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.core.gains import DIV_SAFE_MIN, ProbabilisticGainEngine
from repro.hypergraph import Hypergraph
from repro.kernels import make_gain_engine
from repro.kernels.numpy_backend import (
    NumpyGainEngine,
    fm_gains,
    la_initial_vectors,
)
from repro.partition import BalanceConstraint, Partition, random_balanced_sides
from repro.testing import random_instance, weighted_instance
from repro.testing import strategies as st_repro


def _engine_pair(graph, sides, probabilities, locked=()):
    def partition():
        part = Partition(graph, list(sides))
        for v in locked:
            part.lock(v)
        return part

    scalar = ProbabilisticGainEngine(partition(), probabilities)
    vector = NumpyGainEngine(partition(), probabilities)
    return scalar, vector


@st.composite
def _parity_cases(draw):
    graph = draw(st_repro.hypergraphs(min_nodes=2, max_nodes=14, costed=True))
    sides = draw(st_repro.sides_for(graph))
    probs = draw(st_repro.probability_vectors(graph.num_nodes))
    return graph, sides, probs


@st.composite
def _locked_parity_cases(draw):
    """A parity case plus a set of locked nodes (their p becomes 0), as
    in the sub-round sweeps late in a pass."""
    graph, sides, probs = draw(_parity_cases())
    locked = draw(st.sets(st.integers(0, graph.num_nodes - 1)))
    return graph, sides, probs, sorted(locked)


@settings(max_examples=60, deadline=None)
@given(_locked_parity_cases())
def test_all_gains_bit_identical(case):
    graph, sides, probs, locked = case
    scalar, vector = _engine_pair(graph, sides, probs, locked)
    sg = scalar.all_gains()
    vg = vector.all_gains()
    assert sg == vg
    assert all(type(x) is float for x in vg)
    assert scalar.underflow_recomputes == vector.underflow_recomputes


@pytest.mark.parametrize("seed", [1, 5, 9, 33])
def test_net_gain_and_pin_contributions_agree(seed):
    """Backends agree bit-for-bit.

    ``all_gains`` divides a pin's own probability back out of the shared
    side product, which is allowed to differ from the direct
    ``node_gain`` product by one rounding — but both *backends* take the
    identical divide, so their outputs are still exactly equal.
    """
    graph = weighted_instance(seed, max_nodes=16)
    sides = random_balanced_sides(graph, seed)
    import random

    rng = random.Random(seed)
    probs = [rng.uniform(0.01, 0.99) for _ in range(graph.num_nodes)]
    scalar, vector = _engine_pair(graph, sides, probs)
    assert scalar.all_gains() == vector.all_gains()


class TestUnderflowGuard:
    """Satellite: pmin-scale probabilities on a high-degree net.

    160 pins at p = 0.01 drive the side product to 1e-320 — a subnormal
    below ``DIV_SAFE_MIN`` where the divide-back-out trick loses the low
    bits.  The guard must switch to the exact recompute branch, count the
    event, and still match ``node_gain`` exactly — on both backends.
    """

    DEGREE = 160
    P = 0.01

    def _build(self):
        n = self.DEGREE + 2
        nets = [list(range(self.DEGREE)), [0, n - 2, n - 1]]
        graph = Hypergraph(nets, num_nodes=n)
        sides = [0] * self.DEGREE + [1, 1]
        probs = [self.P] * n
        return graph, sides, probs

    def test_product_is_subnormal(self):
        prod = 1.0
        for _ in range(self.DEGREE - 1):
            prod *= self.P
        assert 0.0 < prod < DIV_SAFE_MIN  # the regime under test

    def test_recompute_branch_exact_scalar(self):
        graph, sides, probs = self._build()
        engine = ProbabilisticGainEngine(Partition(graph, sides), probs)
        before = engine.underflow_recomputes
        gains = engine.all_gains()
        assert engine.underflow_recomputes > before
        for v in range(graph.num_nodes):
            assert gains[v] == engine.node_gain(v)

    def test_backends_agree_under_underflow(self):
        graph, sides, probs = self._build()
        scalar, vector = _engine_pair(graph, sides, probs)
        assert scalar.all_gains() == vector.all_gains()
        assert scalar.underflow_recomputes == vector.underflow_recomputes
        assert scalar.underflow_recomputes > 0

    def test_zero_probability_not_counted_as_underflow(self):
        """p = 0 products are structural zeros, not underflow events."""
        graph, sides, probs = self._build()
        probs = [0.0] * len(probs)
        scalar, vector = _engine_pair(graph, sides, probs)
        assert scalar.all_gains() == vector.all_gains()
        assert scalar.underflow_recomputes == 0
        assert vector.underflow_recomputes == 0


class TestInitialGainKernels:
    @pytest.mark.parametrize("seed", [2, 11, 40])
    def test_fm_initial_gains_match_immediate_gain(self, seed):
        graph = weighted_instance(seed, max_nodes=18)
        partition = Partition(graph, random_balanced_sides(graph, seed))
        from repro.kernels.csr import CsrView

        gains = fm_gains(
            CsrView(graph),
            np.asarray(partition.sides_view()),
            np.asarray(partition.counts_view(0)),
            np.asarray(partition.counts_view(1)),
        ).tolist()
        assert gains == [
            partition.immediate_gain(v) for v in range(graph.num_nodes)
        ]
        assert all(type(g) is float for g in gains)

    @pytest.mark.parametrize("seed", [2, 11, 40])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_la_initial_vectors_match_gain_vector(self, seed, k):
        from repro.baselines.la import gain_vector
        from repro.kernels.csr import CsrView

        graph = weighted_instance(seed, max_nodes=18)
        partition = Partition(graph, random_balanced_sides(graph, seed))
        vectors = la_initial_vectors(CsrView(graph), partition, k)
        assert vectors == [
            gain_vector(partition, v, k) for v in range(graph.num_nodes)
        ]

    def test_la_initial_vectors_reject_locked_partitions(self):
        from repro.kernels.csr import CsrView

        graph = random_instance(3)
        partition = Partition(graph, random_balanced_sides(graph, 3))
        partition.lock(0)
        with pytest.raises(ValueError):
            la_initial_vectors(CsrView(graph), partition, 2)


class TestResolution:
    def test_unknown_name_rejected(self):
        """``"auto"`` and ``"subround"`` are the only kernel names; any
        other, the sweep names included, fails loudly in config and FM."""
        from repro.baselines.fm import FMPartitioner, run_fm
        from repro.core import PropConfig

        for name in ("python", "numpy", "fortran"):
            with pytest.raises(ValueError):
                PropConfig(kernel=name)
            with pytest.raises(ValueError):
                FMPartitioner(kernel=name)
        graph = random_instance(1)
        sides = random_balanced_sides(graph, 1)
        balance = BalanceConstraint.fifty_fifty(graph)
        with pytest.raises(ValueError):
            run_fm(graph, sides, balance, kernel="python")

    def test_cli_rejects_removed_kernel(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--generate", "t5", "--scale", "0.1", "-a", "prop",
                  "--kernel", "python"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_make_gain_engine_backends(self):
        graph = random_instance(1)
        partition = Partition(graph, random_balanced_sides(graph, 1))
        assert type(make_gain_engine(partition, "python")) is (
            ProbabilisticGainEngine
        )
        assert type(make_gain_engine(partition, "numpy")) is NumpyGainEngine


def _fingerprint(partitioner):
    """First 16 hex digits of the partitioner's cache fingerprint."""
    from repro.engine.units import partitioner_fingerprint

    return partitioner_fingerprint(partitioner)[:16]


class TestFingerprintNeutrality:
    """Backend choice must not change experiment-cache identities: the
    default partitioners keep the fingerprints they had while the
    pass-start sweep was still a user switch."""

    def test_prop_config_fingerprint_ignores_kernel(self):
        from repro.core import PropConfig, PropPartitioner

        assert _fingerprint(PropPartitioner()) == "95e73f2c0a069d77"
        assert _fingerprint(
            PropPartitioner(PropConfig(kernel="auto"))
        ) == "95e73f2c0a069d77"

    def test_fm_la_fingerprints_ignore_kernel(self):
        from repro.baselines import FMPartitioner, LAPartitioner

        assert _fingerprint(FMPartitioner()) == "42a6611011e78041"
        assert _fingerprint(FMPartitioner("tree")) == "81b593ab9a58f2a1"
        assert _fingerprint(LAPartitioner(2)) == "c0fa92b6bc25d014"
        assert _fingerprint(LAPartitioner(3)) == "ca7e1a05169ad0be"


def _prop_engine(graph):
    """The gain engine ``PropGains`` builds for ``graph``."""
    from repro.core import PropConfig
    from repro.core.engine import PropGains

    partition = Partition(graph, random_balanced_sides(graph, 0))
    return PropGains(partition, PropConfig()).engine


class TestAutoCutoff:
    """PROP's one sweep rule: the numpy engine from
    ``AUTO_SCALAR_CUTOFF_PINS`` pins up, the scalar loop below.

    BENCH_kernels.json showed the vectorized backend *losing* on small
    circuits (balu full_pass 0.92x at 1.5.0), so ``PropGains`` takes the
    instance size into account, and nothing else.
    """

    def test_auto_below_cutoff_prefers_scalar(self):
        graph = random_instance(3)
        with mock.patch.object(
            kernels, "AUTO_SCALAR_CUTOFF_PINS", graph.num_pins + 1
        ):
            assert type(_prop_engine(graph)) is ProbabilisticGainEngine
        with mock.patch.object(
            kernels, "AUTO_SCALAR_CUTOFF_PINS", graph.num_pins
        ):
            assert type(_prop_engine(graph)) is NumpyGainEngine

    def test_balu_sits_below_the_cutoff(self):
        """The motivating case: balu (2697 pins) runs the scalar loop."""
        from repro.hypergraph import make_benchmark

        balu = make_benchmark("balu")
        assert balu.num_pins < kernels.AUTO_SCALAR_CUTOFF_PINS == 4096
        assert type(_prop_engine(balu)) is ProbabilisticGainEngine

    def test_small_auto_run_uses_scalar_end_to_end(self):
        from repro.core import PropConfig
        from repro.core.engine import run_prop

        graph = random_instance(3)  # far below the cutoff
        sides = random_balanced_sides(graph, 3)
        balance = BalanceConstraint.fifty_fifty(graph)
        result = run_prop(
            graph, sides, balance, PropConfig(kernel="auto"), seed=3
        )
        assert result.stats["kernel_numpy"] == 0.0

    def test_env_var_does_not_steer_prop(self, monkeypatch):
        from repro.core import PropConfig
        from repro.core.engine import run_prop
        from repro.hypergraph import make_benchmark

        monkeypatch.setenv("REPRO_KERNEL", "python")
        graph = make_benchmark("industry2", scale=0.1)
        assert graph.num_pins >= kernels.AUTO_SCALAR_CUTOFF_PINS
        sides = random_balanced_sides(graph, 0)
        balance = BalanceConstraint.fifty_fifty(graph)
        result = run_prop(
            graph, sides, balance, PropConfig(max_passes=1), seed=0
        )
        assert result.stats["kernel_numpy"] == 1.0


class TestSweepPerEngine:
    """FM's pass-start sweep is always scalar and LA's always vectorized,
    on either side of PROP's cutoff (balu at 2697 pins, industry2@0.1 at
    4840)."""

    @pytest.fixture(
        scope="class", params=[("balu", 1.0), ("industry2", 0.1)],
        ids=["balu", "industry2@0.1"],
    )
    def circuit(self, request):
        from repro.hypergraph import make_benchmark

        graph = make_benchmark(*request.param)
        sides = random_balanced_sides(graph, 0)
        return graph, sides, BalanceConstraint.fifty_fifty(graph)

    @pytest.mark.parametrize("container", ["bucket", "tree"])
    def test_fm_builds_no_csr_view(self, circuit, container):
        from repro.baselines.fm import run_fm

        result = run_fm(*circuit, container=container, max_passes=1)
        assert result.stats["kernel_numpy"] == 0.0
        assert "csr_build_seconds" not in result.stats

    def test_la_builds_a_csr_view(self, circuit):
        from repro.baselines.la import run_la

        result = run_la(*circuit, k=2, max_passes=1)
        assert result.stats["kernel_numpy"] == 1.0
        assert result.stats["csr_build_seconds"] > 0.0


class TestSubroundFingerprint:
    """kernel="subround" changes results, so it must change identities."""

    def test_subround_prop_fingerprint_differs(self):
        from repro.core import PropConfig, PropPartitioner
        from repro.engine.units import partitioner_fingerprint

        base = partitioner_fingerprint(PropPartitioner(PropConfig()))
        sub = partitioner_fingerprint(
            PropPartitioner(PropConfig(kernel="subround"))
        )
        assert base != sub
        assert sub[:16] == "07f4b3047af18dce"

    def test_subround_worker_count_is_fingerprint_neutral(self):
        """Workers only change *how fast*, never *what* — by the
        invariance matrix — so they must not split the cache."""
        from repro.core import PropConfig, PropPartitioner
        from repro.engine.units import partitioner_fingerprint

        fps = {
            partitioner_fingerprint(
                PropPartitioner(
                    PropConfig(kernel="subround", subround_workers=w)
                )
            )
            for w in (0, 2, 4)
        }
        assert len(fps) == 1

    def test_batch_fraction_is_result_relevant(self):
        from repro.core import PropConfig, PropPartitioner
        from repro.engine.units import partitioner_fingerprint

        a = partitioner_fingerprint(
            PropPartitioner(PropConfig(kernel="subround"))
        )
        b = partitioner_fingerprint(
            PropPartitioner(
                PropConfig(
                    kernel="subround", subround_batch_fraction=0.25
                )
            )
        )
        assert a != b

    def test_subround_fm_fingerprint_differs(self):
        from repro.baselines import FMPartitioner
        from repro.engine.units import partitioner_fingerprint

        base = partitioner_fingerprint(FMPartitioner("bucket"))
        sub = partitioner_fingerprint(
            FMPartitioner("bucket", kernel="subround")
        )
        assert base != sub
        assert sub[:16] == "f17b69cc96866e0a"
