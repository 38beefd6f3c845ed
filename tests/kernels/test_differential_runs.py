"""End-to-end sweep differential suite: same moves, same cuts.

PROP's pass-start sweeps run on the scalar loop below
``AUTO_SCALAR_CUTOFF_PINS`` pins and on the numpy engine from there up,
and the kernels layer promises that the two change *nothing observable*
— not just the final cut but the entire move sequence, the per-pass best
prefixes, and every stat that isn't a timing.  These tests run PROP
twice, forcing each sweep by moving the cutoff, and compare everything,
over hypothesis-generated instances, the seeded grid, and the golden
corpus (the latter under a full invariant audit).
"""

import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.audit import AuditConfig
from repro.core import PropConfig
from repro.core.engine import run_prop
from repro.hypergraph import make_benchmark
from repro.partition import BalanceConstraint, random_balanced_sides
from repro.telemetry import MemoryRecorder
from repro.testing import GRID_SEEDS, random_instance, weighted_instance
from repro.testing import strategies as st_repro
from repro.testing.golden import CIRCUITS, build_circuit

#: Non-timing stats that must be backend-invariant in a PROP result.
_INVARIANT_STATS = ("underflow_recomputes",)


def _moves(rec):
    """(pass, node, selection gain, immediate gain) per recorded move."""
    return [
        (m.pass_index, m.node, m.selection_key, m.immediate_gain)
        for m in rec.moves
    ]


def _sweep(kernel):
    """Force PROP's pass-start sweep: ``"python"`` or ``"numpy"``."""
    cutoff = sys.maxsize if kernel == "python" else 0
    return mock.patch.object(kernels, "AUTO_SCALAR_CUTOFF_PINS", cutoff)


def _prop_once(graph, sides, balance, kernel, **config_kwargs):
    rec = MemoryRecorder()
    with _sweep(kernel):
        result = run_prop(
            graph, sides, balance, PropConfig(**config_kwargs), recorder=rec,
        )
    return _moves(rec), result


def _assert_prop_identical(graph, sides, balance, **config_kwargs):
    mp, rp = _prop_once(graph, sides, balance, "python", **config_kwargs)
    mn, rn = _prop_once(graph, sides, balance, "numpy", **config_kwargs)
    assert mp == mn, "move sequences diverged between backends"
    assert rp.cut == rn.cut
    assert rp.sides == rn.sides
    assert rp.pass_cuts == rn.pass_cuts
    assert rp.passes == rn.passes
    for stat in _INVARIANT_STATS:
        assert rp.stats[stat] == rn.stats[stat]
    assert rp.stats["kernel_numpy"] == 0.0
    assert rn.stats["kernel_numpy"] == 1.0


@st.composite
def _run_cases(draw):
    graph = draw(
        st_repro.hypergraphs(min_nodes=4, max_nodes=14, costed=True)
    )
    sides = draw(st_repro.balanced_sides_for(graph))
    return graph, sides


@settings(max_examples=25, deadline=None)
@given(_run_cases())
def test_prop_backends_identical_hypothesis(case):
    graph, sides = case
    balance = BalanceConstraint.fifty_fifty(graph)
    _assert_prop_identical(graph, sides, balance)


@pytest.mark.parametrize("seed", GRID_SEEDS[:6])
def test_prop_backends_identical_grid(seed):
    graph = weighted_instance(seed, max_nodes=24)
    sides = random_balanced_sides(graph, seed)
    balance = BalanceConstraint.fifty_fifty(graph)
    _assert_prop_identical(graph, sides, balance)


@pytest.mark.parametrize("probability_function", ["linear", "sigmoid"])
@pytest.mark.parametrize("init_method", ["pinit", "deterministic"])
def test_prop_backends_identical_config_matrix(
    probability_function, init_method
):
    graph = make_benchmark("t5", scale=0.08)
    sides = random_balanced_sides(graph, 3)
    balance = BalanceConstraint.fifty_fifty(graph)
    _assert_prop_identical(
        graph, sides, balance,
        probability_function=probability_function,
        init_method=init_method,
    )


class TestGoldenCorpusBackends:
    """Both backends reproduce the corpus circuits' cuts — audited.

    Auditing routes every (Nth) move through ``check_prop_gains``,
    ``check_prop_term_memo`` and ``check_prop_clean_keys``, so the
    gains, the memoized terms and the keys the top-k refresh skips are
    recomputed against brute force mid-run on both backends.
    """

    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    def test_prop_identical_and_audited(self, circuit):
        graph = build_circuit(CIRCUITS[circuit])
        sides = random_balanced_sides(graph, 42)
        balance = BalanceConstraint.fifty_fifty(graph)
        results = {}
        for kernel in ("python", "numpy"):
            rec = MemoryRecorder()
            with _sweep(kernel):
                r = run_prop(
                    graph, sides, balance, PropConfig(),
                    recorder=rec, audit=AuditConfig(every=7),
                )
            assert r.stats["audited"] == 1.0
            assert r.stats["audit_checks"] > 0
            results[kernel] = (_moves(rec), r.cut, r.sides)
        assert results["python"] == results["numpy"]


def test_python_stats_omit_csr_fields():
    graph = random_instance(17, max_nodes=30)
    sides = random_balanced_sides(graph, 1)
    balance = BalanceConstraint.fifty_fifty(graph)
    with _sweep("python"):
        r = run_prop(graph, sides, balance, PropConfig())
    assert r.stats["kernel_numpy"] == 0.0
    assert "csr_build_seconds" not in r.stats
