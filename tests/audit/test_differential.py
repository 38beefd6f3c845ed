"""Differential oracle tests: incremental engines vs. from-scratch runs.

The reference runs in :mod:`repro.audit.differential` recompute every
gain before every move and replay rollbacks over plain lists.  An
incremental engine that shares the tie-breaking rules must match them
move for move, up to where the dead-cut stop rule ends its pass; the
seeded grids here make any divergence reproducible from
``(seed, max_nodes)`` alone.
"""

import pytest

from repro.audit.differential import (
    Mismatch,
    Trajectory,
    compare_trajectories,
    differential_fm,
    differential_la,
    run_differential_grid,
)
from repro.hypergraph import make_benchmark
from repro.partition import BalanceConstraint, random_balanced_sides
from repro.testing import GRID_SEEDS, weighted_instance

pytestmark = pytest.mark.audit


def _assert_all_ok(reports):
    bad = [r for r in reports if not r.ok]
    assert not bad, "\n".join(
        f"{r.label} seed={r.seed} n={r.num_nodes}: {r.mismatch}" for r in bad
    )


class TestSeededGrids:
    def test_unweighted_grid_every_check(self):
        """FM, LA-2 and LA-3 over 20 seeded circuits."""
        reports = run_differential_grid(GRID_SEEDS)
        assert len(reports) == 3 * len(GRID_SEEDS)
        _assert_all_ok(reports)

    def test_grid_under_relaxed_balance(self):
        reports = run_differential_grid(
            GRID_SEEDS[:8], balance_spec="40-60", checks=("fm", "la2")
        )
        _assert_all_ok(reports)

    def test_weighted_instances(self):
        """Node weights + net costs exercise the weight-aware balance path."""
        reports = []
        for seed in GRID_SEEDS[:8]:
            graph = weighted_instance(seed, max_nodes=12)
            sides = random_balanced_sides(graph, seed)
            balance = BalanceConstraint.from_fractions(graph, 0.35, 0.65)
            reports.append(differential_fm(graph, sides, balance, seed=seed))
            reports.append(
                differential_la(graph, sides, balance, k=2, seed=seed)
            )
        _assert_all_ok(reports)

    def test_benchmark_circuit_fm_and_la(self):
        """One real Table-1 circuit, not just generator instances."""
        graph = make_benchmark("t6", scale=0.04)
        sides = random_balanced_sides(graph, 3)
        balance = BalanceConstraint.fifty_fifty(graph)
        _assert_all_ok([
            differential_fm(graph, sides, balance, seed=3),
            differential_la(graph, sides, balance, k=2, seed=3),
        ])


class TestCompareTrajectories:
    """The comparator itself must flag each divergence kind."""

    def _traj(self, **overrides):
        base = dict(
            algorithm="x",
            moves=[(0, 4, 1.0), (0, 2, -1.0)],
            kept=[1],
            pass_cuts=[3.0],
            final_sides=[0, 1, 0, 1, 1],
            final_cut=3.0,
        )
        base.update(overrides)
        return Trajectory(**base)

    def test_identical_is_clean(self):
        assert compare_trajectories(self._traj(), self._traj()) is None

    def test_gain_within_tolerance_is_clean(self):
        b = self._traj(moves=[(0, 4, 1.0 + 1e-9), (0, 2, -1.0)])
        assert compare_trajectories(self._traj(), b) is None

    def test_different_node_is_a_move_mismatch(self):
        b = self._traj(moves=[(0, 3, 1.0), (0, 2, -1.0)])
        m = compare_trajectories(self._traj(), b)
        assert isinstance(m, Mismatch) and m.kind == "move" and m.index == 0

    def test_different_gain_is_a_move_mismatch(self):
        b = self._traj(moves=[(0, 4, 1.0), (0, 2, -1.5)])
        m = compare_trajectories(self._traj(), b)
        assert m is not None and m.kind == "move" and m.index == 1

    def test_missing_move_is_a_length_mismatch(self):
        b = self._traj(moves=[(0, 4, 1.0)])
        m = compare_trajectories(self._traj(), b)
        assert m is not None and m.kind == "length"

    def test_wrong_prefix_is_a_kept_mismatch(self):
        m = compare_trajectories(self._traj(), self._traj(kept=[2]))
        assert m is not None and m.kind == "kept"

    def test_divergent_sides_point_at_first_node(self):
        b = self._traj(final_sides=[0, 1, 1, 1, 1])
        m = compare_trajectories(self._traj(), b)
        assert m is not None and m.kind == "sides" and m.index == 2

    def test_cut_drift_is_flagged_last(self):
        m = compare_trajectories(self._traj(), self._traj(final_cut=2.0))
        assert m is not None and m.kind == "cut"

    def _reference(self, stop):
        """A two-pass reference whose first pass the stop rule first
        licenses after ``stop`` of its three moves."""
        return self._traj(
            moves=[(0, 4, 1.0), (0, 2, -1.0), (0, 3, -1.0), (1, 0, 0.0)],
            kept=[1, 0],
            stops=[stop, None],
        )

    def test_pass_ending_at_the_licensed_stop_is_clean(self):
        stopped = self._traj(moves=[(0, 4, 1.0), (0, 2, -1.0), (1, 0, 0.0)],
                             kept=[1, 0])
        assert compare_trajectories(stopped, self._reference(2)) is None

    def test_pass_ending_before_or_after_the_licensed_stop_is_flagged(self):
        early = self._traj(moves=[(0, 4, 1.0), (1, 0, 0.0)], kept=[1, 0])
        m = compare_trajectories(early, self._reference(2))
        assert m is not None and m.kind == "stop" and m.index == 1
        late = self._traj(moves=[(0, 4, 1.0), (0, 2, -1.0), (1, 0, 0.0)],
                          kept=[1, 0])
        m = compare_trajectories(late, self._reference(1))
        assert m is not None and m.kind == "stop" and m.index == 2

    def test_unlicensed_early_end_is_flagged(self):
        early = self._traj(moves=[(0, 4, 1.0), (1, 0, 0.0)], kept=[1, 0])
        m = compare_trajectories(early, self._reference(None))
        assert m is not None and m.kind == "stop"
