"""Ablations over PROP's design choices (DESIGN.md experiment index).

The paper fixes several knobs with one-line justifications; these benches
measure what each is worth on a mid-size clustered circuit:

* bootstrap method: blind ``pinit`` vs deterministic-gain-derived (Sec. 3);
* number of gain↔probability refinement iterations (paper uses 2);
* top-k re-rank width after each move (paper uses ~5);
* probability function: linear (paper) vs sigmoid;
* weighted nets: PROP and FM-tree optimizing a timing-weighted cut.
"""

import pytest

from conftest import write_result
from repro.baselines import FMPartitioner
from repro.core import PropConfig, PropPartitioner
from repro.hypergraph import make_benchmark
from repro.multirun import run_many
from repro.timing import critical_net_weights, synthetic_critical_nets, timing_report

RUNS = 5


@pytest.fixture(scope="module")
def circuit():
    # s9234 at quarter scale is the smallest suite instance where the
    # iterative methods do NOT all saturate to the same cut, so knob
    # differences remain visible.
    return make_benchmark("s9234", scale=0.25)


def _best(circuit, config) -> float:
    return run_many(PropPartitioner(config), circuit, runs=RUNS).best_cut


def test_ablation_bootstrap_method(circuit, results_dir, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    blind = _best(circuit, PropConfig(init_method="pinit"))
    derived = _best(circuit, PropConfig(init_method="deterministic"))
    write_result(
        results_dir,
        "ablation_bootstrap",
        f"bootstrap: pinit={blind:.0f}  deterministic-gains={derived:.0f}",
    )
    # both bootstraps must land in the same quality regime (Sec. 3 presents
    # them as interchangeable ways to seed the fixed point)
    assert blind <= derived * 1.4
    assert derived <= blind * 1.4


def test_ablation_refinement_iterations(circuit, results_dir, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    cuts = {
        it: _best(circuit, PropConfig(refinement_iterations=it))
        for it in (0, 1, 2, 4)
    }
    write_result(
        results_dir,
        "ablation_refinement",
        "refinement iterations -> best cut: "
        + "  ".join(f"{k}: {v:.0f}" for k, v in cuts.items()),
    )
    # the paper's 2 iterations must not be clearly worse than more
    assert cuts[2] <= cuts[4] * 1.25


def test_ablation_top_update_width(circuit, results_dir, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    cuts = {
        k: _best(circuit, PropConfig(top_update_count=k)) for k in (0, 5, 20)
    }
    write_result(
        results_dir,
        "ablation_topk",
        "top-k update width -> best cut: "
        + "  ".join(f"{k}: {v:.0f}" for k, v in cuts.items()),
    )
    # Sec. 3.4 claims top-5 recovers nearly all of the full update's value:
    # widening to 20 must not massively beat 5
    assert cuts[5] <= cuts[20] * 1.3


def test_ablation_probability_function(circuit, results_dir, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    linear = _best(circuit, PropConfig(probability_function="linear"))
    sigmoid = _best(circuit, PropConfig(probability_function="sigmoid"))
    write_result(
        results_dir,
        "ablation_probfn",
        f"probability fn: linear={linear:.0f}  sigmoid={sigmoid:.0f}",
    )
    assert linear <= sigmoid * 1.4


def test_weighted_nets_prop_vs_fm_tree(circuit, results_dir, benchmark):
    """Timing-driven weighting (Sec. 4): with non-unit costs FM loses its
    bucket structure; PROP keeps its complexity and must stay competitive
    on the weighted objective."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    critical = synthetic_critical_nets(circuit, fraction=0.1, seed=0)
    weighted = critical_net_weights(circuit, critical, critical_weight=8.0)

    prop = run_many(PropPartitioner(), weighted, runs=RUNS)
    fm_tree = run_many(FMPartitioner("tree"), weighted, runs=RUNS)
    prop_report = timing_report(weighted, prop.best.sides, critical)
    fm_report = timing_report(weighted, fm_tree.best.sides, critical)
    write_result(
        results_dir,
        "ablation_weighted",
        (
            f"weighted cut: PROP={prop.best_cut:.0f} "
            f"({prop.seconds_per_run:.2f}s/run, "
            f"critical cut {prop_report.critical_cut}/{prop_report.critical_total}) "
            f"FM-tree={fm_tree.best_cut:.0f} "
            f"({fm_tree.seconds_per_run:.2f}s/run, "
            f"critical cut {fm_report.critical_cut}/{fm_report.critical_total})"
        ),
    )
    assert prop.best_cut <= fm_tree.best_cut * 1.15
