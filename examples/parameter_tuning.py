#!/usr/bin/env python3
"""Tuning PROP: sweep the paper's knobs and inspect gain prediction.

Two diagnostics in one script:

1. a configuration sweep over the knobs the paper fixes (refinement
   iterations, pinit, top-k update width) with best/mean cut per point;
2. a gain-prediction report — how well the probabilistic gain that picks
   each move predicts its realized cut delta, and how often PROP invests
   in negative-immediate moves (Sec. 3's key behaviour).

Run:  python examples/parameter_tuning.py
"""

from repro import make_benchmark
from repro.analysis import gain_prediction_report
from repro.experiments import sweep_prop_config

def main() -> None:
    graph = make_benchmark("t5", scale=0.25)
    print(f"circuit t5 @ 0.25: {graph.num_nodes} nodes, "
          f"{graph.num_nets} nets\n")

    sweep = sweep_prop_config(
        graph,
        {
            "refinement_iterations": [0, 2],
            "pinit": [0.6, 0.95],
            "top_update_count": [0, 5],
        },
        runs=3,
        circuit_name="t5@0.25",
    )
    print(sweep.format_text())
    best = sweep.best_point()
    print(f"\nbest point: {best.override_dict()} "
          f"with cut {best.best_cut:.0f}")

    report = gain_prediction_report(graph, seed=0)
    rho = (
        f"{report.spearman_rho:.2f}"
        if report.spearman_rho is not None
        else "n/a"
    )
    print(f"\ngain prediction over {report.num_moves} tentative moves:")
    print(f"  selection-vs-immediate rank correlation (pass 1): {rho}")
    print(f"  moves taken with negative immediate gain: "
          f"{report.negative_immediate_fraction:.1%}")
    print("  (PROP spends moves with negative immediate gain on future")
    print("   payoff — exactly the behaviour Sec. 3 argues for)")

if __name__ == "__main__":
    main()
