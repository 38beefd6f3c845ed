"""Sec. 3.5 / Sec. 4 — complexity shapes.

The paper derives Θ(m log n) per PROP pass (m = pins) and Θ(nd) for
FM-bucket, and reports PROP ≈ 4.6x FM-bucket per run.  This bench sweeps
instance size and fits the growth in m two ways, for PROP and FM-bucket:

* **per run** — free-running, as the protocol runs them.  A run's pass
  count depends on its seed (PROP: 6 to 9 passes at 2.4k nodes), so every
  size takes the median of seeds 0–2.
* **per pass** — under a 2-pass cap, the median over the same seeds of
  seconds per pass and of µs per tentative move.  This is the quantity
  the Θ(m log n) bound describes, free of the pass count.

The per-run fits are gated (below quadratic), and a single mid-size run
of each method is benchmarked.
"""


import statistics
import time

import pytest

from conftest import write_result
from repro.baselines import FMPartitioner
from repro.core import PropConfig, PropPartitioner
from repro.hypergraph import hierarchical_circuit

SIZES = (300, 600, 1200, 2400, 4800, 9600)
SEEDS = (0, 1, 2)
PASS_CAP = 2

#: name -> (free-running partitioner, pass-capped partitioner)
METHODS = {
    "PROP": (PropPartitioner(), PropPartitioner(PropConfig(max_passes=PASS_CAP))),
    "FM": (FMPartitioner("bucket"), FMPartitioner("bucket", max_passes=PASS_CAP)),
}


def _run(partitioner, graph, seed):
    """Wall seconds of one run, with its result."""
    start = time.perf_counter()
    result = partitioner.partition(graph, seed=seed)
    return time.perf_counter() - start, result


def _measure(free, capped, graph):
    """Medians over ``SEEDS``: seconds per free run, seconds per capped
    pass, and µs per capped tentative move."""
    run_s, pass_s, move_us = [], [], []
    for seed in SEEDS:
        run_s.append(_run(free, graph, seed)[0])
        seconds, result = _run(capped, graph, seed)
        pass_s.append(seconds / result.passes)
        move_us.append(seconds / result.stats["tentative_moves"] * 1e6)
    return {
        "run_s": statistics.median(run_s),
        "pass_s": statistics.median(pass_s),
        "move_us": statistics.median(move_us),
    }


@pytest.fixture(scope="module")
def sweep():
    rows = []
    for n in SIZES:
        graph = hierarchical_circuit(n, round(n * 1.05), round(n * 3.8), seed=1)
        row = {"n": n, "m": graph.num_pins}
        for name, (free, capped) in METHODS.items():
            row[name] = _measure(free, capped, graph)
        rows.append(row)
    return rows


def _fit(sweep, name, key):
    from repro.analysis import fit_power_law

    return fit_power_law([row["m"] for row in sweep],
                         [row[name][key] for row in sweep])


def test_scaling_sweep(sweep, results_dir, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    seeds = f"median of seeds {SEEDS[0]}-{SEEDS[-1]}"
    lines = [
        f"Scaling sweep — seconds per full run vs instance size ({seeds})",
        f"{'n':>6s} {'pins':>7s} {'PROP s':>9s} {'FM s':>9s} {'ratio':>7s}",
    ]
    for row in sweep:
        prop_t, fm_t = row["PROP"]["run_s"], row["FM"]["run_s"]
        lines.append(
            f"{row['n']:>6d} {row['m']:>7d} {prop_t:>9.3f} {fm_t:>9.3f} "
            f"{prop_t / fm_t:>7.1f}"
        )
    lines += [
        "",
        f"Per pass under a {PASS_CAP}-pass cap ({seeds})",
        f"{'n':>6s} {'pins':>7s} {'PROP s/pass':>12s} {'FM s/pass':>10s} "
        f"{'PROP us/move':>13s} {'FM us/move':>11s}",
    ]
    for row in sweep:
        prop, fm = row["PROP"], row["FM"]
        lines.append(
            f"{row['n']:>6d} {row['m']:>7d} {prop['pass_s']:>12.4f} "
            f"{fm['pass_s']:>10.4f} {prop['move_us']:>13.1f} "
            f"{fm['move_us']:>11.1f}"
        )
    lines.append("")
    for name in METHODS:
        per_run = _fit(sweep, name, "run_s")
        per_pass = _fit(sweep, name, "pass_s")
        lines.append(
            f"{name}: per run m^{per_run.exponent:.2f} "
            f"(R²={per_run.r_squared:.2f}), per pass m^{per_pass.exponent:.2f} "
            f"(R²={per_pass.r_squared:.2f})"
        )
    write_result(results_dir, "scaling", "\n".join(lines))


def test_prop_growth_near_linear_in_pins(sweep, benchmark):
    """Fitted per-run exponent of time vs m must stay below quadratic.

    Θ(m log n) per pass plus a mildly size-dependent pass count lands
    around 1.3-1.4 over the median of three seeds; we reject >= 2.0,
    which would indicate an accidental O(m²) inner loop.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    fit = _fit(sweep, "PROP", "run_s")
    assert fit.exponent < 2.0, (
        f"PROP time grows as m^{fit.exponent:.2f} (R²={fit.r_squared:.2f})"
    )


def test_fm_growth_near_linear_in_pins(sweep, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    fit = _fit(sweep, "FM", "run_s")
    assert fit.exponent < 1.8, (
        f"FM time grows as m^{fit.exponent:.2f} (R²={fit.r_squared:.2f})"
    )


def test_prop_fm_ratio_stays_bounded(sweep, benchmark):
    """The PROP/FM per-run ratio must not blow up with size (both are
    near-linear; the paper's ratio is a constant 4.6)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    ratios = [row["PROP"]["run_s"] / row["FM"]["run_s"] for row in sweep]
    assert max(ratios) < 40.0
    assert max(ratios) / min(ratios) < 6.0


def test_single_run_benchmarks(benchmark):
    """pytest-benchmark timing for one mid-size PROP run."""
    graph = hierarchical_circuit(800, 840, 3040, seed=2)
    result = benchmark.pedantic(
        lambda: PropPartitioner().partition(graph, seed=0),
        rounds=3,
        iterations=1,
    )
    assert result.cut > 0
