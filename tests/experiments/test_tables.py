"""Tests for the table-regeneration harness (tiny scales for speed)."""

import pytest

from repro.experiments import (
    ComparisonTable,
    format_table4_times,
    run_table2,
    run_table3,
    run_table4,
    table1_rows,
)
from repro.hypergraph import TABLE1_CHARACTERISTICS


TINY = dict(scale=0.06, runs_scale=0.05, names=("balu", "t6"))


class TestTable1:
    def test_full_scale_matches_paper(self):
        rows = table1_rows(scale=1.0, names=["balu", "struct"])
        assert rows["balu"]["nodes"] == TABLE1_CHARACTERISTICS["balu"][0]
        assert rows["struct"]["pins"] == TABLE1_CHARACTERISTICS["struct"][2]

    def test_scaled(self):
        rows = table1_rows(scale=0.1, names=["t2"])
        assert rows["t2"]["nodes"] < TABLE1_CHARACTERISTICS["t2"][0]


@pytest.fixture(scope="module")
def table2():
    return run_table2(**TINY)


@pytest.fixture(scope="module")
def table3():
    return run_table3(**TINY)


class TestTable2:
    def test_structure(self, table2):
        assert isinstance(table2, ComparisonTable)
        assert set(table2.rows) == {"balu", "t6"}
        assert table2.algorithms == [
            "FM100", "FM40", "FM20", "LA-2", "LA-3", "WINDOW", "PROP",
        ]

    def test_totals_sum_rows(self, table2):
        totals = table2.totals()
        for alg in table2.algorithms:
            assert totals[alg] == pytest.approx(
                sum(table2.rows[c][alg].best_cut for c in table2.rows)
            )

    def test_improvements_exclude_reference(self, table2):
        imps = table2.improvements()
        assert "PROP" not in imps
        assert set(imps) == set(table2.algorithms) - {"PROP"}

    def test_more_fm_runs_never_hurt(self, table2):
        totals = table2.totals()
        assert totals["FM100"] <= totals["FM40"] <= totals["FM20"]

    def test_format_text(self, table2):
        text = table2.format_text()
        assert "TOTAL" in text
        assert "balu" in text
        assert "PROP" in text


class TestTable3:
    def test_structure(self, table3):
        assert table3.algorithms == ["MELO", "PARABOLI", "EIG1", "PROP"]
        assert table3.reference == "PROP"

    def test_all_cells_populated(self, table3):
        for circuit in table3.rows:
            for alg in table3.algorithms:
                assert table3.rows[circuit][alg].best_cut >= 0

    def test_cut_accessor(self, table3):
        assert table3.cut("balu", "PROP") == (
            table3.rows["balu"]["PROP"].best_cut
        )


class TestTable4:
    def test_timing_payload(self):
        table = run_table4(scale=0.06, names=("t6",), runs_per_algorithm=1)
        assert set(table.rows) == {"t6"}
        for alg in table.algorithms:
            assert table.rows["t6"][alg].seconds_per_run > 0
        text = format_table4_times(table)
        assert "TOTAL/run" in text
        assert "FM-bucket" in text


class TestCellsWithoutARun:
    """An error-collecting engine can leave a cell with no completed
    run: the table renders it, and its totals skip that circuit."""

    def test_format_text_survives_a_cell_whose_runs_all_failed(self):
        from repro.engine import Engine, EngineConfig
        from repro.experiments.tables import _run_comparison
        from repro.hypergraph import make_benchmark
        from repro.partition import BalanceConstraint
        from repro.testing.partitioners import (
            EchoPartitioner,
            FlakyPartitioner,
        )

        table = _run_comparison(
            "echo vs flaky",
            [
                ("ECHO", EchoPartitioner(), 2),
                ("FLAKY", FlakyPartitioner(failing_seeds=[0, 1]), 2),
            ],
            {"t6": make_benchmark("t6", scale=0.05)},
            BalanceConstraint.fifty_fifty,
            reference="ECHO",
            engine=Engine(EngineConfig(
                workers=0, use_cache=False, on_error="collect",
            )),
        )
        text = table.format_text()
        assert "TOTAL covers 0 of 1 circuits" in text
        flaky = table.rows["t6"]["FLAKY"]
        assert flaky.cuts == [] and len(flaky.errors) == 2
        assert table.complete_circuits() == []
        assert table.totals() == {"ECHO": 0.0, "FLAKY": 0.0}
        assert table.improvements() == {"FLAKY": 0.0}
        assert table.effective_runs() == {"ECHO": 2, "FLAKY": 0}

    def test_totals_cover_the_same_circuits_in_every_column(self):
        from repro.multirun import MultiRunResult
        from repro.partition import BipartitionResult

        def cell(algorithm, circuit, cuts):
            best = BipartitionResult(sides=[], cut=min(cuts)) if cuts else None
            return MultiRunResult(algorithm, circuit, 2, cuts=cuts, best=best)

        table = ComparisonTable("t", ["A", "B"], reference="A")
        table.add_as("c1", "A", cell("A", "c1", [5.0, 3.0]))
        table.add_as("c1", "B", cell("B", "c1", [4.0]))
        table.add_as("c2", "A", cell("A", "c2", [7.0]))
        table.add_as("c2", "B", cell("B", "c2", []))
        assert table.complete_circuits() == ["c1"]
        assert table.totals() == {"A": 3.0, "B": 4.0}
        assert table.improvements() == {"B": pytest.approx(25.0)}
        assert "TOTAL covers 1 of 2 circuits" in table.format_text()
        del table.rows["c2"]
        assert "TOTAL covers" not in table.format_text()
