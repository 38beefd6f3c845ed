"""Tests for the prop-partition command-line driver."""

import json

import pytest

from repro.cli import main
from repro.hypergraph import hierarchical_circuit
from repro.hypergraph import io_ as nio


@pytest.fixture
def netlist_file(tmp_path):
    graph = hierarchical_circuit(80, 88, 320, seed=1)
    path = tmp_path / "circuit.hgr"
    nio.write_hgr(graph, path)
    return path


class TestCli:
    def test_partition_file(self, netlist_file, capsys):
        assert main([str(netlist_file), "-a", "prop"]) == 0
        out = capsys.readouterr().out
        assert "PROP" in out
        assert "best cut" in out

    def test_generate(self, capsys):
        assert main(["--generate", "t6", "--scale", "0.06", "-a", "fm"]) == 0
        out = capsys.readouterr().out
        assert "FM-bucket" in out

    def test_multiple_algorithms(self, netlist_file, capsys):
        assert (
            main([str(netlist_file), "-a", "fm", "la-2", "--runs", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "FM-bucket" in out
        assert "LA-2" in out

    def test_balance_4555(self, netlist_file, capsys):
        assert main([str(netlist_file), "--balance", "45-55"]) == 0
        assert "0.450" in capsys.readouterr().out

    def test_custom_balance(self, netlist_file, capsys):
        assert main([str(netlist_file), "--balance", "40-60", "-a", "fm"]) == 0

    def test_output_json(self, netlist_file, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        assert (
            main([str(netlist_file), "-a", "fm", "-o", str(out_path)]) == 0
        )
        payload = json.loads(out_path.read_text())
        assert payload["algorithm"] == "FM-bucket"
        assert len(payload["sides"]) == 80

    def test_no_input_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_algorithm_errors(self, netlist_file):
        with pytest.raises(Exception):
            main([str(netlist_file), "-a", "quantum"])

    def test_kway_mode(self, capsys):
        assert main(
            ["--generate", "t6", "--scale", "0.08", "--kway", "3", "-a", "fm"]
        ) == 0
        out = capsys.readouterr().out
        assert "k=3" in out
        assert "part weights" in out

    def test_kway_output_json(self, tmp_path, capsys):
        out_path = tmp_path / "kway.json"
        assert main(
            ["--generate", "t6", "--scale", "0.08", "--kway", "3",
             "-a", "fm", "-o", str(out_path)]
        ) == 0
        payload = json.loads(out_path.read_text())
        assert payload["mode"] == "kway"
        assert payload["k"] == 3
        assert set(payload["assignment"]) <= {0, 1, 2}

    def test_place_mode(self, tmp_path, capsys):
        out_path = tmp_path / "place.json"
        assert main(
            ["--generate", "t6", "--scale", "0.08", "--place", "-a", "fm",
             "-o", str(out_path)]
        ) == 0
        assert "HPWL" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["mode"] == "place"
        assert len(payload["x"]) == len(payload["y"])

    def test_fpga_mode(self, capsys):
        assert main(
            ["--generate", "t6", "--scale", "0.08", "--fpga", "2",
             "-a", "fm", "--fpga-io", "500"]
        ) == 0
        out = capsys.readouterr().out
        assert "FPGA0" in out
        assert "feasible" in out

    def test_modes_mutually_exclusive(self, netlist_file):
        with pytest.raises(SystemExit):
            main([str(netlist_file), "--kway", "3", "--place"])

    def test_workers_flag_partition(self, netlist_file, tmp_path, capsys):
        assert main([
            str(netlist_file), "-a", "fm", "--runs", "3", "--workers", "0",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "engine: 0 worker(s)" in out
        assert "3 executed" in out

    def test_no_cache_flag(self, netlist_file, capsys):
        assert main([
            str(netlist_file), "-a", "fm", "--runs", "2", "--workers", "0",
            "--no-cache",
        ]) == 0
        assert "cache off" in capsys.readouterr().out

    def test_every_algorithm_runs(self, capsys):
        algos = ["prop", "prop-cl", "ml-prop", "fm", "fm-tree", "la-2",
                 "la-3", "kl", "sa", "eig1", "melo", "window", "paraboli",
                 "random"]
        assert main(["--generate", "t6", "--scale", "0.05", "-a"] + algos) == 0
        out = capsys.readouterr().out
        for tag in ("PROP", "EIG1", "MELO", "WINDOW", "PARABOLI", "KL"):
            assert tag in out


class TestBenchSubcommand:
    """``bench`` is not a subcommand: the partition mode runs the same
    pooled, cached best-of-N batches."""

    @pytest.mark.slow
    def test_bench_smoke_multiprocess(self, tmp_path, capsys, monkeypatch):
        """The partition mode's pooled batch, pool and all."""
        monkeypatch.chdir(tmp_path)
        assert main([
            "--generate", "t6", "--scale", "0.06", "-a", "fm", "prop",
            "--runs", "4", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "FM-bucket" in out
        assert "PROP" in out
        assert "engine: 2 worker(s)" in out
        assert (tmp_path / ".repro_cache").is_dir()

    def test_bench_warm_cache_hits(self, tmp_path, capsys):
        args = [
            "--generate", "t6", "--scale", "0.06", "-a", "fm", "--runs", "3",
            "--workers", "0", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "3 executed" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "3 cache hit(s)" in second
        assert "0 executed" in second

    def test_bench_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--workers", "2", "--runs", "4"])
        assert exc.value.code == 2
        assert "cannot read netlist 'bench'" in capsys.readouterr().err


class TestUnreadableNetlist:
    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nosuch.hgr")
        with pytest.raises(SystemExit) as exc:
            main([missing])
        assert exc.value.code == 2
        assert f"cannot read netlist {missing!r}" in capsys.readouterr().err

    def test_ensemble_solve_missing_file_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["ensemble", "solve", str(tmp_path / "nosuch.hgr")])
        assert exc.value.code == 2
