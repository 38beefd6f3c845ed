"""Unit tests for netlist readers/writers (hgr, SIGDA-style .net, JSON)."""

import pytest

from repro.hypergraph import (
    Hypergraph,
    HypergraphBuilder,
    HypergraphError,
    hierarchical_circuit,
)
from repro.hypergraph import io_ as nio


def _weighted_graph() -> Hypergraph:
    return Hypergraph(
        [[0, 1], [1, 2, 3], [0, 3]],
        num_nodes=4,
        net_costs=[1.0, 2.5, 1.0],
        node_weights=[1.0, 2.0, 1.0, 1.0],
    )


def _named_graph() -> Hypergraph:
    b = HypergraphBuilder()
    b.add_node("alu", weight=2.0)
    b.add_node("mul")
    b.add_node("reg")
    b.add_net_by_names(["alu", "mul"], name="clk", cost=3.0)
    b.add_net_by_names(["mul", "reg"], name="d0")
    return b.build()


class TestHgr:
    def test_roundtrip_plain(self, tmp_path, tiny_graph):
        path = tmp_path / "g.hgr"
        nio.write_hgr(tiny_graph, path)
        assert nio.read_hgr(path) == tiny_graph

    def test_roundtrip_weighted(self, tmp_path):
        path = tmp_path / "w.hgr"
        graph = _weighted_graph()
        nio.write_hgr(graph, path)
        back = nio.read_hgr(path)
        assert back == graph
        assert back.node_weights == graph.node_weights

    def test_roundtrip_generated(self, tmp_path):
        graph = hierarchical_circuit(120, 130, 470, seed=3)
        path = tmp_path / "gen.hgr"
        nio.write_hgr(graph, path)
        assert nio.read_hgr(path) == graph

    def test_one_based_indices(self, tmp_path):
        path = tmp_path / "g.hgr"
        path.write_text("1 2\n1 2\n")
        hg = nio.read_hgr(path)
        assert hg.net(0) == (0, 1)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "g.hgr"
        path.write_text("% comment\n1 2\n1 2\n")
        assert nio.read_hgr(path).num_nets == 1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.hgr"
        path.write_text("")
        with pytest.raises(HypergraphError, match="empty"):
            nio.read_hgr(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.hgr"
        path.write_text("1\n1 2\n")
        with pytest.raises(HypergraphError, match="header"):
            nio.read_hgr(path)

    def test_wrong_line_count(self, tmp_path):
        path = tmp_path / "bad.hgr"
        path.write_text("2 3\n1 2\n")
        with pytest.raises(HypergraphError, match="data lines"):
            nio.read_hgr(path)

    def test_pin_out_of_range(self, tmp_path):
        path = tmp_path / "bad.hgr"
        path.write_text("1 2\n1 9\n")
        with pytest.raises(HypergraphError, match="out of range"):
            nio.read_hgr(path)

    def test_unsupported_fmt(self, tmp_path):
        path = tmp_path / "bad.hgr"
        path.write_text("1 2 7\n1 2\n")
        with pytest.raises(HypergraphError, match="fmt"):
            nio.read_hgr(path)

    @pytest.mark.parametrize("text", [
        "1 2 1\nnan 1 2\n",      # net cost
        "1 2 1\ninf 1 2\n",
        "1 2 10\n1 2\n1\nnan\n",  # node weight
        "1 2 10\n1 2\ninf\n1\n",
    ])
    def test_non_finite_value_rejected(self, tmp_path, text):
        path = tmp_path / "bad.hgr"
        path.write_text(text)
        with pytest.raises(HypergraphError, match="not finite"):
            nio.read_hgr(path)


class TestNetlist:
    def test_roundtrip_named(self, tmp_path):
        graph = _named_graph()
        path = tmp_path / "g.net"
        nio.write_netlist(graph, path)
        back = nio.read_netlist(path)
        assert back == graph
        assert back.node_names == graph.node_names
        assert back.net_names == graph.net_names

    def test_roundtrip_anonymous(self, tmp_path, tiny_graph):
        path = tmp_path / "g.net"
        nio.write_netlist(tiny_graph, path)
        assert nio.read_netlist(path) == tiny_graph

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.net"
        path.write_text("# header\n\nNODE a\nNODE b\nNET n1 a b  # trailing\n")
        hg = nio.read_netlist(path)
        assert hg.num_nodes == 2
        assert hg.num_nets == 1

    def test_cost_clause(self, tmp_path):
        path = tmp_path / "g.net"
        path.write_text("NET n1 COST 4.5 a b\n")
        hg = nio.read_netlist(path)
        assert hg.net_cost(0) == 4.5

    def test_bad_keyword(self, tmp_path):
        path = tmp_path / "g.net"
        path.write_text("WIRE a b\n")
        with pytest.raises(HypergraphError, match="unknown keyword"):
            nio.read_netlist(path)

    def test_bad_net_line(self, tmp_path):
        path = tmp_path / "g.net"
        path.write_text("NET onlyname\n")
        with pytest.raises(HypergraphError, match="bad NET"):
            nio.read_netlist(path)

    def test_bad_cost_clause(self, tmp_path):
        path = tmp_path / "g.net"
        path.write_text("NET n COST 2\n")
        with pytest.raises(HypergraphError, match="COST"):
            nio.read_netlist(path)

    @pytest.mark.parametrize("text", [
        "NET n1 COST nan a b\n",
        "NET n1 COST inf a b\n",
        "NODE a nan\nNET n1 a b\n",
        "NODE a inf\nNET n1 a b\n",
    ])
    def test_non_finite_value_rejected(self, tmp_path, text):
        path = tmp_path / "g.net"
        path.write_text(text)
        with pytest.raises(HypergraphError, match="not finite"):
            nio.read_netlist(path)


class TestJson:
    def test_roundtrip(self, tmp_path):
        graph = _named_graph()
        path = tmp_path / "g.json"
        nio.write_json(graph, path)
        back = nio.read_json(path)
        assert back == graph
        assert back.node_names == graph.node_names

    def test_missing_field(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"nets": [[0, 1]]}')
        with pytest.raises(HypergraphError, match="missing field"):
            nio.read_json(path)

    @pytest.mark.parametrize("field,value", [
        ("net_costs", "[NaN]"),
        ("net_costs", "[Infinity]"),
        ("node_weights", "[1.0, NaN]"),
        ("node_weights", "[Infinity, 1.0]"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, field, value):
        path = tmp_path / "g.json"
        path.write_text(
            '{"nets": [[0, 1]], "num_nodes": 2, "%s": %s}' % (field, value)
        )
        with pytest.raises(HypergraphError, match="not finite"):
            nio.read_json(path)


class TestDispatch:
    @pytest.mark.parametrize("ext", [".hgr", ".net", ".json"])
    def test_roundtrip_by_extension(self, tmp_path, tiny_graph, ext):
        path = tmp_path / f"g{ext}"
        nio.write(tiny_graph, path)
        assert nio.read(path) == tiny_graph

    def test_unknown_extension(self, tmp_path, tiny_graph):
        with pytest.raises(HypergraphError, match="extension"):
            nio.write(tiny_graph, tmp_path / "g.xyz")
        with pytest.raises(HypergraphError, match="extension"):
            nio.read(tmp_path / "g.xyz")
