"""Text file formats: round trips, validation errors, byte stability."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from snmodel import fileio
from snmodel.metrics import compute_metrics
from snmodel.network import Network

from oracles import edge_set, from_pairs


def sample_net() -> Network:
    return Network(list("ABCDE"), [0, 1, 2, 0], [1, 2, 3, 4])


class TestEdgeList:
    def test_round_trip_preserves_edges(self, tmp_path):
        net = sample_net()
        path = tmp_path / "edges.tsv"
        fileio.write_edge_list(path, net)
        loaded = fileio.read_edge_list(path)
        assert loaded.n_nodes == net.n_nodes
        assert edge_set(loaded) == edge_set(net)

    def test_render_is_stable(self):
        net = sample_net()
        assert fileio.render_edge_list(net) == fileio.render_edge_list(net)
        assert fileio.render_edge_list(net).startswith(fileio.EDGE_HEADER + "\n")

    def test_rows_are_sorted_by_u_then_v(self):
        rng = np.random.default_rng(4)
        u = rng.integers(0, 999, 5000)
        v = u + rng.integers(1, 1000 - u)
        # Each pair's first copy: an edge given twice is an error.
        first = np.sort(np.unique(v * 1000 + u, return_index=True)[1])
        u, v = u[first], v[first]
        order = np.lexsort((v, u))
        rows = fileio.render_edge_list(Network([None] * 1000, u, v)).splitlines()[2:]
        assert rows == [f"{a}\t{b}" for a, b in zip(u[order], v[order])]

    def test_nodes_header_preserves_isolated_nodes(self):
        net = from_pairs(6, [(0, 1)])
        text = fileio.render_edge_list(net)
        assert "# nodes 6" in text
        assert fileio.parse_edge_list(text).n_nodes == 6

    def test_headerless_text_accepted(self):
        net = fileio.parse_edge_list("0\t1\n1\t2\n")
        assert net.n_nodes == 3
        assert edge_set(net) == {(0, 1), (1, 2)}

    def test_structureless_reader_builds_one_structure_list(self, tmp_path):
        # 3 000 000 structureless nodes: their list of Nones is 24 MB, made once.
        path = tmp_path / "edges.tsv"
        path.write_text("# nodes 3000000\n0\t1\n")
        tracemalloc.start()
        try:
            net = fileio.read_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (net.n_nodes, net.n_edges) == (3_000_000, 1)
        assert peak < 30e6

    def test_duplicate_edge_warns_and_keeps_one(self):
        with pytest.warns(UserWarning, match="duplicate"):
            net = fileio.parse_edge_list("0\t1\n1\t0\n")
        assert net.n_edges == 1

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            fileio.parse_edge_list("0\t1\n3\t3\n")

    def test_malformed_line_reported(self):
        with pytest.raises(ValueError, match="line 1"):
            fileio.parse_edge_list("0\n")
        with pytest.raises(ValueError, match="line 3"):
            fileio.parse_edge_list("0\t1\n1\t2\nx\ty\n")

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            fileio.parse_edge_list("-1\t2\n")

    @pytest.mark.parametrize(
        "line",
        ["0\t99999999999999999999", "0\t9223372036854775807", "# nodes 10000000000000000000"],
        ids=["past-int64", "no-room-for-the-count", "count-past-int64"],
    )
    def test_id_or_count_past_the_edge_arrays_rejected(self, line):
        # The node count is one past the highest id and must fit int64 too.
        with pytest.raises(ValueError, match="^line 2: "):
            fileio.parse_edge_list(f"0\t1\n{line}\n")


class TestStructures:
    def test_written_lines(self, tmp_path):
        path = tmp_path / "structures.tsv"
        fileio.write_structures(path, sample_net())
        assert path.read_text() == fileio.STRUCTURE_HEADER + "\n0\tA\n1\tB\n2\tC\n3\tD\n4\tE\n"

    def test_structureless_nodes_skipped(self):
        net = Network(["A", None, "C"], [0, 1], [1, 2])
        text = fileio.render_structures(net)
        assert "1\t" not in text


class TestDistributionAndReports:
    def test_comparison_rows_sorted_by_node_count(self, tmp_path):
        path = tmp_path / "comparison.tsv"
        fileio.write_comparison(path, {"sn": {20: 1 / 3, 10: 2.0}, "ba": {20: 0.5, 10: 4.0}})
        assert path.read_text() == (
            fileio.COMPARISON_HEADER + "\n# n_nodes\tsn\tba\n10\t2\t4\n20\t0.3333333333\t0.5\n"
        )

    def test_distribution_sorted_by_key(self):
        text = fileio.render_distribution({3: 0.25, 1: 0.5, 2: 0.25}, "degree", "fraction")
        lines = text.strip().splitlines()
        assert lines[0] == fileio.DISTRIBUTION_HEADER
        assert lines[1] == "# degree\tfraction"
        assert [l.split("\t")[0] for l in lines[2:]] == ["1", "2", "3"]

    def test_metrics_json_round_trip(self, tmp_path):
        report = compute_metrics(sample_net())
        path = tmp_path / "metrics.json"
        fileio.write_metrics(path, report)
        payload = json.loads(path.read_text())
        assert payload["format"] == fileio.METRICS_FORMAT
        assert payload["n_nodes"] == 5
        assert payload["average_degree"] == pytest.approx(8 / 5)
        # JSON object keys for the distributions are strings.
        assert set(payload["degree_distribution"]) == {"1", "2"}

    def test_json_rendering_is_sorted_and_stable(self):
        a = fileio.render_json({"b": 1, "a": {"d": 2, "c": 3}})
        assert a.index('"a"') < a.index('"b"')
        assert a == fileio.render_json({"a": {"c": 3, "d": 2}, "b": 1})
