"""Unit tests for SNAP edge-list IO."""

import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import holme_kim
from repro.graph.io import (
    iter_edge_list,
    read_edge_array,
    read_edge_list,
    write_edge_list,
)
from tests.graph.edge_list_oracle import iteration_order, oracle_edges, oracle_graph


class TestIterEdgeList:
    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n% other comment\n0 1\n1\t2\n")
        assert list(iter_edge_list(path)) == [(0, 1), (1, 2)]

    def test_malformed_line_raises_with_lineno(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\njust-one-token\n")
        with pytest.raises(ValueError, match=":2:"):
            list(iter_edge_list(path))

    def test_non_integer_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(ValueError, match="non-integer"):
            list(iter_edge_list(path))

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 weight=3\n")
        assert list(iter_edge_list(path)) == [(0, 1)]

    def test_id_outside_int64_raises_with_lineno(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 18446744073709551616\n")
        with pytest.raises(OverflowError, match=r"g\.txt:2: endpoint outside int64"):
            list(iter_edge_list(path))


class TestReadEdgeList:
    def test_normalises_directed_duplicates(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 0\n2 2\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 2


# -- the reader against the line-by-line oracle ------------------------------

#: Sparse ids, negative ones included, plus both int64 extremes and ids
#: too long for the reader's one-call fast path.
_IDS = st.one_of(
    st.integers(-25, 25).map(lambda i: 7919 * i - 13),
    st.sampled_from([2**63 - 1, -(2**63), 10**18 + 7, -(10**18) - 7]),
)


@st.composite
def _edge_files(draw):
    """Edge-list text with every quirk the reader skips or normalises."""
    edges = draw(st.lists(st.tuples(_IDS, _IDS), max_size=150))
    lines = []
    for u, v in edges:
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
        tail = draw(st.sampled_from(["", "", "", " 1.5", "\textra col"]))
        lead = draw(st.sampled_from(["", "", " "]))
        lines.append(f"{lead}{u}{sep}{v}{tail}")
        extra = draw(st.sampled_from(
            ["none"] * 5 + ["repeat", "reverse", "loop", "comment", "blank"]
        ))
        if extra == "repeat":
            lines.append(f"{u} {v}")
        elif extra == "reverse":
            lines.append(f"{v}\t{u}")
        elif extra == "loop":
            lines.append(f"{u} {u}")
        elif extra == "comment":
            lines.append(draw(st.sampled_from(["# mid-file", "% other", "#"])))
        elif extra == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
    if edges and draw(st.booleans()):  # replay earlier edges, either way round
        for i in draw(st.lists(st.integers(0, len(edges) - 1), max_size=30)):
            u, v = edges[i]
            lines.append(f"{v} {u}" if draw(st.booleans()) else f"{u} {v}")
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                            max_size=len(lines)))
    text = "# header\n" + "".join(line + end for line, end in zip(lines, endings))
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # last line without a newline
    return text


class TestMatchesOracle:
    """``read_edge_list`` builds from arrays exactly what GraphBuilder did."""

    @settings(max_examples=80, deadline=None)
    @given(text=_edge_files())
    def test_iteration_order(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("oracle") / "g.txt"
        path.write_bytes(text.encode("ascii"))
        want = oracle_graph(path)
        got = read_edge_list(path)
        assert iteration_order(got) == iteration_order(want)
        assert got.num_edges == want.num_edges
        edges, vertices = read_edge_array(path)
        assert vertices.tolist() == want.vertex_list()
        assert sorted(map(tuple, edges.tolist())) == sorted(want.edges())
        assert list(iter_edge_list(path)) == list(oracle_edges(path))

    def test_large_shuffled_file(self, tmp_path):
        """Hub neighbour sets resize many times; their order must survive."""
        graph = holme_kim(2000, 4, 0.5, seed=3)
        rng = np.random.default_rng(9)
        rows = np.array(graph.edge_list())
        rows = rows[rng.permutation(len(rows))]
        flip = rng.random(len(rows)) < 0.5
        rows[flip] = rows[flip][:, ::-1]
        dups = rows[rng.integers(0, len(rows), 3000)][:, ::-1]
        rows = np.concatenate((rows, dups, [[5, 5], [77777, 77777]]))
        rows = rows[rng.permutation(len(rows))]
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in rows.tolist()))
        assert iteration_order(read_edge_list(path)) == iteration_order(
            oracle_graph(path)
        )


class TestMetisFormat:
    def test_round_trip(self, tmp_path, small_social):
        from repro.graph.io import read_metis_graph, write_metis_graph

        path = tmp_path / "g.metis"
        mapping = write_metis_graph(small_social, path)
        back = read_metis_graph(path)
        assert back.num_vertices == small_social.num_vertices
        assert back.num_edges == small_social.num_edges
        # Structure preserved under the relabelling.
        for u, v in small_social.edges():
            assert back.has_edge(mapping[u] - 1, mapping[v] - 1)

    def test_triangle_file_contents(self, tmp_path, triangle):
        from repro.graph.io import write_metis_graph

        path = tmp_path / "t.metis"
        write_metis_graph(triangle, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "3 3"
        assert lines[1].split() == ["2", "3"]

    def test_comment_lines_skipped(self, tmp_path):
        from repro.graph.io import read_metis_graph

        path = tmp_path / "g.metis"
        path.write_text("% comment\n2 1\n2\n1\n")
        g = read_metis_graph(path)
        assert g.num_edges == 1

    def test_header_mismatch_detected(self, tmp_path):
        from repro.graph.io import read_metis_graph

        path = tmp_path / "g.metis"
        path.write_text("2 5\n2\n1\n")
        with pytest.raises(ValueError, match="header says 5 edges"):
            read_metis_graph(path)

    def test_vertex_count_mismatch_detected(self, tmp_path):
        from repro.graph.io import read_metis_graph

        path = tmp_path / "g.metis"
        path.write_text("3 1\n2\n1\n")
        with pytest.raises(ValueError, match="3 vertices"):
            read_metis_graph(path)

    def test_weighted_format_rejected(self, tmp_path):
        from repro.graph.io import read_metis_graph

        path = tmp_path / "g.metis"
        path.write_text("2 1 011\n2 5\n1 5\n")
        with pytest.raises(ValueError, match="not supported"):
            read_metis_graph(path)

    def test_empty_file_rejected(self, tmp_path):
        from repro.graph.io import read_metis_graph

        path = tmp_path / "g.metis"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_metis_graph(path)

    @pytest.mark.parametrize("trailer", ["\n", "\n\n", "\n\n\n"])
    def test_trailing_newlines_accepted(self, tmp_path, trailer):
        # A valid file ending in extra blank line(s) — e.g. editor- or
        # echo-appended newlines — must not be rejected as a vertex-count
        # mismatch: blank lines only count as vertices up to index n.
        from repro.graph.io import read_metis_graph

        path = tmp_path / "g.metis"
        path.write_text("2 1\n2\n1" + trailer)
        g = read_metis_graph(path)
        assert g.num_vertices == 2
        assert g.num_edges == 1

    def test_trailing_blank_lines_keep_isolated_vertices(self, tmp_path):
        # Vertex 3 is isolated: its adjacency line is blank and must be
        # kept, while the extra blank line *beyond* n=3 is stripped.
        from repro.graph.io import read_metis_graph

        path = tmp_path / "g.metis"
        path.write_text("3 1\n2\n1\n\n\n")
        g = read_metis_graph(path)
        assert g.num_vertices == 3
        assert g.degree(2) == 0

    def test_round_trip_with_trailing_newline(self, tmp_path, small_social):
        from repro.graph.io import read_metis_graph, write_metis_graph

        path = tmp_path / "g.metis"
        write_metis_graph(small_social, path)
        # Append a stray blank line, as tools concatenating files often do.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")
        back = read_metis_graph(path)
        assert back.num_vertices == small_social.num_vertices
        assert back.num_edges == small_social.num_edges

    def test_genuinely_missing_vertex_line_still_rejected(self, tmp_path):
        from repro.graph.io import read_metis_graph

        path = tmp_path / "g.metis"
        path.write_text("3 1\n2\n1\n")  # only 2 adjacency lines for n=3
        with pytest.raises(ValueError, match="3 vertices"):
            read_metis_graph(path)

    def test_isolated_vertices_preserved(self, tmp_path):
        from repro.graph.io import read_metis_graph, write_metis_graph
        from repro.graph.graph import Graph

        g = Graph.from_edges([(0, 1)], vertices=[2])
        path = tmp_path / "g.metis"
        write_metis_graph(g, path)
        back = read_metis_graph(path)
        assert back.num_vertices == 3
        assert back.degree(2) == 0


class TestRoundTrip:
    def test_plain_roundtrip(self, tmp_path, small_social):
        path = tmp_path / "g.edges"
        write_edge_list(small_social, path, header=["test graph"])
        back = read_edge_list(path)
        assert back.num_edges == small_social.num_edges
        assert sorted(back.edge_list()) == sorted(small_social.edge_list())

    def test_gzip_roundtrip(self, tmp_path):
        g = holme_kim(100, 3, 0.5, seed=2)
        path = tmp_path / "g.edges.gz"
        write_edge_list(g, path)
        with gzip.open(path, "rt") as fh:
            assert fh.readline().startswith("#")
        back = read_edge_list(path)
        assert sorted(back.edge_list()) == sorted(g.edge_list())

    def test_header_written(self, tmp_path, triangle):
        path = tmp_path / "g.edges"
        write_edge_list(triangle, path, header=["alpha", "beta"])
        text = path.read_text()
        assert "# alpha" in text
        assert "# beta" in text
        assert "# Nodes: 3 Edges: 3" in text
