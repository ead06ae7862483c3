"""Tests for the windowed streaming-local partitioner (§V future work)."""

import math

import pytest

from repro.core.tlp import TLPPartitioner
from repro.core.windowed import WindowedLocalPartitioner
from repro.graph.generators import holme_kim, path_graph
from repro.graph.graph import Graph
from repro.partitioning.metrics import edge_balance, replication_factor
from repro.partitioning.registry import make_partitioner
from repro.streaming.orders import edge_stream


def capacity(graph, p):
    return math.ceil(graph.num_edges / p)


class TestContract:
    def test_covers_every_edge(self, communities):
        p = 6
        part = WindowedLocalPartitioner(
            window_size=capacity(communities, p) * 2, seed=0
        ).partition(communities, p)
        part.validate_against(communities)

    def test_strict_capacity(self, communities):
        p = 6
        part = WindowedLocalPartitioner(
            window_size=capacity(communities, p), seed=0
        ).partition(communities, p)
        assert all(s <= capacity(communities, p) for s in part.partition_sizes())

    def test_window_smaller_than_capacity_rejected(self, communities):
        with pytest.raises(ValueError, match="smaller than the partition"):
            WindowedLocalPartitioner(window_size=5, seed=0).partition(communities, 2)

    def test_pure_stream_without_graph(self, communities):
        """Works from a bare edge iterable plus a total_edges hint."""
        p = 6
        edges = edge_stream(communities, "random", seed=1)
        part = WindowedLocalPartitioner(
            window_size=capacity(communities, p) * 2, seed=0
        ).assign_stream(iter(edges), p, total_edges=len(edges))
        part.validate_against(communities)

    def test_counting_fallback_materialises(self, communities):
        p = 6
        part = WindowedLocalPartitioner(
            window_size=communities.num_edges, seed=0
        ).assign_stream(iter(communities.edge_list()), p)
        part.validate_against(communities)

    def test_empty_graph(self):
        part = WindowedLocalPartitioner(window_size=10, seed=0).partition(
            Graph.empty(), 3
        )
        assert part.num_edges == 0
        assert part.num_partitions == 3

    def test_disconnected(self, two_triangles):
        part = WindowedLocalPartitioner(window_size=6, seed=0).partition(
            two_triangles, 2
        )
        part.validate_against(two_triangles)

    def test_deterministic(self, communities):
        p = 6
        w = capacity(communities, p) * 2
        a = WindowedLocalPartitioner(window_size=w, seed=5).partition(communities, p)
        b = WindowedLocalPartitioner(window_size=w, seed=5).partition(communities, p)
        assert [sorted(a.edges_of(k)) for k in range(p)] == [
            sorted(b.edges_of(k)) for k in range(p)
        ]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            WindowedLocalPartitioner(window_size=0)
        with pytest.raises(ValueError):
            WindowedLocalPartitioner(window_size=10, slack=0.5)

    def test_similarity_scope_not_accepted(self):
        """Episodes always score Stage I on the buffer residual."""
        with pytest.raises(TypeError, match="similarity_scope"):
            WindowedLocalPartitioner(window_size=10, similarity_scope="residual")


class TestDeclaredTotal:
    """``total_edges`` must not undercount the stream."""

    @pytest.fixture
    def stream(self):
        return list(holme_kim(200, 3, 0.3, seed=1).edges())

    @pytest.mark.parametrize("window", [136, 591])
    def test_longer_stream_than_declared_raises(self, stream, window):
        assert len(stream) == 591
        partitioner = WindowedLocalPartitioner(window_size=window, seed=0)
        with pytest.raises(ValueError, match="total_edges=541 edges: 591 seen"):
            partitioner.assign_stream(iter(stream), 4, total_edges=541)

    def test_shorter_stream_than_declared_is_partitioned(self, stream):
        part = WindowedLocalPartitioner(window_size=200, seed=0).assign_stream(
            iter(stream), 4, total_edges=700
        )
        assert sorted(e for k in range(4) for e in part.edges_of(k)) == sorted(stream)


class TestQuality:
    def test_quality_improves_with_window(self, communities):
        """The §V trade-off: larger window -> better RF."""
        p = 6
        cap = capacity(communities, p)
        rf = {}
        for w in (cap, communities.num_edges):
            part = WindowedLocalPartitioner(window_size=w, seed=0).partition(
                communities, p
            )
            rf[w] = replication_factor(part, communities)
        assert rf[communities.num_edges] <= rf[cap] + 0.05

    def test_full_window_close_to_tlp(self, communities):
        p = 6
        tlp = replication_factor(
            TLPPartitioner(seed=0).partition(communities, p), communities
        )
        windowed = replication_factor(
            WindowedLocalPartitioner(
                window_size=communities.num_edges, seed=0
            ).partition(communities, p),
            communities,
        )
        assert windowed <= tlp * 1.15

    def test_beats_random_on_communities(self, communities):
        p = 6
        windowed = WindowedLocalPartitioner(
            window_size=2 * capacity(communities, p), seed=0
        ).partition(communities, p)
        random_part = make_partitioner("Random", seed=0).partition(communities, p)
        assert replication_factor(windowed, communities) < replication_factor(
            random_part, communities
        )

    def test_balance_is_tight(self, communities):
        p = 6
        part = WindowedLocalPartitioner(
            window_size=2 * capacity(communities, p), seed=0
        ).partition(communities, p)
        assert edge_balance(part) <= 1.01

    def test_path_stream_in_order(self):
        """A path streamed in order with a small window partitions into arcs."""
        g = path_graph(400)
        p = 4
        part = WindowedLocalPartitioner(window_size=150, seed=0).partition(g, p)
        assert replication_factor(part, g) <= 1.2


class TestRegistry:
    def test_registered_name(self, communities):
        part = make_partitioner("TLP-W", seed=0).partition(communities, 4)
        part.validate_against(communities)

    def test_parameterised_window(self, communities):
        partitioner = make_partitioner("TLP-W:512", seed=0)
        assert partitioner.window_size == 512

    def test_telemetry_populated(self, communities):
        partitioner = WindowedLocalPartitioner(
            window_size=communities.num_edges, seed=0
        )
        partitioner.partition(communities, 4)
        assert partitioner.last_telemetry.records
        assert partitioner.last_telemetry.peak_local_state > 0
