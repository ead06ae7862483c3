"""Unit tests for partition metrics (RF, balance, modularity)."""

import math

import numpy as np
import pytest

from repro.graph.generators import complete_graph, path_graph
from repro.graph.graph import Graph
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.metrics import (
    PartitionReport,
    edge_balance,
    external_incidences,
    partition_modularities,
    replication_factor,
    spanned_vertex_count,
    total_replicas,
)


@pytest.fixture
def square():
    return Graph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])


class TestReplicationFactor:
    def test_single_partition_is_one(self, square):
        part = EdgePartition([square.edge_list()])
        assert replication_factor(part, square) == 1.0

    def test_square_split(self, square):
        part = EdgePartition([[(0, 1), (1, 2)], [(2, 3), (0, 3)]])
        # 3 + 3 vertices over 4 -> 1.5
        assert replication_factor(part, square) == 1.5

    def test_paper_fig1b_example(self):
        """Fig. 1(b): cutting one vertex of a 5-vertex graph -> RF = 6/5."""
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
        part = EdgePartition(
            [[(0, 1), (0, 2), (1, 2)], [(0, 3), (0, 4), (3, 4)]]
        )
        assert replication_factor(part, g) == pytest.approx(6 / 5)

    def test_isolated_vertices_ignored(self):
        g = Graph.from_edges([(0, 1)], vertices=[9, 10])
        part = EdgePartition([[(0, 1)]])
        assert replication_factor(part, g) == 1.0

    def test_empty_graph(self):
        part = EdgePartition([[], []])
        assert replication_factor(part, Graph.empty()) == 1.0

    def test_worst_case_bound(self, square):
        part = EdgePartition([[e] for e in square.edge_list()])
        # Every edge its own partition: RF = 2m/n
        assert replication_factor(part, square) == 2.0


class TestBalance:
    def test_perfect_balance(self):
        part = EdgePartition([[(0, 1), (1, 2)], [(2, 3), (3, 4)]])
        assert edge_balance(part) == 1.0

    def test_imbalance(self):
        part = EdgePartition([[(0, 1), (1, 2), (2, 3)], [(3, 4)]])
        assert edge_balance(part) == 1.5

    def test_empty(self):
        assert edge_balance(EdgePartition([[], []])) == 1.0


class TestSpannedVertices:
    def test_counts_multi_partition_vertices(self, square):
        part = EdgePartition([[(0, 1), (1, 2)], [(2, 3), (0, 3)]])
        assert spanned_vertex_count(part) == 2  # vertices 0 and 2

    def test_total_replicas(self, square):
        part = EdgePartition([[(0, 1), (1, 2)], [(2, 3), (0, 3)]])
        assert total_replicas(part) == 6

    def test_no_spanned_when_whole(self, square):
        part = EdgePartition([square.edge_list()])
        assert spanned_vertex_count(part) == 0


class TestExternalIncidences:
    def test_identity_on_each_partition(self, square):
        part = EdgePartition([[(0, 1), (1, 2)], [(2, 3), (0, 3)]])
        ext = external_incidences(part, square)
        # P0 = {0,1,2}: degree sum = 6, internal 2 -> ext 2
        assert ext == [2, 2]

    def test_whole_graph_no_externals(self, square):
        part = EdgePartition([square.edge_list()])
        assert external_incidences(part, square) == [0]

    def test_clique_split(self):
        g = complete_graph(4)
        edges = g.edge_list()
        part = EdgePartition([edges[:3], edges[3:]])
        ext = external_incidences(part, g)
        assert all(e >= 0 for e in ext)
        total_degree = sum(g.degree(v) for v in g.vertices())
        covered = sum(
            2 * len(part.edges_of(k)) + ext[k] for k in range(2)
        )
        # Identity: per-partition degree sums add up consistently.
        vertex_degree_sum = sum(
            sum(g.degree(v) for v in vs) for vs in part.vertex_sets()
        )
        assert covered == vertex_degree_sum
        assert covered >= total_degree  # replication only adds


class TestModularities:
    def test_closed_partition_infinite(self, square):
        part = EdgePartition([square.edge_list()])
        assert partition_modularities(part, square) == [math.inf]

    def test_path_halves(self):
        g = path_graph(5)  # edges (0,1)..(3,4)
        part = EdgePartition([[(0, 1), (1, 2)], [(2, 3), (3, 4)]])
        mods = partition_modularities(part, g)
        # P0 = {0,1,2}: deg sum 1+2+2=5, internal 2 -> ext 1 -> M=2
        assert mods == [2.0, 2.0]


class TestRfFromModularities:
    def test_equals_one_for_whole_graph(self, square):
        from repro.partitioning.metrics import rf_from_modularities

        part = EdgePartition([square.edge_list()])
        assert rf_from_modularities(part, square) == 1.0

    def test_counts_degree_weighted_coverage(self, square):
        from repro.partitioning.metrics import rf_from_modularities

        part = EdgePartition([[(0, 1), (1, 2)], [(2, 3), (0, 3)]])
        # Each partition: degree sum over V(P_k) = 6 -> total 12 over 2m=8.
        assert rf_from_modularities(part, square) == pytest.approx(1.5)

    def test_empty_graph(self):
        from repro.graph.graph import Graph
        from repro.partitioning.metrics import rf_from_modularities

        assert rf_from_modularities(EdgePartition([[]]), Graph.empty()) == 1.0

    def test_at_least_rf_on_regular_graphs(self):
        """On regular graphs the degree-weighted form equals RF exactly."""
        from repro.graph.generators import cycle_graph
        from repro.partitioning.metrics import (
            replication_factor,
            rf_from_modularities,
        )

        g = cycle_graph(24)
        edges = g.edge_list()
        part = EdgePartition([edges[:12], edges[12:]])
        assert rf_from_modularities(part, g) == pytest.approx(
            replication_factor(part, g)
        )


class TestPartitionReport:
    def test_evaluate_bundles_everything(self, square):
        part = EdgePartition([[(0, 1), (1, 2)], [(2, 3), (0, 3)]])
        report = PartitionReport.evaluate(part, square)
        assert report.replication_factor == 1.5
        assert report.edge_balance == 1.0
        assert report.spanned_vertices == 2
        assert report.partition_sizes == [2, 2]
        assert report.vertex_counts == [3, 3]

    def test_evaluate_edges_equals_evaluate(self):
        """The array form gives every figure the Graph form does."""
        from repro.graph.generators import holme_kim
        from repro.partitioning.random_edge import RandomPartitioner

        graph = Graph.from_edges(holme_kim(200, 3, 0.4, seed=2).edges(), vertices=[999])
        edges = np.array(list(graph.edges()), dtype=np.int64)
        for p in (1, 3, 7):
            part = RandomPartitioner(seed=p).partition(graph, p)
            assert PartitionReport.evaluate_edges(part, edges) == PartitionReport.evaluate(
                part, graph
            )
        empty = EdgePartition([[], []])
        assert PartitionReport.evaluate_edges(
            empty, np.empty((0, 2), dtype=np.int64)
        ) == PartitionReport.evaluate(empty, Graph.empty())
