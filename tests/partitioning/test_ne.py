"""Tests for the NE (neighbourhood expansion) partitioner."""

import math

from repro.graph.generators import complete_graph, path_graph
from repro.graph.graph import Graph
from repro.partitioning.metrics import edge_balance, replication_factor
from repro.partitioning.ne import NEPartitioner
from repro.partitioning.random_edge import RandomPartitioner


class TestNEContract:
    def test_covers_graph(self, small_social):
        part = NEPartitioner(seed=0).partition(small_social, 6)
        part.validate_against(small_social)

    def test_capacity_respected(self, small_social):
        p = 6
        part = NEPartitioner(seed=0).partition(small_social, p)
        cap = math.ceil(small_social.num_edges / p)
        assert all(size <= cap for size in part.partition_sizes())

    def test_handles_disconnected(self, two_triangles):
        part = NEPartitioner(seed=0).partition(two_triangles, 2)
        part.validate_against(two_triangles)

    def test_single_partition(self, small_social):
        part = NEPartitioner(seed=0).partition(small_social, 1)
        assert replication_factor(part, small_social) == 1.0

    def test_empty_graph(self):
        part = NEPartitioner(seed=0).partition(Graph.empty(), 3)
        assert part.num_edges == 0

    def test_p_exceeds_edges(self):
        g = path_graph(3)
        part = NEPartitioner(seed=0).partition(g, 5)
        part.validate_against(g)


class TestNEQuality:
    def test_beats_random_on_communities(self, communities):
        ne = NEPartitioner(seed=0).partition(communities, 6)
        rnd = RandomPartitioner(seed=0).partition(communities, 6)
        assert replication_factor(ne, communities) < replication_factor(
            rnd, communities
        )

    def test_path_is_partitioned_into_arcs(self):
        """On a path, min-external expansion yields contiguous arcs with RF
        close to the optimum (only cut vertices replicated)."""
        g = path_graph(100)
        part = NEPartitioner(seed=1).partition(g, 4)
        rf = replication_factor(part, g)
        assert rf <= 1.15  # optimum is 1.03

    def test_clique_balance(self):
        g = complete_graph(14)
        part = NEPartitioner(seed=0).partition(g, 3)
        assert edge_balance(part) <= 1.1
