"""Tests for incremental partition maintenance."""

import pytest

from repro.core.dynamic import DynamicPartitioner
from repro.core.tlp import TLPPartitioner
from repro.graph.generators import holme_kim
from repro.graph.graph import Graph
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.metrics import edge_balance, replication_factor
from repro.streaming.orders import edge_stream


def split_graph(graph, fraction, seed=0):
    """(base graph, held-out edges) split for incremental experiments."""
    edges = edge_stream(graph, "random", seed=seed)
    cut = int(len(edges) * fraction)
    base = Graph.from_edges(edges[:cut])
    return base, edges[cut:]


class TestAddEdge:
    def test_prefers_partition_hosting_both_endpoints(self):
        part = EdgePartition([[(0, 1), (1, 2)], [(5, 6), (6, 7)]])
        dyn = DynamicPartitioner(part, slack=1.5)
        assert dyn.add_edge(0, 2) == 0

    def test_prefers_one_endpoint_over_none(self):
        part = EdgePartition([[(0, 1)], [(5, 6)]])
        dyn = DynamicPartitioner(part, slack=2.0)
        assert dyn.add_edge(1, 9) == 0
        assert dyn.add_edge(6, 10) == 1

    def test_fresh_edge_goes_to_least_loaded(self):
        part = EdgePartition([[(0, 1), (1, 2)], [(5, 6)]])
        dyn = DynamicPartitioner(part, slack=2.0)
        assert dyn.add_edge(100, 200) == 1

    def test_tie_goes_to_lowest_id(self):
        """Partitions 1 and 8 both host both endpoints at equal load."""
        parts = [[(100 + k, 200 + k), (300 + k, 400 + k)] for k in range(10)]
        parts[1] = [(0, 10), (1, 11)]
        parts[8] = [(0, 12), (1, 13)]
        dyn = DynamicPartitioner(EdgePartition(parts))
        assert dyn.add_edge(0, 1) == 1

    def test_all_partitions_full_falls_back_to_least_loaded(self):
        """slack 1.0 and m = p * C: every partition sits at its cap."""
        p, cap = 4, 3
        parts = [
            [(1000 * k + i, 1000 * k + i + 1) for i in range(cap)] for k in range(p)
        ]
        dyn = DynamicPartitioner(EdgePartition(parts), slack=1.0)
        assert dyn.capacity() == cap
        assert all(size == cap for size in dyn.snapshot().partition_sizes())
        assert dyn.add_edge(-1, -2) == 0  # all tie on load: lowest id
        assert dyn.add_edge(-3, -4) == 1  # partition 0 is now the fullest

    def test_duplicate_rejected(self):
        part = EdgePartition([[(0, 1)], []])
        dyn = DynamicPartitioner(part)
        with pytest.raises(ValueError, match="already partitioned"):
            dyn.add_edge(1, 0)

    def test_capacity_respected_as_graph_grows(self):
        part = EdgePartition([[(0, 1)], [(2, 3)]])
        dyn = DynamicPartitioner(part, slack=1.0)
        for i in range(20):
            dyn.add_edge(100 + i, 200 + i)
        cap = dyn.capacity()
        snapshot = dyn.snapshot()
        assert max(snapshot.partition_sizes()) <= cap

    def test_insertion_counter(self):
        dyn = DynamicPartitioner(EdgePartition([[(0, 1)], []]))
        dyn.add_edges([(1, 2), (2, 3)])
        assert dyn.insertions == 2

    def test_snapshot_valid_against_grown_graph(self, communities):
        base, held_out = split_graph(communities, 0.8)
        part = TLPPartitioner(seed=0).partition(base, 6)
        dyn = DynamicPartitioner(part, slack=1.15)
        dyn.add_edges(held_out)
        dyn.snapshot().validate_against(communities)

    def test_invalid_slack(self):
        with pytest.raises(ValueError):
            DynamicPartitioner(EdgePartition([[(0, 1)]]), slack=0.5)


class TestQualityUnderGrowth:
    def test_incremental_close_to_full_repartition(self, communities):
        """Streaming in the last 20% costs little RF vs re-running TLP."""
        base, held_out = split_graph(communities, 0.8)
        part = TLPPartitioner(seed=0).partition(base, 6)
        dyn = DynamicPartitioner(part, slack=1.15)
        dyn.add_edges(held_out)
        incremental_rf = replication_factor(dyn.snapshot(), communities)
        full = TLPPartitioner(seed=0).partition(communities, 6)
        full_rf = replication_factor(full, communities)
        assert incremental_rf <= full_rf + 0.8

    def test_refresh_improves_or_keeps_rf(self):
        g = holme_kim(400, 4, 0.5, seed=2)
        base, held_out = split_graph(g, 0.6, seed=1)
        part = TLPPartitioner(seed=0).partition(base, 6)
        dyn = DynamicPartitioner(part, slack=1.15)
        dyn.add_edges(held_out)
        before = replication_factor(dyn.snapshot(), g)
        saved = dyn.refresh()
        after = replication_factor(dyn.snapshot(), g)
        assert after <= before
        assert saved >= 0
        dyn.snapshot().validate_against(g)

    def test_balance_stays_within_slack(self, communities):
        base, held_out = split_graph(communities, 0.8)
        part = TLPPartitioner(seed=0).partition(base, 6)
        dyn = DynamicPartitioner(part, slack=1.15)
        dyn.add_edges(held_out)
        assert edge_balance(dyn.snapshot()) <= 1.25

    def test_replicas_of_tracks_reality(self, communities):
        base, held_out = split_graph(communities, 0.9)
        part = TLPPartitioner(seed=0).partition(base, 6)
        dyn = DynamicPartitioner(part)
        dyn.add_edges(held_out)
        snapshot = dyn.snapshot()
        for v in list(communities.vertices())[:50]:
            assert dyn.replicas_of(v) == snapshot.replicas(v)
