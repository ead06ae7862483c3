"""PartitionStore: routing tables must agree with the graph and the table."""

import pytest

from repro.core.tlp import TLPPartitioner
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.registry import make_partitioner
from repro.partitioning.serialization import save_partition
from repro.runtime.replication import ReplicationTable
from repro.service.store import PartitionStore


@pytest.fixture
def tlp_partition(small_social):
    return TLPPartitioner(seed=0).partition(small_social, 4)


@pytest.fixture
def store(tlp_partition):
    return PartitionStore.from_partition(tlp_partition, metadata={"algorithm": "TLP"})


class TestRoutedAdjacency:
    def test_neighbors_set_equal_to_graph_tlp(self, store, small_social):
        # The acceptance property: routed fan-out loses and invents nothing.
        for v in small_social.vertices():
            assert store.neighbors(v) == small_social.neighbors(v)

    def test_neighbors_set_equal_to_graph_baseline(self, small_social):
        # Same property for a non-local baseline partitioner (LDG).
        partition = make_partitioner("LDG", seed=3).partition(small_social, 5)
        store = PartitionStore.from_partition(partition)
        for v in small_social.vertices():
            assert store.neighbors(v) == small_social.neighbors(v)

    def test_local_neighbors_union_is_full_adjacency(self, store, small_social):
        v = max(small_social.vertices(), key=small_social.degree)
        merged = set()
        for k in store.replicas_of(v):
            merged |= store.local_neighbors(v, k)
        assert merged == small_social.neighbors(v)

    def test_unknown_vertex_raises(self, store):
        with pytest.raises(KeyError):
            store.neighbors(10**9)


class TestRouting:
    def test_masters_match_replication_table(self, store, tlp_partition):
        table = ReplicationTable(tlp_partition)
        for v in table.master:
            assert store.master_of(v) == table.master_of(v)

    def test_mirrors_exclude_master(self, store):
        for v in range(50):
            if not store.has_vertex(v):
                continue
            mirrors = store.mirrors_of(v)
            assert store.master_of(v) not in mirrors
            assert set(mirrors) | {store.master_of(v)} == set(store.replicas_of(v))

    def test_edge_owner_matches_partition(self, store, tlp_partition):
        for k in range(tlp_partition.num_partitions):
            for u, v in tlp_partition.edges_of(k)[:25]:
                assert store.owner_of_edge(u, v) == k
                assert store.owner_of_edge(v, u) == k  # orientation-free

    def test_missing_edge_raises(self, store, small_social):
        # A vertex pair that is certainly not an edge.
        with pytest.raises(KeyError):
            store.owner_of_edge(10**9, 10**9 + 1)


class TestSummaries:
    def test_partition_stats_totals(self, store, tlp_partition):
        edges = sum(store.partition_stats(k)["edges"] for k in range(store.num_partitions))
        assert edges == tlp_partition.num_edges
        masters = sum(
            store.partition_stats(k)["masters"] for k in range(store.num_partitions)
        )
        assert masters == store.num_vertices  # every vertex has exactly one master

    def test_replication_factor_matches_metrics(self, store, tlp_partition, small_social):
        from repro.partitioning.metrics import replication_factor

        assert store.replication_factor() == pytest.approx(
            replication_factor(tlp_partition, small_social)
        )

    def test_stats_shape(self, store):
        stats = store.stats()
        assert stats["num_partitions"] == 4
        assert stats["metadata"] == {"algorithm": "TLP"}
        assert len(stats["partition_sizes"]) == 4

    def test_bad_partition_index_raises(self, store):
        with pytest.raises(KeyError):
            store.partition_stats(99)


class TestOpenFromDisk:
    @pytest.mark.parametrize("compress", [False, True])
    def test_round_trip_multi_partition_tlp(
        self, tlp_partition, small_social, tmp_path, compress
    ):
        # EdgePartition -> save_partition -> PartitionStore round-trip.
        save_partition(
            tlp_partition, tmp_path / "bundle", metadata={"p": 4}, compress=compress
        )
        store = PartitionStore.open(tmp_path / "bundle")
        assert store.num_partitions == tlp_partition.num_partitions
        assert store.num_edges == tlp_partition.num_edges
        assert store.metadata == {"p": 4}
        for v in small_social.vertices():
            assert store.neighbors(v) == small_social.neighbors(v)
        table = ReplicationTable(tlp_partition)
        for v in table.master:
            assert store.master_of(v) == table.master_of(v)

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            PartitionStore.open(tmp_path / "nope")


class TestSmallExamples:
    def test_square_partition_routing(self):
        # P0 = {(0,1), (1,2)}, P1 = {(2,3), (0,3)} — the replication-table
        # example; neighbour queries must merge across both partitions.
        store = PartitionStore.from_partition(
            EdgePartition([[(0, 1), (1, 2)], [(2, 3), (0, 3)]])
        )
        assert store.neighbors(0) == {1, 3}
        assert store.neighbors(2) == {1, 3}
        assert store.replicas_of(0) == (0, 1)
        assert store.mirrors_of(0) == (1,)
        assert store.owner_of_edge(0, 3) == 1

    def test_empty_partitions_are_served(self):
        store = PartitionStore.from_partition(EdgePartition([[(0, 1)], [], [(1, 2)]]))
        assert store.partition_stats(1) == {
            "partition": 1,
            "edges": 0,
            "vertices": 0,
            "masters": 0,
            "mirrors": 0,
        }
        assert store.neighbors(1) == {0, 2}
