"""The CSR store: bit-identical answers to the dict-of-sets oracle.

The acceptance property for the zero-copy store is *parity*: every routing
query — ``neighbors``, ``master_of``, ``replicas_of``, ``mirrors_of``,
``owner_of_edge``, ``partition_stats``, ``stats`` — answers exactly as the
reference :class:`~tests.service.oracle.DictStore` rebuilt from the edge
lists, whether the store memory-maps a bundle's sidecar or rebuilds the
arrays from a legacy (pre-sidecar) bundle's text, including across a
``StoreManager`` hot reload.
"""

import asyncio

import numpy as np
import pytest

from repro.core.tlp import TLPPartitioner
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.csr_bundle import (
    SIDECAR_NAME,
    build_partition_csr,
    csr_to_partition,
    read_sidecar,
    write_sidecar,
)
from repro.partitioning.registry import make_partitioner
from repro.partitioning.serialization import (
    has_sidecar,
    load_sidecar,
    save_partition,
)
from repro.service.metrics import ServiceMetrics
from repro.service.store import PartitionStore, ReloadError, StoreManager
from tests.service.oracle import DictStore, loop_csr_to_partition, strip_sidecar


@pytest.fixture
def tlp_partition(small_social):
    return TLPPartitioner(seed=0).partition(small_social, 4)


@pytest.fixture
def bundle(tlp_partition, tmp_path):
    save_partition(tlp_partition, tmp_path / "bundle", metadata={"p": 4})
    return tmp_path / "bundle"


@pytest.fixture
def legacy_bundle(tlp_partition, tmp_path):
    save_partition(tlp_partition, tmp_path / "legacy", metadata={"p": 4})
    return strip_sidecar(tmp_path / "legacy")


def assert_stores_agree(csr, dct, graph):
    """Every query the handler can route must answer identically."""
    assert csr.num_partitions == dct.num_partitions
    assert csr.num_edges == dct.num_edges
    assert csr.num_vertices == dct.num_vertices
    assert csr.partition_sizes() == dct.partition_sizes()
    assert csr.replication_factor() == pytest.approx(dct.replication_factor())
    for v in graph.vertices():
        assert csr.has_vertex(v) == dct.has_vertex(v)
        assert csr.neighbors(v) == dct.neighbors(v)
        assert csr.master_of(v) == dct.master_of(v)
        assert csr.replicas_of(v) == dct.replicas_of(v)
        assert csr.mirrors_of(v) == dct.mirrors_of(v)
        for k in range(csr.num_partitions):
            assert csr.local_neighbors(v, k) == dct.local_neighbors(v, k)
    for u, v in graph.edges():
        assert csr.owner_of_edge(u, v) == dct.owner_of_edge(u, v)
        assert csr.owner_of_edge(v, u) == dct.owner_of_edge(v, u)
    for k in range(csr.num_partitions):
        assert csr.partition_stats(k) == dct.partition_stats(k)
    csr_stats, dct_stats = csr.stats(), dct.stats()
    csr_stats.pop("epoch"), dct_stats.pop("epoch")  # serving generation only
    assert csr_stats == dct_stats


class TestBackendSelection:
    """How ``open`` finds the arrays: sidecar, legacy rebuild, or refusal."""

    def test_auto_prefers_sidecar(self, bundle, monkeypatch):
        assert has_sidecar(bundle)

        def no_text(*args, **kwargs):
            raise AssertionError("a sidecar bundle must not parse edge text")

        monkeypatch.setattr(
            "repro.partitioning.serialization.load_partition", no_text
        )
        store = PartitionStore.open(bundle)
        assert isinstance(store._csr.vertex_ids, np.memmap)

    def test_auto_falls_back_without_sidecar(self, legacy_bundle, small_social):
        assert not has_sidecar(legacy_bundle)
        store = PartitionStore.open(legacy_bundle)
        assert not isinstance(store._csr.vertex_ids, np.memmap)
        assert_stores_agree(store, DictStore.open(legacy_bundle), small_social)

    def test_torn_bundle_raises_not_fallback(self, bundle):
        (bundle / SIDECAR_NAME).unlink()  # the manifest still records it
        assert has_sidecar(bundle)
        with pytest.raises(FileNotFoundError, match="missing sidecar"):
            PartitionStore.open(bundle)

    def test_corrupt_sidecar_rejected_not_fallback(self, bundle):
        path = bundle / SIDECAR_NAME
        blob = bytearray(path.read_bytes())
        blob[-8:] = b"\xff" * 8  # flip tail bytes inside the last array
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum"):
            PartitionStore.open(bundle)


class TestParity:
    def test_tlp_bundle_parity(self, bundle, small_social):
        csr = PartitionStore.open(bundle)
        dct = DictStore.open(bundle)
        assert_stores_agree(csr, dct, small_social)

    @pytest.mark.parametrize("algorithm", ["LDG", "DBH", "Random"])
    def test_baseline_partitioner_parity(self, small_social, tmp_path, algorithm):
        partition = make_partitioner(algorithm, seed=3).partition(small_social, 5)
        save_partition(partition, tmp_path / "b", compress=True)
        csr = PartitionStore.open(tmp_path / "b")
        dct = DictStore.open(tmp_path / "b")
        assert_stores_agree(csr, dct, small_social)

    def test_from_partition_matches_disk_open(self, tlp_partition, bundle):
        in_memory = PartitionStore.from_partition(tlp_partition)
        on_disk = PartitionStore.open(bundle)
        assert in_memory.partition_sizes() == on_disk.partition_sizes()
        assert in_memory.replication_factor() == on_disk.replication_factor()

    def test_empty_partitions_parity(self):
        partition = EdgePartition([[(0, 1)], [], [(1, 2)]])
        csr = PartitionStore.from_partition(partition)
        dct = DictStore(partition)
        for k in range(3):
            assert csr.partition_stats(k) == dct.partition_stats(k)
        assert csr.neighbors(1) == {0, 2}
        assert csr.local_neighbors(1, 1) == set()

    def test_unknown_vertex_and_edge_raise(self, bundle):
        csr = PartitionStore.open(bundle)
        with pytest.raises(KeyError):
            csr.neighbors(10**9)
        with pytest.raises(KeyError):
            csr.master_of(10**9)
        with pytest.raises(KeyError):
            csr.owner_of_edge(10**9, 10**9 + 1)
        assert csr.replicas_of(10**9) == ()

    def test_materialized_partition_round_trips(self, tlp_partition, bundle):
        csr = PartitionStore.open(bundle)
        materialized = csr.partition
        for k in range(tlp_partition.num_partitions):
            assert sorted(materialized.edges_of(k)) == sorted(
                tlp_partition.edges_of(k)
            )


class TestHotReloadParity:
    def test_reload_serves_csr_and_answers_identically(
        self, tlp_partition, small_social, tmp_path
    ):
        """A StoreManager hot reload onto a sidecar bundle keeps parity."""
        save_partition(tlp_partition, tmp_path / "v1")
        save_partition(
            TLPPartitioner(seed=9).partition(small_social, 4), tmp_path / "v2"
        )
        manager = StoreManager(PartitionStore.open(tmp_path / "v1"))
        manager.reload_sync(tmp_path / "v2")
        assert manager.epoch == 2
        reference = DictStore.open(tmp_path / "v2")
        assert_stores_agree(manager.store, reference, small_social)

    def test_reload_from_legacy_onto_sidecar_bundle(
        self, legacy_bundle, small_social, tmp_path
    ):
        """Serve a pre-sidecar bundle, then hot-swap a sidecar bundle in."""
        manager = StoreManager(PartitionStore.open(legacy_bundle))
        assert_stores_agree(
            manager.store, DictStore.open(legacy_bundle), small_social
        )
        save_partition(
            TLPPartitioner(seed=9).partition(small_social, 4), tmp_path / "v2"
        )
        manager.reload_sync(tmp_path / "v2")
        assert manager.epoch == 2
        assert isinstance(manager.store._csr.vertex_ids, np.memmap)
        assert_stores_agree(
            manager.store, DictStore.open(tmp_path / "v2"), small_social
        )

    def test_reload_onto_torn_bundle_fails_and_keeps_epoch(
        self, tlp_partition, tmp_path
    ):
        save_partition(tlp_partition, tmp_path / "v1")
        save_partition(tlp_partition, tmp_path / "v2")
        (tmp_path / "v2" / SIDECAR_NAME).unlink()
        metrics = ServiceMetrics()
        manager = StoreManager(PartitionStore.open(tmp_path / "v1"), metrics=metrics)
        live = manager.store
        with pytest.raises(ReloadError, match="missing sidecar"):
            manager.reload_sync(tmp_path / "v2")
        with pytest.raises(ReloadError, match="missing sidecar"):
            asyncio.run(manager.reload(tmp_path / "v2"))
        assert manager.epoch == 1
        assert manager.store is live
        assert metrics.counters["reloads_failed"] == 2


class TestSidecarFormat:
    def test_round_trip_mmap_and_eager(self, tlp_partition, tmp_path):
        csr = build_partition_csr(tlp_partition)
        path = tmp_path / "adj.csr"
        write_sidecar(csr, path)
        for mmap in (True, False):
            back = read_sidecar(path, mmap=mmap)
            assert back.num_partitions == csr.num_partitions
            assert back.num_edges == csr.num_edges
            assert np.array_equal(back.vertex_ids, csr.vertex_ids)
            assert np.array_equal(back.master, csr.master)
            assert np.array_equal(back.rep_indptr, csr.rep_indptr)
            assert np.array_equal(back.rep_parts, csr.rep_parts)
            for (a, b, c), (x, y, z) in zip(back.parts, csr.parts):
                assert np.array_equal(a, x)
                assert np.array_equal(b, y)
                assert np.array_equal(c, z)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.csr"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_sidecar(path)

    def test_csr_to_partition_inverts_build(self, tlp_partition):
        back = csr_to_partition(build_partition_csr(tlp_partition))
        for k in range(tlp_partition.num_partitions):
            assert sorted(back.edges_of(k)) == sorted(tlp_partition.edges_of(k))

    @pytest.mark.parametrize("algorithm", ["TLP", "DBH"])
    def test_csr_to_partition_matches_loop_oracle(
        self, small_social, tmp_path, algorithm
    ):
        """The vectorised materialise gives the loop's edges, in its order."""
        partition = make_partitioner(algorithm, seed=3).partition(small_social, 5)
        save_partition(partition, tmp_path / "b")
        csr = load_sidecar(tmp_path / "b")
        fast, slow = csr_to_partition(csr), loop_csr_to_partition(csr)
        assert fast.partition_sizes() == slow.partition_sizes()
        for k in range(5):
            assert fast.edges_of(k) == slow.edges_of(k)
            assert fast.edge_array(k).dtype == np.int64
            assert np.array_equal(fast.edge_array(k), slow.edge_array(k))

    def test_csr_to_partition_of_an_empty_store(self):
        csr = build_partition_csr(EdgePartition([[], [], []]))
        fast, slow = csr_to_partition(csr), loop_csr_to_partition(csr)
        assert fast.partition_sizes() == slow.partition_sizes() == [0, 0, 0]
        assert [fast.edges_of(k) for k in range(3)] == [[], [], []]
        assert fast.edge_array(1).shape == (0, 2)

    def test_sidecar_verify_catches_size_change(self, bundle):
        path = bundle / SIDECAR_NAME
        with open(path, "ab") as fh:
            fh.write(b"\0" * 16)
        with pytest.raises(ValueError, match="bytes"):
            load_sidecar(bundle)
