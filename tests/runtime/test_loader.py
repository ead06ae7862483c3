"""Parity tests: the mmap sidecar loader vs. the text/dict engine path.

``load_engine`` serves the replication table, machine adjacency, and
per-machine edge lists from the memory-mapped ``adjacency.csr`` sidecar.
Because ``save_partition`` writes edges in canonical sorted order and CSR
row-major decoding reproduces exactly that order, every gather merge is
performed in the same sequence on both paths — so results must be
bit-identical, floats included.
"""

import pytest

from repro.core.tlp import TLPPartitioner
from repro.partitioning.csr_bundle import SIDECAR_NAME
from repro.partitioning.serialization import load_partition, save_partition
from repro.runtime.engine import GASEngine
from repro.runtime.loader import (
    BundlePartitionView,
    CSRMachineAdjacency,
    CSRReplicationTable,
    load_engine,
)
from repro.runtime.programs import ConnectedComponents, PageRank
from repro.runtime.replication import ReplicationTable
from tests.service.oracle import strip_sidecar


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    from repro.graph.generators import holme_kim

    graph = holme_kim(250, 4, 0.5, seed=7)
    partition = TLPPartitioner(seed=0).partition(graph, 5)
    directory = tmp_path_factory.mktemp("bundles") / "bundle"
    save_partition(partition, directory)
    return graph, partition, directory


class TestRunParity:
    @pytest.mark.parametrize("program_cls", [PageRank, ConnectedComponents])
    @pytest.mark.parametrize("incremental", [False, True])
    def test_bit_identical_run(self, bundle, program_cls, incremental):
        graph, _, directory = bundle
        dict_engine = GASEngine(graph, load_partition(directory), program_cls())
        csr_engine = load_engine(directory, graph, program_cls())
        r1 = dict_engine.run(max_supersteps=60, incremental=incremental)
        r2 = csr_engine.run(max_supersteps=60, incremental=incremental)
        assert r1.values == r2.values  # bitwise, no approx
        assert r1.converged == r2.converged
        trace1 = [
            (s.gather_messages, s.scatter_messages, s.changed_vertices)
            for s in r1.stats.supersteps
        ]
        trace2 = [
            (s.gather_messages, s.scatter_messages, s.changed_vertices)
            for s in r2.stats.supersteps
        ]
        assert trace1 == trace2

    def test_from_bundle_classmethod(self, bundle):
        graph, _, directory = bundle
        engine = GASEngine.from_bundle(directory, graph, PageRank())
        loads = engine.machine_loads()
        reference = GASEngine(
            graph, load_partition(directory), PageRank()
        ).machine_loads()
        assert [
            (l.machine, l.edges, l.vertices, l.mirrors) for l in loads
        ] == [(l.machine, l.edges, l.vertices, l.mirrors) for l in reference]

    def test_no_sidecar_fallback(self, bundle, tmp_path):
        graph, partition, _ = bundle
        directory = tmp_path / "plain"
        save_partition(partition, directory)
        strip_sidecar(directory)
        engine = load_engine(directory, graph, ConnectedComponents())
        # Fell back to the dict path: a real EdgePartition, not the view.
        assert not isinstance(engine.partition, BundlePartitionView)
        reference = GASEngine(graph, partition, ConnectedComponents())
        assert engine.run().values == reference.run().values

    def test_torn_sidecar_raises_not_fallback(self, bundle, tmp_path):
        graph, partition, _ = bundle
        directory = tmp_path / "torn"
        save_partition(partition, directory)
        (directory / SIDECAR_NAME).unlink()  # manifest still records it
        with pytest.raises(FileNotFoundError):
            load_engine(directory, graph, ConnectedComponents())

    def test_eager_load_matches_mmap(self, bundle):
        graph, _, directory = bundle
        r1 = load_engine(directory, graph, PageRank(), mmap=True).run(
            max_supersteps=20
        )
        r2 = load_engine(directory, graph, PageRank(), mmap=False).run(
            max_supersteps=20
        )
        assert r1.values == r2.values


class TestComponentParity:
    def test_replication_table(self, bundle):
        graph, partition, directory = bundle
        engine = load_engine(directory, graph, PageRank())
        csr_table = engine.replication
        assert isinstance(csr_table, CSRReplicationTable)
        dict_table = ReplicationTable(partition)
        for v in graph.vertices():
            assert csr_table.replicas_of(v) == dict_table.replicas_of(v)
            assert csr_table.master_of(v) == dict_table.master_of(v)
            assert csr_table.mirror_count(v) == dict_table.mirror_count(v)
        assert csr_table.total_mirrors() == dict_table.total_mirrors()
        assert sorted(csr_table.spanned_vertices()) == sorted(
            dict_table.spanned_vertices()
        )
        # Uncovered vertices answer like the dict table.
        missing = max(graph.vertices()) + 1000
        assert csr_table.replicas_of(missing) == ()
        assert csr_table.mirror_count(missing) == 0
        with pytest.raises(KeyError):
            csr_table.master_of(missing)

    def test_machine_adjacency(self, bundle):
        graph, partition, directory = bundle
        engine = load_engine(directory, graph, PageRank())
        dict_engine = GASEngine(graph, load_partition(directory), PageRank())
        dict_adj = dict_engine._get_machine_adj()
        for k in range(partition.num_partitions):
            adj = engine._machine_adj[k]
            assert isinstance(adj, CSRMachineAdjacency)
            assert sorted(dict_adj[k]) == list(adj)
            assert len(adj) == len(dict_adj[k])
            for u, neighbors in dict_adj[k].items():
                assert u in adj
                assert adj[u] == sorted(neighbors)
                assert adj.get(u) == sorted(neighbors)
            assert adj.get(-1, ()) == ()
            assert -1 not in adj
            with pytest.raises(KeyError):
                adj[-1]

    def test_partition_view(self, bundle):
        graph, partition, directory = bundle
        engine = load_engine(directory, graph, PageRank())
        view = engine.partition
        assert isinstance(view, BundlePartitionView)
        assert view.num_partitions == partition.num_partitions
        assert view.num_edges == partition.num_edges
        assert view.partition_sizes() == partition.partition_sizes()
        assert view.vertex_sets() == partition.vertex_sets()
        for k in range(partition.num_partitions):
            assert view.edges_of(k) == sorted(partition.edges_of(k))
        view.validate_against(graph)  # does not raise

    def test_validate_rejects_wrong_graph(self, bundle):
        from repro.graph.graph import Graph

        graph, _, directory = bundle
        other = Graph.from_edges([(0, 1), (1, 2)])
        engine = load_engine(directory, graph, PageRank())
        with pytest.raises(ValueError):
            engine.partition.validate_against(other)
        with pytest.raises(ValueError):
            load_engine(directory, other, PageRank())
