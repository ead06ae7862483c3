"""``GASEngine.from_bundle``: a saved bundle runs like the partition it holds.

``save_partition`` writes each partition's edges in canonical sorted
order and ``from_bundle`` loads them back with ``load_partition``, so a
run over the bundle must be bit-identical — floats included — to a run
over the in-memory partition with its edges in that same order: every
gather merge happens in the same sequence on both sides.
"""

import pytest

from repro.core.tlp import TLPPartitioner
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.serialization import save_partition
from repro.runtime.engine import GASEngine
from repro.runtime.programs import (
    ConnectedComponents,
    KCoreDecomposition,
    PageRank,
    SingleSourceShortestPaths,
)
from tests.service.oracle import strip_sidecar


#: Every GAS program, by name.
PROGRAMS = {
    "PageRank": PageRank,
    "ConnectedComponents": ConnectedComponents,
    "SingleSourceShortestPaths": lambda: SingleSourceShortestPaths(source=0),
    "KCoreDecomposition": KCoreDecomposition,
}


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    from repro.graph.generators import holme_kim

    graph = holme_kim(250, 4, 0.5, seed=7)
    partition = TLPPartitioner(seed=0).partition(graph, 5)
    directory = tmp_path_factory.mktemp("bundles") / "bundle"
    save_partition(partition, directory)
    return graph, partition, directory


def _canonical(partition):
    """``partition`` with each part's edges in the order a bundle stores."""
    return EdgePartition(
        [sorted(partition.edges_of(k)) for k in range(partition.num_partitions)]
    )


def _trace(result):
    return [
        (s.gather_messages, s.scatter_messages, s.changed_vertices)
        for s in result.stats.supersteps
    ]


class TestRunParity:
    @pytest.mark.parametrize("program", list(PROGRAMS))
    @pytest.mark.parametrize("incremental", [False, True])
    def test_bit_identical_run(self, bundle, program, incremental):
        graph, partition, directory = bundle
        make = PROGRAMS[program]
        memory_engine = GASEngine(graph, _canonical(partition), make())
        bundle_engine = GASEngine.from_bundle(directory, graph, make())
        r1 = memory_engine.run(max_supersteps=60, incremental=incremental)
        r2 = bundle_engine.run(max_supersteps=60, incremental=incremental)
        assert r1.values == r2.values  # bitwise, no approx
        assert r1.converged == r2.converged
        assert _trace(r1) == _trace(r2)

    def test_from_bundle_classmethod(self, bundle):
        graph, partition, directory = bundle
        reference = GASEngine(graph, partition, PageRank()).machine_loads()
        for verify in (True, False):
            engine = GASEngine.from_bundle(
                directory, graph, PageRank(), verify=verify
            )
            assert [
                (l.machine, l.edges, l.vertices, l.mirrors)
                for l in engine.machine_loads()
            ] == [(l.machine, l.edges, l.vertices, l.mirrors) for l in reference]

    def test_no_sidecar_fallback(self, bundle, tmp_path):
        """A pre-sidecar bundle loads: the engine reads only the edge files."""
        graph, partition, _ = bundle
        directory = tmp_path / "plain"
        save_partition(partition, directory)
        strip_sidecar(directory)
        engine = GASEngine.from_bundle(directory, graph, ConnectedComponents())
        reference = GASEngine(graph, partition, ConnectedComponents())
        assert engine.run().values == reference.run().values


class TestComponentParity:
    def test_validate_rejects_wrong_graph(self, bundle):
        from repro.graph.graph import Graph

        graph, _, directory = bundle
        other = Graph.from_edges([(0, 1), (1, 2)])
        engine = GASEngine.from_bundle(directory, graph, PageRank())
        with pytest.raises(ValueError):
            engine.partition.validate_against(other)
        with pytest.raises(ValueError):
            GASEngine.from_bundle(directory, other, PageRank())
