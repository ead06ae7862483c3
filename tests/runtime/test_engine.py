"""Tests for the distributed GAS engine: correctness and message accounting."""

import pytest

from repro.core.tlp import TLPPartitioner
from repro.partitioning.metrics import replication_factor
from repro.partitioning.random_edge import RandomPartitioner
from repro.runtime.engine import GASEngine
from repro.runtime.programs import (
    ConnectedComponents,
    PageRank,
    SingleSourceShortestPaths,
    run_reference,
)
from repro.runtime.stats import load_imbalance


@pytest.fixture
def partitioned(communities):
    part = TLPPartitioner(seed=0).partition(communities, 5)
    return communities, part


class TestCorrectness:
    @pytest.mark.parametrize(
        "program_factory",
        [
            lambda g: PageRank(),
            lambda g: ConnectedComponents(),
            lambda g: SingleSourceShortestPaths(next(iter(g.vertices()))),
        ],
        ids=["pagerank", "cc", "sssp"],
    )
    def test_engine_matches_reference(self, partitioned, program_factory):
        graph, part = partitioned
        program = program_factory(graph)
        engine_values = GASEngine(graph, part, program).run().values
        reference = run_reference(program, graph)
        for v in reference:
            assert engine_values[v] == pytest.approx(reference[v], abs=1e-9)

    def test_result_independent_of_partitioner(self, communities):
        program = PageRank()
        reference = run_reference(program, communities)
        for partitioner in (TLPPartitioner(seed=1), RandomPartitioner(seed=1)):
            part = partitioner.partition(communities, 7)
            values = GASEngine(communities, part, program).run().values
            for v in reference:
                assert values[v] == pytest.approx(reference[v], abs=1e-9)

    def test_invalid_partition_rejected(self, communities):
        from repro.partitioning.assignment import EdgePartition

        bogus = EdgePartition([[(0, 1)]])
        with pytest.raises(ValueError):
            GASEngine(communities, bogus, PageRank())

    def test_convergence_flag(self, partitioned):
        graph, part = partitioned
        result = GASEngine(graph, part, ConnectedComponents()).run()
        assert result.converged
        truncated = GASEngine(graph, part, PageRank()).run(max_supersteps=2)
        assert not truncated.converged


class TestMessageAccounting:
    def test_gather_messages_equal_total_mirrors(self, partitioned):
        """Every mirror ships one partial per superstep in which it gathered."""
        graph, part = partitioned
        engine = GASEngine(graph, part, PageRank())
        result = engine.run(max_supersteps=3)
        mirrors = engine.replication.total_mirrors()
        for step in result.stats.supersteps:
            assert step.gather_messages == mirrors

    def test_scatter_only_for_changed(self, partitioned):
        graph, part = partitioned
        result = GASEngine(graph, part, ConnectedComponents()).run()
        final = result.stats.supersteps[-1]
        assert final.changed_vertices == 0
        assert final.scatter_messages == 0

    def test_communication_proportional_to_rf(self, communities):
        """The paper's motivation: lower RF, fewer messages, same result."""
        messages = {}
        rf = {}
        for name, partitioner in [
            ("tlp", TLPPartitioner(seed=0)),
            ("random", RandomPartitioner(seed=0)),
        ]:
            part = partitioner.partition(communities, 6)
            engine = GASEngine(communities, part, PageRank())
            result = engine.run(max_supersteps=5)
            messages[name] = result.stats.supersteps[0].gather_messages
            rf[name] = replication_factor(part, communities)
        assert rf["tlp"] < rf["random"]
        assert messages["tlp"] < messages["random"]
        # Gather messages are exactly (RF - 1) * covered vertices.
        covered = sum(
            1 for v in communities.vertices() if communities.degree(v) > 0
        )
        assert messages["tlp"] == round((rf["tlp"] - 1) * covered)

    def test_run_stats_totals(self, partitioned):
        graph, part = partitioned
        result = GASEngine(graph, part, ConnectedComponents()).run()
        assert result.stats.total_messages == sum(
            result.stats.messages_per_superstep()
        )
        assert result.stats.num_supersteps == len(result.stats.supersteps)


class TestMachineLoads:
    def test_loads_cover_partition(self, partitioned):
        graph, part = partitioned
        engine = GASEngine(graph, part, PageRank())
        loads = engine.machine_loads()
        assert sum(load.edges for load in loads) == graph.num_edges
        assert sum(load.mirrors for load in loads) == engine.replication.total_mirrors()

    def test_load_imbalance_of_balanced_partition(self, partitioned):
        graph, part = partitioned
        engine = GASEngine(graph, part, PageRank())
        assert load_imbalance(engine.machine_loads()) <= 1.05

    def test_load_imbalance_empty(self):
        assert load_imbalance([]) == 1.0
