"""Tests for the k-core decomposition program."""

from repro.core.tlp import TLPPartitioner
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    holme_kim,
    random_tree,
    star_graph,
)
from repro.graph.graph import Graph
from repro.runtime.engine import GASEngine
from repro.runtime.programs import (
    KCoreDecomposition,
    h_index,
    reference_coreness,
    run_reference,
)


class TestHIndex:
    def test_empty(self):
        assert h_index([]) == 0

    def test_classic_example(self):
        assert h_index([5, 4, 3, 2, 1]) == 3

    def test_all_large(self):
        assert h_index([10, 10, 10]) == 3

    def test_all_small(self):
        assert h_index([1, 1, 1, 1]) == 1

    def test_zeroes(self):
        assert h_index([0, 0]) == 0


class TestReferenceCoreness:
    def test_clique(self):
        values = reference_coreness(complete_graph(5))
        assert all(v == 4.0 for v in values.values())

    def test_cycle(self):
        values = reference_coreness(cycle_graph(10))
        assert all(v == 2.0 for v in values.values())

    def test_tree_is_one_core(self):
        values = reference_coreness(random_tree(40, seed=0))
        assert all(v == 1.0 for v in values.values())

    def test_star(self):
        values = reference_coreness(star_graph(10))
        assert all(v == 1.0 for v in values.values())

    def test_clique_with_pendant(self):
        g = Graph.from_edges(
            [(0, 1), (0, 2), (1, 2), (2, 3)]  # triangle + pendant 3
        )
        values = reference_coreness(g)
        assert values[0] == values[1] == values[2] == 2.0
        assert values[3] == 1.0


class TestKCoreProgram:
    def test_single_machine_matches_peeling(self, small_social):
        program_values = run_reference(KCoreDecomposition(), small_social)
        exact = reference_coreness(small_social)
        assert program_values == exact

    def test_distributed_matches_peeling(self, communities):
        partition = TLPPartitioner(seed=0).partition(communities, 5)
        result = GASEngine(communities, partition, KCoreDecomposition()).run()
        exact = reference_coreness(communities)
        assert result.converged
        assert result.values == exact

    def test_partition_independent(self):
        g = holme_kim(200, 4, 0.5, seed=3)
        from repro.partitioning.random_edge import RandomPartitioner

        exact = reference_coreness(g)
        for partitioner in (TLPPartitioner(seed=1), RandomPartitioner(seed=1)):
            partition = partitioner.partition(g, 4)
            result = GASEngine(g, partition, KCoreDecomposition()).run()
            assert result.values == exact

    def test_incremental_mode_matches(self, communities):
        partition = TLPPartitioner(seed=0).partition(communities, 5)
        full = GASEngine(communities, partition, KCoreDecomposition()).run()
        delta = GASEngine(communities, partition, KCoreDecomposition()).run(
            incremental=True
        )
        assert delta.values == full.values
