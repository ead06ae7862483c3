"""Unit tests for the mutable residual-graph overlay."""

import random

import pytest

from repro.graph.graph import Graph
from repro.graph.residual import ResidualGraph


@pytest.fixture
def residual(triangle) -> ResidualGraph:
    return ResidualGraph(triangle)


class TestQueries:
    def test_initial_state_mirrors_graph(self, triangle, residual):
        assert residual.num_edges == triangle.num_edges
        assert residual.degree(0) == 2
        assert residual.neighbors(1) == {0, 2}

    def test_unknown_vertex_degree_zero(self, residual):
        assert residual.degree(99) == 0
        assert residual.neighbors(99) == set()

    def test_copy_does_not_mutate_source(self, triangle):
        residual = ResidualGraph(triangle)
        residual.remove_edge(0, 1)
        assert triangle.has_edge(0, 1)


class TestRemoval:
    def test_remove_edge_updates_both_sides(self, residual):
        residual.remove_edge(0, 1)
        assert not residual.has_edge(0, 1)
        assert not residual.has_edge(1, 0)
        assert residual.num_edges == 2

    def test_remove_missing_edge_raises(self, residual):
        residual.remove_edge(0, 1)
        with pytest.raises(KeyError):
            residual.remove_edge(0, 1)

    def test_exhaustion(self, residual):
        for u, v in list(residual.edges()):
            residual.remove_edge(u, v)
        assert residual.is_exhausted()
        assert residual.num_edges == 0


class TestAddEdge:
    def test_empty_constructor(self):
        residual = ResidualGraph.empty()
        assert residual.num_edges == 0
        assert residual.is_exhausted()

    def test_add_edge_new(self):
        residual = ResidualGraph.empty()
        assert residual.add_edge(1, 2) is True
        assert residual.has_edge(2, 1)
        assert residual.num_edges == 1

    def test_add_edge_duplicate_and_loop_ignored(self):
        residual = ResidualGraph.empty()
        residual.add_edge(1, 2)
        assert residual.add_edge(2, 1) is False
        assert residual.add_edge(3, 3) is False
        assert residual.num_edges == 1

    def test_added_vertices_become_seeds(self):
        residual = ResidualGraph.empty()
        residual.add_edge(7, 8)
        rng = random.Random(0)
        assert residual.sample_seed(rng) in {7, 8}

    def test_add_after_removal_reseeds(self):
        residual = ResidualGraph.empty()
        residual.add_edge(1, 2)
        residual.remove_edge(1, 2)
        residual.add_edge(1, 3)
        rng = random.Random(0)
        for _ in range(10):
            assert residual.sample_seed(rng) in {1, 3}


class TestSeedSampling:
    def test_sample_returns_vertex_with_edges(self, residual):
        rng = random.Random(0)
        assert residual.sample_seed(rng) in {0, 1, 2}

    def test_sample_skips_exhausted_vertices(self, triangle):
        residual = ResidualGraph(triangle)
        residual.remove_edge(0, 1)
        residual.remove_edge(0, 2)
        rng = random.Random(0)
        for _ in range(20):
            assert residual.sample_seed(rng) in {1, 2}

    def test_sample_raises_when_empty(self, triangle):
        residual = ResidualGraph(triangle)
        for u, v in list(residual.edges()):
            residual.remove_edge(u, v)
        with pytest.raises(LookupError):
            residual.sample_seed(random.Random(0))

    def test_sample_is_uniform_ish(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        residual = ResidualGraph(g)
        rng = random.Random(42)
        counts = {v: 0 for v in range(4)}
        for _ in range(4000):
            counts[residual.sample_seed(rng)] += 1
        for v in range(4):
            assert counts[v] > 800  # ~1000 expected each
