"""Tests for the spectral bisection partitioner."""

from repro.graph.generators import community_graph, grid_2d, path_graph
from repro.graph.graph import Graph
from repro.partitioning.metrics import replication_factor
from repro.partitioning.random_edge import RandomPartitioner
from repro.partitioning.registry import make_partitioner
from repro.partitioning.spectral import SpectralPartitioner


class TestSpectralContract:
    def test_assigns_every_vertex(self, small_social):
        assignment = SpectralPartitioner(seed=0).partition_vertices(small_social, 4)
        assert set(assignment) == set(small_social.vertices())
        assert set(assignment.values()) == set(range(4))

    def test_empty_graph(self):
        assert SpectralPartitioner(seed=0).partition_vertices(Graph.empty(), 2) == {}

    def test_single_vertex(self):
        g = Graph.from_edges([], vertices=[7])
        assert SpectralPartitioner(seed=0).partition_vertices(g, 2) == {7: 0}

    def test_balance(self, small_social):
        p = 4
        assignment = SpectralPartitioner(seed=0).partition_vertices(small_social, p)
        sizes = [0] * p
        for k in assignment.values():
            sizes[k] += 1
        mean = small_social.num_vertices / p
        assert max(sizes) <= 1.25 * mean

    def test_disconnected_components_packed(self, two_triangles):
        assignment = SpectralPartitioner(seed=0).partition_vertices(two_triangles, 2)
        # Each triangle should land whole in one side.
        sides = {assignment[0], assignment[1], assignment[2]}
        assert len(sides) == 1
        other = {assignment[10], assignment[11], assignment[12]}
        assert len(other) == 1
        assert sides != other


class TestSpectralQuality:
    def test_path_bisection_is_contiguous(self):
        g = path_graph(40)
        assignment = SpectralPartitioner(seed=0).partition_vertices(g, 2)
        cut = sum(1 for u, v in g.edges() if assignment[u] != assignment[v])
        assert cut == 1  # the Fiedler vector of a path is monotone

    def test_grid_bisection_cut(self):
        g = grid_2d(8, 8)
        assignment = SpectralPartitioner(seed=0).partition_vertices(g, 2)
        cut = sum(1 for u, v in g.edges() if assignment[u] != assignment[v])
        assert cut <= 12  # optimum 8

    def test_recovers_two_communities(self):
        g = community_graph(120, 800, 2, 0.95, seed=1)
        assignment = SpectralPartitioner(seed=0).partition_vertices(g, 2)
        internal = sum(1 for u, v in g.edges() if assignment[u] == assignment[v])
        assert internal / g.num_edges > 0.8

    def test_beats_random_as_edge_partitioner(self, communities):
        spectral = make_partitioner("Spectral", seed=0).partition(communities, 6)
        spectral.validate_against(communities)
        rnd = RandomPartitioner(seed=0).partition(communities, 6)
        assert replication_factor(spectral, communities) < replication_factor(
            rnd, communities
        )
