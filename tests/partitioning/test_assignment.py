"""Unit tests for the EdgePartition result type."""

import numpy as np
import pytest

from repro.graph.graph import Graph
from repro.partitioning.assignment import EdgePartition


@pytest.fixture
def square():
    return Graph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture
def square_partition():
    return EdgePartition([[(0, 1), (1, 2)], [(2, 3), (0, 3)]])


class TestConstruction:
    def test_normalises_edges(self):
        part = EdgePartition([[(2, 1)], [(3, 0)]])
        assert part.edges_of(0) == [(1, 2)]
        assert part.edges_of(1) == [(0, 3)]

    def test_from_assignment(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        part = EdgePartition.from_assignment(edges, [0, 1, 0], 2)
        assert part.partition_sizes() == [2, 1]

    def test_empty_partitions_allowed(self):
        part = EdgePartition([[], [(0, 1)], []])
        assert part.num_partitions == 3
        assert part.partition_sizes() == [0, 1, 0]


class TestArrayForm:
    def test_from_arrays_normalises_and_keeps_order(self):
        part = EdgePartition.from_arrays(
            [np.array([[5, 1], [0, 3], [2, 4]]), np.empty((0, 2), dtype=np.int64)]
        )
        assert part.edges_of(0) == [(1, 5), (0, 3), (2, 4)]
        assert part.edges_of(1) == []
        assert part.partition_sizes() == [3, 0]
        assert part.edge_array(0).dtype == np.int64
        assert part.vertex_sets() == [{0, 1, 2, 3, 4, 5}, set()]

    def test_from_arrays_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self loop"):
            EdgePartition.from_arrays([np.array([[1, 2], [3, 3]])])

    def test_list_and_array_forms_agree(self, square_partition):
        for k in range(2):
            array = square_partition.edge_array(k)
            assert list(map(tuple, array.tolist())) == square_partition.edges_of(k)
        rebuilt = EdgePartition.from_arrays(
            [square_partition.edge_array(k) for k in range(2)]
        )
        assert rebuilt.edge_to_partition() == square_partition.edge_to_partition()

    def test_list_constructor_accepts_one_shot_iterables(self):
        part = EdgePartition(iter([iter([(2, 1), (0, 3)]), iter([])]))
        assert part.partition_sizes() == [2, 0]
        assert part.num_edges == 2
        assert part.edge_array(0).tolist() == [[1, 2], [0, 3]]

    def test_ids_beyond_int64_use_object_arrays(self):
        big = 2**70
        part = EdgePartition([[(big, 3), (1, 2)]])
        array = part.edge_array(0)
        assert array.dtype == object
        assert array.tolist() == [[3, big], [1, 2]]
        back = EdgePartition.from_arrays([array[::-1]])
        assert back.edges_of(0) == [(1, 2), (3, big)]


class TestViews:
    def test_vertex_sets(self, square_partition):
        assert square_partition.vertex_sets() == [{0, 1, 2}, {0, 2, 3}]

    def test_vertex_counts(self, square_partition):
        assert square_partition.vertex_counts() == [3, 3]

    def test_num_edges(self, square_partition):
        assert square_partition.num_edges == 4

    def test_edge_to_partition(self, square_partition):
        mapping = square_partition.edge_to_partition()
        assert mapping[(0, 1)] == 0
        assert mapping[(0, 3)] == 1

    def test_partition_of_normalises(self, square_partition):
        assert square_partition.partition_of(3, 2) == 1

    def test_partition_of_missing_raises(self, square_partition):
        with pytest.raises(KeyError):
            square_partition.partition_of(0, 2)

    def test_replicas(self, square_partition):
        assert square_partition.replicas(0) == 2
        assert square_partition.replicas(1) == 1
        assert square_partition.replicas(99) == 0

    def test_duplicate_edge_detected(self):
        part = EdgePartition([[(0, 1)], [(1, 0)]])
        with pytest.raises(ValueError, match="assigned to partitions"):
            part.edge_to_partition()


class TestValidation:
    def test_valid_partition_passes(self, square, square_partition):
        square_partition.validate_against(square)

    def test_missing_edge_detected(self, square):
        part = EdgePartition([[(0, 1)], [(1, 2), (2, 3)]])
        with pytest.raises(ValueError, match="covers 3 edges"):
            part.validate_against(square)

    def test_foreign_edge_detected(self, square):
        part = EdgePartition([[(0, 1), (0, 2)], [(1, 2), (2, 3)]])
        with pytest.raises(ValueError):
            part.validate_against(square)


class TestValidateEdges:
    """``validate_edges`` checks against an edge array what ``validate_against`` does."""

    @staticmethod
    def edges_of(graph):
        return np.array(sorted(graph.edges()), dtype=np.int64)

    def test_valid_partition_passes(self, square, square_partition):
        square_partition.validate_edges(self.edges_of(square))
        EdgePartition.from_arrays(
            [square_partition.edge_array(1), square_partition.edge_array(0)]
        ).validate_edges(self.edges_of(square)[::-1])

    def test_duplicate_edge_detected(self, square):
        part = EdgePartition([[(0, 1), (1, 2)], [(2, 3), (0, 3), (1, 0)]])
        with pytest.raises(ValueError, match=r"edge \(0, 1\) assigned to partitions 0 and 1"):
            part.validate_edges(self.edges_of(square))

    def test_missing_edge_detected(self, square):
        part = EdgePartition([[(0, 1)], [(1, 2), (2, 3)]])
        with pytest.raises(ValueError, match="covers 3 edges, graph has 4"):
            part.validate_edges(self.edges_of(square))

    def test_foreign_edge_detected(self, square):
        part = EdgePartition([[(0, 1), (0, 2)], [(1, 2), (2, 3)]])
        with pytest.raises(ValueError, match=r"\(0, 2\) is not in the graph"):
            part.validate_edges(self.edges_of(square))
