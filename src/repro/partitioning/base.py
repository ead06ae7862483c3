"""Abstract partitioner interfaces.

Three families, mirroring the paper's taxonomy (Section II):

* :class:`EdgePartitioner` — anything that maps a whole graph to an
  :class:`~repro.partitioning.assignment.EdgePartition` (offline or local).
* :class:`StreamingEdgePartitioner` — assigns each edge as it arrives from a
  stream, never revisiting decisions (Random, DBH, Greedy, HDRF, Grid).
* :class:`VertexPartitioner` — classic vertex partitioning (LDG, FENNEL, our
  METIS-like multilevel); combined with
  :mod:`repro.partitioning.vertex_adapter` they act as edge partitioners the
  way the paper benchmarks them.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, Iterable, Optional

import numpy as np

from repro.graph.graph import Edge, Graph
from repro.partitioning.assignment import EdgePartition
from repro.utils.rng import Seed
from repro.utils.validation import check_positive


def default_capacity(num_edges: int, num_partitions: int, slack: float = 1.0) -> int:
    """The per-partition edge capacity ``C = ceil(slack * m / p)`` (>= 1)."""
    check_positive("num_partitions", num_partitions)
    if slack < 1.0:
        raise ValueError(f"slack must be >= 1.0, got {slack}")
    return max(1, math.ceil(slack * num_edges / num_partitions))


class EdgePartitioner(abc.ABC):
    """Base class of every edge partitioner.

    Subclasses set :attr:`name` (used by the registry and reports) and
    implement :meth:`partition`.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def partition(self, graph: Graph, num_partitions: int) -> EdgePartition:
        """Partition ``graph``'s edges into ``num_partitions`` parts."""

    def partition_edges(
        self, edges: np.ndarray, vertices: np.ndarray, num_partitions: int
    ) -> EdgePartition:
        """:meth:`partition` of the graph whose edges are the rows of ``edges``.

        ``edges`` and ``vertices`` are what
        :func:`repro.graph.io.read_edge_array` returns.  This builds the
        :class:`Graph` (:meth:`Graph.from_edge_array`); a partitioner that
        can work on the arrays themselves overrides it.
        """
        return self.partition(Graph.from_edge_array(edges, vertices), num_partitions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class StreamingEdgePartitioner(EdgePartitioner):
    """Edge partitioner that makes one irrevocable decision per arriving edge."""

    @abc.abstractmethod
    def assign_stream(
        self, edges: Iterable[Edge], num_partitions: int, graph: Optional[Graph] = None
    ) -> EdgePartition:
        """Assign every edge of ``edges`` in arrival order.

        ``graph`` is an optional side channel for heuristics that are
        conventionally given cheap global statistics (e.g. DBH uses degrees;
        real deployments obtain them from a first pass or a sketch).
        """

    def partition(self, graph: Graph, num_partitions: int) -> EdgePartition:
        """Stream the graph's edges in storage order."""
        return self.assign_stream(graph.edges(), num_partitions, graph=graph)


class VertexPartitioner(abc.ABC):
    """Base class of vertex partitioners (cut edges, not vertices)."""

    name: str = "abstract-vertex"

    @abc.abstractmethod
    def partition_vertices(self, graph: Graph, num_partitions: int) -> Dict[int, int]:
        """Return a map ``vertex -> partition id`` covering every vertex."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class SeededPartitioner(EdgePartitioner):
    """Convenience mixin storing a seed for stochastic partitioners."""

    def __init__(self, seed: Seed = None) -> None:
        self.seed = seed
