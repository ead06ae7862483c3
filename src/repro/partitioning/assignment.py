"""The result type of every edge partitioner: :class:`EdgePartition`.

Stores, for each partition ``P_k``, the edges allocated to it (canonical
``(u, v), u < v`` form), plus lazily computed derived views (per-partition
vertex sets, the edge -> partition map).  All quality metrics in
:mod:`repro.partitioning.metrics` are computed from this object.

Each partition has two interchangeable forms, derived from one another on
first use and then cached: a list of ``(u, v)`` tuples (:meth:`edges_of`)
and an ``(m_k, 2)`` integer array (:meth:`edge_array`), in the same edge
order.  Partitioners build from lists; the serving and compaction layers
(CSR store, overlay fold, local-search refiner, ``save_partition``) build
from and consume arrays, so a partition crosses them without a per-edge
Python object unless something asks for the tuples.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.graph.graph import Edge, Graph, normalize_edge


def edges_to_array(edges: Sequence[Edge]) -> np.ndarray:
    """``(m, 2)`` int64 array of ``edges``; object dtype for ids beyond int64."""
    try:
        return np.array(edges, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # ids beyond int64 stay Python ints
        return np.array(edges, dtype=object).reshape(-1, 2)


def _normalize_array(edges: np.ndarray) -> np.ndarray:
    """Vectorised :func:`normalize_edge` over the rows of ``edges``."""
    edges = np.asarray(edges)
    if edges.dtype != object and edges.dtype != np.int64:
        edges = edges.astype(np.int64)
    edges = edges.reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    if bool(np.all(u < v)):
        return edges
    loops = np.flatnonzero(u == v)
    if len(loops):
        w = edges[loops[0], 0]
        raise ValueError(f"self loop ({w}, {w}) is not a valid edge")
    return np.column_stack((np.minimum(u, v), np.maximum(u, v)))


class EdgePartition:
    """A balanced ``p``-edge partitioning (Definition 3 of the paper).

    ``parts[k]`` holds the edges of partition ``k``.  Partitions may be empty
    (e.g. a tiny graph split into many parts).
    """

    def __init__(self, parts: Sequence[Sequence[Edge]]) -> None:
        self._parts: List[Optional[List[Edge]]] = [
            [normalize_edge(u, v) for u, v in part] for part in parts
        ]
        self._arrays: List[Optional[np.ndarray]] = [None] * len(self._parts)
        self._sizes = [len(part) for part in self._parts]
        self._vertex_sets: Optional[List[Set[int]]] = None
        self._edge_to_part: Optional[Dict[Edge, int]] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_assignment(
        cls, edges: Iterable[Edge], assignment: Iterable[int], num_partitions: int
    ) -> "EdgePartition":
        """Build from parallel iterables of edges and their partition ids."""
        parts: List[List[Edge]] = [[] for _ in range(num_partitions)]
        for edge, k in zip(edges, assignment):
            parts[k].append(edge)
        return cls(parts)

    @classmethod
    def from_arrays(cls, arrays: Sequence[np.ndarray]) -> "EdgePartition":
        """Build from one ``(m_k, 2)`` edge array per partition.

        Rows are normalised to ``u < v`` in one vectorised pass (a
        self-loop raises ``ValueError``, as in the list constructor) and
        keep their order.  The arrays are adopted, not copied: treat them
        as read-only afterwards.  Integer arrays become int64; an object
        array holds ids beyond int64.
        """
        normalized = [_normalize_array(edges) for edges in arrays]
        partition = cls([])
        partition._arrays = list(normalized)
        partition._parts = [None] * len(normalized)
        partition._sizes = [len(edges) for edges in normalized]
        return partition

    # -- basic views -------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        """``p``."""
        return len(self._parts)

    @property
    def num_edges(self) -> int:
        """Total number of edges across all partitions."""
        return sum(self.partition_sizes())

    def edges_of(self, k: int) -> List[Edge]:
        """Edges of partition ``k`` as ``(u, v)`` tuples (cached).

        Treat as read-only.
        """
        part = self._parts[k]
        if part is None:
            edges = self._arrays[k]
            assert edges is not None
            part = list(zip(edges[:, 0].tolist(), edges[:, 1].tolist()))
            self._parts[k] = part
        return part

    def edge_array(self, k: int) -> np.ndarray:
        """Edges of partition ``k`` as an ``(m_k, 2)`` array (cached).

        Same order as :meth:`edges_of`; int64, or object dtype when an id
        is beyond int64.  Treat as read-only.
        """
        edges = self._arrays[k]
        if edges is None:
            part = self._parts[k]
            assert part is not None
            edges = edges_to_array(part)
            self._arrays[k] = edges
        return edges

    def partition_sizes(self) -> List[int]:
        """``|E(P_k)|`` for each k."""
        return list(self._sizes)

    def vertex_sets(self) -> List[Set[int]]:
        """``V(P_k)`` — endpoints of the edges in each partition (cached)."""
        if self._vertex_sets is None:
            sets: List[Set[int]] = []
            for k, part in enumerate(self._parts):
                if part is None:
                    sets.append(set(self.edge_array(k).ravel().tolist()))
                    continue
                vs: Set[int] = set()
                for u, v in part:
                    vs.add(u)
                    vs.add(v)
                sets.append(vs)
            self._vertex_sets = sets
        return self._vertex_sets

    def vertex_counts(self) -> List[int]:
        """``|V(P_k)|`` for each k."""
        return [len(vs) for vs in self.vertex_sets()]

    def edge_to_partition(self) -> Dict[Edge, int]:
        """Map from canonical edge to its partition id (cached).

        Raises ``ValueError`` if any edge appears in two partitions.
        """
        if self._edge_to_part is None:
            mapping: Dict[Edge, int] = {}
            for k in range(self.num_partitions):
                for edge in self.edges_of(k):
                    if edge in mapping:
                        raise ValueError(
                            f"edge {edge} assigned to partitions {mapping[edge]} and {k}"
                        )
                    mapping[edge] = k
            self._edge_to_part = mapping
        return self._edge_to_part

    def partition_of(self, u: int, v: int) -> int:
        """Partition id of edge ``{u, v}``; raises ``KeyError`` if unassigned."""
        return self.edge_to_partition()[normalize_edge(u, v)]

    def replicas(self, v: int) -> int:
        """Number of partitions vertex ``v`` appears in (0 if isolated)."""
        return sum(1 for vs in self.vertex_sets() if v in vs)

    # -- validation --------------------------------------------------------

    def validate_against(self, graph: Graph) -> None:
        """Check this is a true partition of ``graph``'s edge set.

        Raises ``ValueError`` on duplicates, missing, or foreign edges.
        """
        mapping = self.edge_to_partition()  # raises on duplicates
        if len(mapping) != graph.num_edges:
            raise ValueError(
                f"partition covers {len(mapping)} edges, graph has {graph.num_edges}"
            )
        for u, v in mapping:
            if not graph.has_edge(u, v):
                raise ValueError(f"partitioned edge ({u}, {v}) is not in the graph")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        sizes = self.partition_sizes()
        return f"EdgePartition(p={self.num_partitions}, sizes={sizes})"
