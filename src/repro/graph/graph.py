"""Core undirected simple-graph type.

The partitioning literature this library reproduces (ICDCS'19 TLP and its
baselines) works exclusively on undirected simple graphs: self loops are
dropped and parallel edges collapsed, exactly as SNAP datasets are normally
preprocessed.  :class:`Graph` is a read-mostly adjacency-set structure;
algorithms that need to *consume* edges (local partitioning) use
:class:`repro.graph.residual.ResidualGraph`, a mutable overlay.

Vertices are arbitrary integers (not necessarily contiguous); an edge is a
pair ``(u, v)`` normalised so that ``u < v``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

import numpy as np

Edge = Tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the canonical ``(min, max)`` form of an undirected edge."""
    if u == v:
        raise ValueError(f"self loop ({u}, {v}) is not a valid edge")
    return (u, v) if u < v else (v, u)


class Graph:
    """An immutable undirected simple graph backed by adjacency sets.

    Construct via :meth:`from_edges`, :meth:`from_edge_array` or
    :class:`repro.graph.builder.GraphBuilder`.
    Mutating the returned neighbour sets is undefined behaviour; use
    :meth:`repro.graph.residual.ResidualGraph` for algorithms that remove
    edges.
    """

    __slots__ = ("_adj", "_num_edges")

    def __init__(self, adjacency: Dict[int, Set[int]], num_edges: int) -> None:
        self._adj = adjacency
        self._num_edges = num_edges

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[int, int]], vertices: Iterable[int] = ()
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` pairs.

        Self loops are rejected; duplicate edges (in either orientation) are
        collapsed.  ``vertices`` may list extra isolated vertices to include.
        """
        adj: Dict[int, Set[int]] = {}
        num_edges = 0
        for u, v in edges:
            if u == v:
                raise ValueError(f"self loop ({u}, {v}); use GraphBuilder to drop loops")
            nu = adj.setdefault(u, set())
            if v not in nu:
                nu.add(v)
                adj.setdefault(v, set()).add(u)
                num_edges += 1
        for v in vertices:
            adj.setdefault(v, set())
        return cls(adj, num_edges)

    @classmethod
    def from_edge_array(cls, edges: np.ndarray, vertices: np.ndarray) -> "Graph":
        """Build a graph from ``(m, 2)`` edge rows and a vertex order.

        ``edges`` holds each undirected edge once, with no self loops;
        ``vertices`` lists every vertex id once, endpoints and isolated
        vertices alike (:func:`repro.graph.io.read_edge_array` reads a
        file into both).  The graph iterates its vertices in ``vertices``
        order, and each neighbour set is filled in row order: the
        insertion sequence, and so the set iteration order, of adding the
        rows one by one.
        """
        adj: Dict[int, Set[int]] = {v: set() for v in vertices.tolist()}
        # Both directions of every row, in row order; a stable sort by
        # tail keeps that order within each vertex's run.
        slots = np.stack((edges, edges[:, ::-1]), axis=1).reshape(-1, 2)
        slots = slots[np.argsort(slots[:, 0], kind="stable")]
        tails = slots[:, 0]
        new = np.ones(len(tails), dtype=bool)
        new[1:] = tails[1:] != tails[:-1]
        starts = np.flatnonzero(new).tolist()
        heads = slots[:, 1].tolist()
        for v, a, b in zip(tails[starts].tolist(), starts, starts[1:] + [len(heads)]):
            adj[v] = set(heads[a:b])
        if len(adj) != len(vertices):
            raise ValueError("edge endpoints must all be among the vertices, once each")
        return cls(adj, len(edges))

    @classmethod
    def empty(cls) -> "Graph":
        """The graph with no vertices and no edges."""
        return cls({}, 0)

    # -- basic queries -----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """``|V|``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """``|E|``."""
        return self._num_edges

    def vertices(self) -> Iterator[int]:
        """Iterate over all vertices (insertion order)."""
        return iter(self._adj)

    def vertex_list(self) -> List[int]:
        """All vertices as a list."""
        return list(self._adj)

    def has_vertex(self, v: int) -> bool:
        """Whether ``v`` is a vertex of the graph."""
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        nu = self._adj.get(u)
        return nu is not None and v in nu

    def neighbors(self, v: int) -> Set[int]:
        """The neighbour set ``N(v)``.  Treat as read-only."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        """``|N(v)|``."""
        return len(self._adj[v])

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in canonical ``(u, v), u < v`` form."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def edge_list(self) -> List[Edge]:
        """All edges as a list of canonical pairs."""
        return list(self.edges())

    # -- derived views -----------------------------------------------------

    def adjacency_copy(self) -> Dict[int, Set[int]]:
        """A deep copy of the adjacency structure (for mutable overlays)."""
        return {v: set(nbrs) for v, nbrs in self._adj.items()}

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """The induced subgraph on ``vertices``."""
        keep: FrozenSet[int] = frozenset(vertices)
        adj: Dict[int, Set[int]] = {v: set() for v in keep if v in self._adj}
        num_edges = 0
        for v in adj:
            for u in self._adj[v]:
                if u in keep:
                    adj[v].add(u)
                    if v < u:
                        num_edges += 1
        return Graph(adj, num_edges)

    def average_degree(self) -> float:
        """Mean degree ``2m / n`` (0.0 for the empty graph)."""
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    # -- dunder ------------------------------------------------------------

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Graph(|V|={self.num_vertices}, |E|={self.num_edges})"
