"""Mutable residual-graph overlay for local partitioning.

Local graph partitioning (Section III of the paper) freezes one partition per
round and *removes its edges* from the graph before the next round starts.
:class:`ResidualGraph` supports exactly the operations that loop needs:

* neighbour/degree queries on the remaining edges,
* removing an allocated edge,
* sampling a random seed vertex that still has remaining edges.

Seed sampling is O(1) amortised via a lazily-compacted candidate list: the
paper's "select vertex x from G randomly" is interpreted as "uniformly among
vertices that still have at least one unassigned edge" (an isolated residual
vertex cannot start a partition — its frontier is empty on arrival).
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Set

from repro.graph.graph import Edge, Graph


class ResidualGraph:
    """The not-yet-partitioned remainder of a graph.

    Construction copies the adjacency of ``graph`` (O(n + m)); all other
    operations are incremental.
    """

    def __init__(self, graph: Graph) -> None:
        self._adj: Dict[int, Set[int]] = graph.adjacency_copy()
        self._num_edges = graph.num_edges
        # Lazily filtered pool of candidate seed vertices.
        self._seed_pool: List[int] = [v for v, nbrs in self._adj.items() if nbrs]

    @classmethod
    def empty(cls) -> "ResidualGraph":
        """An empty residual graph, to be filled via :meth:`add_edge`.

        Used by the windowed streaming-local partitioner, whose residual is a
        bounded buffer over an edge stream rather than a whole graph.
        """
        return cls(Graph.empty())

    # -- queries -----------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Number of edges still unassigned."""
        return self._num_edges

    def degree(self, v: int) -> int:
        """Residual degree of ``v`` (0 if all its edges were allocated)."""
        nbrs = self._adj.get(v)
        return len(nbrs) if nbrs else 0

    def vertices(self) -> List[int]:
        """Known vertices in insertion order (live or not)."""
        return list(self._adj)

    def neighbors(self, v: int) -> Set[int]:
        """Residual neighbour set of ``v``.  Treat as read-only."""
        return self._adj.get(v, set())

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` is still unassigned."""
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def edges(self) -> Iterator[Edge]:
        """Iterate over remaining edges in canonical form."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    # -- mutation ----------------------------------------------------------

    def add_edge(self, u: int, v: int) -> bool:
        """Insert the undirected edge ``{u, v}``.

        Returns ``True`` if the edge was new (self loops and duplicates are
        ignored and return ``False``).  Both endpoints become seed
        candidates.
        """
        if u == v:
            return False
        nu = self._adj.setdefault(u, set())
        if v in nu:
            return False
        had_u = bool(nu)
        nu.add(v)
        nv = self._adj.setdefault(v, set())
        had_v = bool(nv)
        nv.add(u)
        self._num_edges += 1
        if not had_u:
            self._seed_pool.append(u)
        if not had_v:
            self._seed_pool.append(v)
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the edge ``{u, v}``; raises ``KeyError`` if absent."""
        self._adj[u].remove(v)
        self._adj[v].remove(u)
        self._num_edges -= 1

    # -- seed sampling -----------------------------------------------------

    def sample_seed(self, rng: random.Random) -> int:
        """A uniformly random vertex with residual degree >= 1.

        Raises ``LookupError`` when no edges remain.  Uses swap-and-pop lazy
        deletion: vertices whose residual degree dropped to zero since they
        entered the pool are discarded on contact.
        """
        pool = self._seed_pool
        while pool:
            i = rng.randrange(len(pool))
            v = pool[i]
            if self._adj[v]:
                return v
            pool[i] = pool[-1]
            pool.pop()
        raise LookupError("residual graph has no remaining edges")

    def is_exhausted(self) -> bool:
        """True when every edge has been allocated."""
        return self._num_edges == 0
