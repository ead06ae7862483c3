"""Array-backed residual graph for the CSR-native local-partitioning path.

:class:`CSRResidual` is the flat-array twin of
:class:`~repro.graph.residual.ResidualGraph`: the full input adjacency is
frozen once into ``indptr``/``indices`` CSR arrays (rows sorted by
neighbour), and the *residual* — the not-yet-partitioned remainder — is an
``alive`` bitmask parallel to ``indices`` plus a per-vertex live-degree
array.  The two directed slots of an undirected edge are linked by the
``twin`` permutation, so removing an edge flips two mask bytes and
decrements two counters: O(1), no hashing, no pointer chasing.  This is
the compact-adjacency layout production edge partitioners (HEP, 2PS) use
to reach linear run-time.

Determinism contract: seed sampling consumes the random stream *exactly*
like the dict-of-sets ``ResidualGraph`` (same initial candidate order —
graph insertion order — and the same lazy swap-and-pop rejection loop), so
a fixed seed drives both through identical seed sequences.

Internally every vertex is addressed by a dense index; the index order is
the *sorted* original-id order, so comparing indices compares ids and a
sorted CSR row is simultaneously sorted by original id.  Public methods
accept and return original vertex ids.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator, List

import numpy as np

from repro.graph.graph import Edge, Graph


class CSRResidual:
    """The not-yet-partitioned remainder of a graph, as flat arrays.

    Construction is O(n + m log d) (row sorting); every residual mutation
    is O(1) per edge.

    Attributes
    ----------
    indptr, indices:
        Static CSR adjacency of the *full* input graph in index space;
        each row is sorted ascending.  Rows never shrink — liveness lives
        in :attr:`alive`.
    twin:
        ``twin[s]`` is the slot of the reverse directed copy of slot ``s``.
    alive:
        ``uint8`` mask parallel to :attr:`indices`; 0 once allocated.  The
        two slots of an edge are always flipped together.
    live_deg:
        Residual degree per vertex index (``int64``).
    ids:
        Sorted original vertex ids; ``ids[i]`` is the id at index ``i``.
    index_of:
        Original id -> dense index.
    """

    __slots__ = (
        "indptr",
        "indices",
        "twin",
        "alive",
        "live_deg",
        "ids",
        "index_of",
        "_num_live",
        "_seed_pool",
    )

    def __init__(self, graph: Graph) -> None:
        self._build(list(graph.vertices()), graph.neighbors, graph.num_edges)

    @classmethod
    def from_adjacency(
        cls, vertex_order: Iterable[int], neighbors_of, num_edges: int
    ) -> "CSRResidual":
        """Build from any adjacency view (e.g. a streaming buffer).

        ``vertex_order`` fixes the seed-pool order (it must match the
        order the reference residual would use); ``neighbors_of(v)``
        returns an iterable of neighbour ids.
        """
        self = cls.__new__(cls)
        self._build(list(vertex_order), neighbors_of, num_edges)
        return self

    def _build(self, order: List[int], neighbors_of, num_edges: int) -> None:
        ids = np.asarray(sorted(order), dtype=np.int64)
        index_of: Dict[int, int] = {int(v): i for i, v in enumerate(ids)}
        n = len(ids)
        id_list = ids.tolist()
        degrees = np.fromiter(
            (len(neighbors_of(v)) for v in id_list), dtype=np.int64, count=n
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        total = int(indptr[-1])
        # One flat pass over the adjacency; id -> index mapping and row
        # sorting happen vectorised afterwards (ids is sorted, so
        # searchsorted *is* the index map).
        flat = np.fromiter(
            (u for v in id_list for u in neighbors_of(v)),
            dtype=np.int64,
            count=total,
        )
        col = np.searchsorted(ids, flat)
        src = np.repeat(np.arange(n, dtype=np.int64), degrees)
        indices = col[np.lexsort((col, src))]
        # Twin slots: sort all directed slots by their canonical (min, max)
        # key; the two copies of each undirected edge land adjacent.
        lo = np.minimum(src, indices)
        hi = np.maximum(src, indices)
        by_key = np.argsort(lo * n + hi, kind="stable")
        twin = np.empty_like(indices)
        twin[by_key[0::2]] = by_key[1::2]
        twin[by_key[1::2]] = by_key[0::2]
        self.indptr = indptr
        self.indices = indices
        self.twin = twin
        self.alive = np.ones(len(indices), dtype=np.uint8)
        self.live_deg = degrees.copy()
        self.ids = ids
        self.index_of = index_of
        self._num_live = num_edges
        # Seed pool mirrors the reference ResidualGraph exactly: candidate
        # vertices in *input* order, lazily pruned by swap-and-pop.
        deg_list = degrees.tolist()
        self._seed_pool = [
            i
            for i in (index_of[int(v)] for v in order)
            if deg_list[i] > 0
        ]

    # -- queries -----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices (live or not)."""
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        """Number of edges still unassigned."""
        return self._num_live

    def is_exhausted(self) -> bool:
        """True when every edge has been allocated."""
        return self._num_live == 0

    def degree(self, v: int) -> int:
        """Residual degree of the vertex with original id ``v``."""
        i = self.index_of.get(v)
        return int(self.live_deg[i]) if i is not None else 0

    def live_row(self, i: int) -> np.ndarray:
        """Live neighbour indices of vertex *index* ``i`` (sorted)."""
        s, e = self.indptr[i], self.indptr[i + 1]
        row = self.indices[s:e]
        return row[self.alive[s:e].view(bool)]

    def static_row(self, i: int) -> np.ndarray:
        """Full-graph (round-zero) neighbour indices of vertex index ``i``."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def neighbors(self, v: int) -> List[int]:
        """Residual neighbour ids of original id ``v`` (sorted)."""
        i = self.index_of.get(v)
        if i is None:
            return []
        return self.ids[self.live_row(i)].tolist()

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` is still unassigned."""
        i = self.index_of.get(u)
        j = self.index_of.get(v)
        if i is None or j is None:
            return False
        s, e = self.indptr[i], self.indptr[i + 1]
        k = int(np.searchsorted(self.indices[s:e], j))
        return s + k < e and self.indices[s + k] == j and bool(self.alive[s + k])

    def edges(self) -> Iterator[Edge]:
        """Iterate over remaining edges in canonical ``(u, v), u < v`` form."""
        for i in range(self.num_vertices):
            row = self.live_row(i)
            u = int(self.ids[i])
            for j in row[row > i]:
                yield (u, int(self.ids[int(j)]))

    # -- mutation ----------------------------------------------------------

    def kill_slots(self, owner: int, slots: np.ndarray, targets: np.ndarray) -> None:
        """Allocate the edges at ``slots`` (directed slots of ``owner``).

        ``targets`` are the corresponding distinct neighbour indices.
        """
        self.alive[slots] = 0
        self.alive[self.twin[slots]] = 0
        k = len(slots)
        self.live_deg[owner] -= k
        self.live_deg[targets] -= 1
        self._num_live -= k

    # -- seed sampling -----------------------------------------------------

    def sample_seed(self, rng: random.Random) -> int:
        """A uniformly random vertex id with residual degree >= 1.

        Identical RNG consumption to the reference implementation: draw an
        index into the pool, reject-and-compact dead entries on contact.
        """
        pool = self._seed_pool
        live_deg = self.live_deg
        while pool:
            i = rng.randrange(len(pool))
            v = pool[i]
            if live_deg[v] > 0:
                return int(self.ids[v])
            pool[i] = pool[-1]
            pool.pop()
        raise LookupError("residual graph has no remaining edges")
