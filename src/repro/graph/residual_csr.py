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
to reach linear run-time.  It is built from a :class:`Graph`, or from an
edge array without one (:meth:`CSRResidual.from_edges`); both go through
the same numpy builder.

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

    Construction is one O(m log m) sort of the directed slots; every
    residual mutation is O(1) per edge.

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
        edges = np.fromiter(
            (x for edge in graph.edges() for x in edge),
            dtype=np.int64,
            count=2 * graph.num_edges,
        )
        self._build(np.asarray(graph.vertex_list(), dtype=np.int64), edges)

    @classmethod
    def from_edges(cls, edges: np.ndarray, vertices: np.ndarray) -> "CSRResidual":
        """Build from an edge array, without a :class:`Graph`.

        ``edges`` is ``(m, 2)`` integer rows holding each undirected edge
        once, in either orientation, with no self loops; ``vertices``
        lists every vertex id once, in the order a :class:`Graph` of the
        same input would iterate them (it fixes the seed-pool order).
        Raises ``ValueError`` on a self loop, a repeated edge or an
        endpoint missing from ``vertices``.
        """
        self = cls.__new__(cls)
        self._build(
            np.asarray(vertices, dtype=np.int64),
            np.asarray(edges, dtype=np.int64),
        )
        return self

    @classmethod
    def from_adjacency(
        cls, vertex_order: Iterable[int], neighbors_of, num_edges: int
    ) -> "CSRResidual":
        """Build from any adjacency view (e.g. a streaming buffer).

        ``vertex_order`` fixes the seed-pool order (it must match the
        order the reference residual would use); ``neighbors_of(v)``
        returns an iterable of neighbour ids.
        """
        order = list(vertex_order)
        edges = np.fromiter(
            (x for v in order for u in neighbors_of(v) if v < u for x in (v, u)),
            dtype=np.int64,
            count=2 * num_edges,
        )
        return cls.from_edges(edges, order)

    def _build(self, order: np.ndarray, edges: np.ndarray) -> None:
        """The one construction: vertex order and edge rows to flat arrays."""
        ids = np.sort(order)
        n = len(ids)
        edges = edges.reshape(-1, 2)
        m = len(edges)
        # ids is sorted, so searchsorted *is* the id -> index map.
        ends = np.searchsorted(ids, edges.reshape(-1)).reshape(-1, 2)
        if m and (n == 0 or not np.array_equal(ids[np.minimum(ends, n - 1)], edges)):
            missing = np.setdiff1d(edges, ids)
            raise ValueError(f"edge endpoint {missing[0]} is not among the vertices")
        # Directed entry e < m runs ends[e, 0] -> ends[e, 1], entry e + m
        # the reverse copy.  Sorting by (tail, head) lays the rows out; the
        # twin of a slot is where its partner entry landed.  A repeated
        # edge or a self loop gives two equal keys.
        tail = np.concatenate((ends[:, 0], ends[:, 1]))
        head = np.concatenate((ends[:, 1], ends[:, 0]))
        key = tail * n + head
        entry_at = np.argsort(key)
        key = key[entry_at]
        if np.any(key[1:] == key[:-1]):
            raise ValueError("edges must be distinct and free of self loops")
        slot_of = np.empty(2 * m, dtype=np.int64)
        slot_of[entry_at] = np.arange(2 * m, dtype=np.int64)
        degrees = np.bincount(tail, minlength=n).astype(np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        self.indptr = indptr
        self.indices = head[entry_at]
        self.twin = slot_of[np.where(entry_at < m, entry_at + m, entry_at - m)]
        self.alive = np.ones(2 * m, dtype=np.uint8)
        self.live_deg = degrees.copy()
        self.ids = ids
        self.index_of: Dict[int, int] = dict(zip(ids.tolist(), range(n)))
        self._num_live = m
        # Seed pool mirrors the reference ResidualGraph exactly: candidate
        # vertices in *input* order, lazily pruned by swap-and-pop.
        pool = np.searchsorted(ids, order)
        self._seed_pool: List[int] = pool[degrees[pool] > 0].tolist()

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
