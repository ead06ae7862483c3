"""Both streaming passes in the compiled kernel, over one dense vertex index.

:func:`~repro.partitioning.oocore.pipeline.partition_stream` drives these
whenever :func:`~repro._native.load_kernel` returns a library; otherwise
it runs the Python classes (:class:`~.sketch.DegreeSketch`,
:class:`~.cluster.StreamingClustering`, :class:`~.place.StreamingPlacer`),
which are also the oracle this module is tested against.  It is the one
Python module besides :mod:`repro._native` that knows the layout of the
kernel's :class:`~repro._native.StreamState`.

:class:`VertexIndex` is an open-addressing table from ``int64`` ids to
dense indices plus per-vertex columns over those indices: exact degrees
(or, after the degrade, a count-min table), cluster ids and volumes in
pass 1, replica masks and affinity targets in pass 2.  It gives indices
in first-seen order, the exact dict's insertion order, so its degrade
replays counts in the dict's order and every estimate equals
:class:`~.sketch.DegreeSketch`'s.  A new vertex's singleton cluster id is
its dense index, which is :class:`~.cluster.StreamingClustering`'s
fresh-cluster counter, and a "present" flag stands for the volume dict's
keys.  :class:`NativePlacer` runs the pruned placement with ``ceil(p /
64)`` ``uint64`` mask words per vertex, and a winner tree over
``(effective size, id)`` stands in for the lazy heap.
"""

from __future__ import annotations

import ctypes
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._native import StreamState
from repro.partitioning.oocore.cluster import VOLUME_SLACK, map_clusters
from repro.partitioning.oocore.place import check_placer_options
from repro.partitioning.oocore.sketch import CM_DEPTH

#: Rows every per-vertex column of a :class:`VertexIndex` starts with (a
#: power of two, at least 2); they double, with a rehash, on demand.
INITIAL_VERTEX_CAPACITY = 1 << 12


class VertexIndex:
    """Dense vertex index and per-vertex columns of the compiled passes.

    Owns every buffer the kernel's :class:`StreamState` points at.  The
    kernel assigns indices and fills the columns; when an edge could
    overflow them it returns early, and :meth:`run` doubles every column,
    rehashes the table and resumes.  Degrees start exact (``deg``) and
    move to a ``CM_DEPTH x cm_width`` count-min table once more than
    ``max_exact_vertices`` vertices are seen, like
    :class:`~.sketch.DegreeSketch`.  The table is allocated zeroed up
    front; its pages stay untouched until the degrade.
    """

    def __init__(self, lib: ctypes.CDLL, max_exact_vertices: int, cm_width: int) -> None:
        self.lib = lib
        self.state = StreamState()
        self._ref = ctypes.byref(self.state)
        self._columns: Dict[str, Tuple[np.ndarray, int, int]] = {}
        st = self.state
        st.vcap = INITIAL_VERTEX_CAPACITY
        st.exact = 1
        st.max_exact = max_exact_vertices
        st.cm_width = max(1, cm_width)
        st.cm_depth = CM_DEPTH
        self._cm = np.zeros(CM_DEPTH * st.cm_width, dtype=np.int64)
        st.cm = self._cm.ctypes.data
        self._slots = np.full(2 * st.vcap, -1, dtype=np.int64)
        st.slots = self._slots.ctypes.data
        self.add_column("keys", np.int64)
        self.add_column("deg", np.int64)

    @property
    def kind(self) -> str:
        return "exact" if self.state.exact else "count-min"

    def __len__(self) -> int:
        return self.state.n

    def add_column(self, name: str, dtype, fill: int = 0, width: int = 1) -> None:
        """A ``width``-wide per-vertex column ``name`` (a ``StreamState`` field)."""
        column = np.full(self.state.vcap * width, fill, dtype=dtype)
        self._columns[name] = (column, fill, width)
        setattr(self.state, name, column.ctypes.data)

    def column(self, name: str) -> np.ndarray:
        """The indexed vertices' rows of column ``name``."""
        column, _, width = self._columns[name]
        return column[: self.state.n * width]

    def drop_column(self, name: str) -> None:
        del self._columns[name]
        setattr(self.state, name, None)

    def run(self, fn, edges: np.ndarray, *out: np.ndarray) -> None:
        """Call pass function ``fn`` over the ``(m, 2)`` ``edges`` until it is done.

        ``fn`` stops before an edge that could overflow the columns and
        returns its position; the columns grow and ``fn`` resumes there.
        """
        edges = np.ascontiguousarray(edges, dtype=np.int64)
        pointers = [a.ctypes.data for a in out]
        done = 0
        while True:
            done = fn(self._ref, edges.ctypes.data, done, len(edges), *pointers)
            if done == len(edges):
                return
            self._grow()

    def count(self, edges: np.ndarray) -> None:
        """Pass 1 over an ``(m, 2)`` array of edges without self loops."""
        self.run(self.lib.oo_count, edges)

    def _grow(self) -> None:
        st = self.state
        st.vcap *= 2
        for name, (old, fill, width) in list(self._columns.items()):
            column = np.full(st.vcap * width, fill, dtype=old.dtype)
            column[: len(old)] = old
            self._columns[name] = (column, fill, width)
            setattr(st, name, column.ctypes.data)
        self._slots = np.full(2 * st.vcap, -1, dtype=np.int64)
        st.slots = self._slots.ctypes.data
        self.lib.oo_rehash(self._ref)


def cluster_natively(
    index: VertexIndex, num_partitions: int, clusters_per_partition: int
) -> None:
    """Make ``index``'s pass 1 (:meth:`VertexIndex.count`) cluster as well.

    The compiled sweep is :meth:`~.cluster.StreamingClustering.observe_many`'s
    with its default :data:`~.cluster.VOLUME_SLACK`.
    """
    index.add_column("cluster_of", np.int64, -1)
    index.add_column("volume", np.int64)
    index.add_column("present", np.uint8)
    index.state.target_clusters = max(1, num_partitions * clusters_per_partition)
    index.state.volume_slack = VOLUME_SLACK


def native_affinity(index: VertexIndex, num_partitions: int) -> int:
    """Give ``index`` an ``affinity`` column from its pass-1 clusters.

    Packs the clusters still holding volume with :func:`map_clusters`,
    stores each vertex's cluster partition (``-1`` for a drained
    cluster), drops the cluster columns and returns the cluster count.
    """
    clusters = np.flatnonzero(index.column("present"))
    volumes = index.column("volume")[clusters]
    mapping = map_clusters(dict(zip(clusters.tolist(), volumes.tolist())), num_partitions)
    partition = np.full(len(index), -1, dtype=np.int64)
    partition[clusters] = [mapping[c] for c in clusters.tolist()]
    affinity = partition[index.column("cluster_of")]
    for name in ("cluster_of", "volume", "present"):
        index.drop_column(name)
    index.add_column("affinity", np.int64, -1)
    index.column("affinity")[:] = affinity
    return len(clusters)


class NativePlacer:
    """:class:`~.place.StreamingPlacer` in the compiled kernel, over ``index``.

    ``index`` is pass 1's :class:`VertexIndex`, with its final degrees
    and, when clustering ran, an ``affinity`` column.  Placements,
    sizes and replica counts equal :class:`~.place.StreamingPlacer`'s
    for the same options.
    """

    def __init__(
        self,
        index: VertexIndex,
        num_partitions: int,
        *,
        policy: str,
        lam: float,
        epsilon: float,
        gamma: float,
        offsets: Optional[Sequence[int]],
    ) -> None:
        check_placer_options(num_partitions, policy, lam, epsilon, gamma, offsets)
        self.index = index
        st = index.state
        st.p = num_partitions
        st.words = -(-num_partitions // 64)
        st.greedy = policy == "greedy"
        st.lam, st.epsilon, st.gamma = lam, epsilon, gamma
        index.add_column("masks", np.uint64, width=st.words)
        self._sizes = np.zeros(num_partitions, dtype=np.int64)
        self._eff = np.zeros(num_partitions, dtype=np.int64)
        if offsets is not None and policy != "greedy":
            self._eff += np.asarray(offsets, dtype=np.int64)
        st.leaves = 1 << (num_partitions - 1).bit_length()
        self._tree = np.empty(2 * st.leaves, dtype=np.int64)
        st.sizes = self._sizes.ctypes.data
        st.eff = self._eff.ctypes.data
        st.tree = self._tree.ctypes.data
        index.lib.oo_place_init(st)

    def place(self, edges: np.ndarray) -> np.ndarray:
        """Place (and commit) each row of the ``(m, 2)`` ``(min, max)`` array."""
        parts = np.empty(len(edges), dtype=np.int64)
        self.index.run(self.index.lib.oo_place, edges, parts)
        return parts

    @property
    def sizes(self) -> List[int]:
        return self._sizes.tolist()

    @property
    def num_vertices(self) -> int:
        """Covered vertices (endpoints of at least one placed edge)."""
        masks = self.index.column("masks").reshape(-1, self.index.state.words)
        return int(masks.any(axis=1).sum())

    def replication_factor(self) -> float:
        """Exact RF of the placements so far (1.0 for an empty stream)."""
        covered = self.num_vertices
        return self.index.state.replicas / covered if covered else 1.0
