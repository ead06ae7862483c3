"""Load a saved bundle straight into the GAS simulator via the CSR sidecar.

The original loading path for a simulation run was: parse the text edge
lists back into an :class:`~repro.partitioning.assignment.EdgePartition`
(:func:`~repro.partitioning.serialization.load_partition`), then let
:class:`~repro.runtime.engine.GASEngine` re-derive the replication table
by counting incident edges per vertex into dict-of-dicts, and — for
incremental mode — rebuild per-machine adjacency dicts edge by edge.
Every structure the engine rebuilds is already frozen into the bundle's
binary CSR sidecar (``adjacency.csr``, see
:mod:`~repro.partitioning.csr_bundle`), so :func:`load_engine` memory-maps
the sidecar instead and wraps the flat arrays in thin read-only views:

* :class:`CSRReplicationTable` — binary-searches the sorted ``vertex_ids``
  row index and answers master/replica queries from the mapped ``master``
  and ``rep_*`` arrays (memoised per vertex, since the gather loop asks
  for the same masters every superstep);
* :class:`CSRMachineAdjacency` — the mapping interface the engine's
  incremental mode expects (``adj[u]``, ``adj.get(u, ())``, iteration),
  served from each partition's ``(ids, indptr, indices)`` CSR rows;
* :class:`BundlePartitionView` — enough of the ``EdgePartition`` surface
  for the engine (``num_partitions``, ``edges_of``, ``vertex_sets``),
  decoding each partition's edge list lazily from the CSR rows.

Because ``save_partition`` writes edges in canonical sorted order and CSR
row-major decoding yields exactly that order, the per-machine edge lists
— and therefore every gather merge — are identical between the two paths,
so results are bit-identical, floats included (the parity test in
``tests/runtime/test_loader.py`` pins this).  Bundles whose manifest
records no sidecar (written before sidecars existed) fall back to the text
path transparently; a recorded sidecar whose file is missing raises.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from repro.graph.graph import Edge, Graph
from repro.partitioning.csr_bundle import PartitionCSR
from repro.partitioning.serialization import (
    has_sidecar,
    load_partition,
    load_sidecar,
)
from repro.runtime.engine import GASEngine
from repro.runtime.programs import GASProgram

PathLike = Union[str, Path]

_Row = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _decode_edges(ids: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> List[Edge]:
    """One partition's sorted edge list from its CSR adjacency."""
    if len(ids) == 0:
        return []
    degrees = np.diff(indptr)
    src = np.repeat(np.arange(len(ids)), degrees)
    dst = np.asarray(indices)
    # Each undirected edge appears in both rows; keep the (u < v) copy.
    # Row-major order with sorted rows yields the canonical sorted list.
    mask = src < dst
    u = ids[src[mask]]
    v = ids[dst[mask]]
    return list(zip(u.tolist(), v.tolist()))


class CSRReplicationTable:
    """Master/mirror queries over the memory-mapped sidecar arrays.

    Duck-types :class:`~repro.runtime.replication.ReplicationTable`
    without materialising its per-vertex dicts.  Lookups are memoised:
    the engine asks for the same vertices every superstep, and a dict
    hit is cheaper than a binary search into a mapped array.
    """

    def __init__(self, csr: PartitionCSR) -> None:
        self._ids = csr.vertex_ids
        self._master = csr.master
        self._indptr = csr.rep_indptr
        self._parts = csr.rep_parts
        self._rows: Dict[int, int] = {}

    def _row(self, v: int) -> int:
        """Row of ``v`` in ``vertex_ids`` (-1 if uncovered)."""
        row = self._rows.get(v)
        if row is None:
            i = int(np.searchsorted(self._ids, v))
            row = i if i < len(self._ids) and int(self._ids[i]) == v else -1
            self._rows[v] = row
        return row

    def replicas_of(self, v: int) -> Tuple[int, ...]:
        """Partitions hosting a replica of ``v`` (empty tuple if unknown)."""
        row = self._row(v)
        if row < 0:
            return ()
        lo, hi = int(self._indptr[row]), int(self._indptr[row + 1])
        return tuple(int(k) for k in self._parts[lo:hi])

    def master_of(self, v: int) -> int:
        """The master partition of ``v``; raises ``KeyError`` if uncovered."""
        row = self._row(v)
        if row < 0:
            raise KeyError(v)
        return int(self._master[row])

    def mirror_count(self, v: int) -> int:
        """Number of mirrors (non-master replicas) of ``v``."""
        row = self._row(v)
        if row < 0:
            return 0
        return max(0, int(self._indptr[row + 1] - self._indptr[row]) - 1)

    def total_mirrors(self) -> int:
        """Sum of mirrors over all vertices — the communication driver."""
        return int(len(self._parts) - len(self._ids))

    def spanned_vertices(self) -> List[int]:
        """Vertices with at least one mirror (Definition 2)."""
        spanned = np.diff(self._indptr) > 1
        return [int(v) for v in self._ids[spanned]]


class CSRMachineAdjacency:
    """Read-only ``{vertex: sorted neighbour ids}`` view of one partition.

    Implements exactly the mapping surface the engine's incremental mode
    uses: ``adj[u]``, ``adj.get(u, default)``, ``u in adj``, iteration
    (ascending vertex id), and ``len``.
    """

    __slots__ = ("_ids", "_indptr", "_indices")

    def __init__(self, ids: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> None:
        self._ids = ids
        self._indptr = indptr
        self._indices = indices

    def _row(self, u: int) -> int:
        i = int(np.searchsorted(self._ids, u))
        return i if i < len(self._ids) and int(self._ids[i]) == u else -1

    def _neighbors(self, row: int) -> List[int]:
        lo, hi = int(self._indptr[row]), int(self._indptr[row + 1])
        return [int(x) for x in self._ids[self._indices[lo:hi]]]

    def __getitem__(self, u: int) -> List[int]:
        row = self._row(u)
        if row < 0:
            raise KeyError(u)
        return self._neighbors(row)

    def get(self, u: int, default: object = None) -> object:
        row = self._row(u)
        return default if row < 0 else self._neighbors(row)

    def __contains__(self, u: object) -> bool:
        return isinstance(u, int) and self._row(u) >= 0

    def __iter__(self) -> Iterator[int]:
        return (int(v) for v in self._ids)

    def __len__(self) -> int:
        return len(self._ids)


class BundlePartitionView:
    """The slice of the ``EdgePartition`` API the engine needs, CSR-backed.

    Edge lists are decoded lazily per partition (and cached), so a run
    that never touches ``edges_of`` — or only some machines — pays only
    for what it reads.
    """

    def __init__(self, csr: PartitionCSR) -> None:
        self._csr = csr
        self._edges: List[Optional[List[Edge]]] = [None] * csr.num_partitions
        self._vertex_sets: Optional[List[Set[int]]] = None

    @property
    def num_partitions(self) -> int:
        """``p``."""
        return self._csr.num_partitions

    @property
    def num_edges(self) -> int:
        """Total number of edges across all partitions."""
        return self._csr.num_edges

    def edges_of(self, k: int) -> List[Edge]:
        """Edges of partition ``k`` in canonical sorted order."""
        cached = self._edges[k]
        if cached is None:
            cached = _decode_edges(*self._csr.parts[k])
            self._edges[k] = cached
        return cached

    def partition_sizes(self) -> List[int]:
        """``|E(P_k)|`` for each k (from the CSR, no edge decode)."""
        return [
            int(indptr[-1]) // 2 for _, indptr, _ in self._csr.parts
        ]

    def vertex_sets(self) -> List[Set[int]]:
        """``V(P_k)`` — endpoints of the edges in each partition (cached)."""
        if self._vertex_sets is None:
            self._vertex_sets = [
                {int(v) for v in ids} for ids, _, _ in self._csr.parts
            ]
        return self._vertex_sets

    def validate_against(self, graph: Graph) -> None:
        """Check this is a true partition of ``graph``'s edge set."""
        if self.num_edges != graph.num_edges:
            raise ValueError(
                f"partition covers {self.num_edges} edges, "
                f"graph has {graph.num_edges}"
            )
        seen = 0
        for k in range(self.num_partitions):
            for u, v in self.edges_of(k):
                if not graph.has_edge(u, v):
                    raise ValueError(
                        f"partitioned edge ({u}, {v}) is not in the graph"
                    )
                seen += 1
        # Sorted per-partition lists cannot hide duplicates within a
        # partition; equality of totals rules out cross-partition ones
        # only together with the count check above.
        if seen != graph.num_edges:
            raise ValueError(
                f"partition covers {seen} edges, graph has {graph.num_edges}"
            )


def load_engine(
    directory: PathLike,
    graph: Graph,
    program: GASProgram,
    *,
    verify: bool = True,
    mmap: bool = True,
) -> GASEngine:
    """Open a ``save_partition`` bundle as a ready-to-run :class:`GASEngine`.

    When the bundle carries a CSR sidecar it is memory-mapped and the
    engine's replication table, machine adjacency, and edge lists are
    served from the flat arrays (``mmap=False`` loads them eagerly
    instead).  Bundles whose manifest records no sidecar fall back to the
    text edge-list path — results are identical either way.  A recorded
    sidecar whose file is missing is a torn bundle and raises
    ``FileNotFoundError``.

    ``verify=True`` checks the sidecar checksum (or text checksums) and
    validates the partition against ``graph``.
    """
    directory = Path(directory)
    if not has_sidecar(directory):
        return GASEngine(graph, load_partition(directory, verify=verify), program)
    csr = load_sidecar(directory, verify=verify, mmap=mmap)
    view = BundlePartitionView(csr)
    if verify:
        view.validate_against(graph)

    engine = GASEngine.__new__(GASEngine)
    engine.graph = graph
    engine.partition = view  # type: ignore[assignment]
    engine.program = program
    engine.replication = CSRReplicationTable(csr)  # type: ignore[assignment]
    engine._local_edges = [
        view.edges_of(k) for k in range(view.num_partitions)
    ]
    engine._degree = {v: graph.degree(v) for v in graph.vertices()}
    engine._machine_adj = [  # type: ignore[assignment]
        CSRMachineAdjacency(*csr.parts[k]) for k in range(view.num_partitions)
    ]
    return engine
