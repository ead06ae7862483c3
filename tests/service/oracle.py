"""Reference oracle for the serving store: the dict-of-sets layout.

:class:`DictStore` answers every query of
:class:`repro.service.store.PartitionStore` from per-partition
dict-of-sets adjacency plus a
:class:`~repro.runtime.replication.ReplicationTable`, rebuilt in plain
Python from the edge lists.  It is deliberately naive — scalar loops,
no arrays, no caches — so it can serve as the executable specification
the memory-mapped CSR store (and the ingest overlay on top of it) is
pinned against by the parity suites.

:func:`strip_sidecar` turns a freshly saved bundle into a pre-sidecar
(legacy) bundle by deleting the ``adjacency.csr`` file and its manifest
entry.

:func:`loop_csr_to_partition` and :func:`tuple_fold` are the per-edge
Python forms of :func:`repro.partitioning.csr_bundle.csr_to_partition`
and :meth:`repro.service.ingest.DeltaOverlay.to_partition`, which build
edge arrays instead; the parity suites require the same edges in the
same order from both.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.graph.graph import Edge, normalize_edge
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.csr_bundle import SIDECAR_NAME, PartitionCSR
from repro.partitioning.serialization import (
    MANIFEST_NAME,
    load_partition,
    partition_metadata,
)
from repro.runtime.replication import ReplicationTable
from repro.service.ingest import DeltaOverlay
from repro.service.store import NeighborRow, Route

PathLike = Union[str, Path]


def strip_sidecar(directory: PathLike) -> Path:
    """Make ``directory`` a legacy bundle: no sidecar file, no manifest entry."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest.pop("csr_sidecar", None)
    manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    (directory / SIDECAR_NAME).unlink(missing_ok=True)
    return directory


def loop_csr_to_partition(csr: PartitionCSR) -> EdgePartition:
    """Materialise a partition from its CSR form, one edge at a time.

    Rows in order, each row's neighbours in order, keeping the ``u < v``
    copy of every undirected edge.
    """
    parts: List[List[Edge]] = []
    for ids, indptr, indices in csr.parts:
        edges: List[Edge] = []
        for row in range(len(ids)):
            u = int(ids[row])
            for idx in indices[indptr[row] : indptr[row + 1]]:
                v = int(ids[idx])
                if u < v:  # each undirected edge appears twice
                    edges.append((u, v))
        parts.append(edges)
    return EdgePartition(parts)


def tuple_fold(overlay: DeltaOverlay) -> EdgePartition:
    """Fold an overlay's base + delta as tuple lists.

    Per partition: the base edges in base order, minus the deleted ones,
    then that partition's inserts in sorted order.
    """
    p = overlay.num_partitions
    deleted: List[Set[Edge]] = [set() for _ in range(p)]
    for edge, k in overlay._del_owner.items():
        deleted[k].add(edge)
    inserted: List[List[Edge]] = [[] for _ in range(p)]
    for edge, k in overlay._ins_owner.items():
        inserted[k].append(edge)
    base = overlay.base.partition
    parts: List[List[Edge]] = []
    for k in range(p):
        edges = [e for e in base.edges_of(k) if e not in deleted[k]]
        edges.extend(sorted(inserted[k]))
        parts.append(edges)
    return EdgePartition(parts)


class DictStore:
    """Precomputed routing tables over one edge partition (dict-of-sets)."""

    def __init__(
        self,
        partition: EdgePartition,
        metadata: Optional[Dict[str, object]] = None,
        epoch: int = 0,
    ) -> None:
        self._partition = partition
        self.metadata: Dict[str, object] = dict(metadata or {})
        self.epoch = epoch
        self._table = ReplicationTable(partition)
        # Per-partition adjacency: _adj[k][v] = neighbours of v inside P_k.
        self._adj: List[Dict[int, Set[int]]] = []
        for k in range(partition.num_partitions):
            adj: Dict[int, Set[int]] = {}
            for u, v in partition.edges_of(k):
                adj.setdefault(u, set()).add(v)
                adj.setdefault(v, set()).add(u)
            self._adj.append(adj)
        self._edge_owner: Dict[Edge, int] = partition.edge_to_partition()

    @classmethod
    def open(cls, directory: PathLike, verify: bool = True) -> "DictStore":
        """Rebuild the oracle from a bundle's edge-list text files."""
        return cls(
            load_partition(directory, verify=verify),
            metadata=partition_metadata(directory),
        )

    # -- basic shape -------------------------------------------------------

    @property
    def partition(self) -> EdgePartition:
        return self._partition

    @property
    def num_partitions(self) -> int:
        return self._partition.num_partitions

    @property
    def num_edges(self) -> int:
        return self._partition.num_edges

    @property
    def num_vertices(self) -> int:
        return len(self._table.replicas)

    def has_vertex(self, v: int) -> bool:
        return v in self._table.replicas

    # -- routing -----------------------------------------------------------

    def master_of(self, v: int) -> int:
        return self._table.master[v]

    def replicas_of(self, v: int) -> Tuple[int, ...]:
        return self._table.replicas_of(v)

    def mirrors_of(self, v: int) -> Tuple[int, ...]:
        master = self.master_of(v)
        return tuple(k for k in self.replicas_of(v) if k != master)

    def owner_of_edge(self, u: int, v: int) -> int:
        return self._edge_owner[normalize_edge(u, v)]

    def neighbors(self, v: int) -> Set[int]:
        replicas = self._table.replicas.get(v)
        if replicas is None:
            raise KeyError(v)
        merged: Set[int] = set()
        for k in replicas:
            merged |= self._adj[k].get(v, set())
        return merged

    def local_neighbors(self, v: int, k: int) -> Set[int]:
        return set(self._adj[k].get(v, set()))

    def local_degree(self, v: int, k: int) -> int:
        return len(self._adj[k].get(v, ()))

    # -- batch routing: scalar loops, a miss yields None -------------------

    def route_many(self, vertices: Sequence[int]) -> List[Route]:
        out: List[Route] = []
        for v in vertices:
            try:
                master = self.master_of(v)
            except KeyError:
                out.append(None)
                continue
            out.append((master, self.replicas_of(v)))
        return out

    def neighbors_many(self, vertices: Sequence[int]) -> List[NeighborRow]:
        out: List[NeighborRow] = []
        for v in vertices:
            try:
                merged = sorted(self.neighbors(v))
            except KeyError:
                out.append(None)
                continue
            out.append((merged, self.replicas_of(v)))
        return out

    def owners_many(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> List[Optional[int]]:
        out: List[Optional[int]] = []
        for u, v in pairs:
            try:
                out.append(self.owner_of_edge(u, v))
            except KeyError:
                out.append(None)
        return out

    # -- summaries ---------------------------------------------------------

    def partition_stats(self, k: int) -> Dict[str, int]:
        if not 0 <= k < self.num_partitions:
            raise KeyError(k)
        vertices = self._adj[k]
        masters = sum(1 for v in vertices if self._table.master[v] == k)
        return {
            "partition": k,
            "edges": len(self._partition.edges_of(k)),
            "vertices": len(vertices),
            "masters": masters,
            "mirrors": len(vertices) - masters,
        }

    def total_replicas(self) -> int:
        return sum(len(r) for r in self._table.replicas.values())

    def replication_factor(self) -> float:
        covered = len(self._table.replicas)
        if covered == 0:
            return 1.0
        return self.total_replicas() / covered

    def partition_sizes(self) -> List[int]:
        return self._partition.partition_sizes()

    def stats(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "num_partitions": self.num_partitions,
            "num_edges": self.num_edges,
            "num_vertices": self.num_vertices,
            "replication_factor": round(self.replication_factor(), 6),
            "partition_sizes": self.partition_sizes(),
            "metadata": self.metadata,
        }
