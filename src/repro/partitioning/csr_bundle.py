"""Array-backed (CSR) form of an edge partition, and its binary sidecar.

The serving layer answers three families of queries — vertex routing
(master/replicas), adjacency fan-out, and edge ownership.  Rebuilding them
as Python objects costs one object per edge on every open and every hot
reload.  This module freezes the same information into flat numpy arrays
once, at ``save_partition`` time, so
:class:`~repro.service.store.PartitionStore` can memory-map them back in
O(1) Python objects:

* ``vertex_ids``          — sorted global ids of every covered vertex;
* ``master`` / ``rep_*``  — per-vertex master partition and replica lists
  (CSR over the rows of ``vertex_ids``), identical to
  :class:`~repro.runtime.replication.ReplicationTable`'s tie-break
  (most incident edges, ties to the lowest partition id);
* per partition ``k``: ``ids`` (sorted local vertex ids), ``indptr`` /
  ``indices`` — the standard CSR adjacency with *local row indices* as
  values, each row sorted (so neighbour ids are ascending and edge
  membership is a binary search).

The sidecar is one file (``adjacency.csr``): an 8-byte magic+version, a
JSON directory of array names/dtypes/shapes/offsets, then the raw
little-endian array bytes, 64-byte aligned: the four global tables, then
the *partition region* of every partition's block in ascending ``k``.
:func:`write_sidecar` and :func:`write_arrays` are the encoder; the one
caller, :func:`repro.partitioning.serialization.write_bundle`, appends
the region from memory or copies it from where it was parked.  Arrays
are read back either as ``np.memmap`` views (zero-copy; the page cache
does the work) or as eager ``np.fromfile`` loads.  The whole file is
checksummed into the bundle manifest so ``verify=True`` opens can detect
torn or tampered sidecars without parsing any text.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.parallel import parallel_map
from repro.partitioning.assignment import EdgePartition

PathLike = Union[str, Path]

#: File name of the sidecar inside a ``save_partition`` directory.
SIDECAR_NAME = "adjacency.csr"
#: Bump when the array layout below changes.
SIDECAR_VERSION = 1

_MAGIC = b"RCSR"
_ALIGN = 64
_DTYPE = np.int64  # every array in the sidecar
_EMPTY = np.empty(0, dtype=_DTYPE)


@dataclass
class PartitionCSR:
    """Flat-array form of one :class:`EdgePartition` plus replication."""

    num_partitions: int
    num_edges: int
    #: Sorted global ids of every vertex covered by at least one edge.
    vertex_ids: np.ndarray
    #: Master partition per row of :attr:`vertex_ids`.
    master: np.ndarray
    #: Replica-list CSR over the rows of :attr:`vertex_ids`.
    rep_indptr: np.ndarray
    rep_parts: np.ndarray
    #: Per-partition ``(ids, indptr, indices)`` CSR adjacency.  ``ids`` is
    #: sorted, ``indices`` holds *row indices into ids*, each row sorted.
    parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=list
    )

    @property
    def num_vertices(self) -> int:
        """Number of covered vertices (rows of :attr:`vertex_ids`)."""
        return len(self.vertex_ids)


def _partition_adjacency(
    edges: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR adjacency of one partition from its ``(m, 2)`` edge array."""
    if len(edges) == 0:
        empty = np.empty(0, dtype=_DTYPE)
        return empty, np.zeros(1, dtype=_DTYPE), empty
    ids, rows = np.unique(edges, return_inverse=True)  # sorted endpoints
    rows = rows.reshape(-1, 2).astype(_DTYPE, copy=False)
    # Both directions of every undirected edge, as row indices into ids.
    src = np.concatenate([rows[:, 0], rows[:, 1]])
    dst = np.concatenate([rows[:, 1], rows[:, 0]])
    del rows
    # Group by row, neighbours ascending: one sort on the (src, dst) key.
    key = src * len(ids)
    key += dst
    order = np.argsort(key)
    del key
    indices = dst[order]
    counts = np.bincount(src, minlength=len(ids))
    indptr = np.zeros(len(ids) + 1, dtype=_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return ids.astype(_DTYPE, copy=False), indptr, indices


def build_partition_csr(
    partition: EdgePartition, workers: Optional[int] = None
) -> PartitionCSR:
    """Freeze ``partition`` into the flat-array form.

    The master/replica tables are derived here with the exact
    :class:`~repro.runtime.replication.ReplicationTable` rule, so the
    serving store answers exactly as a table built from the edge lists.

    ``workers`` fans the per-partition adjacency construction (the
    ``unique``/``argsort``/``bincount`` passes, which release the GIL
    inside numpy) over a thread pool, one partition per worker.  The
    result is bit-identical for any worker count: each partition's CSR
    block depends only on its own edges, and :func:`replica_tables`
    derives the global tables from the blocks in ascending ``k``.
    """
    p = partition.num_partitions

    def block(k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        # An id beyond int64 (object array) raises OverflowError here.
        edges = partition.edge_array(k).astype(_DTYPE, copy=False)
        return _partition_adjacency(edges)

    parts = parallel_map(block, range(p), workers)

    vertex_ids, master, rep_indptr, rep_parts = replica_tables(
        [ids for ids, _, _ in parts], [np.diff(indptr) for _, indptr, _ in parts]
    )
    return PartitionCSR(
        num_partitions=p,
        num_edges=partition.num_edges,
        vertex_ids=vertex_ids,
        master=master,
        rep_indptr=rep_indptr,
        rep_parts=rep_parts,
        parts=parts,
    )


def replica_tables(
    ids: Sequence[np.ndarray], degrees: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The global ``(vertex_ids, master, rep_indptr, rep_parts)`` tables.

    ``ids[k]`` holds partition ``k``'s distinct local vertex ids and
    ``degrees[k]`` their local degrees.  One lexsort by ``(vertex, k)``
    groups every vertex's replicas in ascending ``k`` (the
    ReplicationTable convention); the master is the replica with the
    most local edges, ties to the lowest ``k``.  Shared by the in-memory
    build and :func:`~repro.partitioning.serialization.write_bundle`'s
    streamed saves, so both write equal tables.
    """
    vertex = np.concatenate([np.asarray(a, dtype=_DTYPE) for a in ids] or [_EMPTY])
    part = np.concatenate(
        [np.full(len(a), k, dtype=_DTYPE) for k, a in enumerate(ids)] or [_EMPTY]
    )
    degree = np.concatenate(
        [np.asarray(d, dtype=_DTYPE) for d in degrees] or [_EMPTY]
    )
    order = np.lexsort((part, vertex))
    vertex, part, degree = vertex[order], part[order], degree[order]
    # A sort and an adjacent-difference mask rather than np.unique, which
    # imports numpy.ma on first use (tens of ms in every saving process).
    first = np.ones(len(vertex), dtype=bool)
    first[1:] = vertex[1:] != vertex[:-1]
    starts = np.flatnonzero(first)
    rep_indptr = np.append(starts, len(vertex)).astype(_DTYPE)
    if not len(vertex):
        return vertex, _EMPTY.copy(), rep_indptr, part
    best = np.repeat(np.maximum.reduceat(degree, starts), np.diff(rep_indptr))
    # k ascends within a vertex: the smallest k holding the best degree.
    master = np.minimum.reduceat(np.where(degree == best, part, len(ids)), starts)
    return vertex[starts], master, rep_indptr, part


def csr_to_partition(csr: PartitionCSR) -> EdgePartition:
    """Materialise an :class:`EdgePartition` back from the array form.

    Each partition's edges come out row by row, neighbours ascending,
    keeping the ``u < v`` copy of every undirected edge — so the edge
    order is lexicographic by ``(u, v)``.  The result is array-built:
    no per-edge Python object is made unless tuples are asked for.
    """
    arrays: List[np.ndarray] = []
    for ids, indptr, indices in csr.parts:
        ids = np.asarray(ids, dtype=_DTYPE)
        rows = np.repeat(np.arange(len(ids)), np.diff(indptr))
        u = ids[rows]
        v = ids[np.asarray(indices)]
        keep = u < v  # each undirected edge appears twice
        arrays.append(np.column_stack((u[keep], v[keep])))
    return EdgePartition.from_arrays(arrays)


# -- binary sidecar ----------------------------------------------------------


_TABLES = ("vertex_ids", "master", "rep_indptr", "rep_parts")
_BLOCK = ("ids", "indptr", "indices")


def write_arrays(fh: BinaryIO, arrays: Iterable[np.ndarray]) -> None:
    """Write ``arrays`` back to back as int64, each padded to 64 bytes.

    This is the sidecar's data layout, so a partition's ``(ids, indptr,
    indices)`` block written this way is already its piece of the
    partition region: array offsets inside the region depend only on the
    blocks before it, never on the global tables in front of it.
    """
    for array in arrays:
        data = np.ascontiguousarray(array, dtype=_DTYPE)
        fh.write(memoryview(data).cast("B"))
        fh.write(bytes(-data.nbytes % _ALIGN))


def write_sidecar(
    fh: BinaryIO,
    num_partitions: int,
    num_edges: int,
    tables: Sequence[np.ndarray],
    lengths: Sequence[int],
) -> None:
    """Write a sidecar up to its partition region.

    That is the magic, the version and the JSON directory, padded to the
    aligned data start, then the four global ``tables`` (``vertex_ids``,
    ``master``, ``rep_indptr``, ``rep_parts``).  ``lengths`` are the
    ``3 * num_partitions`` partition array lengths, ``p0_ids`` first;
    the caller appends the region itself (:func:`write_arrays`).
    Offsets are relative to the data start, so the header length never
    feeds back into the offsets it records.
    """
    names = list(_TABLES) + [f"p{k}_{a}" for k in range(num_partitions) for a in _BLOCK]
    sizes = [len(table) for table in tables] + list(lengths)
    entries: Dict[str, Dict[str, object]] = {}
    offset = 0
    for name, length in zip(names, sizes):
        entries[name] = {"dtype": str(np.dtype(_DTYPE)), "length": length, "offset": offset}
        offset += -(-length * np.dtype(_DTYPE).itemsize // _ALIGN) * _ALIGN
    header = json.dumps(
        {
            "version": SIDECAR_VERSION,
            "num_partitions": num_partitions,
            "num_edges": num_edges,
            "arrays": entries,
        },
        sort_keys=True,
    ).encode("utf-8")
    preamble = _MAGIC + SIDECAR_VERSION.to_bytes(4, "little")
    preamble += len(header).to_bytes(8, "little") + header
    fh.write(preamble + bytes(-len(preamble) % _ALIGN))
    write_arrays(fh, tables)


def read_sidecar(path: PathLike, mmap: bool = True) -> PartitionCSR:
    """Read a sidecar back; ``mmap=True`` maps arrays without copying."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a CSR sidecar (magic {magic!r})")
        version = int.from_bytes(fh.read(4), "little")
        if version != SIDECAR_VERSION:
            raise ValueError(f"{path}: unsupported sidecar version {version}")
        header_len = int.from_bytes(fh.read(8), "little")
        directory = json.loads(fh.read(header_len).decode("utf-8"))
    data_start = len(_MAGIC) + 4 + 8 + header_len
    data_start = -(-data_start // _ALIGN) * _ALIGN

    def load(name: str) -> np.ndarray:
        entry = directory["arrays"][name]
        dtype = np.dtype(entry["dtype"])
        length = int(entry["length"])
        offset = data_start + int(entry["offset"])
        if mmap:
            if length == 0:
                return np.empty(0, dtype=dtype)
            return np.memmap(
                path, dtype=dtype, mode="r", offset=offset, shape=(length,)
            )
        with open(path, "rb") as fh:
            fh.seek(offset)
            return np.fromfile(fh, dtype=dtype, count=length)

    p = int(directory["num_partitions"])
    parts = [
        (load(f"p{k}_ids"), load(f"p{k}_indptr"), load(f"p{k}_indices"))
        for k in range(p)
    ]
    return PartitionCSR(
        num_partitions=p,
        num_edges=int(directory["num_edges"]),
        vertex_ids=load("vertex_ids"),
        master=load("master"),
        rep_indptr=load("rep_indptr"),
        rep_parts=load("rep_parts"),
        parts=parts,
    )


def sidecar_checksum(path: PathLike) -> str:
    """SHA-256 (16 hex chars) of the sidecar file, for the manifest."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]
