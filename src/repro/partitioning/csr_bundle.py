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
little-endian array bytes, 64-byte aligned.  Arrays are written with
``tofile`` and read back either as ``np.memmap`` views (zero-copy; the
page cache does the work) or as eager ``np.fromfile`` loads.  The whole
file is checksummed into the bundle manifest so ``verify=True`` opens can
detect torn or tampered sidecars without parsing any text.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

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
    ids = np.unique(edges)  # sorted endpoints
    # Both directions of every undirected edge, as row indices into ids.
    src = np.searchsorted(ids, np.concatenate([edges[:, 0], edges[:, 1]]))
    dst = np.searchsorted(ids, np.concatenate([edges[:, 1], edges[:, 0]]))
    order = np.lexsort((dst, src))  # group by row, neighbours ascending
    indices = np.ascontiguousarray(dst[order], dtype=_DTYPE)
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
    ``unique``/``lexsort``/``bincount`` passes, which release the GIL
    inside numpy) over a thread pool, one partition per worker.  The
    result is bit-identical for any worker count: each partition's CSR
    block depends only on its own edges, blocks merge by ascending
    ``k``, and the replica/master derivation below is sequential over
    that merged order.
    """
    p = partition.num_partitions

    def block(k: int) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        edges = np.asarray(partition.edges_of(k), dtype=_DTYPE).reshape(-1, 2)
        return edges, _partition_adjacency(edges)

    blocks = parallel_map(block, range(p), workers)
    edge_arrays: List[np.ndarray] = [edges for edges, _ in blocks]
    parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = [
        adjacency for _, adjacency in blocks
    ]

    all_ids = [ids for ids, _, _ in parts if len(ids)]
    vertex_ids = (
        np.unique(np.concatenate(all_ids))
        if all_ids
        else np.empty(0, dtype=_DTYPE)
    )
    n = len(vertex_ids)

    # Replica lists: partitions are visited in ascending k, so stacking the
    # per-partition id lists and stable-sorting by row keeps each vertex's
    # partitions sorted — the ReplicationTable convention.
    rows = np.concatenate(
        [np.searchsorted(vertex_ids, ids) for ids, _, _ in parts]
        or [np.empty(0, dtype=_DTYPE)]
    )
    parts_of_rows = np.concatenate(
        [np.full(len(ids), k, dtype=_DTYPE) for k, (ids, _, _) in enumerate(parts)]
        or [np.empty(0, dtype=_DTYPE)]
    )
    order = np.argsort(rows, kind="stable")
    rep_parts = np.ascontiguousarray(parts_of_rows[order], dtype=_DTYPE)
    rep_counts = np.bincount(rows, minlength=n)
    rep_indptr = np.zeros(n + 1, dtype=_DTYPE)
    np.cumsum(rep_counts, out=rep_indptr[1:])

    # Master = partition with the most incident edges, ties to the lowest
    # id: visit k ascending and replace only on a strictly greater count.
    master = np.zeros(n, dtype=_DTYPE)
    best = np.zeros(n, dtype=_DTYPE)
    for k, (ids, indptr, _) in enumerate(parts):
        if len(ids) == 0:
            continue
        local_rows = np.searchsorted(vertex_ids, ids)
        local_deg = np.diff(indptr)
        better = local_deg > best[local_rows]
        target = local_rows[better]
        master[target] = k
        best[target] = local_deg[better]

    return PartitionCSR(
        num_partitions=p,
        num_edges=sum(len(e) for e in edge_arrays),
        vertex_ids=vertex_ids,
        master=master,
        rep_indptr=rep_indptr,
        rep_parts=rep_parts,
        parts=parts,
    )


def csr_to_partition(csr: PartitionCSR) -> EdgePartition:
    """Materialise an :class:`EdgePartition` back from the array form."""
    parts: List[List[Tuple[int, int]]] = []
    for ids, indptr, indices in csr.parts:
        edges: List[Tuple[int, int]] = []
        for row in range(len(ids)):
            u = int(ids[row])
            for idx in indices[indptr[row] : indptr[row + 1]]:
                v = int(ids[idx])
                if u < v:  # each undirected edge appears twice
                    edges.append((u, v))
        parts.append(edges)
    return EdgePartition(parts)


# -- binary sidecar ----------------------------------------------------------


def _named_arrays(csr: PartitionCSR) -> List[Tuple[str, np.ndarray]]:
    arrays = [
        ("vertex_ids", csr.vertex_ids),
        ("master", csr.master),
        ("rep_indptr", csr.rep_indptr),
        ("rep_parts", csr.rep_parts),
    ]
    for k, (ids, indptr, indices) in enumerate(csr.parts):
        arrays.append((f"p{k}_ids", ids))
        arrays.append((f"p{k}_indptr", indptr))
        arrays.append((f"p{k}_indices", indices))
    return arrays


@dataclass(frozen=True)
class SidecarLayout:
    """The byte layout of a sidecar, computed from array lengths alone.

    Shared between the in-memory :func:`write_sidecar` and the
    shard-by-shard writer in :mod:`repro.partitioning.oocore.bundle`, so
    both produce byte-identical files for the same arrays without the
    streaming path having to materialise them together.
    """

    entries: Dict[str, Dict[str, object]]
    header: bytes
    data_start: int
    data_size: int

    def array_offset(self, name: str) -> int:
        """Absolute file offset of array ``name``."""
        return self.data_start + int(self.entries[name]["offset"])

    @property
    def total_size(self) -> int:
        """Final (aligned) file size in bytes."""
        return self.data_start + self.data_size

    def write_preamble(self, fh) -> None:
        """Write magic, version, header length, and the JSON directory."""
        fh.write(_MAGIC)
        fh.write(SIDECAR_VERSION.to_bytes(4, "little"))
        fh.write(len(self.header).to_bytes(8, "little"))
        fh.write(self.header)


def sidecar_layout(
    num_partitions: int, num_edges: int, lengths: List[Tuple[str, int]]
) -> SidecarLayout:
    """Compute the sidecar layout for arrays of the given name/length.

    Offsets are relative to the (aligned) start of the data section, so
    the header length never feeds back into the offsets it records.
    """
    entries: Dict[str, Dict[str, object]] = {}
    offset = 0
    itemsize = np.dtype(_DTYPE).itemsize
    for name, length in lengths:
        entries[name] = {
            "dtype": str(np.dtype(_DTYPE)),
            "length": int(length),
            "offset": offset,
        }
        offset += int(length) * itemsize
        offset = -(-offset // _ALIGN) * _ALIGN
    directory: Dict[str, object] = {
        "version": SIDECAR_VERSION,
        "num_partitions": num_partitions,
        "num_edges": num_edges,
        "arrays": entries,
    }
    header = json.dumps(directory, sort_keys=True).encode("utf-8")
    data_start = len(_MAGIC) + 4 + 8 + len(header)
    data_start = -(-data_start // _ALIGN) * _ALIGN
    return SidecarLayout(
        entries=entries, header=header, data_start=data_start, data_size=offset
    )


def write_sidecar(csr: PartitionCSR, path: PathLike) -> Path:
    """Write ``csr`` as one aligned binary file; returns the path."""
    path = Path(path)
    arrays = _named_arrays(csr)
    layout = sidecar_layout(
        csr.num_partitions,
        csr.num_edges,
        [(name, array.size) for name, array in arrays],
    )
    with open(path, "wb") as fh:
        layout.write_preamble(fh)
        for name, array in arrays:
            fh.seek(layout.array_offset(name))
            array.astype(_DTYPE, copy=False).tofile(fh)
        # Pad to the final aligned size so memmaps of the last array are
        # always in-bounds even if it ended mid-file.
        fh.truncate(max(layout.total_size, fh.tell()))
    return path


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
