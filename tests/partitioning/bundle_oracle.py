"""Reference oracles for bundle text I/O: the per-edge reader and fold.

:func:`load_partition_lines` is :func:`~repro.partitioning.serialization.
load_partition` as first written — one ``line.split()`` / ``int()`` and
one checksum update per edge — and :class:`EdgeChecksum` the per-edge
form of the manifest checksum.  :func:`sorted_edges`,
:func:`external_sort_check` and :func:`fold_bundle` are the streaming
fold as first written: a ``heapq.merge`` of per-edge tuples off the
sorted runs, one ``write`` and one hash update per edge.  They are kept
deliberately naive so they can serve as the executable specification the
array-native loader and fold are pinned against.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.graph.graph import Edge
from repro.graph.io import open_text
from repro.partitioning import csr_bundle
from repro.partitioning.assignment import EdgePartition, edges_to_array
from repro.partitioning.oocore.spill import (
    DEFAULT_RUN_EDGES,
    _read_run,
    _sort_run,
)
from repro.partitioning.serialization import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    _edge_file,
)

#: Edges decoded per chunk while merging sorted runs.
_MERGE_CHUNK_EDGES = 1 << 14


class EdgeChecksum:
    """The manifest edge checksum, fed one edge at a time."""

    def __init__(self) -> None:
        self._digest = hashlib.sha256()

    def add(self, u: int, v: int) -> None:
        self._digest.update(f"{u},{v};".encode())

    def hexdigest(self) -> str:
        return self._digest.hexdigest()[:16]


def checksum(edges: List[Edge]) -> str:
    digest = EdgeChecksum()
    for u, v in edges:
        digest.add(u, v)
    return digest.hexdigest()


def load_partition_lines(directory: Path, verify: bool = True) -> EdgePartition:
    """Read a bundle one line, one tuple and one hash update per edge."""
    directory = Path(directory)
    manifest = json.loads((directory / MANIFEST_NAME).read_text(encoding="utf-8"))
    parts: List[List[Edge]] = []
    for entry in manifest["partitions"]:
        path = directory / entry["file"]
        edges: List[Edge] = []
        with open_text(path, "r") as fh:
            for line in fh:
                u_str, v_str = line.split()
                edges.append((int(u_str), int(v_str)))
        if verify:
            if len(edges) != entry["edges"]:
                raise ValueError(
                    f"{path.name}: expected {entry['edges']} edges, found {len(edges)}"
                )
            if checksum(edges) != entry["checksum"]:
                raise ValueError(f"{path.name}: checksum mismatch (corrupt file?)")
        parts.append(edges)
    return EdgePartition(parts)


def _iter_records(path: Path, num_records: int) -> Iterator[Edge]:
    """Lazily yield records from a sorted run file in bounded chunks."""
    start = 0
    while start < num_records:
        count = min(_MERGE_CHUNK_EDGES, num_records - start)
        for u, v in _read_run(path, start, count).tolist():
            yield u, v
        start += count


def sorted_edges(
    path: Path, num_records: int, run_edges: int = DEFAULT_RUN_EDGES
) -> Iterator[Edge]:
    """Stream the spill at ``path`` in ascending ``(u, v)`` order."""
    if run_edges < 1:
        raise ValueError(f"run_edges must be >= 1, got {run_edges}")
    if num_records == 0:
        return
    if num_records <= run_edges:
        for u, v in _sort_run(_read_run(path, 0, num_records)).tolist():
            yield u, v
        return
    run_paths: List[Tuple[Path, int]] = []
    try:
        start = 0
        while start < num_records:
            count = min(run_edges, num_records - start)
            run = _sort_run(_read_run(path, start, count))
            run_path = path.with_suffix(f".oracle-run{len(run_paths):04d}")
            run_path.write_bytes(run.tobytes())
            run_paths.append((run_path, count))
            start += count
        yield from heapq.merge(*(_iter_records(rp, n) for rp, n in run_paths))
    finally:
        for run_path, _ in run_paths:
            run_path.unlink(missing_ok=True)


def external_sort_check(edges: Iterator[Edge], path: Path) -> Iterator[Edge]:
    """Pass-through that rejects duplicate consecutive edges."""
    prev: Tuple[int, int] = (-(1 << 62), -(1 << 62))
    for edge in edges:
        if edge == prev:
            raise ValueError(
                f"duplicate edge {edge} in partition spill {path.name}; "
                "the input stream must not repeat edges"
            )
        prev = edge
        yield edge


def replica_dicts(
    ids: List[np.ndarray], degrees: List[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`~repro.partitioning.csr_bundle.replica_tables` by dicts.

    Replicas append in ascending ``k``; the master is replaced only on a
    strictly greater local degree, so ties go to the lowest ``k``.
    """
    replicas: Dict[int, List[int]] = {}
    best_deg: Dict[int, int] = {}
    master_of: Dict[int, int] = {}
    for k, (part_ids, part_deg) in enumerate(zip(ids, degrees)):
        for vertex, deg in zip(part_ids.tolist(), part_deg.tolist()):
            replicas.setdefault(vertex, []).append(k)
            if deg > best_deg.get(vertex, 0):
                best_deg[vertex] = deg
                master_of[vertex] = k
    vertices = sorted(replicas)
    rep_indptr = np.zeros(len(vertices) + 1, dtype=np.int64)
    np.cumsum([len(replicas[v]) for v in vertices], out=rep_indptr[1:])
    return (
        np.array(vertices, dtype=np.int64),
        np.array([master_of[v] for v in vertices], dtype=np.int64),
        rep_indptr,
        np.array([k for v in vertices for k in replicas[v]], dtype=np.int64),
    )


def fold_bundle(
    spills: List[Path],
    counts: List[int],
    directory: Path,
    *,
    metadata: Optional[Dict[str, object]] = None,
    compress: bool = False,
    run_edges: int = DEFAULT_RUN_EDGES,
) -> Path:
    """Fold spills into a bundle one written line per edge.

    Edge files and checksums come from the tuple merge and the per-edge
    loop, and the sidecar's global tables from :func:`replica_dicts`.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    parts: List[List[Edge]] = []
    entries: List[Dict[str, object]] = []
    for k, (spill, count) in enumerate(zip(spills, counts)):
        digest = EdgeChecksum()
        edges: List[Edge] = []
        path = _edge_file(directory, k, compress)
        with open_text(path, "w") as fh:
            for u, v in external_sort_check(sorted_edges(spill, count, run_edges), spill):
                fh.write(f"{u}\t{v}\n")
                digest.add(u, v)
                edges.append((u, v))
        parts.append(edges)
        entries.append(
            {"index": k, "file": path.name, "edges": count, "checksum": digest.hexdigest()}
        )
    blocks = [csr_bundle._partition_adjacency(edges_to_array(edges)) for edges in parts]
    tables = replica_dicts(
        [ids for ids, _, _ in blocks], [np.diff(indptr) for _, indptr, _ in blocks]
    )
    arrays = [array for block in blocks for array in block]
    sidecar = directory / csr_bundle.SIDECAR_NAME
    with open(sidecar, "wb") as fh:
        csr_bundle.write_sidecar(
            fh, len(spills), sum(counts), tables, [len(a) for a in arrays]
        )
        csr_bundle.write_arrays(fh, arrays)
    manifest = {
        "format_version": FORMAT_VERSION,
        "num_partitions": len(spills),
        "num_edges": sum(counts),
        "partitions": entries,
        "metadata": metadata or {},
        "csr_sidecar": {
            "file": csr_bundle.SIDECAR_NAME,
            "version": csr_bundle.SIDECAR_VERSION,
            "bytes": sidecar.stat().st_size,
            "checksum": csr_bundle.sidecar_checksum(sidecar),
        },
    }
    manifest_path = directory / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return manifest_path
