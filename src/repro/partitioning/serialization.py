"""On-disk serialisation of edge partitions.

A partitioning is the *input* to a distributed deployment, so it must
round-trip through storage: :func:`save_partition` writes one edge-list file
per partition plus a JSON manifest (counts, checksums, metadata);
:func:`load_partition` reads the directory back and verifies the manifest.

Two durability properties matter because the serving layer
(:mod:`repro.service`) opens these directories:

* **Atomicity** — every file (edge lists and manifest) is written to a
  temp file and ``os.replace``-d into place, and the manifest is written
  *last*, so a killed writer never leaves a directory that parses as a
  valid partition but holds torn edge files.
* **Compression** — ``compress=True`` writes ``part_*.edges.gz`` instead
  of plain text; loading is transparent (the manifest records the file
  name, and the ``.gz`` suffix selects the gzip text reader).  Checksums
  are computed over the *edges*, so they are identical either way.

Bundles also carry a binary **CSR sidecar** (``adjacency.csr``, see
:mod:`repro.partitioning.csr_bundle`): the per-partition adjacency and
replication tables pre-frozen into flat arrays, which the serving layer
memory-maps instead of re-deriving them from the edge lists.  The
edge-list files stay the canonical, human-readable source of truth — the
sidecar is a derived acceleration structure, recorded (with its own
checksum) in the manifest and ignored by older readers.  A manifest
without a ``csr_sidecar`` entry is a bundle from before sidecars; one
whose entry names a missing file is torn, and :func:`load_sidecar`
refuses it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.parallel import parallel_map
from repro.graph.graph import Edge
from repro.graph.io import open_text
from repro.partitioning import csr_bundle
from repro.partitioning.assignment import EdgePartition

MANIFEST_NAME = "partition.json"
FORMAT_VERSION = 1

PathLike = Union[str, Path]


def _edge_file(directory: Path, k: int, compress: bool) -> Path:
    suffix = ".edges.gz" if compress else ".edges"
    return directory / f"part_{k:04d}{suffix}"


class EdgeChecksum:
    """Incremental form of the manifest edge checksum.

    The streaming bundle writer (:mod:`repro.partitioning.oocore.bundle`)
    folds edges in one at a time as they come off the external merge;
    :func:`_checksum` is the eager equivalent over a list, and
    :func:`_edge_text` the one over an edge array.  All hash the same
    ``"u,v;"`` byte stream, so manifests agree bit-for-bit.
    """

    def __init__(self) -> None:
        self._digest = hashlib.sha256()

    def add(self, u: int, v: int) -> None:
        self._digest.update(f"{u},{v};".encode())

    def hexdigest(self) -> str:
        return self._digest.hexdigest()[:16]


def _checksum(edges: List[Edge]) -> str:
    digest = EdgeChecksum()
    for u, v in edges:
        digest.add(u, v)
    return digest.hexdigest()


def _edge_text(edges: np.ndarray) -> Tuple[str, str]:
    """The edge-file text of ``edges`` (in order) and its manifest checksum.

    The text is formatted in one pass over a flat list of Python ints
    (``%d`` prints ids beyond int64 too); the checksum stream ``"u,v;"``
    is the same text with its two separators swapped.
    """
    flat = edges.ravel().tolist()
    text = ("%d\t%d\n" * len(edges)) % tuple(flat)
    stream = text.replace("\t", ",").replace("\n", ";")
    return text, hashlib.sha256(stream.encode()).hexdigest()[:16]


def _write_atomic(path: Path, write) -> None:
    """Run ``write(tmp_path)`` against a temp file, then rename into place."""
    # The temp name keeps the real suffix (".gz" selects the gzip codec
    # in open_text), with a ".tmp-" marker in front of it.
    fd, tmp_name = tempfile.mkstemp(
        suffix=".tmp" + path.suffix, prefix=path.name + ".", dir=path.parent
    )
    os.close(fd)
    tmp = Path(tmp_name)
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def save_partition(
    partition: EdgePartition,
    directory: PathLike,
    metadata: Optional[Dict[str, object]] = None,
    compress: bool = False,
    workers: Optional[int] = None,
) -> Path:
    """Write ``partition`` under ``directory``; returns the manifest path.

    Edges are written in canonical sorted order so checksums (and files)
    are deterministic for equal partitions.  Every file lands atomically,
    the manifest last — a reader (or :class:`repro.service.store.
    PartitionStore`) that finds a manifest finds complete edge files.

    The partition is also frozen into the binary CSR sidecar the serving
    layer memory-maps (:mod:`repro.partitioning.csr_bundle`).  The
    sidecar is built in memory before the first file is replaced, so a
    partition the bundle cannot hold (an id beyond int64 raises
    ``OverflowError`` in the CSR build) leaves an existing bundle
    byte-untouched.

    ``workers`` fans the per-partition work (sort, edge file, checksum,
    CSR block) over a thread pool — one partition per worker, ``None``
    for one per core, ``1`` for the sequential loop.  The bundle is
    byte-identical either way: every partition's file and manifest entry
    depend only on that partition's edges, and the manifest is assembled
    in ascending ``k`` from the positionally-merged results.
    """
    directory = Path(directory)
    csr = csr_bundle.build_partition_csr(partition, workers=workers)
    directory.mkdir(parents=True, exist_ok=True)

    def save_one(k: int) -> Dict[str, object]:
        edges = partition.edge_array(k)
        edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        text, checksum = _edge_text(edges)
        path = _edge_file(directory, k, compress)

        def write_edges(tmp: Path) -> None:
            with open_text(tmp, "w") as fh:
                fh.write(text)

        _write_atomic(path, write_edges)
        # Drop a stale counterpart from a previous save with the other
        # compression setting, so the directory stays unambiguous.
        _edge_file(directory, k, not compress).unlink(missing_ok=True)
        return {
            "index": k,
            "file": path.name,
            "edges": len(edges),
            "checksum": checksum,
        }

    partitions = parallel_map(save_one, range(partition.num_partitions), workers)
    sidecar_path = directory / csr_bundle.SIDECAR_NAME
    _write_atomic(sidecar_path, lambda tmp: csr_bundle.write_sidecar(csr, tmp))
    manifest = {
        "format_version": FORMAT_VERSION,
        "num_partitions": partition.num_partitions,
        "num_edges": partition.num_edges,
        "partitions": partitions,
        "metadata": metadata or {},
        "csr_sidecar": {
            "file": csr_bundle.SIDECAR_NAME,
            "version": csr_bundle.SIDECAR_VERSION,
            "bytes": sidecar_path.stat().st_size,
            "checksum": csr_bundle.sidecar_checksum(sidecar_path),
        },
    }
    manifest_path = directory / MANIFEST_NAME
    payload = json.dumps(manifest, indent=2)
    _write_atomic(manifest_path, lambda tmp: tmp.write_text(payload, encoding="utf-8"))
    return manifest_path


def load_partition(directory: PathLike, verify: bool = True) -> EdgePartition:
    """Read a partition directory written by :func:`save_partition`.

    Gzip and plain edge files are both accepted (per-file, from the
    manifest).  ``verify=True`` (default) checks edge counts and
    checksums, raising ``ValueError`` on any corruption.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported partition format {manifest.get('format_version')!r}"
        )
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
            if _checksum(edges) != entry["checksum"]:
                raise ValueError(f"{path.name}: checksum mismatch (corrupt file?)")
        parts.append(edges)
    return EdgePartition(parts)


def has_sidecar(directory: PathLike) -> bool:
    """Whether the manifest at ``directory`` records a CSR sidecar.

    False means a pre-sidecar bundle (or no bundle at all).  True says
    nothing about the file itself: an entry whose file is missing is a
    torn bundle, which :func:`load_sidecar` rejects.
    """
    manifest_path = Path(directory) / MANIFEST_NAME
    if not manifest_path.exists():
        return False
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    return isinstance(manifest.get("csr_sidecar"), dict)


def load_sidecar(
    directory: PathLike, verify: bool = True, mmap: bool = True
) -> "csr_bundle.PartitionCSR":
    """Load the CSR sidecar of the bundle at ``directory``.

    ``verify=True`` checks the manifest's recorded byte size and SHA-256
    against the file before mapping it — a whole-file hash, but of one
    binary file, which is still far cheaper than parsing the edge-list
    text.  Raises ``FileNotFoundError`` if the manifest records no
    sidecar or names a missing file, and ``ValueError`` on any mismatch.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    entry = manifest.get("csr_sidecar")
    if not isinstance(entry, dict):
        raise FileNotFoundError(f"bundle {directory} has no CSR sidecar")
    path = directory / str(entry["file"])
    if not path.exists():
        raise FileNotFoundError(f"manifest names missing sidecar {path}")
    if verify:
        size = path.stat().st_size
        if size != entry.get("bytes"):
            raise ValueError(
                f"{path.name}: expected {entry.get('bytes')} bytes, found {size}"
            )
        checksum = csr_bundle.sidecar_checksum(path)
        if checksum != entry.get("checksum"):
            raise ValueError(f"{path.name}: checksum mismatch (corrupt sidecar?)")
    csr = csr_bundle.read_sidecar(path, mmap=mmap)
    if csr.num_partitions != manifest.get("num_partitions"):
        raise ValueError(
            f"{path.name}: sidecar has {csr.num_partitions} partitions, "
            f"manifest says {manifest.get('num_partitions')}"
        )
    if csr.num_edges != manifest.get("num_edges"):
        raise ValueError(
            f"{path.name}: sidecar has {csr.num_edges} edges, "
            f"manifest says {manifest.get('num_edges')}"
        )
    return csr


def partition_metadata(directory: PathLike) -> Dict[str, object]:
    """The user metadata stored in a partition directory's manifest."""
    manifest = json.loads(
        (Path(directory) / MANIFEST_NAME).read_text(encoding="utf-8")
    )
    return dict(manifest.get("metadata", {}))
