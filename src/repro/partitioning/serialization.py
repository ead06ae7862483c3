"""On-disk serialisation of edge partitions.

A partitioning is the *input* to a distributed deployment, so it must
round-trip through storage: a bundle is one edge-list file per partition,
a CSR sidecar and a JSON manifest (counts, checksums, metadata), and
:func:`load_partition` reads the directory back and verifies the manifest.
:func:`write_bundle` is the one writer of that format.  In-memory
partitions reach it through :func:`save_partition` (the TLP command,
``refine``, every compaction); ``partition-stream`` feeds it one
partition at a time from its sorted spills.

Two durability properties matter because the serving layer
(:mod:`repro.service`) opens these directories:

* **Atomicity** — every file (edge lists, sidecar and manifest) is
  written to a temp file, fsynced and ``os.replace``-d into place, and
  the manifest is written *last*, followed by an fsync of the directory,
  so neither a killed writer nor a power loss leaves a directory that
  parses as a valid partition but holds torn edge files, and a bundle is
  durable when :func:`write_bundle` returns.
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

import contextlib
import gzip
import hashlib
import json
import os
import re
import shutil
import tempfile
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.core.parallel import parallel_map, resolve_workers
from repro.graph.io import open_text
from repro.partitioning import csr_bundle
from repro.partitioning.assignment import EdgePartition

MANIFEST_NAME = "partition.json"
FORMAT_VERSION = 1

PathLike = Union[str, Path]

#: Bytes per read while the sidecar copies in a parked partition region.
_COPY_BYTES = 1 << 20


def _edge_file(directory: Path, k: int, compress: bool) -> Path:
    suffix = ".edges.gz" if compress else ".edges"
    return directory / f"part_{k:04d}{suffix}"


#: Edge-file bytes ``"u\tv\n"`` -> checksum stream ``"u,v;"``.
_TO_STREAM = bytes.maketrans(b"\t\n", b",;")
#: ``10**j`` for every digit position of an int64 (``10**19`` < 2**64).
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_TEN = np.uint64(10)
_ZERO = np.uint64(ord("0"))


def format_edges(edges: np.ndarray, digest: "hashlib._Hash") -> bytes:
    """Edge-file bytes of the int64 rows of ``edges``, fed into ``digest``.

    The one formatter behind every edge file and manifest checksum:
    :func:`write_bundle` writes what it returns, chunk by chunk, and
    :func:`load_partition` compares a file against it.  The checksum is
    the SHA-256 of the ``"u,v;"`` stream, which is the returned text
    with its two separators swapped, so calling this on consecutive
    chunks of a partition gives the digest of the whole partition.

    Digits are laid down one decimal place at a time over all ids at
    once, so the cost is a few numpy passes per digit, not a Python
    object per edge.
    """
    flat = np.array(edges, dtype=np.int64).reshape(-1)
    if not len(flat):
        return b""
    neg = flat < 0
    q = flat.view(np.uint64)  # the copy above makes this safe to reuse
    np.negative(q, out=q, where=neg)  # |INT64_MIN| = 2**63 fits in uint64
    width = len(str(int(q.max())))
    ndigits = np.ones(len(flat), dtype=np.int64)
    for power in _POW10[1:width]:
        ndigits += q >= power
    size = ndigits + neg
    size += 1  # the separator
    ends = np.cumsum(size)
    out = np.empty(int(ends[-1]) + 1, dtype=np.uint8)  # last byte: a sink
    sink = len(out) - 1
    out[ends[0::2] - 1] = ord("\t")
    out[ends[1::2] - 1] = ord("\n")
    out[(ends - size)[neg]] = ord("-")
    pos = ends - 2  # units digit
    shortest = int(ndigits.min())
    for j in range(width):
        rest = q // _TEN
        q -= rest * _TEN
        q += _ZERO
        # Ids already out of digits write into the sink byte.
        out[pos if j < shortest else np.where(ndigits > j, pos, sink)] = q
        pos -= 1
        q = rest
    data = out[:-1].tobytes()
    digest.update(data.translate(_TO_STREAM))
    return data


def _parse_canonical(data: bytes) -> Optional[np.ndarray]:
    """Read ``data`` as canonical ``"u\tv\n"`` lines, one pass per digit.

    The inverse of :func:`format_edges` on its own output.  On any other
    text it returns ``None`` or an array that does not format back to
    ``data`` — the caller's comparison is what makes the result exact.
    """
    if not data:
        return np.empty((0, 2), dtype=np.int64)
    text = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(text < 32)  # canonical text has only "\t" and "\n"
    if not len(ends) or len(ends) % 2 or ends[-1] != len(text) - 1:
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    neg = text[starts] == ord("-")
    ndigits = ends - starts - neg
    shortest, width = int(ndigits.min()), int(ndigits.max())
    if shortest < 1 or width > 19:
        return None
    padded = np.empty(len(text) + 1, dtype=np.uint8)  # last byte: a "0"
    padded[:-1] = text
    padded[-1] = ord("0")
    pos = ends - 1  # units digit
    mag = np.zeros(len(ends), dtype=np.uint64)
    for j in range(width):
        # Ids already out of digits read the padding "0".
        digit = padded[pos if j < shortest else np.where(ndigits > j, pos, len(text))]
        digit = digit.astype(np.uint64)
        digit -= _ZERO
        digit *= _POW10[j]
        mag += digit  # wraps on non-digits: the caller's comparison fails
        pos -= 1
    values = mag.view(np.int64)
    np.negative(values, out=values, where=neg)
    return values.reshape(-1, 2)


_TOKEN = r"[+-]?\d+(?:_\d+)*"  # what int() reads, once split() stripped it
_LINE = rf"[^\S\n]*{_TOKEN}[^\S\n]+{_TOKEN}[^\S\n]*"
#: Lines of exactly two integer tokens, the last newline optional.
_LINES = re.compile(rf"(?:{_LINE}\n)*(?:{_LINE})?")


def _parse_text(data: bytes, path: Path) -> np.ndarray:
    """Edges of a non-canonical edge file, or ``ValueError`` naming the line.

    Accepts what a per-line ``u, v = line.split()`` / ``int()`` reader
    of the text-mode file accepts — any whitespace between and around
    the two ids, CRLF or CR line ends, no final newline, signs, leading
    zeros — checked for the whole text by one regular expression.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path.name}: line {lineno}: not UTF-8 text") from None
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    end = _LINES.match(text).end()
    if end != len(text):
        lineno = text.count("\n", 0, end) + 1
        line = text.split("\n")[lineno - 1]
        raise ValueError(
            f"{path.name}: line {lineno}: expected two integer ids, got {line!r}"
        )
    values = list(map(int, text.split()))
    try:
        return np.array(values, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        i = next(i for i, x in enumerate(values) if not -(2**63) <= x < 2**63)
        raise ValueError(
            f"{path.name}: line {i // 2 + 1}: id {values[i]} is beyond int64"
        ) from None


def _read_bytes(path: Path) -> bytes:
    if path.suffix == ".gz":
        with gzip.open(path, "rb") as fh:
            return fh.read()
    return path.read_bytes()


def fsync_path(path: Path) -> None:
    """``fsync`` the file or directory at ``path``."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_atomic(path: Path, write) -> None:
    """Run ``write(tmp_path)`` against a temp file, then rename into place.

    The temp file is fsynced before the rename, so the name never points
    at data that a power loss could still drop.
    """
    # The temp name keeps the real suffix (".gz" selects the gzip codec
    # in open_text), with a ".tmp-" marker in front of it.
    fd, tmp_name = tempfile.mkstemp(
        suffix=".tmp" + path.suffix, prefix=path.name + ".", dir=path.parent
    )
    os.close(fd)
    tmp = Path(tmp_name)
    try:
        write(tmp)
        fsync_path(tmp)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def write_manifest(directory: Path, manifest: Dict[str, object]) -> Path:
    """Land ``manifest`` atomically, then fsync ``directory``.

    The manifest is a bundle's last write; the directory fsync makes its
    rename, and every rename before it, durable too.  Only then may a
    caller discard what the bundle replaces (compaction resets its WAL).
    """
    manifest_path = directory / MANIFEST_NAME
    payload = json.dumps(manifest, indent=2)
    _write_atomic(manifest_path, lambda tmp: tmp.write_text(payload, encoding="utf-8"))
    if os.name == "posix":  # a directory cannot be opened for fsync elsewhere
        fsync_path(directory)
    return manifest_path


def write_bundle(
    directory: PathLike,
    parts: Sequence[Iterable[np.ndarray]],
    *,
    csr: Optional[csr_bundle.PartitionCSR] = None,
    metadata: Optional[Dict[str, object]] = None,
    compress: bool = False,
    workers: Optional[int] = 1,
) -> Path:
    """Write a bundle under ``directory``; returns the manifest path.

    ``parts[k]`` yields partition ``k``'s edges as ``(m, 2)`` int64
    chunks in ascending ``(u, v)`` order.  Every bundle is written by
    this one durable sequence: each part file lands atomically (temp
    file, fsync, rename), then the CSR sidecar, then the manifest, then
    the directory fsync (:func:`write_manifest`).

    ``csr`` is the bundle's sidecar content when the caller has it
    already (:func:`save_partition`); its blocks stay in memory and
    ``workers`` fans the part files over a thread pool.  Without it,
    each partition's CSR block is built from its edges right after its
    part file and parked in one anonymous temp file in ``directory``,
    laid out as the sidecar's partition region.  The global tables in
    front of that region need every partition, but the region's offsets
    do not depend on them, so the sidecar takes the parked bytes in with
    one copy.  Blocks park in partition order, one partition in memory
    at a time, so ``workers`` must then be 1.
    """
    directory = Path(directory)
    if csr is None and resolve_workers(workers) != 1:
        raise ValueError("a bundle whose blocks are built here is written with workers=1")
    directory.mkdir(parents=True, exist_ok=True)
    ids: List[np.ndarray] = []
    degrees: List[np.ndarray] = []
    lengths: List[int] = []
    parking = tempfile.TemporaryFile(dir=directory) if csr is None else contextlib.nullcontext()
    with parking as park:

        def write_part(k: int) -> Dict[str, object]:
            digest = hashlib.sha256()
            chunks: List[np.ndarray] = []
            path = _edge_file(directory, k, compress)

            def write_edges(tmp: Path) -> None:
                with open_text(tmp, "w") as fh:
                    for chunk in parts[k]:
                        fh.write(format_edges(chunk, digest).decode("ascii"))
                        chunks.append(chunk)

            _write_atomic(path, write_edges)
            # Drop a stale counterpart from a previous save with the other
            # compression setting, so the directory stays unambiguous.
            _edge_file(directory, k, not compress).unlink(missing_ok=True)
            count = sum(map(len, chunks))
            if park is not None:
                edges = np.concatenate(chunks) if chunks else np.empty((0, 2), np.int64)
                chunks.clear()  # one copy of the edges during the CSR build, not two
                block = csr_bundle._partition_adjacency(edges)
                csr_bundle.write_arrays(park, block)
                ids.append(block[0])
                degrees.append(np.diff(block[1]))
                lengths.extend(len(array) for array in block)
            return {
                "index": k,
                "file": path.name,
                "edges": count,
                "checksum": digest.hexdigest()[:16],
            }

        partitions = parallel_map(write_part, range(len(parts)), workers)
        num_edges = sum(int(entry["edges"]) for entry in partitions)
        if csr is None:
            tables = csr_bundle.replica_tables(ids, degrees)
        else:
            tables = (csr.vertex_ids, csr.master, csr.rep_indptr, csr.rep_parts)
            lengths = [len(array) for block in csr.parts for array in block]

        def write_sidecar(tmp: Path) -> None:
            with open(tmp, "wb") as fh:
                csr_bundle.write_sidecar(fh, len(parts), num_edges, tables, lengths)
                if park is None:
                    csr_bundle.write_arrays(fh, [a for block in csr.parts for a in block])
                else:
                    park.seek(0)
                    shutil.copyfileobj(park, fh, _COPY_BYTES)

        sidecar_path = directory / csr_bundle.SIDECAR_NAME
        _write_atomic(sidecar_path, write_sidecar)
    manifest = {
        "format_version": FORMAT_VERSION,
        "num_partitions": len(parts),
        "num_edges": num_edges,
        "partitions": partitions,
        "metadata": metadata or {},
        "csr_sidecar": {
            "file": csr_bundle.SIDECAR_NAME,
            "version": csr_bundle.SIDECAR_VERSION,
            "bytes": sidecar_path.stat().st_size,
            "checksum": csr_bundle.sidecar_checksum(sidecar_path),
        },
    }
    return write_manifest(directory, manifest)


def _sorted_rows(partition: EdgePartition, k: int) -> Iterator[np.ndarray]:
    """Partition ``k``'s edges as one ``(u, v)``-sorted array, on demand."""
    edges = partition.edge_array(k)
    yield edges[np.lexsort((edges[:, 1], edges[:, 0]))]


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

    ``workers`` fans the per-partition work (CSR block, then sort, edge
    file and checksum) over a thread pool — one partition per worker,
    ``None`` for one per core, ``1`` for the sequential loop.  The bundle
    is byte-identical either way: every partition's file and manifest
    entry depend only on that partition's edges, and the manifest is
    assembled in ascending ``k`` from the positionally-merged results.
    """
    csr = csr_bundle.build_partition_csr(partition, workers=workers)
    parts = [_sorted_rows(partition, k) for k in range(partition.num_partitions)]
    return write_bundle(
        directory, parts, csr=csr, metadata=metadata, compress=compress, workers=workers
    )


def load_partition(directory: PathLike, verify: bool = True) -> EdgePartition:
    """Read a partition directory written by :func:`write_bundle`.

    Gzip and plain edge files are both accepted (per-file, from the
    manifest).  ``verify=True`` (default) checks edge counts and
    checksums, raising ``ValueError`` on any corruption.

    Each file is read whole and parsed as canonical text in one
    vectorised pass; formatting the result back must give the file's
    bytes, and that same formatting yields the checksum.  Anything else
    (spaces for tabs, CRLF, no final newline, ...) takes a whole-text
    structure check instead and loads to the same edges.  A malformed
    line or an id beyond int64 raises ``ValueError`` naming the file
    and line, whatever ``verify`` says.
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
    arrays: List[np.ndarray] = []
    for entry in manifest["partitions"]:
        path = directory / entry["file"]
        data = _read_bytes(path)
        digest = hashlib.sha256()
        edges = _parse_canonical(data)
        if edges is None or format_edges(edges, digest) != data:
            edges = _parse_text(data, path)
            digest = hashlib.sha256()
            if verify:
                format_edges(edges, digest)
        loops = np.flatnonzero(edges[:, 0] == edges[:, 1])
        if len(loops):
            raise ValueError(
                f"{path.name}: line {loops[0] + 1}: self loop "
                f"({edges[loops[0], 0]}, {edges[loops[0], 0]}) is not a valid edge"
            )
        if verify:
            if len(edges) != entry["edges"]:
                raise ValueError(
                    f"{path.name}: expected {entry['edges']} edges, found {len(edges)}"
                )
            if digest.hexdigest()[:16] != entry["checksum"]:
                raise ValueError(f"{path.name}: checksum mismatch (corrupt file?)")
        arrays.append(edges)
    return EdgePartition.from_arrays(arrays)


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
    directory: PathLike, verify: bool = True
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
    csr = csr_bundle.read_sidecar(path)
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
