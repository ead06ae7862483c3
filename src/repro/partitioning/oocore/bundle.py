"""Shard-by-shard assembly of a standard ``save_partition`` bundle.

The output must be **byte-identical** to what
:func:`repro.partitioning.serialization.save_partition` writes for the
same placements — same sorted edge files, same manifest JSON (key order
included), same CSR sidecar bytes — because the acceptance criterion
opens both through :class:`~repro.service.store.PartitionStore` and
compares answers.  The difference is purely how much lives in memory:

* one partition at a time, its spill is external-sorted into array
  chunks (:func:`~repro.partitioning.oocore.spill.sorted_chunks`); each
  chunk is formatted and hashed at once by the same
  :func:`~repro.partitioning.serialization.format_edges` the in-memory
  writer uses, appended to the text edge file, and copied by slice into
  a single ``(m_k, 2)`` array — peak O(edges / P), not O(edges);
* that array is frozen into the partition's CSR block
  (:func:`~repro.partitioning.csr_bundle._partition_adjacency`, the
  exact same routine the in-memory writer uses) and immediately parked
  in temp ``.raw`` files, because the sidecar layout puts the *global*
  tables — which depend on every partition — first in the file;
* each partition's local ids and degrees are kept (O(vertices) in
  total), and the global replica/master tables come from them in one
  :func:`~repro.partitioning.csr_bundle.replica_tables` call — the one
  the in-memory build uses;
* finally the sidecar is assembled from
  :func:`~repro.partitioning.csr_bundle.sidecar_layout` (the shared
  header/offset logic): global arrays written directly, partition
  blocks stream-copied from their temp files in bounded chunks.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.graph.io import open_text
from repro.partitioning import csr_bundle
from repro.partitioning.csr_bundle import SIDECAR_NAME, SIDECAR_VERSION
from repro.partitioning.oocore import spill as spill_mod
from repro.partitioning.serialization import (
    FORMAT_VERSION,
    _edge_file,
    _write_atomic,
    format_edges,
    write_manifest,
)

_DTYPE = np.int64
_COPY_BYTES = 1 << 20


def _array_file(scratch: Path, name: str) -> Path:
    return scratch / f"{name}.raw"


def _copy_into(fh, src: Path) -> None:
    """Append ``src``'s bytes at ``fh``'s current position, chunked."""
    with open(src, "rb") as sf:
        shutil.copyfileobj(sf, fh, _COPY_BYTES)


def write_streaming_bundle(
    spills: List[Path],
    counts: List[int],
    directory: Path,
    *,
    scratch: Path,
    metadata: Optional[Dict[str, object]] = None,
    compress: bool = False,
    run_edges: int = spill_mod.DEFAULT_RUN_EDGES,
) -> Path:
    """Fold per-partition spills into a bundle at ``directory``.

    ``spills[k]``/``counts[k]`` name partition ``k``'s spill file and
    record count (from :class:`~repro.partitioning.oocore.spill.
    SpillWriter`); ``scratch`` holds the temp array files and is left
    empty of them on success.  Returns the manifest path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    scratch = Path(scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    num_partitions = len(spills)

    manifest: Dict[str, object] = {
        "format_version": FORMAT_VERSION,
        "num_partitions": num_partitions,
        "num_edges": sum(counts),
        "partitions": [],
        "metadata": metadata or {},
    }

    local_ids: List[np.ndarray] = []
    local_degrees: List[np.ndarray] = []
    entries: List[Dict[str, object]] = []
    lengths: List[tuple] = [
        ("vertex_ids", 0),  # patched below once n is known
        ("master", 0),
        ("rep_indptr", 0),
        ("rep_parts", 0),
    ]
    array_files: Dict[str, Path] = {}

    for k in range(num_partitions):
        digest = hashlib.sha256()
        edges = np.empty((counts[k], 2), dtype=_DTYPE)
        path = _edge_file(directory, k, compress)

        def write_edges(tmp: Path, k: int = k) -> None:
            row = 0
            with open_text(tmp, "w") as fh:
                for chunk in spill_mod.sorted_chunks(spills[k], counts[k], run_edges):
                    fh.write(format_edges(chunk, digest).decode("ascii"))
                    edges[row : row + len(chunk)] = chunk
                    row += len(chunk)
            if row != counts[k]:
                raise ValueError(
                    f"{spills[k].name}: expected {counts[k]} records, got {row}"
                )

        _write_atomic(path, write_edges)
        other = _edge_file(directory, k, not compress)
        if other.exists():
            other.unlink()
        entries.append(
            {
                "index": k,
                "file": path.name,
                "edges": counts[k],
                "checksum": digest.hexdigest()[:16],
            }
        )

        ids, indptr, indices = csr_bundle._partition_adjacency(edges)
        del edges
        for name, array in (
            (f"p{k}_ids", ids),
            (f"p{k}_indptr", indptr),
            (f"p{k}_indices", indices),
        ):
            target = _array_file(scratch, name)
            array.astype(_DTYPE, copy=False).tofile(target)
            array_files[name] = target
            lengths.append((name, int(array.size)))
        local_ids.append(ids)
        local_degrees.append(np.diff(indptr))
        del indptr, indices

    # -- global tables -----------------------------------------------------
    vertex_ids, master, rep_indptr, rep_parts = csr_bundle.replica_tables(
        local_ids, local_degrees
    )
    del local_ids, local_degrees
    n = len(vertex_ids)
    lengths[0] = ("vertex_ids", n)
    lengths[1] = ("master", n)
    lengths[2] = ("rep_indptr", n + 1)
    lengths[3] = ("rep_parts", int(rep_parts.size))

    layout = csr_bundle.sidecar_layout(
        num_partitions, int(manifest["num_edges"]), lengths
    )

    def write_sidecar(tmp: Path) -> None:
        with open(tmp, "wb") as fh:
            layout.write_preamble(fh)
            for name, array in (
                ("vertex_ids", vertex_ids),
                ("master", master),
                ("rep_indptr", rep_indptr),
                ("rep_parts", rep_parts),
            ):
                fh.seek(layout.array_offset(name))
                array.tofile(fh)
            for name, _length in lengths[4:]:
                fh.seek(layout.array_offset(name))
                _copy_into(fh, array_files[name])
            fh.truncate(max(layout.total_size, fh.tell()))

    sidecar_path = directory / SIDECAR_NAME
    _write_atomic(sidecar_path, write_sidecar)
    for target in array_files.values():
        target.unlink(missing_ok=True)

    manifest["partitions"] = entries
    manifest["csr_sidecar"] = {
        "file": SIDECAR_NAME,
        "version": SIDECAR_VERSION,
        "bytes": sidecar_path.stat().st_size,
        "checksum": csr_bundle.sidecar_checksum(sidecar_path),
    }
    return write_manifest(directory, manifest)
