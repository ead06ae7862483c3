"""Per-partition placement spill files and their external sort.

Pass 2 appends each placed batch of edges to the partitions' spill files
as 16-byte ``<qq`` records (little-endian int64 pair — the same width as
the CSR sidecar arrays, so a spill chunk loads straight into numpy).
Appends go through bounded per-partition byte buffers; total buffered
memory is capped by the pipeline's budget, never by the edge count.

The bundle writer then needs each partition's edges in canonical sorted
order (that is what makes ``save_partition`` files and checksums
deterministic).  A partition's spill can exceed memory on its own, so
:func:`sorted_chunks` external-sorts it: slice the spill into runs of at
most ``run_edges`` records, sort each run with ``np.lexsort`` (16 bytes
per edge plus the sort's index array — compact and fast), write the
sorted runs back to disk, and merge them as arrays: every run keeps one
bounded chunk in memory, and each round emits the buffered rows no
unread record can precede, lexsorted.  A spill that fits in one run
skips the run files entirely.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator, List, Tuple

import numpy as np

_DTYPE = np.dtype("<i8")
RECORD_BYTES = 2 * _DTYPE.itemsize

#: Default per-partition append buffer (bytes) and sort-run length (edges).
DEFAULT_BUFFER_BYTES = 1 << 18
DEFAULT_RUN_EDGES = 1 << 20

#: Edges read per run, and emitted per chunk, while merging sorted runs.
_MERGE_CHUNK_EDGES = 1 << 14


def spill_path(directory: Path, k: int) -> Path:
    return directory / f"spill_{k:04d}.bin"


class SpillWriter:
    """Append-only per-partition spill files with bounded buffers."""

    def __init__(
        self,
        directory: Path,
        num_partitions: int,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
    ) -> None:
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.num_partitions = num_partitions
        # Flush threshold per partition, so total buffered bytes stay at
        # ~buffer_bytes regardless of the partition count.
        self._flush_bytes = max(RECORD_BYTES, buffer_bytes // num_partitions)
        self._buffers: List[bytearray] = [bytearray() for _ in range(num_partitions)]
        self._paths = [spill_path(self.directory, k) for k in range(num_partitions)]
        for path in self._paths:  # truncate leftovers from a previous run
            path.unlink(missing_ok=True)
        self.counts = [0] * num_partitions

    def append_batch(self, parts: np.ndarray, rows: np.ndarray) -> None:
        """Append edge ``rows[i]`` (an ``(m, 2)`` array) to spill ``parts[i]``.

        Each partition's rows keep their batch order and go into its
        buffer as one ``tobytes`` — the same bytes as one record per edge.
        """
        order = np.argsort(parts, kind="stable")
        grouped = rows[order].astype(_DTYPE, copy=False)
        counts = np.bincount(parts, minlength=self.num_partitions).tolist()
        start = 0
        for k, count in enumerate(counts):
            if not count:
                continue
            buf = self._buffers[k]
            buf += grouped[start : start + count].tobytes()
            start += count
            self.counts[k] += count
            if len(buf) >= self._flush_bytes:
                self._flush(k)

    def _flush(self, k: int) -> None:
        if self._buffers[k]:
            with open(self._paths[k], "ab") as fh:
                fh.write(self._buffers[k])
            self._buffers[k] = bytearray()

    def close(self) -> List[Path]:
        """Flush everything; returns the spill paths (one per partition)."""
        for k in range(self.num_partitions):
            self._flush(k)
        return list(self._paths)

    def cleanup(self) -> None:
        for path in self._paths:
            path.unlink(missing_ok=True)


def _read_run(path: Path, start: int, count: int) -> np.ndarray:
    """Load ``count`` records at record-offset ``start`` as an (m, 2) array."""
    with open(path, "rb") as fh:
        fh.seek(start * RECORD_BYTES)
        data = fh.read(count * RECORD_BYTES)
    return np.frombuffer(data, dtype=_DTYPE).reshape(-1, 2)


def _sort_run(edges: np.ndarray) -> np.ndarray:
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order]


def _rows_through(run: np.ndarray, bound: Tuple[int, int]) -> int:
    """How many rows of the sorted ``run`` are ``<= bound`` as ``(u, v)``."""
    u, v = bound
    lo = int(np.searchsorted(run[:, 0], u, side="left"))
    hi = int(np.searchsorted(run[:, 0], u, side="right"))
    return lo + int(np.searchsorted(run[lo:hi, 1], v, side="right"))


def _merge_runs(runs: List[Tuple[Path, int]]) -> Iterator[np.ndarray]:
    """Merge sorted run files into sorted array slices, in bounded chunks.

    Each run keeps one chunk of at most ``_MERGE_CHUNK_EDGES`` rows in
    memory.  A run's unread records all sort at or after its last
    buffered row, so every buffered row up to the smallest such last row
    (over the runs with records left on disk) is final: those rows are
    emitted, lexsorted, and the run that set the bound refills.
    """
    read = [0] * len(runs)
    buffers = [np.empty((0, 2), dtype=_DTYPE) for _ in runs]
    while True:
        for r, (run_path, count) in enumerate(runs):
            if not len(buffers[r]) and read[r] < count:
                n = min(_MERGE_CHUNK_EDGES, count - read[r])
                buffers[r] = _read_run(run_path, read[r], n)
                read[r] += n
        live = [r for r in range(len(runs)) if len(buffers[r])]
        if not live:
            return
        pending = [tuple(buffers[r][-1].tolist()) for r in live if read[r] < runs[r][1]]
        bound = min(pending) if pending else None
        cuts = [
            len(buffers[r]) if bound is None else _rows_through(buffers[r], bound)
            for r in live
        ]
        merged = np.concatenate([buffers[r][:cut] for r, cut in zip(live, cuts)])
        for r, cut in zip(live, cuts):
            buffers[r] = buffers[r][cut:]
        yield _sort_run(merged)


def _sorted_slices(
    path: Path, num_records: int, run_edges: int
) -> Iterator[np.ndarray]:
    if num_records <= run_edges:
        # Single run: sort in memory, no run files.
        yield _sort_run(_read_run(path, 0, num_records))
        return
    runs: List[Tuple[Path, int]] = []
    try:
        start = 0
        while start < num_records:
            run = _sort_run(_read_run(path, start, min(run_edges, num_records - start)))
            run_path = path.with_suffix(f".run{len(runs):04d}")
            with open(run_path, "wb") as fh:
                fh.write(run.tobytes())
            runs.append((run_path, len(run)))
            start += run_edges
        yield from _merge_runs(runs)
    finally:
        for run_path, _ in runs:
            run_path.unlink(missing_ok=True)


def sorted_chunks(
    path: Path, num_records: int, run_edges: int = DEFAULT_RUN_EDGES
) -> Iterator[np.ndarray]:
    """Stream the spill at ``path`` in ascending ``(u, v)`` order.

    Yields ``(m, 2)`` int64 chunks of at most ``_MERGE_CHUNK_EDGES``
    rows whose concatenation is the sorted spill.  Peak memory is
    O(``run_edges``) during run sorting and O(number of runs × merge
    chunk) during the merge.  Run files land next to the spill and are
    deleted when the stream ends.

    Sorted order makes duplicates adjacent, so a repeated input edge
    (which would corrupt the bundle's edge->partition map) raises
    ``ValueError`` here, one comparison of adjacent rows per chunk; so
    does a spill holding fewer than ``num_records`` records.
    """
    if run_edges < 1:
        raise ValueError(f"run_edges must be >= 1, got {run_edges}")
    if num_records == 0:
        return
    last = None
    seen = 0
    for rows in _sorted_slices(path, num_records, run_edges):
        seen += len(rows)
        if not len(rows):
            continue
        if last is not None and (rows[0] == last).all():
            _reject_duplicate(rows[0], path)
        same = np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1))
        if len(same):
            _reject_duplicate(rows[same[0]], path)
        last = rows[-1]
        for start in range(0, len(rows), _MERGE_CHUNK_EDGES):
            yield rows[start : start + _MERGE_CHUNK_EDGES]
    if seen != num_records:
        raise ValueError(f"{path.name}: expected {num_records} records, got {seen}")


def _reject_duplicate(edge: np.ndarray, path: Path) -> None:
    raise ValueError(
        f"duplicate edge {tuple(edge.tolist())} in partition spill "
        f"{path.name}; the input stream must not repeat edges"
    )


def remove_spills(directory: Path, num_partitions: int) -> None:
    for k in range(num_partitions):
        spill_path(directory, k).unlink(missing_ok=True)
    if not os.listdir(directory):
        directory.rmdir()
