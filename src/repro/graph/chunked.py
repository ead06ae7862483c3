"""Chunked, offset-resumable streaming over edge-list text files.

The out-of-core partitioner (:mod:`repro.partitioning.oocore`) streams
the same edge file **twice** — once to cluster and sketch degrees, once
to place edges — so the reader has to be cheap to restart and must never
hold the file in memory.  This module reads plain or gzip-compressed
SNAP-style files in fixed-size binary chunks and exposes three views:

* :meth:`ChunkedLineStream.lines` — decoded text lines (with their
  trailing newline, like file iteration), for format parsers such as
  :func:`repro.graph.io.read_metis_graph`;
* :meth:`ChunkedEdgeStream.edges` — lazily parsed ``(u, v)`` pairs with
  the exact skip/error semantics of ``iter_edge_list``;
* :meth:`ChunkedEdgeStream.edge_chunks` — batches of edges paired with a
  :class:`Checkpoint` that resumes the stream *after* the batch.

Offsets are measured in the **decompressed** byte stream, so a
checkpoint taken on a ``.gz`` file is still valid: ``seek`` on a gzip
member re-decompresses up to the offset (linear in the offset, constant
in memory), while a plain file seeks in O(1).  Restarting a pass from
the beginning is just calling the iterator again — every iteration opens
its own file handle, so two passes (or a pass and a half-finished
resume) never share state.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, List, Optional, Tuple, Union

PathLike = Union[str, Path]

Edge = Tuple[int, int]

#: Default binary read size; one syscall (or one gzip inflate call) per chunk.
DEFAULT_CHUNK_BYTES = 1 << 20

#: Default number of parsed edges per :meth:`ChunkedEdgeStream.edge_chunks`
#: batch — small enough that a batch is a bounded buffer, large enough to
#: amortise the per-batch bookkeeping.
DEFAULT_CHUNK_EDGES = 1 << 16


@dataclass(frozen=True)
class Checkpoint:
    """A resume point in the decompressed stream.

    ``offset`` is the decompressed byte position of the next unread
    line, ``lineno`` its 1-based line number (so resumed error messages
    still name the true line).  ``Checkpoint()`` is the start of file.
    """

    offset: int = 0
    lineno: int = 1


def open_binary(path: PathLike) -> IO[bytes]:
    """Open ``path`` for binary reads, transparently gunzipping ``.gz``."""
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")  # type: ignore[return-value]
    return open(path, "rb")


class ChunkedLineStream:
    """Re-iterable chunked line reader over a plain or gzip text file.

    Instances hold no file handle — every call to :meth:`lines` opens
    (and closes) its own, which is what makes two full passes over the
    same instance safe and is why a half-consumed iterator can simply be
    dropped.
    """

    def __init__(
        self, path: PathLike, chunk_bytes: int = DEFAULT_CHUNK_BYTES
    ) -> None:
        if chunk_bytes < 1:
            raise ValueError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
        self.path = Path(path)
        self.chunk_bytes = chunk_bytes

    # -- raw lines ---------------------------------------------------------

    def lines(
        self, start: Optional[Checkpoint] = None
    ) -> Iterator[Tuple[int, str]]:
        """Yield ``(lineno, line)``; lines keep their trailing newline.

        Matches ``for line in open(path)`` exactly (including a final
        line without a newline), but reads in ``chunk_bytes`` binary
        chunks and can start from a :class:`Checkpoint`.
        """
        for lineno, _offset, raw in self._raw_lines(start):
            yield lineno, raw.decode("utf-8")

    def _raw_lines(
        self, start: Optional[Checkpoint] = None
    ) -> Iterator[Tuple[int, int, bytes]]:
        """Yield ``(lineno, end_offset, raw_line_bytes_with_newline)``."""
        start = start or Checkpoint()
        offset = start.offset
        lineno = start.lineno
        with open_binary(self.path) as fh:
            if offset:
                fh.seek(offset)
            tail = b""
            while True:
                chunk = fh.read(self.chunk_bytes)
                if not chunk:
                    break
                pieces = (tail + chunk).split(b"\n")
                tail = pieces.pop()
                for piece in pieces:
                    offset += len(piece) + 1
                    yield lineno, offset, piece + b"\n"
                    lineno += 1
            if tail:
                offset += len(tail)
                yield lineno, offset, tail


class ChunkedEdgeStream(ChunkedLineStream):
    """SNAP edge-list parsing over the chunked reader.

    Skip/error semantics are the canonical ``iter_edge_list`` contract:
    blank lines and ``#``/``%`` comments are skipped, a line with fewer
    than two tokens raises ``ValueError`` naming ``path:lineno``, extra
    columns are ignored, non-integer endpoints raise ``ValueError``.
    """

    def edges(self, start: Optional[Checkpoint] = None) -> Iterator[Edge]:
        """Lazily yield every ``(u, v)`` pair from ``start`` onwards."""
        for _lineno, _offset, raw in self._raw_lines(start):
            edge = self._parse(raw, _lineno)
            if edge is not None:
                yield edge

    def edge_chunks(
        self,
        chunk_edges: int = DEFAULT_CHUNK_EDGES,
        start: Optional[Checkpoint] = None,
    ) -> Iterator[Tuple[List[Edge], Checkpoint]]:
        """Yield ``(edges, checkpoint)`` batches of up to ``chunk_edges``.

        The checkpoint resumes the stream *after* the batch it is paired
        with, so a consumer that persists the checkpoint once a batch is
        durably processed can crash and restart without re-reading (or
        double-counting) anything before it.
        """
        if chunk_edges < 1:
            raise ValueError(f"chunk_edges must be >= 1, got {chunk_edges}")
        batch: List[Edge] = []
        start = start or Checkpoint()
        # The resume point is built only when a batch is yielded.
        offset, next_lineno = start.offset, start.lineno
        for lineno, offset, raw in self._raw_lines(start):
            next_lineno = lineno + 1
            edge = self._parse(raw, lineno)
            if edge is None:
                continue
            batch.append(edge)
            if len(batch) >= chunk_edges:
                yield batch, Checkpoint(offset, next_lineno)
                batch = []
        if batch:
            yield batch, Checkpoint(offset, next_lineno)

    def count_edges(self) -> int:
        """Number of parseable edge lines (one full streaming pass)."""
        return sum(1 for _ in self.edges())

    # -- parsing -----------------------------------------------------------

    def _parse(self, raw: bytes, lineno: int) -> Optional[Edge]:
        stripped = raw.strip()
        if not stripped or stripped[:1] in (b"#", b"%"):
            return None
        parts = stripped.split()
        if len(parts) < 2:
            text = raw.decode("utf-8", "replace")
            raise ValueError(
                f"{self.path}:{lineno}: expected 'u v', got {text!r}"
            )
        try:
            return int(parts[0]), int(parts[1])
        except ValueError as exc:
            text = raw.decode("utf-8", "replace")
            raise ValueError(
                f"{self.path}:{lineno}: non-integer endpoint in {text!r}"
            ) from exc
