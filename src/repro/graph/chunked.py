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
  :class:`Checkpoint` that resumes the stream *after* the batch;
* :meth:`ChunkedEdgeStream.edge_arrays` — the same edges as bounded
  ``(m, 2)`` ``int64`` arrays, for the out-of-core passes.  A block of
  canonical ``u<ws>v`` lines parses in one NumPy call; any other block
  (comments, blank lines, extra columns, malformed lines, ids too long
  for the fast path) goes through the line parser, so the skip rules and
  ``path:lineno`` errors are the same as :meth:`~ChunkedEdgeStream.edges`.

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
import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, List, Optional, Tuple, Union

import numpy as np

PathLike = Union[str, Path]

Edge = Tuple[int, int]

#: Default binary read size; one syscall (or one gzip inflate call) per chunk.
DEFAULT_CHUNK_BYTES = 1 << 20

#: Default number of parsed edges per :meth:`ChunkedEdgeStream.edge_chunks`
#: batch — small enough that a batch is a bounded buffer, large enough to
#: amortise the per-batch bookkeeping.
DEFAULT_CHUNK_EDGES = 1 << 16

#: Text bytes parsed per :meth:`ChunkedEdgeStream.edge_arrays` block: about
#: a thousand edges, enough to amortise the per-block NumPy calls, while
#: a block's transient arrays stay small (parsing whole 1 MiB chunks at
#: once raised the streaming pipeline's peak RSS by about 11 %).
ARRAY_BLOCK_BYTES = 1 << 14

#: Whole lines of exactly two decimal ids separated by spaces or tabs.
#: At most 18 digits, so every id fits ``int64``; anything else takes the
#: line parser.
_CANONICAL_LINES = re.compile(
    rb"(?:[ \t]*-?[0-9]{1,18}[ \t]+-?[0-9]{1,18}[ \t\r]*\n)*"
)

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


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

    def edge_arrays(self, batch_edges: int = DEFAULT_CHUNK_EDGES) -> Iterator[np.ndarray]:
        """Every edge in file order, as ``(m, 2)`` ``int64`` arrays.

        Each array holds at most ``batch_edges`` rows and at most one
        block (:data:`ARRAY_BLOCK_BYTES` of text) worth of edges, so the
        transient memory per array is bounded whatever the file size.
        The rows equal :meth:`edges`; an id outside ``int64`` raises
        ``OverflowError`` naming ``path:lineno``.
        """
        if batch_edges < 1:
            raise ValueError(f"batch_edges must be >= 1, got {batch_edges}")
        for lineno, block in self._blocks():
            rows = self._parse_block(block, lineno)
            for start in range(0, len(rows), batch_edges):
                yield rows[start : start + batch_edges]

    def count_edges(self) -> int:
        """Number of parseable edge lines (one full streaming pass)."""
        return sum(1 for _ in self.edges())

    # -- parsing -----------------------------------------------------------

    def _blocks(self) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(first lineno, block)`` runs of whole lines.

        Every block but a final unterminated line ends in a newline and
        spans at most :data:`ARRAY_BLOCK_BYTES` (or one longer line).
        """
        lineno = 1
        with open_binary(self.path) as fh:
            tail = b""
            while True:
                chunk = fh.read(self.chunk_bytes)
                if not chunk:
                    break
                data = tail + chunk
                end = data.rfind(b"\n") + 1
                start = 0
                while start < end:
                    cut = data.rfind(b"\n", start, start + ARRAY_BLOCK_BYTES) + 1
                    if cut <= start:  # one line longer than a block
                        cut = data.index(b"\n", start) + 1
                    block = data[start:cut]
                    yield lineno, block
                    lineno += block.count(b"\n")
                    start = cut
                tail = data[end:]
            if tail:
                yield lineno, tail

    def _parse_block(self, block: bytes, lineno: int) -> np.ndarray:
        """The edges of ``block`` (starting at line ``lineno``) as rows."""
        text = block if block.endswith(b"\n") else block + b"\n"
        if _CANONICAL_LINES.fullmatch(text):
            return np.fromstring(text, dtype=np.int64, sep=" ").reshape(-1, 2)
        lines = block.split(b"\n")
        last = lines.pop()  # b"" unless the block is an unterminated last line
        raws = [line + b"\n" for line in lines]
        if last:
            raws.append(last)
        rows: List[Edge] = []
        for at, raw in enumerate(raws, start=lineno):
            edge = self._parse(raw, at)
            if edge is None:
                continue
            if not all(_INT64_MIN <= x <= _INT64_MAX for x in edge):
                raise OverflowError(
                    f"{self.path}:{at}: endpoint outside int64 in "
                    f"{raw.decode('utf-8', 'replace')!r}"
                )
            rows.append(edge)
        return np.array(rows, dtype=np.int64).reshape(-1, 2)

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
