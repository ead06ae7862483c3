"""Chunked streaming over edge-list text files.

The out-of-core partitioner (:mod:`repro.partitioning.oocore`) streams
the same edge file **twice** — once to cluster and sketch degrees, once
to place edges — so the reader has to be cheap to restart and must never
hold the file in memory.  This module reads plain or gzip-compressed
SNAP-style files in fixed-size binary chunks and exposes two views:

* :meth:`ChunkedLineStream.lines` — decoded text lines (with their
  trailing newline, like file iteration), for format parsers such as
  :func:`repro.graph.io.read_metis_graph`;
* :meth:`ChunkedEdgeStream.edge_arrays` — every edge as bounded
  ``(m, 2)`` ``int64`` arrays.  This is the one edge-list parser: the
  out-of-core passes, :func:`repro.graph.io.read_edge_array` (and so
  every :class:`~repro.graph.graph.Graph` read from a file) and
  :func:`repro.graph.io.iter_edge_list` all go through it.  A block of
  canonical ``u<ws>v`` lines parses in one NumPy call; any other block
  (comments, blank lines, extra columns, malformed lines, ids too long
  for the fast path) goes through the line parser, so the skip rules and
  ``path:lineno`` errors are the same for every block.

Restarting a pass is just calling the iterator again — every iteration
opens its own file handle, so two passes never share state.
"""

from __future__ import annotations

import gzip
import re
from pathlib import Path
from typing import IO, Iterator, List, Optional, Tuple, Union

import numpy as np

PathLike = Union[str, Path]

Edge = Tuple[int, int]

#: Default binary read size; one syscall (or one gzip inflate call) per chunk.
DEFAULT_CHUNK_BYTES = 1 << 20

#: Default bound on the rows of one :meth:`ChunkedEdgeStream.edge_arrays`
#: array.
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


def open_binary(path: PathLike) -> IO[bytes]:
    """Open ``path`` for binary reads, transparently gunzipping ``.gz``."""
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")  # type: ignore[return-value]
    return open(path, "rb")


def _split_lines(block: bytes) -> List[bytes]:
    """The lines of ``block``, each keeping its newline (a last one may lack it)."""
    lines = block.split(b"\n")
    last = lines.pop()  # b"" unless the block ends in an unterminated line
    return [line + b"\n" for line in lines] + ([last] if last else [])


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

    def lines(self) -> Iterator[Tuple[int, str]]:
        """Yield ``(lineno, line)``; lines keep their trailing newline.

        Matches ``for line in open(path)`` exactly (including a final
        line without a newline), but reads in ``chunk_bytes`` binary
        chunks.
        """
        for lineno, block in self._blocks():
            for at, raw in enumerate(_split_lines(block), start=lineno):
                yield at, raw.decode("utf-8")

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


class ChunkedEdgeStream(ChunkedLineStream):
    """SNAP edge-list parsing over the chunked reader.

    Skip/error semantics are the canonical ``iter_edge_list`` contract:
    blank lines and ``#``/``%`` comments are skipped, a line with fewer
    than two tokens raises ``ValueError`` naming ``path:lineno``, extra
    columns are ignored, non-integer endpoints raise ``ValueError``.
    """

    def edge_arrays(self, batch_edges: int = DEFAULT_CHUNK_EDGES) -> Iterator[np.ndarray]:
        """Every edge in file order, as ``(m, 2)`` ``int64`` arrays.

        Each array holds at most ``batch_edges`` rows and at most one
        block (:data:`ARRAY_BLOCK_BYTES` of text) worth of edges, so the
        transient memory per array is bounded whatever the file size.
        An id outside ``int64`` raises ``OverflowError`` naming
        ``path:lineno``.
        """
        if batch_edges < 1:
            raise ValueError(f"batch_edges must be >= 1, got {batch_edges}")
        for lineno, block in self._blocks():
            rows = self._parse_block(block, lineno)
            for start in range(0, len(rows), batch_edges):
                yield rows[start : start + batch_edges]

    # -- parsing -----------------------------------------------------------

    def _parse_block(self, block: bytes, lineno: int) -> np.ndarray:
        """The edges of ``block`` (starting at line ``lineno``) as rows."""
        text = block if block.endswith(b"\n") else block + b"\n"
        if _CANONICAL_LINES.fullmatch(text):
            return np.fromstring(text, dtype=np.int64, sep=" ").reshape(-1, 2)
        rows: List[Edge] = []
        for at, raw in enumerate(_split_lines(block), start=lineno):
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
