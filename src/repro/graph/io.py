"""Edge-list input/output in the SNAP text format.

SNAP datasets (the paper's G1-G8) are whitespace-separated ``u v`` lines with
``#`` comment headers, optionally gzip-compressed.  These helpers read and
write that format.  Every read goes through one parser,
:meth:`~repro.graph.chunked.ChunkedEdgeStream.edge_arrays`:
:func:`read_edge_array` normalises the file into edge arrays,
:func:`read_edge_list` builds a :class:`~repro.graph.graph.Graph` from
those arrays, and :func:`iter_edge_list` yields the parsed rows lazily for
the streaming partitioners.
"""

from __future__ import annotations

import gzip
import io
import os
from pathlib import Path
from typing import IO, Dict, Iterable, Iterator, Tuple, Union

import numpy as np

from repro.graph.builder import GraphBuilder
from repro.graph.chunked import ChunkedEdgeStream, ChunkedLineStream
from repro.graph.graph import Graph

PathLike = Union[str, "os.PathLike[str]"]


class _OwningTextIOWrapper(io.TextIOWrapper):
    """Text wrapper that also closes the raw file under a gzip member.

    ``GzipFile`` built on an explicit ``fileobj`` deliberately leaves
    that fileobj open on close; this closes the whole stack.
    """

    def __init__(self, gz: gzip.GzipFile, raw: IO[bytes]) -> None:
        super().__init__(gz, encoding="utf-8")  # type: ignore[arg-type]
        self._raw_file = raw

    def close(self) -> None:
        try:
            super().close()
        finally:
            self._raw_file.close()


def open_text(path: PathLike, mode: str) -> IO[str]:
    """Open a text file, transparently gzip-compressed when it ends ``.gz``.

    Gzip *writes* are deterministic: the member header carries no source
    file name and a zero mtime, so equal text compresses to equal bytes
    — which is what lets ``save_partition`` produce byte-identical
    compressed bundles regardless of when (or on how many threads) it
    runs.  Plain ``gzip.open`` would stamp the temp file's random name
    and the current time into the first 30-ish bytes.
    """
    path = Path(path)
    if path.suffix == ".gz":
        if "r" in mode:
            return gzip.open(path, mode + "t", encoding="utf-8")  # type: ignore[return-value]
        raw = open(path, mode + "b")
        try:
            gz = gzip.GzipFile(filename="", mode=mode + "b", fileobj=raw, mtime=0)
            return _OwningTextIOWrapper(gz, raw)
        except Exception:
            raw.close()
            raise
    return open(path, mode + "t", encoding="utf-8")


#: Backwards-compatible private alias.
_open_text = open_text


def iter_edge_list(path: PathLike) -> Iterator[Tuple[int, int]]:
    """Lazily yield ``(u, v)`` pairs from a SNAP-style edge list.

    Lines starting with ``#`` or ``%`` and blank lines are skipped; raises
    ``ValueError`` on malformed lines and ``OverflowError`` on an id
    outside int64 (both naming ``path:lineno``).

    Yields the rows of :meth:`~repro.graph.chunked.ChunkedEdgeStream.edge_arrays`,
    so the file is never held in memory and gzip input is decompressed a
    chunk at a time.
    """
    for rows in ChunkedEdgeStream(path).edge_arrays():
        yield from zip(rows[:, 0].tolist(), rows[:, 1].tolist())


def read_edge_list(path: PathLike) -> Graph:
    """Read an edge-list file into a normalised undirected simple graph.

    Directed duplicates and self loops are dropped (SNAP normalisation);
    a vertex seen only in self loops stays, isolated.  The graph iterates
    its vertices, neighbours and edges in the order adding the file's
    edges one by one would give.
    """
    return Graph.from_edge_array(*read_edge_array(path))


def read_edge_array(path: PathLike) -> Tuple[np.ndarray, np.ndarray]:
    """The graph :func:`read_edge_list` builds, as arrays, without a Graph.

    Returns ``(edges, vertices)``: ``edges`` holds every edge once as a
    canonical ``(u, v), u < v`` int64 row, in the order of each edge's
    first occurrence in the file (in either orientation); ``vertices``
    lists every vertex in the order ``read_edge_list(path).vertices()``
    does, first appearance first, vertices seen only in self loops
    included.  An id outside int64 raises ``OverflowError`` naming
    ``path:lineno``.
    """
    blocks = list(ChunkedEdgeStream(path).edge_arrays())
    rows = np.concatenate(blocks) if blocks else np.empty((0, 2), dtype=np.int64)
    ids, first = np.unique(rows, return_index=True)
    vertices = ids[np.argsort(first)]
    rows = rows[rows[:, 0] != rows[:, 1]]
    # Deduplicate in index space, where (lo, hi) packs into one int64,
    # keeping each edge at its first occurrence.
    n = len(ids)
    lo = np.searchsorted(ids, np.minimum(rows[:, 0], rows[:, 1]))
    hi = np.searchsorted(ids, np.maximum(rows[:, 0], rows[:, 1]))
    keep = np.sort(np.unique(lo * n + hi, return_index=True)[1])
    return np.column_stack((ids[lo[keep]], ids[hi[keep]])), vertices


def write_edge_list(
    graph: Graph, path: PathLike, header: Iterable[str] = ()
) -> None:
    """Write ``graph`` as a SNAP-style edge list (one canonical edge per line)."""
    with open_text(path, "w") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write(f"# Nodes: {graph.num_vertices} Edges: {graph.num_edges}\n")
        for u, v in graph.edges():
            fh.write(f"{u}\t{v}\n")


def read_metis_graph(path: PathLike) -> Graph:
    """Read a graph in the METIS adjacency format.

    Line 1 is ``n m [fmt]`` (only unweighted ``fmt`` 0/absent supported);
    line ``i+1`` lists the 1-based neighbours of vertex ``i``.  Vertices are
    relabelled to 0-based ids.  ``%`` comment lines are skipped.
    """
    # Stream line by line (keeping blank lines: an isolated vertex's
    # adjacency line is legitimately empty) instead of materialising the
    # file — METIS inputs can be as large as the edge lists.
    lines = (
        line.rstrip("\n")
        for _lineno, line in ChunkedLineStream(path).lines()
        if not line.lstrip().startswith("%")
    )
    header_line = next(lines, None)
    if header_line is None:
        raise ValueError(f"{path}: empty METIS file")
    if not header_line.strip():
        # A blank line ahead of real content is a malformed header; a
        # file of nothing but blank lines is empty.
        if any(line.strip() for line in lines):
            raise ValueError(f"{path}: malformed METIS header {header_line!r}")
        raise ValueError(f"{path}: empty METIS file")
    header = header_line.split()
    if len(header) < 2:
        raise ValueError(f"{path}: malformed METIS header {header_line!r}")
    n, m = int(header[0]), int(header[1])
    if len(header) > 2 and header[2] not in ("0", "00", "000"):
        raise ValueError(f"{path}: weighted METIS format {header[2]!r} not supported")
    builder = GraphBuilder()
    count = 0  # adjacency lines consumed as vertices
    # Trailing blank lines *beyond* the n declared vertices are just
    # end-of-file newlines, not vertices; any non-blank line past n (or a
    # blank one ahead of it) still counts against the header.
    extras = 0
    retained = 0  # extras up to and including the last non-blank one
    for line in lines:
        if count < n:
            builder.add_vertex(count)
            for token in line.split():
                builder.add_edge(count, int(token) - 1)
            count += 1
        else:
            extras += 1
            if line.strip():
                retained = extras
    if count < n or retained:
        raise ValueError(
            f"{path}: header says {n} vertices, found {count + retained}"
        )
    graph = builder.build()
    if graph.num_edges != m:
        raise ValueError(
            f"{path}: header says {m} edges, adjacency encodes {graph.num_edges}"
        )
    return graph


def write_metis_graph(graph: Graph, path: PathLike) -> Dict[int, int]:
    """Write ``graph`` in the METIS adjacency format.

    Vertices are renumbered to ``1..n`` in iteration order; returns the
    ``original id -> metis id`` mapping so partition results can be mapped
    back.
    """
    ids = graph.vertex_list()
    metis_id = {v: i + 1 for i, v in enumerate(ids)}
    with open_text(path, "w") as fh:
        fh.write(f"{graph.num_vertices} {graph.num_edges}\n")
        for v in ids:
            neighbors = " ".join(str(metis_id[u]) for u in sorted(graph.neighbors(v), key=lambda x: metis_id[x]))
            fh.write(neighbors + "\n")
    return metis_id
