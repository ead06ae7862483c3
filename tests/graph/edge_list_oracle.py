"""A line-by-line SNAP edge-list reader, kept as the oracle for the real one.

The library parses edge lists in one place,
:meth:`repro.graph.chunked.ChunkedEdgeStream.edge_arrays`, and builds every
:class:`~repro.graph.graph.Graph` of a file from its arrays
(:func:`repro.graph.io.read_edge_list`).  This module is the reader it
replaced: strip each line, skip ``#``/``%`` comments and blank lines,
split, ``int`` the first two tokens, and feed the pairs to
:class:`~repro.graph.builder.GraphBuilder` one at a time.  Tests compare
the real reader with it: the same edges, the same errors, and a graph that
iterates its vertices, neighbour sets and edges in the same order.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Iterator, Tuple

from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph


def oracle_edges(path) -> Iterator[Tuple[int, int]]:
    """Every ``(u, v)`` pair of the file, in file order."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped or stripped[:1] in (b"#", b"%"):
                continue
            parts = stripped.split()
            text = raw.decode("utf-8", "replace")
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected 'u v', got {text!r}")
            try:
                yield int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: non-integer endpoint in {text!r}"
                ) from exc


def oracle_graph(path) -> Graph:
    """The file's normalised graph, built one edge at a time."""
    builder = GraphBuilder()
    builder.add_edges(oracle_edges(path))
    return builder.build()


def iteration_order(graph: Graph):
    """Vertices, each neighbour set and the edges, in iteration order."""
    vertices = list(graph.vertices())
    return vertices, [list(graph.neighbors(v)) for v in vertices], list(graph.edges())
