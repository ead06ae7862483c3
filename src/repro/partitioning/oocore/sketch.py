"""Bounded-memory degree tracking for the clustering pass.

Pass 1 needs every vertex's degree twice over: online (the label
propagation moves the lower-degree endpoint) and at the end (pass 2
scores HDRF with the final degrees).  A plain dict is exact and fast but
costs ~100 bytes per vertex; when the vertex count would blow the memory
budget the sketch degrades to a count-min estimate (Cormode &
Muthukrishnan) — one fixed ``int64`` table whose size is chosen from
the budget, independent of ``n``.  Count-min only ever *over*-estimates, so
HDRF's degree ratio stays a sane heuristic signal, and updates use the
conservative variant (only raise the minimum counters) to keep the bias
small on power-law degree streams.

:class:`DegreeSketch` is the facade: it starts exact and converts itself
to count-min the moment the vertex table crosses ``max_exact_vertices``,
replaying the counts it has — callers never have to branch on the mode,
they just read (possibly estimated) degrees.  The pipeline does branch,
for speed only: once degraded, it hashes each bounded batch of edges in
one vectorised call (:meth:`CountMinDegrees.positions` /
:meth:`CountMinDegrees.get_many`) and folds the batch's conservative
updates in one loop (:meth:`CountMinDegrees.add_each`), with results
identical to the scalar :meth:`DegreeSketch.add` / :meth:`DegreeSketch.get`
path.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Number of count-min rows; 4 gives an error probability of ``e^-4``.
CM_DEPTH = 4

#: Multiplier mixing constants (splitmix64 finalisation) — fixed, so two
#: processes sketching the same stream agree exactly.
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def _mix(value: int) -> int:
    """splitmix64 finaliser: deterministic 64-bit avalanche."""
    value &= _MASK
    value ^= value >> 30
    value = (value * _MIX_1) & _MASK
    value ^= value >> 27
    value = (value * _MIX_2) & _MASK
    value ^= value >> 31
    return value


def _mix_array(values: np.ndarray) -> np.ndarray:
    """:func:`_mix` over a ``uint64`` array (NumPy wraps modulo 2**64)."""
    values = values ^ (values >> np.uint64(30))
    values *= np.uint64(_MIX_1)
    values ^= values >> np.uint64(27)
    values *= np.uint64(_MIX_2)
    values ^= values >> np.uint64(31)
    return values


def _as_uint64(vertices: Sequence[int]) -> np.ndarray:
    """Vertex ids as ``uint64`` two's-complement keys, like ``_mix`` masks them."""
    try:
        return np.array(vertices, dtype=np.int64).view(np.uint64)
    except OverflowError:  # ids outside int64: mask in Python first
        return np.array([v & _MASK for v in vertices], dtype=np.uint64)


class CountMinDegrees:
    """Conservative-update count-min over vertex degree increments.

    The ``(depth, width)`` table is one flat ``int64`` buffer: row ``r``
    of vertex ``v`` lives at ``r * width + _mix(v ^ _mix(r + 1)) % width``.
    Scalar updates and lookups go through a ``memoryview`` (plain integer
    loads and stores); :meth:`positions` and :meth:`get_many` hash a whole
    batch of ids at once with the same arithmetic in NumPy.
    """

    exact = False

    def __init__(self, width: int, depth: int = CM_DEPTH) -> None:
        if width < 1 or depth < 1:
            raise ValueError(f"width and depth must be >= 1, got {width}x{depth}")
        self.width = width
        self.depth = depth
        self._table = np.zeros(depth * width, dtype=np.int64)
        self._cells = memoryview(self._table)
        # Per-row hash salt and flat offset, computed once.
        self._rows = tuple((_mix(row + 1), row * width) for row in range(depth))
        self._salts = np.array([salt for salt, _ in self._rows], dtype=np.uint64)
        self._bases = np.array([base for _, base in self._rows], dtype=np.int64)

    def _positions(self, vertex: int) -> List[int]:
        """Flat table index of ``vertex`` in every row."""
        width = self.width
        return [base + _mix(vertex ^ salt) % width for salt, base in self._rows]

    def positions(self, vertices: Sequence[int]) -> np.ndarray:
        """:meth:`_positions` of every id, as a ``(len(vertices), depth)`` array."""
        keys = _as_uint64(vertices)
        columns = _mix_array(keys[:, None] ^ self._salts) % np.uint64(self.width)
        return columns.astype(np.int64) + self._bases

    def add_at(self, positions: Sequence[int], count: int = 1) -> int:
        """Fold ``count`` into the vertex hashed to ``positions``; returns the new estimate."""
        cells = self._cells
        new = min([cells[i] for i in positions]) + count
        # Conservative update: only counters below the new minimum rise.
        for i in positions:
            if cells[i] < new:
                cells[i] = new
        return new

    def add_each(self, rows: Sequence[Sequence[int]]) -> List[int]:
        """:meth:`add_at` of one degree for every row of positions, in order."""
        cells = self._cells
        estimates = []
        for positions in rows:
            new = min([cells[i] for i in positions]) + 1
            for i in positions:
                if cells[i] < new:
                    cells[i] = new
            estimates.append(new)
        return estimates

    def add(self, vertex: int, count: int = 1) -> int:
        """Fold ``count`` degree into ``vertex``; returns the new estimate."""
        return self.add_at(self._positions(vertex), count)

    def get(self, vertex: int) -> int:
        cells = self._cells
        return min([cells[i] for i in self._positions(vertex)])

    def get_many(self, vertices: Sequence[int]) -> np.ndarray:
        """:meth:`get` of every id: one gather and one row-wise min."""
        return self._table[self.positions(vertices)].min(axis=1)


class ExactDegrees:
    """Plain dict degrees — exact, used while ``n`` fits the budget."""

    exact = True

    def __init__(self) -> None:
        self._degree: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._degree)

    def add(self, vertex: int, count: int = 1) -> int:
        new = self._degree.get(vertex, 0) + count
        self._degree[vertex] = new
        return new

    def get(self, vertex: int) -> int:
        return self._degree.get(vertex, 0)

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(self._degree.items())


class DegreeSketch:
    """Exact degrees with an automatic count-min fallback.

    ``max_exact_vertices`` caps the exact table; crossing it converts to
    a count-min of ``cm_width`` columns by replaying the accumulated
    counts.  ``kind`` reports which mode ended up serving the stream
    (``"exact"`` or ``"count-min"``) for the bench/manifest record.
    """

    def __init__(self, max_exact_vertices: int, cm_width: int) -> None:
        if max_exact_vertices < 0:
            raise ValueError(
                f"max_exact_vertices must be >= 0, got {max_exact_vertices}"
            )
        self.max_exact_vertices = max_exact_vertices
        self.cm_width = max(1, cm_width)
        self._exact = ExactDegrees()
        self._cm: CountMinDegrees | None = None
        #: True until the table degrades to count-min (a plain attribute:
        #: the pipeline reads it once per edge).
        self.exact = True
        #: Distinct vertices observed while the exact table lives.  Frozen
        #: once the sketch degrades: count-min cannot tell a new vertex
        #: from a collision, so later arrivals are not counted.
        self.seen_vertices = 0

    @property
    def count_min(self) -> Optional[CountMinDegrees]:
        """The count-min table once degraded (``None`` while exact)."""
        return self._cm

    @property
    def kind(self) -> str:
        return "exact" if self.exact else "count-min"

    def add(self, vertex: int) -> int:
        """Count one incident edge at ``vertex``; returns the new degree."""
        if self._cm is not None:
            return self._cm.add(vertex)
        new = self._exact.add(vertex)
        if new == 1:
            self.seen_vertices += 1
            if self.seen_vertices > self.max_exact_vertices:
                self._degrade()
                return self._cm.get(vertex)  # type: ignore[union-attr]
        return new

    def get(self, vertex: int) -> int:
        if self._cm is not None:
            return self._cm.get(vertex)
        return self._exact.get(vertex)

    def _degrade(self) -> None:
        cm = CountMinDegrees(self.cm_width)
        for vertex, count in self._exact.items():
            cm.add(vertex, count)
        self._cm = cm
        self.exact = False
        self._exact = ExactDegrees()  # release the dict
