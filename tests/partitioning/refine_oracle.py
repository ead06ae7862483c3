"""Reference oracle for the local-search refiner: the dict search state.

:class:`DictState` is the refiner's search state as first written —
edge -> partition dict, per-vertex ``{partition: count}`` rows, per-
partition edge sets, one scalar ``move_gain`` call per candidate — kept
deliberately naive so it can serve as the executable specification the
array-backed state of :mod:`repro.partitioning.refine` is pinned against.

:func:`refine_with_oracle` runs :class:`~repro.partitioning.refine.
LocalSearchRefiner` unchanged (same option validation, pass loop and
stopping rules) over a :class:`DictState` instead of the shipped state,
so any difference in output or stats is a difference in the search.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Set, Tuple
from unittest import mock

from repro.graph.graph import Edge
from repro.partitioning import refine as refine_module
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.refine import LocalSearchRefiner, RefineStats


def refine_with_oracle(
    partition: EdgePartition, **options: object
) -> Tuple[EdgePartition, RefineStats]:
    """``refine_partition`` with :class:`DictState` as the search state."""
    refiner = LocalSearchRefiner(**options)  # type: ignore[arg-type]
    with mock.patch.object(refine_module, "_State", DictState):
        return refiner.refine(partition)


class DictState:
    """Edge ownership, per-vertex incidence counts, and the gain heap."""

    def __init__(
        self, partition: EdgePartition, capacity: int, slack: float
    ) -> None:
        p = partition.num_partitions
        m = partition.num_edges
        self.p = p
        if capacity <= 0:
            capacity = max(1, math.ceil(slack * m / p)) if p else 1
            capacity = max(capacity, max(partition.partition_sizes() or [0]))
        self.capacity = capacity
        self.edge_part: Dict[Edge, int] = dict(partition.edge_to_partition())
        #: vertex -> {partition: incident edge count}; exact at all times.
        self.incident: Dict[int, Dict[int, int]] = {}
        #: vertex -> every edge touching it (static across moves).
        self.vertex_edges: Dict[int, List[Edge]] = {}
        self.sizes: List[int] = [0] * p
        self.part_edges: List[Set[Edge]] = [set() for _ in range(p)]
        for edge, k in self.edge_part.items():
            self.sizes[k] += 1
            self.part_edges[k].add(edge)
            for w in edge:
                row = self.incident.setdefault(w, {})
                row[k] = row.get(k, 0) + 1
                self.vertex_edges.setdefault(w, []).append(edge)
        self.replicas = sum(len(row) for row in self.incident.values())
        self.replicas_before = self.replicas
        self.covered = len(self.incident)
        self.moves = 0
        self.swaps = 0
        #: Positive-gain moves blocked by capacity, found during drains;
        #: the swap phase works through them.  edge -> recorded gain.
        self.blocked: Dict[Edge, int] = {}

    # -- gain arithmetic ---------------------------------------------------

    def move_gain(self, edge: Edge, target: int) -> int:
        """Replicas freed minus replicas added by ``edge`` -> ``target``."""
        u, v = edge
        source = self.edge_part[edge]
        row_u, row_v = self.incident[u], self.incident[v]
        remove = (row_u[source] == 1) + (row_v[source] == 1)
        add = (target not in row_u) + (target not in row_v)
        return remove - add

    def best_move(
        self, edge: Edge, respect_capacity: bool
    ) -> Tuple[int, int]:
        """``(gain, target)`` of the best relocation of ``edge``.

        Only partitions already hosting an endpoint can yield a positive
        gain (an alien target costs two adds against at most two
        removes), so the candidate set is the endpoints' replica sets.
        Ties break to the smaller, then lower-id target — fully
        deterministic.  Returns ``(0, -1)`` when nothing improves.
        """
        u, v = edge
        source = self.edge_part[edge]
        row_u, row_v = self.incident[u], self.incident[v]
        remove = (row_u[source] == 1) + (row_v[source] == 1)
        if remove == 0:
            return 0, -1
        best_gain, best_target = 0, -1
        for target in sorted(set(row_u) | set(row_v)):
            if target == source:
                continue
            if respect_capacity and self.sizes[target] >= self.capacity:
                continue
            gain = remove - (target not in row_u) - (target not in row_v)
            if gain <= 0:
                continue
            if (
                best_target < 0
                or gain > best_gain
                or (
                    gain == best_gain
                    and self.sizes[target] < self.sizes[best_target]
                )
            ):
                best_gain, best_target = gain, target
        return best_gain, best_target

    # -- mutation ----------------------------------------------------------

    def apply_move(self, edge: Edge, target: int) -> None:
        """Relocate ``edge`` to ``target``, keeping every aggregate exact."""
        source = self.edge_part[edge]
        self.edge_part[edge] = target
        self.sizes[source] -= 1
        self.sizes[target] += 1
        self.part_edges[source].discard(edge)
        self.part_edges[target].add(edge)
        for w in edge:
            row = self.incident[w]
            row[source] -= 1
            if row[source] == 0:
                del row[source]
                self.replicas -= 1
            if target in row:
                row[target] += 1
            else:
                row[target] = 1
                self.replicas += 1

    # -- the move drain ----------------------------------------------------

    def drain_moves(self) -> None:
        """Apply positive-gain moves until none remain.

        Lazy heap: every pop is re-scored against the live state; a
        stale entry re-enqueues its fresh score instead of acting on an
        outdated one.  Each applied move re-seeds the entries of the
        edges incident to the moved edge's endpoints — the only gains a
        move can disturb (plus capacity effects, which the lazy
        re-score already covers).
        """
        heap: List[Tuple[int, Edge, int]] = []
        for edge in self.edge_part:
            gain, target = self.best_move(edge, respect_capacity=True)
            if target >= 0:
                heap.append((-gain, edge, target))
            self._note_blocked(edge)
        heapq.heapify(heap)
        while heap:
            neg_gain, edge, target = heapq.heappop(heap)
            gain, best_target = self.best_move(edge, respect_capacity=True)
            if best_target < 0:
                self._note_blocked(edge)
                continue
            if (-gain, best_target) != (neg_gain, target):
                heapq.heappush(heap, (-gain, edge, best_target))
                continue
            self.apply_move(edge, best_target)
            self.moves += 1
            self.blocked.pop(edge, None)
            for w in edge:
                for other in self.vertex_edges[w]:
                    if other == edge:
                        continue
                    other_gain, other_target = self.best_move(
                        other, respect_capacity=True
                    )
                    if other_target >= 0:
                        heapq.heappush(
                            heap, (-other_gain, other, other_target)
                        )
                    self._note_blocked(other)

    def _note_blocked(self, edge: Edge) -> None:
        """Record a positive-gain move currently shut out by capacity."""
        gain, target = self.best_move(edge, respect_capacity=False)
        if target >= 0 and self.sizes[target] >= self.capacity:
            self.blocked[edge] = gain

    # -- the swap phase ----------------------------------------------------

    def drain_swaps(self) -> None:
        """Pair capacity-blocked moves with counter-moves (sizes neutral).

        For a blocked candidate ``e: A -> B`` the phase tentatively
        applies the move (``B`` runs one over capacity), then looks for
        the best counter-move of some ``f in B`` back to ``A`` — scored
        *after* ``e`` landed, so the combined delta is exact — and keeps
        the pair only when it strictly lowers the replica total;
        otherwise ``e`` is rolled back.  Partition sizes end exactly
        where they started, so the capacity bound holds throughout the
        refined output.
        """
        candidates = sorted(
            self.blocked.items(), key=lambda item: (-item[1], item[0])
        )
        self.blocked.clear()
        for edge, _recorded in candidates:
            gain, target = self.best_move(edge, respect_capacity=False)
            if target < 0 or self.sizes[target] < self.capacity:
                continue  # no longer blocked; the next move drain takes it
            source = self.edge_part[edge]
            before = self.replicas
            self.apply_move(edge, target)
            counter = self._best_counter_move(target, source, exclude=edge)
            if counter is None:
                self.apply_move(edge, source)  # roll back
                continue
            counter_edge, _counter_gain = counter
            self.apply_move(counter_edge, source)
            if self.replicas < before:
                self.swaps += 1
            else:  # combined delta not an improvement: roll both back
                self.apply_move(counter_edge, target)
                self.apply_move(edge, source)

    def _best_counter_move(
        self, source: int, target: int, exclude: Edge
    ) -> Optional[Tuple[Edge, int]]:
        """Best ``f: source -> target`` scored on the live state.

        Scans ``source``'s current edge set; the max is selected by
        ``(gain, edge)`` so the result is independent of set iteration
        order.  Returns ``None`` when the partition has nothing to give
        back (only ``exclude`` itself).
        """
        best: Optional[Tuple[int, Edge]] = None
        for edge in self.part_edges[source]:
            if edge == exclude:
                continue
            gain = self.move_gain(edge, target)
            if best is None or (-gain, edge) < (-best[0], best[1]):
                best = (gain, edge)
        if best is None:
            return None
        return best[1], best[0]

    # -- output ------------------------------------------------------------

    def to_partition(self) -> EdgePartition:
        """Materialise the refined assignment (deterministic edge order)."""
        parts: List[List[Edge]] = [[] for _ in range(self.p)]
        for edge in sorted(self.edge_part):
            parts[self.edge_part[edge]].append(edge)
        return EdgePartition(parts)
