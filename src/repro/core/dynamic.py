"""Incremental maintenance of an edge partitioning as the graph grows.

The paper's introduction motivates local partitioning with graphs that
"increase incrementally"; this module supplies the missing operational
piece: once a graph has been partitioned (by TLP or anything else), newly
arriving edges are placed **online** without re-partitioning.

Placement rule per new edge ``(u, v)``: among partitions with capacity
headroom, choose the one minimising the number of *new replicas* created
(0 if it already hosts both endpoints, 1 if one, 2 if neither), breaking
ties toward the least-loaded partition — the same cost model as
:mod:`repro.partitioning.refinement`, applied prospectively.  Capacity grows
with the graph: ``C = ceil(slack * m_current / p)``.

When quality drifts (the online rule is greedy), call :meth:`refresh` to run
the replication-refinement pass in place.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set, Tuple

from repro.graph.graph import Edge, Graph, normalize_edge
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.refinement import refine_replication
from repro.utils.validation import check_positive


class DynamicPartitioner:
    """Maintains an edge partitioning under edge insertions."""

    def __init__(self, partition: EdgePartition, slack: float = 1.1) -> None:
        if slack < 1.0:
            raise ValueError(f"slack must be >= 1.0, got {slack}")
        self._p = partition.num_partitions
        check_positive("num_partitions", self._p)
        self.slack = slack
        self._edge_part: Dict[Edge, int] = dict(partition.edge_to_partition())
        self._sizes: List[int] = list(partition.partition_sizes())
        self._incident: Dict[int, Dict[int, int]] = {}
        for edge, k in self._edge_part.items():
            for w in edge:
                row = self._incident.setdefault(w, {})
                row[k] = row.get(k, 0) + 1
        self.insertions = 0

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        num_partitions: int,
        slack: float = 1.1,
        **tlp_kwargs,
    ) -> "DynamicPartitioner":
        """Bootstrap by running TLP on ``graph``, then maintain online.

        The common lifecycle — partition a snapshot with TLP, keep placing
        new edges as they arrive — in one call.  Extra keyword arguments
        go to :class:`~repro.core.tlp.TLPPartitioner`;
        ``slack`` is shared between the initial partitioning and the online
        capacity rule.
        """
        from repro.core.tlp import TLPPartitioner

        tlp = TLPPartitioner(slack=slack, **tlp_kwargs)
        return cls(tlp.partition(graph, num_partitions), slack=slack)

    # -- queries -------------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        """``p``."""
        return self._p

    @property
    def num_edges(self) -> int:
        """Edges currently partitioned."""
        return len(self._edge_part)

    def capacity(self) -> int:
        """The current per-partition cap ``ceil(slack * m / p)``."""
        return max(1, math.ceil(self.slack * max(1, self.num_edges) / self._p))

    def replicas_of(self, v: int) -> int:
        """How many partitions currently host ``v``."""
        return len(self._incident.get(v, ()))

    def snapshot(self) -> EdgePartition:
        """The current partitioning as an immutable :class:`EdgePartition`."""
        parts: List[List[Edge]] = [[] for _ in range(self._p)]
        for edge, k in self._edge_part.items():
            parts[k].append(edge)
        return EdgePartition(parts)

    # -- mutation --------------------------------------------------------------

    def add_edge(self, u: int, v: int) -> int:
        """Place a newly arrived edge; returns its partition id.

        Duplicate edges raise ``ValueError`` (the underlying graphs are
        simple).
        """
        edge = normalize_edge(u, v)
        if edge in self._edge_part:
            raise ValueError(f"edge {edge} is already partitioned")
        cap = max(self.capacity(), 1)
        row_u = self._incident.get(u, {})
        row_v = self._incident.get(v, {})
        candidates: Set[int] = set(row_u) | set(row_v)
        best_k = -1
        best_key: Tuple[int, int] = (3, 0)
        for k in candidates:
            if self._sizes[k] >= cap:
                continue
            cost = (k not in row_u) + (k not in row_v)
            key = (cost, self._sizes[k])
            if key < best_key:
                best_key = key
                best_k = k
        if best_k < 0 or best_key[0] >= 2:
            # No replica can be saved (or hosts are full): least-loaded wins,
            # preferring any candidate partition under the cap.
            under_cap = [k for k in range(self._p) if self._sizes[k] < cap]
            pool = under_cap or list(range(self._p))
            best_k = min(pool, key=lambda k: self._sizes[k])
        self._edge_part[edge] = best_k
        self._sizes[best_k] += 1
        for w in (u, v):
            row = self._incident.setdefault(w, {})
            row[best_k] = row.get(best_k, 0) + 1
        self.insertions += 1
        return best_k

    def add_edges(self, edges) -> List[int]:
        """Place many edges; returns their partition ids in order."""
        return [self.add_edge(u, v) for u, v in edges]

    def refresh(self, max_passes: int = 4) -> int:
        """Run replication refinement in place; returns replicas saved."""
        refined, stats = refine_replication(
            self.snapshot(), max_passes=max_passes, slack=self.slack
        )
        self._edge_part = dict(refined.edge_to_partition())
        self._sizes = list(refined.partition_sizes())
        self._incident = {}
        for edge, k in self._edge_part.items():
            for w in edge:
                row = self._incident.setdefault(w, {})
                row[k] = row.get(k, 0) + 1
        return stats.replicas_saved
