"""Incremental maintenance of an edge partitioning as the graph grows.

The paper's introduction motivates local partitioning with graphs that
"increase incrementally"; this module supplies the missing operational
piece: once a graph has been partitioned (by TLP or anything else), newly
arriving edges are placed **online** without re-partitioning.

Placement rule per new edge ``(u, v)``: PowerGraph's greedy rule
(:func:`~repro.partitioning.scoring.greedy_choice`) over the partitions
with capacity headroom — a partition hosting both endpoints, else one
hosting either, else any — least-loaded first, ties to the lowest id.
When every partition is at capacity, all of them are candidates.
Capacity grows with the graph: ``C = ceil(slack * m_current / p)``.

When quality drifts (the online rule is greedy), call :meth:`refresh` to run
the local-search refiner (:class:`~repro.partitioning.refine.
LocalSearchRefiner`) in place.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.graph.graph import Edge, Graph, normalize_edge
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.refine import LocalSearchRefiner
from repro.partitioning.scoring import greedy_choice
from repro.utils.validation import check_positive


class DynamicPartitioner:
    """Maintains an edge partitioning under edge insertions."""

    def __init__(self, partition: EdgePartition, slack: float = 1.1) -> None:
        if slack < 1.0:
            raise ValueError(f"slack must be >= 1.0, got {slack}")
        self._p = partition.num_partitions
        check_positive("num_partitions", self._p)
        self.slack = slack
        self._load(partition)
        self.insertions = 0

    def _load(self, partition: EdgePartition) -> None:
        """Rebuild the edge map, sizes and incidence rows from ``partition``."""
        self._edge_part: Dict[Edge, int] = dict(partition.edge_to_partition())
        self._sizes: List[int] = list(partition.partition_sizes())
        self._incident: Dict[int, Dict[int, int]] = {}
        for edge, k in self._edge_part.items():
            for w in edge:
                row = self._incident.setdefault(w, {})
                row[k] = row.get(k, 0) + 1

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
        cap = self.capacity()
        under_cap = [k for k in range(self._p) if self._sizes[k] < cap]
        best_k = greedy_choice(
            self._incident.get(u, {}).keys(),
            self._incident.get(v, {}).keys(),
            self._sizes,
            under_cap or range(self._p),
        )
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
        """Run local-search refinement in place; returns replicas saved."""
        refiner = LocalSearchRefiner(slack=self.slack, max_passes=max_passes)
        refined, stats = refiner.refine(self.snapshot())
        self._load(refined)
        return stats.replicas_saved
