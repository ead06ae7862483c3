"""Partition-quality metrics.

The headline metric of the paper is the **replication factor** (Definition 4):

    RF = sum_k |V(P_k)| / |V|

We also provide edge balance, spanned-vertex counts, per-partition modularity
in the paper's sense (Definition 8), and the exact accounting identity behind
Claim 1 / Eq. 6, which tests verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.graph.graph import Graph
from repro.partitioning.assignment import EdgePartition
from repro.utils.arrays import distinct


def replication_factor(partition: EdgePartition, graph: Graph) -> float:
    """``RF = sum_k |V(P_k)| / |V|`` (Eq. 1).  The minimum is 1.0.

    ``|V|`` counts only non-isolated vertices when the graph has isolated
    vertices that no edge partition could ever cover — the paper's datasets
    have none after normalisation, but synthetic graphs might.
    """
    covered = sum(partition.vertex_counts())
    n = sum(1 for v in graph.vertices() if graph.degree(v) > 0)
    if n == 0:
        return 1.0
    return covered / n


def edge_balance(partition: EdgePartition) -> float:
    """Max partition size over the ideal size ``m / p`` (1.0 = perfect)."""
    sizes = partition.partition_sizes()
    m = sum(sizes)
    p = len(sizes)
    if m == 0:
        return 1.0
    return max(sizes) * p / m


def spanned_vertex_count(partition: EdgePartition) -> int:
    """Number of vertices replicated across >= 2 partitions (Definition 2)."""
    seen: Dict[int, int] = {}
    for vs in partition.vertex_sets():
        for v in vs:
            seen[v] = seen.get(v, 0) + 1
    return sum(1 for count in seen.values() if count >= 2)


def total_replicas(partition: EdgePartition) -> int:
    """``sum_k |V(P_k)|`` — the numerator of RF; also the mirror count + |V|."""
    return sum(partition.vertex_counts())


def external_incidences(partition: EdgePartition, graph: Graph) -> List[int]:
    """Per-partition external-edge incidences.

    For partition ``k``, counts pairs ``(edge e, endpoint v)`` with
    ``v in V(P_k)`` but ``e`` allocated elsewhere.  This is the exact
    final-state generalisation of the paper's ``|E_out(P_k)|``: during TLP's
    execution every external edge has exactly one endpoint inside, so
    incidences coincide with edges; after *all* partitions are fixed an
    external edge may have both endpoints in ``V(P_k)`` and contributes 2.

    Satisfies exactly, for every k:

        sum_{v in V(P_k)} deg_G(v) = 2 |E(P_k)| + external_incidences[k]
    """
    vertex_sets = partition.vertex_sets()
    counts: List[int] = []
    for k, vs in enumerate(vertex_sets):
        degree_sum = sum(graph.degree(v) for v in vs)
        counts.append(degree_sum - 2 * len(partition.edges_of(k)))
    return counts


def partition_modularities(partition: EdgePartition, graph: Graph) -> List[float]:
    """Paper-style modularity ``M(P_k) = |E(P_k)| / |E_out(P_k)|`` per partition.

    Uses exact external incidences; ``inf`` when a partition has no external
    incidences (a whole connected component).
    """
    external = external_incidences(partition, graph)
    mods: List[float] = []
    for k, ext in enumerate(external):
        internal = len(partition.edges_of(k))
        mods.append(float("inf") if ext == 0 else internal / ext)
    return mods


def rf_from_modularities(partition: EdgePartition, graph: Graph) -> float:
    """Exact form of Eq. 6 computed from per-partition counts.

    ``RF = sum_k (2|E(P_k)| + ext_k) / (sum_v deg(v))`` — equivalently
    ``sum_k sum_{v in V(P_k)} deg(v) / 2|E|`` *weighted by true degrees*.
    With the paper's averaging assumption (every vertex has degree d and all
    partitions equal-sized) this reduces to ``1 + (1/p) sum_k 1/M(P_k)``.
    """
    external = external_incidences(partition, graph)
    numerator = sum(
        2 * len(partition.edges_of(k)) + external[k]
        for k in range(partition.num_partitions)
    )
    total_degree = 2 * graph.num_edges
    if total_degree == 0:
        return 1.0
    # NOTE: this equals sum_k sum_{v in V(P_k)} deg(v) / 2m, which is RF only
    # when all degrees are equal; it is the quantity Eq. 6 actually bounds.
    return numerator / total_degree


@dataclass
class PartitionReport:
    """Bundle of the metrics reported in the paper's evaluation."""

    replication_factor: float
    edge_balance: float
    spanned_vertices: int
    partition_sizes: List[int]
    vertex_counts: List[int]

    @classmethod
    def evaluate(cls, partition: EdgePartition, graph: Graph) -> "PartitionReport":
        """Compute all metrics for ``partition`` on ``graph``."""
        return cls(
            replication_factor=replication_factor(partition, graph),
            edge_balance=edge_balance(partition),
            spanned_vertices=spanned_vertex_count(partition),
            partition_sizes=partition.partition_sizes(),
            vertex_counts=partition.vertex_counts(),
        )

    @classmethod
    def evaluate_edges(
        cls, partition: EdgePartition, edges: np.ndarray
    ) -> "PartitionReport":
        """:meth:`evaluate` against the graph whose edges are ``edges``.

        ``edges`` is an ``(m, 2)`` int64 array of the graph's edges; the
        vertex sets are sorted arrays instead of Python sets, and every
        figure equals :meth:`evaluate`'s on the same graph.
        """
        vertex_sets = [
            distinct(partition.edge_array(k)) for k in range(partition.num_partitions)
        ]
        vertex_counts = [len(vs) for vs in vertex_sets]
        n = len(distinct(edges))
        flat = np.sort(np.concatenate(vertex_sets)) if vertex_sets else edges[:0]
        spanned = len(distinct(flat[1:][flat[1:] == flat[:-1]]))
        return cls(
            replication_factor=sum(vertex_counts) / n if n else 1.0,
            edge_balance=edge_balance(partition),
            spanned_vertices=spanned,
            partition_sizes=partition.partition_sizes(),
            vertex_counts=vertex_counts,
        )
