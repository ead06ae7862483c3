"""Detailed per-partition diagnostics beyond the headline RF.

Printed by the CLI's ``--detail`` to explain *why* a partitioning is
good: per-partition modularity (the paper's quality driver, Claim 1),
boundary sizes, and the distribution of work a distributed engine would see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.bench.report import render_table
from repro.graph.graph import Graph
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.metrics import (
    external_incidences,
    partition_modularities,
    replication_factor,
)


@dataclass
class PartitionDetail:
    """Diagnostics for one partition ``P_k``."""

    partition: int
    edges: int
    vertices: int
    boundary_vertices: int
    internal_fraction: float
    modularity: float


def partition_details(partition: EdgePartition, graph: Graph) -> List[PartitionDetail]:
    """Per-partition breakdown of sizes, boundaries and modularity."""
    vertex_sets = partition.vertex_sets()
    modularities = partition_modularities(partition, graph)
    externals = external_incidences(partition, graph)
    details: List[PartitionDetail] = []
    for k in range(partition.num_partitions):
        vs = vertex_sets[k]
        internal = len(partition.edges_of(k))
        # Boundary vertex: has at least one incident edge outside P_k.
        boundary = sum(
            1
            for v in vs
            if graph.degree(v)
            > sum(1 for u in graph.neighbors(v) if _edge_in(partition, k, u, v))
        )
        degree_sum = 2 * internal + externals[k]
        details.append(
            PartitionDetail(
                partition=k,
                edges=internal,
                vertices=len(vs),
                boundary_vertices=boundary,
                internal_fraction=(2 * internal / degree_sum) if degree_sum else 1.0,
                modularity=modularities[k],
            )
        )
    return details


def _edge_in(partition: EdgePartition, k: int, u: int, v: int) -> bool:
    mapping = partition.edge_to_partition()
    edge = (u, v) if u < v else (v, u)
    return mapping.get(edge) == k


def describe_partition(partition: EdgePartition, graph: Graph) -> str:
    """Human-readable report over all partitions."""
    details = partition_details(partition, graph)
    rows = [
        [
            d.partition,
            d.edges,
            d.vertices,
            d.boundary_vertices,
            d.internal_fraction,
            "inf" if d.modularity == float("inf") else f"{d.modularity:.3f}",
        ]
        for d in details
    ]
    header = (
        f"RF = {replication_factor(partition, graph):.4f} over "
        f"{partition.num_partitions} partitions\n"
    )
    return header + render_table(
        ["k", "edges", "vertices", "boundary", "internal frac", "modularity"], rows
    )
