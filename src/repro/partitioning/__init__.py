"""Edge-partitioning framework, baselines, and quality metrics."""

from repro.partitioning.assignment import EdgePartition
from repro.partitioning.base import (
    EdgePartitioner,
    StreamingEdgePartitioner,
    VertexPartitioner,
    default_capacity,
)
from repro.partitioning.dbh import DBHPartitioner
from repro.partitioning.fennel import FennelPartitioner
from repro.partitioning.greedy import GreedyPartitioner
from repro.partitioning.grid import GridPartitioner
from repro.partitioning.hdrf import HDRFPartitioner
from repro.partitioning.kl import KLPartitioner
from repro.partitioning.ldg import LDGPartitioner
from repro.partitioning.metis import MetisLikePartitioner
from repro.partitioning.metrics import (
    PartitionReport,
    edge_balance,
    external_incidences,
    partition_modularities,
    replication_factor,
    rf_from_modularities,
    spanned_vertex_count,
    total_replicas,
)
from repro.partitioning.ne import NEPartitioner
from repro.partitioning.random_edge import RandomPartitioner
from repro.partitioning.serialization import load_partition, save_partition
from repro.partitioning.registry import (
    EXTENDED_ALGORITHMS,
    PAPER_ALGORITHMS,
    available_partitioners,
    make_partitioner,
    register_partitioner,
)
from repro.partitioning.vertex_adapter import (
    VertexToEdgePartitioner,
    edges_from_vertex_assignment,
)
from repro.partitioning.vertex_metrics import (
    cross_partition_edges,
    edge_load_balance,
    ghost_count,
    vertex_balance,
    vertex_replication_factor,
)

__all__ = [
    "EdgePartition",
    "EdgePartitioner",
    "StreamingEdgePartitioner",
    "VertexPartitioner",
    "default_capacity",
    "DBHPartitioner",
    "FennelPartitioner",
    "GreedyPartitioner",
    "GridPartitioner",
    "HDRFPartitioner",
    "LDGPartitioner",
    "MetisLikePartitioner",
    "PartitionReport",
    "edge_balance",
    "external_incidences",
    "partition_modularities",
    "replication_factor",
    "rf_from_modularities",
    "spanned_vertex_count",
    "total_replicas",
    "NEPartitioner",
    "RandomPartitioner",
    "load_partition",
    "save_partition",
    "EXTENDED_ALGORITHMS",
    "PAPER_ALGORITHMS",
    "available_partitioners",
    "make_partitioner",
    "register_partitioner",
    "VertexToEdgePartitioner",
    "edges_from_vertex_assignment",
    "KLPartitioner",
    "cross_partition_edges",
    "edge_load_balance",
    "ghost_count",
    "vertex_balance",
    "vertex_replication_factor",
]
