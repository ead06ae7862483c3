"""Graph substrate: core types, construction, IO, generators, traversals."""

from repro.graph.builder import BuildStats, GraphBuilder
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.io import iter_edge_list, read_edge_list, write_edge_list
from repro.graph.residual import ResidualGraph
from repro.graph.traversal import (
    bfs_distances,
    bfs_edge_order,
    bfs_order,
    connected_components,
    dfs_order,
    is_connected,
    largest_component,
)

__all__ = [
    "BuildStats",
    "GraphBuilder",
    "Edge",
    "Graph",
    "normalize_edge",
    "iter_edge_list",
    "read_edge_list",
    "write_edge_list",
    "ResidualGraph",
    "bfs_distances",
    "bfs_edge_order",
    "bfs_order",
    "connected_components",
    "dfs_order",
    "is_connected",
    "largest_component",
]
