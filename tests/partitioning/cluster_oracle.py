"""Reference oracle for the LPT cluster packing: the O(c·p) scan.

:func:`map_clusters_scan` is :func:`~repro.partitioning.oocore.cluster.
map_clusters` as first written: for each cluster, largest volume first,
a ``min`` over every partition's ``(load, k)``.  It is the executable
specification the heap version is pinned against.
"""

from __future__ import annotations

from typing import Dict


def map_clusters_scan(volume: Dict[int, int], num_partitions: int) -> Dict[int, int]:
    """Cluster -> partition by scanning all ``num_partitions`` loads per cluster."""
    loads = [0] * num_partitions
    mapping: Dict[int, int] = {}
    for cluster, vol in sorted(volume.items(), key=lambda kv: (-kv[1], kv[0])):
        k = min(range(num_partitions), key=lambda i: (loads[i], i))
        mapping[cluster] = k
        loads[k] += vol
    return mapping
