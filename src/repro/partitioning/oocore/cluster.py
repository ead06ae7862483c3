"""Pass 1: volume-capped streaming label propagation (2PS §3).

One sweep over the edge stream builds a coarse clustering without ever
holding edges: every vertex starts as a singleton cluster, and for each
arriving edge the *lower-degree* endpoint tries to join the other
endpoint's cluster — degrees come from the shared
:class:`~repro.partitioning.oocore.sketch.DegreeSketch`, so "lower
degree" means "cheaper to move and more wasteful to replicate", exactly
the HDRF intuition.  A move is allowed only while the target cluster's
*volume* (sum of member degrees, the standard 2PS measure of how many
edge slots a cluster will claim) stays under a cap derived from the
volume streamed so far, which stops hub clusters from swallowing the
whole graph.

State is O(vertices): ``cluster_of`` (int -> int), per-cluster volumes,
and the degree sketch.  No member lists are kept — a vertex moves alone,
clusters never merge wholesale — which is what makes the pass streaming.

After the sweep, :func:`map_clusters` packs clusters onto partitions
with the LPT rule (largest volume first onto the least-loaded
partition), giving pass 2 its cluster -> partition affinity targets.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Sequence, Tuple

from repro.partitioning.oocore.sketch import DegreeSketch

#: Target clusters per partition: enough granularity that LPT can balance
#: partitions to within one cluster's volume, few enough that clusters
#: stay meaningfully larger than single vertices.
CLUSTERS_PER_PARTITION = 8

#: Slack over the perfectly-even per-cluster volume before the cap bites.
VOLUME_SLACK = 1.25


class StreamingClustering:
    """Volume-capped label propagation over one pass of the edge stream."""

    def __init__(
        self,
        sketch: DegreeSketch,
        num_partitions: int,
        clusters_per_partition: int = CLUSTERS_PER_PARTITION,
        volume_slack: float = VOLUME_SLACK,
    ) -> None:
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        self.sketch = sketch
        self.target_clusters = max(1, num_partitions * clusters_per_partition)
        self.volume_slack = volume_slack
        self.cluster_of: Dict[int, int] = {}
        self.volume: Dict[int, int] = {}
        self.total_volume = 0
        self._next_cluster = 0

    def add_edge(self, u: int, v: int) -> None:
        """Fold one edge into the sketch and the clustering."""
        self.observe_many([(u, v)], [self.sketch.add(u), self.sketch.add(v)])

    def observe_many(
        self, edges: Sequence[Sequence[int]], degrees: Sequence[int]
    ) -> None:
        """Fold ``edges`` whose endpoints' new degrees are ``degrees``.

        ``degrees`` interleaves the two endpoints' degrees, edge by edge
        (``u0, v0, u1, v1, ...``), each as the sketch returned it when
        that endpoint was counted.  The sketch must already count the
        edges; the clustering only reads those answers, so the pipeline
        counts a whole batch first (in one hashing call when the sketch
        is count-min) and then hands the batch over.
        """
        cluster_of = self.cluster_of
        volume = self.volume
        slack = self.volume_slack
        target_clusters = self.target_clusters
        total = self.total_volume
        fresh = self._next_cluster
        for (u, v), du, dv in zip(edges, degrees[0::2], degrees[1::2]):
            total += 2
            # Each endpoint's cluster, folding its degree growth into the
            # volume: a new vertex opens a cluster with its degree, a
            # known one adds the arriving edge's unit.  (A count-min
            # over-estimate of an earlier mover's degree can drain a
            # cluster while members remain; it lives on with their
            # growth.)
            cu = cluster_of.get(u)
            if cu is None:
                cu = cluster_of[u] = fresh
                fresh += 1
                volume[cu] = du
            else:
                volume[cu] = volume.get(cu, 0) + 1
            cv = cluster_of.get(v)
            if cv is None:
                cv = cluster_of[v] = fresh
                fresh += 1
                volume[cv] = dv
            else:
                volume[cv] = volume.get(cv, 0) + 1
            if cu == cv:
                continue
            # The lower-degree endpoint moves (ties: the first endpoint) —
            # its replicas are the cheaper ones to avoid, per the HDRF
            # intuition — while the target stays under the volume cap
            # derived from the stream so far.
            if du <= dv:
                mover, md, source, target = u, du, cu, cv
            else:
                mover, md, source, target = v, dv, cv, cu
            if volume[target] + md <= max(2.0, slack * total / target_clusters):
                cluster_of[mover] = target
                volume[source] -= md
                volume[target] += md
                if volume[source] <= 0:
                    del volume[source]
        self.total_volume = total
        self._next_cluster = fresh

    def consume(self, edges: Iterable[Tuple[int, int]]) -> None:
        """Fold every edge of ``edges`` into the sketch and the clustering."""
        pairs = list(edges)
        add = self.sketch.add
        self.observe_many(pairs, [add(x) for edge in pairs for x in edge])

    @property
    def num_clusters(self) -> int:
        """Clusters still holding volume."""
        return len(self.volume)


def map_clusters(
    volume: Dict[int, int], num_partitions: int
) -> Dict[int, int]:
    """LPT packing of clusters onto partitions.

    Largest-volume cluster first onto the currently least-loaded
    partition; deterministic (volume ties break to the lower cluster id,
    load ties to the lower partition id).  Returns cluster -> partition.
    The least-loaded partition is the top of a heap of ``(load, k)``, so
    ``c`` clusters cost O(c log p).
    """
    loads = [(0, k) for k in range(num_partitions)]  # sorted, so a heap
    mapping: Dict[int, int] = {}
    for cluster, vol in sorted(volume.items(), key=lambda kv: (-kv[1], kv[0])):
        load, k = loads[0]
        mapping[cluster] = k
        heapq.heapreplace(loads, (load + vol, k))
    return mapping
