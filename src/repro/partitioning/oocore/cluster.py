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

from typing import Dict, Iterable, Tuple

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

    def _cap(self) -> float:
        """Max volume a cluster may reach, from the stream so far."""
        return max(
            2.0, self.volume_slack * self.total_volume / self.target_clusters
        )

    def _ensure(self, vertex: int, degree: int) -> int:
        """Cluster of ``vertex``, folding its degree growth into the volume."""
        cluster = self.cluster_of.get(vertex)
        if cluster is None:
            cluster = self._next_cluster
            self._next_cluster += 1
            self.cluster_of[vertex] = cluster
            self.volume[cluster] = degree
        else:
            # The arriving edge grew this member's degree by one.
            try:
                self.volume[cluster] += 1
            except KeyError:
                # A count-min over-estimate of an earlier mover's degree
                # drained the cluster while members remained; it lives on
                # with this member's growth.
                self.volume[cluster] = 1
        return cluster

    def add_edge(self, u: int, v: int) -> None:
        """Fold one edge into the sketch and the clustering."""
        self.observe(u, v, self.sketch.add(u), self.sketch.add(v))

    def observe(self, u: int, v: int, du: int, dv: int) -> None:
        """Fold one edge whose endpoints' new degrees are ``du``/``dv``.

        The degree sketch must already count the edge.  :meth:`add_edge`
        does both; the pipeline updates the sketch itself (hashing a
        batch at a time once it is count-min) and then calls this.
        """
        self.total_volume += 2
        cu = self._ensure(u, du)
        cv = self._ensure(v, dv)
        if cu == cv:
            return
        # The lower-degree endpoint moves (ties: the first endpoint) — its
        # replicas are the cheaper ones to avoid, per the HDRF intuition.
        if du <= dv:
            mover, md, source, target = u, du, cu, cv
        else:
            mover, md, source, target = v, dv, cv, cu
        if self.volume[target] + md <= self._cap():
            self.cluster_of[mover] = target
            self.volume[source] -= md
            self.volume[target] += md
            if self.volume[source] <= 0:
                del self.volume[source]

    def consume(self, edges: Iterable[Tuple[int, int]]) -> None:
        for u, v in edges:
            self.add_edge(u, v)

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
    """
    loads = [0] * num_partitions
    mapping: Dict[int, int] = {}
    for cluster, vol in sorted(volume.items(), key=lambda kv: (-kv[1], kv[0])):
        k = min(range(num_partitions), key=lambda i: (loads[i], i))
        mapping[cluster] = k
        loads[k] += vol
    return mapping
