"""In-memory adapter: the two-pass heuristic as a registry partitioner.

Runs the exact pass-1 clustering and pass-2 placement of the out-of-core
pipeline over an in-memory edge sequence, so the 2PS heuristic slots
into the experiment harness (``"2PS"`` in the registry) and its RF can
sit in the same comparison tables as TLP/HDRF/DBH — and so the parity
suite can pin streamed placements against this adapter edge-for-edge.
Placement goes through the same :meth:`StreamingPlacer.place_batch`,
with the whole stream as one batch.  The only difference from :func:`~repro.partitioning.oocore.pipeline.
partition_stream` is that edges come from a list instead of a file and
the result is an :class:`~repro.partitioning.assignment.EdgePartition`
instead of a bundle on disk.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.graph.graph import Edge, Graph, normalize_edge
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.base import StreamingEdgePartitioner
from repro.partitioning.oocore.cluster import (
    CLUSTERS_PER_PARTITION,
    StreamingClustering,
    map_clusters,
)
from repro.partitioning.oocore.place import (
    DEFAULT_GAMMA,
    StreamingPlacer,
    affinity_targets,
)
from repro.partitioning.oocore.sketch import DegreeSketch
from repro.utils.rng import Seed


class TwoPhaseStreamingPartitioner(StreamingEdgePartitioner):
    """2PS-style two-pass streaming partitioner (in-memory adapter).

    Deterministic: placement ties break to the lowest partition id, so
    ``seed`` is accepted for registry uniformity but unused.
    """

    name = "2PS"

    def __init__(
        self,
        lam: float = 1.1,
        epsilon: float = 1.0,
        gamma: float = DEFAULT_GAMMA,
        policy: str = "hdrf",
        cluster: bool = True,
        clusters_per_partition: int = CLUSTERS_PER_PARTITION,
        offsets: Optional[Sequence[int]] = None,
        seed: Seed = None,
    ) -> None:
        self.lam = lam
        self.epsilon = epsilon
        self.gamma = gamma
        self.policy = policy
        self.cluster = cluster
        self.clusters_per_partition = clusters_per_partition
        self.offsets = list(offsets) if offsets is not None else None
        self.seed = seed

    def assign_stream(
        self,
        edges: Iterable[Edge],
        num_partitions: int,
        graph: Optional[Graph] = None,
    ) -> EdgePartition:
        stream: List[Edge] = [
            (u, v) for u, v in edges if u != v
        ]  # the pipeline needs two passes; self loops are skipped there too
        sketch = DegreeSketch(max_exact_vertices=1 << 62, cm_width=1)
        affinity = {}
        if self.cluster:
            clustering = StreamingClustering(
                sketch,
                num_partitions,
                clusters_per_partition=self.clusters_per_partition,
            )
            clustering.consume(stream)
            affinity = affinity_targets(
                clustering.cluster_of, map_clusters(clustering.volume, num_partitions)
            )
        else:
            for u, v in stream:
                sketch.add(u)
                sketch.add(v)
        placer = StreamingPlacer(
            num_partitions,
            sketch,
            policy=self.policy,
            lam=self.lam,
            epsilon=self.epsilon,
            gamma=self.gamma,
            affinity=affinity,
            offsets=self.offsets,
        )
        placed = [normalize_edge(u, v) for u, v in stream]
        assignment = placer.place_batch(
            [u for u, _ in placed], [v for _, v in placed]
        )
        return EdgePartition.from_assignment(placed, assignment, num_partitions)
