"""Tests of the paper's O(L d) space claim via the peak-state telemetry."""

import math

from repro.core.tlp import TLPPartitioner
from repro.graph.generators import holme_kim


class TestPeakLocalState:
    def test_peak_state_recorded(self, small_social):
        partitioner = TLPPartitioner(seed=0)
        partitioner.partition(small_social, 5)
        assert partitioner.last_telemetry.peak_local_state > 0

    def test_peak_state_bounded_by_partition_plus_frontier(self, medium_social):
        """Working set <= C (held edges) + frontier, and the frontier is at
        most the partition's boundary neighbourhood — far below m."""
        p = 10
        partitioner = TLPPartitioner(seed=0)
        partitioner.partition(medium_social, p)
        peak = partitioner.last_telemetry.peak_local_state
        capacity = math.ceil(medium_social.num_edges / p)
        # Frontier cannot exceed the number of vertices.
        assert peak <= capacity + medium_social.num_vertices
        # And the whole point: the working set is well below the graph.
        assert peak < medium_social.num_edges

    def test_peak_state_shrinks_with_more_partitions(self):
        """Smaller capacity -> smaller working set (the L in O(Ld))."""
        g = holme_kim(2000, 5, 0.5, seed=1)
        peaks = {}
        for p in (2, 20):
            partitioner = TLPPartitioner(seed=0)
            partitioner.partition(g, p)
            peaks[p] = partitioner.last_telemetry.peak_local_state
        assert peaks[20] < peaks[2]

    def test_peak_state_scales_with_capacity_not_graph(self):
        """Doubling the graph at fixed p doubles C; at fixed C (p grows
        proportionally) the peak stays in the same band."""
        small = holme_kim(1000, 5, 0.5, seed=2)
        large = holme_kim(2000, 5, 0.5, seed=2)
        peaks = {}
        for name, graph, p in (("small", small, 5), ("large", large, 10)):
            partitioner = TLPPartitioner(seed=0)
            partitioner.partition(graph, p)
            peaks[name] = partitioner.last_telemetry.peak_local_state
        # Same capacity => comparable working sets despite 2x edges.
        assert peaks["large"] < 2.1 * peaks["small"]
