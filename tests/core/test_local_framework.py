"""Tests of the generic local-partitioning framework not covered elsewhere."""

from repro.core.local import LocalEdgePartitioner
from repro.core.stages import (
    EdgeCountStagePolicy,
    FixedStagePolicy,
    ModularityStagePolicy,
)
from repro.graph.generators import path_graph


class TestCustomPolicies:
    def test_custom_policy_object(self, small_social):
        """Any StagePolicy implementation drives the same framework."""

        class AlwaysStageTwoAfterTen(ModularityStagePolicy):
            def stage(self, state, capacity):
                return 2 if state.internal > 10 else 1

        partitioner = LocalEdgePartitioner(AlwaysStageTwoAfterTen(), seed=0)
        part = partitioner.partition(small_social, 4)
        part.validate_against(small_social)

    def test_policy_is_shared_across_rounds(self, small_social):
        policy = EdgeCountStagePolicy(0.5)
        partitioner = LocalEdgePartitioner(policy, seed=0)
        partitioner.partition(small_social, 4)
        assert partitioner.stage_policy is policy

    def test_name_attribute(self):
        partitioner = LocalEdgePartitioner(FixedStagePolicy(2), seed=0)
        assert partitioner.name == "Local"


class TestCapacityEdgeCases:
    def test_exact_multiple(self):
        """m divisible by p: every partition exactly full in strict mode."""
        g = path_graph(21)  # 20 edges
        partitioner = LocalEdgePartitioner(FixedStagePolicy(2), seed=0)
        part = partitioner.partition(g, 4)
        assert part.partition_sizes() == [5, 5, 5, 5]

    def test_remainder_goes_to_last(self):
        g = path_graph(12)  # 11 edges, p=3 -> C=4
        partitioner = LocalEdgePartitioner(FixedStagePolicy(2), seed=0)
        part = partitioner.partition(g, 3)
        sizes = part.partition_sizes()
        assert sum(sizes) == 11
        assert max(sizes) <= 4

    def test_two_partition_split(self, small_social):
        partitioner = LocalEdgePartitioner(ModularityStagePolicy(), seed=0)
        part = partitioner.partition(small_social, 2)
        part.validate_against(small_social)


class TestTelemetryAccounting:
    def test_allocated_counts_sum_to_edges(self, small_social):
        partitioner = LocalEdgePartitioner(ModularityStagePolicy(), seed=0)
        part = partitioner.partition(small_social, 4)
        allocated = sum(
            rec.allocated for rec in partitioner.last_telemetry.records
        )
        assert allocated == small_social.num_edges

    def test_partition_indices_in_range(self, small_social):
        partitioner = LocalEdgePartitioner(ModularityStagePolicy(), seed=0)
        partitioner.partition(small_social, 4)
        assert all(
            0 <= rec.partition < 4 for rec in partitioner.last_telemetry.records
        )

    def test_telemetry_reset_between_runs(self, small_social):
        partitioner = LocalEdgePartitioner(ModularityStagePolicy(), seed=0)
        partitioner.partition(small_social, 4)
        first = len(partitioner.last_telemetry.records)
        partitioner.partition(small_social, 4)
        assert len(partitioner.last_telemetry.records) == first

    def test_vertices_recorded_are_graph_vertices(self, small_social):
        partitioner = LocalEdgePartitioner(ModularityStagePolicy(), seed=0)
        partitioner.partition(small_social, 4)
        for rec in partitioner.last_telemetry.records:
            assert small_social.has_vertex(rec.vertex)
            assert rec.degree == small_social.degree(rec.vertex)
