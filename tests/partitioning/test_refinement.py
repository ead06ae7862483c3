"""Move-only refinement: the local-search refiner with swaps off.

``LocalSearchRefiner(swaps=False)`` (the ``refine --no-swaps`` command)
applies positive-gain boundary moves only.  These tests pin that mode's
contract: RF never rises, the edge set and the capacity bound hold, and
a perfectly balanced input needs slack before moves can help.
"""

import math

import pytest

from repro.core.tlp import TLPPartitioner
from repro.graph.generators import holme_kim
from repro.graph.graph import Graph
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.metrics import edge_balance, replication_factor
from repro.partitioning.random_edge import RandomPartitioner
from repro.partitioning.refine import LocalSearchRefiner


def refine_moves(partition, **options):
    """Move-only local search; returns ``(refined, stats)``."""
    return LocalSearchRefiner(swaps=False, **options).refine(partition)


class TestRefineReplication:
    def test_fixes_obvious_misplacement(self):
        """An edge whose endpoints both live elsewhere gets pulled home."""
        # Partition 0 holds a triangle; one of its edges strayed into 1.
        part = EdgePartition([[(0, 1), (1, 2)], [(0, 2)], [(5, 6), (6, 7)]])
        refined, stats = refine_moves(part, capacity=3)
        assert refined.partition_of(0, 2) == 0
        assert stats.moves >= 1
        assert stats.replicas_saved == 2  # 0 and 2 each lose a replica

    def test_rf_never_increases(self, communities):
        for name_seed in range(3):
            before = RandomPartitioner(seed=name_seed).partition(communities, 6)
            refined, _ = refine_moves(before)
            assert replication_factor(refined, communities) <= replication_factor(
                before, communities
            )

    def test_preserves_edge_set(self, communities):
        before = RandomPartitioner(seed=0).partition(communities, 6)
        refined, _ = refine_moves(before)
        refined.validate_against(communities)

    def test_respects_capacity(self, communities):
        p = 6
        before = RandomPartitioner(seed=0).partition(communities, p)
        refined, _ = refine_moves(before)
        cap = max(
            math.ceil(communities.num_edges / p), max(before.partition_sizes())
        )
        assert max(refined.partition_sizes()) <= cap

    def test_improves_random_substantially_with_slack(self):
        g = holme_kim(600, 5, 0.5, seed=1)
        before = RandomPartitioner(seed=0).partition(g, 8)
        refined, stats = refine_moves(before, slack=1.1)
        rf_before = replication_factor(before, g)
        rf_after = replication_factor(refined, g)
        assert rf_after < rf_before - 0.3
        assert stats.replicas_saved > 0
        assert edge_balance(refined) <= 1.1 + 0.01

    def test_exactly_balanced_input_is_capacity_starved(self, communities):
        """Without slack a perfectly balanced input admits almost no moves —
        the limitation the slack parameter (or the swap phase) lifts."""
        before = RandomPartitioner(seed=0).partition(communities, 6)
        _, strict_stats = refine_moves(before, slack=1.0)
        _, slack_stats = refine_moves(before, slack=1.1)
        assert slack_stats.replicas_saved >= strict_stats.replicas_saved

    def test_invalid_slack(self, communities):
        before = RandomPartitioner(seed=0).partition(communities, 6)
        with pytest.raises(ValueError):
            refine_moves(before, slack=0.9)

    def test_tlp_already_near_fixpoint(self, communities):
        """A good partitioning leaves little for move-only refinement."""
        before = TLPPartitioner(seed=0).partition(communities, 6)
        refined, stats = refine_moves(before)
        rf_before = replication_factor(before, communities)
        rf_after = replication_factor(refined, communities)
        assert rf_after <= rf_before
        assert rf_before - rf_after < 0.25

    def test_stats_consistent(self, communities):
        before = RandomPartitioner(seed=0).partition(communities, 6)
        refined, stats = refine_moves(before)
        from repro.partitioning.metrics import total_replicas

        assert stats.replicas_after == total_replicas(refined)
        assert stats.replicas_before == total_replicas(before)
        assert stats.passes >= 1

    def test_converges_with_zero_moves_pass(self, communities):
        before = TLPPartitioner(seed=0).partition(communities, 6)
        refined_once, stats1 = refine_moves(before)
        refined_twice, stats2 = refine_moves(refined_once)
        assert stats2.moves == 0 or stats2.replicas_saved >= 0

    def test_single_partition_noop(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        part = EdgePartition([g.edge_list()])
        refined, stats = refine_moves(part)
        assert stats.moves == 0
        assert refined.partition_sizes() == part.partition_sizes()

    def test_empty_partition(self):
        refined, stats = refine_moves(EdgePartition([[], []]))
        assert stats.moves == 0
        assert refined.num_edges == 0
