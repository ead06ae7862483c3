"""Tests for the robustness sweeps (seed sensitivity, slack trade-off)."""

import pytest

from repro.bench.sweeps import (
    seed_sensitivity,
    slack_tradeoff,
)


class TestSeedSensitivity:
    def test_rows_sorted_by_mean(self, communities):
        rows = seed_sensitivity(
            communities, ["Random", "TLP"], 4, seeds=(0, 1)
        )
        means = [r.mean_rf for r in rows]
        assert means == sorted(means)
        assert rows[0].algorithm == "TLP"

    def test_statistics_consistent(self, communities):
        (row,) = seed_sensitivity(communities, ["TLP"], 4, seeds=(0, 1, 2))
        assert row.min_rf <= row.mean_rf <= row.max_rf
        assert row.std_rf >= 0
        assert row.spread == pytest.approx(row.max_rf - row.min_rf)

    def test_single_seed_zero_std(self, communities):
        (row,) = seed_sensitivity(communities, ["TLP"], 4, seeds=(0,))
        assert row.std_rf == 0.0
        assert row.spread == 0.0

    def test_tlp_stable_across_seeds(self, communities):
        (row,) = seed_sensitivity(communities, ["TLP"], 4, seeds=(0, 1, 2, 3))
        assert row.spread < 0.3  # the heuristics, not the seed, drive quality


class TestSlackTradeoff:
    def test_balance_tracks_slack(self, communities):
        rows = slack_tradeoff(communities, 6, slacks=(1.0, 1.3), seed=0)
        assert rows[0].edge_balance <= 1.0 + 1e-9 + 0.01
        assert rows[1].edge_balance <= 1.3 + 0.01

    def test_slack_never_hurts_much(self, communities):
        rows = slack_tradeoff(communities, 6, slacks=(1.0, 1.5), seed=0)
        assert rows[1].replication_factor <= rows[0].replication_factor + 0.2

    def test_row_fields(self, communities):
        rows = slack_tradeoff(communities, 6, slacks=(1.0,), seed=0)
        assert rows[0].slack == 1.0
        assert rows[0].replication_factor >= 1.0
