"""Smoke test for ``python -m repro.bench perf`` and its JSON artefact."""

from __future__ import annotations

import json

import pytest

from repro.bench.perf import SCHEMA_VERSION, run_perf, write_report
from repro.graph.generators import holme_kim

ROW_KEYS = {
    "dataset",
    "algorithm",
    "p",
    "seed",
    "edges",
    "seconds",
    "edges_per_s",
    "rf",
}


@pytest.fixture(scope="module")
def report():
    """One tiny benchmark run shared by every schema assertion."""
    graph = holme_kim(250, 3, 0.3, seed=5)
    return run_perf(graph, dataset="tiny", p=4, seeds=(0,), quick=True)


class TestPerfReport:
    def test_top_level_schema(self, report):
        assert report["version"] == SCHEMA_VERSION
        assert report["quick"] is True
        assert report["dataset"] == "tiny"
        assert report["p"] == 4
        assert report["seeds"] == [0]
        assert report["edges"] > 0
        assert "speedup" not in report

    def test_rows_schema(self, report):
        assert report["results"], "benchmark produced no rows"
        for row in report["results"]:
            assert set(row) == ROW_KEYS
            assert row["edges"] == report["edges"]
            assert row["seconds"] >= 0
            assert row["rf"] >= 1.0

    def test_contenders_present(self, report):
        algorithms = [r["algorithm"] for r in report["results"]]
        assert algorithms.count("TLP") == len(report["seeds"])
        assert {"TLP_R(R=0.5)", "METIS", "LDG"} <= set(algorithms)

    def test_write_report_round_trips(self, report, tmp_path):
        path = write_report(report, str(tmp_path / "BENCH_perf.json"))
        loaded = json.loads((tmp_path / "BENCH_perf.json").read_text())
        assert loaded == report
        assert not list(tmp_path.glob("*.tmp"))
