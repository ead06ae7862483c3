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


def test_tlp_warm_up_call_is_not_timed(monkeypatch):
    """The first TLP call runs before any timed row, and records none."""
    from repro.bench import perf
    from repro.core.tlp import TLPPartitioner

    timing = [False]
    calls = []
    partition, timed = TLPPartitioner.partition, perf._timed

    def spy_partition(self, *args, **kwargs):
        calls.append(timing[0])
        return partition(self, *args, **kwargs)

    def spy_timed(*args):
        timing[0] = True
        try:
            return timed(*args)
        finally:
            timing[0] = False

    monkeypatch.setattr(TLPPartitioner, "partition", spy_partition)
    monkeypatch.setattr(perf, "_timed", spy_timed)
    seeds = (0, 1)
    report = run_perf(holme_kim(120, 3, 0.3, seed=5), p=4, seeds=seeds, quick=True)
    assert calls[0] is False  # the warm-up
    assert calls[1:].count(True) == len(seeds)
    tlp_rows = [r for r in report["results"] if r["algorithm"] == "TLP"]
    assert [r["seed"] for r in tlp_rows] == list(seeds)
