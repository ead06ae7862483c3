"""Replication-refinement bench — the library's post-processing extension.

The paper's conclusion anticipates further quality improvements; this bench
measures what local-search RF refinement (boundary moves and pair swaps)
buys on top of each Fig. 8 algorithm, and verifies TLP is already near the
refinement fixpoint (evidence its local growth leaves little on the table).
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.bench.report import render_table
from repro.partitioning.metrics import replication_factor
from repro.partitioning.refine import LocalSearchRefiner
from repro.partitioning.registry import PAPER_ALGORITHMS, make_partitioner

REFINER = LocalSearchRefiner(slack=1.05)


@pytest.fixture(scope="module")
def refinement_rows(g4):
    rows = {}
    table = []
    for name in PAPER_ALGORITHMS:
        before = make_partitioner(name, seed=0).partition(g4, 10)
        refined, stats = REFINER.refine(before)
        refined.validate_against(g4)
        rf_before = replication_factor(before, g4)
        rf_after = replication_factor(refined, g4)
        rows[name] = (rf_before, rf_after, stats.applied)
        table.append(
            [name, rf_before, rf_after, rf_before - rf_after, stats.moves, stats.swaps]
        )
    table.sort(key=lambda row: row[2])
    write_artifact(
        "refinement.txt",
        render_table(
            ["algorithm", "RF before", "RF after", "gain", "moves", "swaps"], table
        ),
    )
    return rows


def test_refinement_never_hurts(benchmark, refinement_rows):
    def violators():
        return [
            name
            for name, (before, after, _) in refinement_rows.items()
            if after > before + 1e-12
        ]

    assert benchmark.pedantic(violators, rounds=1, iterations=1) == []


def test_random_gains_most(benchmark, refinement_rows):
    def gains():
        return {
            name: before - after
            for name, (before, after, _) in refinement_rows.items()
        }

    values = benchmark.pedantic(gains, rounds=1, iterations=1)
    assert values["Random"] == max(values.values())


def test_tlp_near_fixpoint(benchmark, refinement_rows):
    def tlp_gain():
        before, after, _ = refinement_rows["TLP"]
        return before - after

    gain = benchmark.pedantic(tlp_gain, rounds=1, iterations=1)
    assert gain < 0.35


def test_refinement_kernel(benchmark, g4):
    before = make_partitioner("Random", seed=0).partition(g4, 10)
    refined, stats = benchmark.pedantic(
        lambda: REFINER.refine(before), rounds=3, iterations=1
    )
    assert stats.replicas_saved > 0
