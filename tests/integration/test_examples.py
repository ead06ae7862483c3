"""Smoke tests: every example script runs to completion and prints its story."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Per example: extra command-line arguments and phrases its output must hold.
STORIES = {
    "compare_partitioners.py": (
        ["--dataset", "G1", "--scale", "0.05", "--partitions", "4"],
        ["TLP", "RF"],
    ),
    "distributed_pagerank.py": ([], ["TLP", "identical PageRank values"]),
    "fault_tolerance.py": ([], ["results identical to failure-free run : True"]),
    "quickstart.py": ([], ["replication factor", "stage I"]),
    "stage_anatomy.py": ([], ["partition finished"]),
    "streaming_vs_local.py": ([], ["TLP (local)", "peak retained state"]),
}


@pytest.mark.parametrize("name", sorted(path.name for path in EXAMPLES.glob("*.py")))
def test_example_runs(name):
    args, phrases = STORIES[name]
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=240,
        check=False,
    )
    assert result.returncode == 0, f"{name} failed:\n{result.stderr}"
    for phrase in phrases:
        assert phrase in result.stdout, f"{name} printed no {phrase!r}"
