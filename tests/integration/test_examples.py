"""Smoke tests: the example scripts run to completion and print their story."""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    assert result.returncode == 0, f"{name} failed:\n{result.stderr}"
    return result.stdout


class TestExamplesRun:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "replication factor" in out
        assert "stage i" in out.lower()

    def test_stage_anatomy(self):
        out = run_example("stage_anatomy.py")
        assert "partition finished" in out

    def test_community_lineage(self):
        out = run_example("community_lineage.py")
        assert "NMI" in out
        assert "M > 1" in out

    def test_compare_partitioners_small(self):
        result = subprocess.run(
            [
                sys.executable,
                str(EXAMPLES / "compare_partitioners.py"),
                "--dataset",
                "G1",
                "--scale",
                "0.05",
                "--partitions",
                "4",
            ],
            capture_output=True,
            text=True,
            timeout=240,
            check=False,
        )
        assert result.returncode == 0, result.stderr
        assert "TLP" in result.stdout
