"""Per-selection telemetry for local partitioning runs.

Reproduces the raw material of the paper's Table VI ("the average degree of
all vertices in two stages"): every selected vertex is recorded with the
partition it joined, the stage that selected it, its degree in the original
graph, and how many edges its selection allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.stages import STAGE_ONE, STAGE_TWO


@dataclass
class SelectionRecord:
    """One vertex selection during a round."""

    partition: int
    stage: int
    vertex: int
    degree: int
    allocated: int


@dataclass
class StageTelemetry:
    """Accumulates selection records across a whole partitioning run."""

    records: List[SelectionRecord] = field(default_factory=list)
    reseeds: int = 0
    #: Peak of (partition edges + frontier size) over the whole run — the
    #: working-set measure behind the paper's O(L d) space claim (§III-E).
    peak_local_state: int = 0

    def record(
        self, partition: int, stage: int, vertex: int, degree: int, allocated: int
    ) -> None:
        """Log one selection."""
        self.records.append(SelectionRecord(partition, stage, vertex, degree, allocated))

    def record_batch(
        self,
        partition: int,
        stages: List[int],
        vertices: List[int],
        degrees: List[int],
        allocated: List[int],
    ) -> None:
        """Log a whole round of selections at once (the compiled kernel)."""
        self.records.extend(
            SelectionRecord(partition, s, v, d, a)
            for s, v, d, a in zip(stages, vertices, degrees, allocated)
        )

    def record_reseed(self) -> None:
        """Log a mid-round reseed (disconnected residual)."""
        self.reseeds += 1

    def record_local_state(self, held: int) -> None:
        """Track the peak working-set size (edges held + frontier entries)."""
        if held > self.peak_local_state:
            self.peak_local_state = held

    def degrees_in_stage(self, stage: int) -> List[int]:
        """Degrees (in G) of every vertex selected in ``stage``."""
        return [rec.degree for rec in self.records if rec.stage == stage]

    def mean_degree(self, stage: int) -> float:
        """Average degree of the vertices selected in ``stage`` (Table VI)."""
        degrees = self.degrees_in_stage(stage)
        return sum(degrees) / len(degrees) if degrees else 0.0

    def selection_count(self, stage: int) -> int:
        """How many selections the stage made."""
        return sum(1 for rec in self.records if rec.stage == stage)

    def stage_fraction(self, stage: int) -> float:
        """Fraction of all selections made in ``stage``."""
        if not self.records:
            return 0.0
        return self.selection_count(stage) / len(self.records)

    def summary(self) -> Dict[str, float]:
        """The Table-VI style summary."""
        return {
            "stage1_mean_degree": self.mean_degree(STAGE_ONE),
            "stage2_mean_degree": self.mean_degree(STAGE_TWO),
            "stage1_selections": float(self.selection_count(STAGE_ONE)),
            "stage2_selections": float(self.selection_count(STAGE_TWO)),
            "reseeds": float(self.reseeds),
        }
