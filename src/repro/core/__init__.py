"""The paper's contribution: local graph edge partitioning with two stages."""

from repro.core.dynamic import DynamicPartitioner
from repro.core.local import LocalEdgePartitioner
from repro.core.modularity import (
    claim1_rf_estimate,
    degree_sum_identity_residuals,
    exact_rf_decomposition,
    rf_estimate_from_partition,
)
from repro.core.stages import (
    STAGE_ONE,
    STAGE_TWO,
    EdgeCountStagePolicy,
    FixedStagePolicy,
    ModularityStagePolicy,
    StagePolicy,
)
from repro.core.telemetry import SelectionRecord, StageTelemetry
from repro.core.tlp import (
    StageOneOnlyPartitioner,
    StageTwoOnlyPartitioner,
    TLPPartitioner,
)
from repro.core.tlp_r import TLPRPartitioner
from repro.core.windowed import WindowedLocalPartitioner

__all__ = [
    "DynamicPartitioner",
    "LocalEdgePartitioner",
    "claim1_rf_estimate",
    "degree_sum_identity_residuals",
    "exact_rf_decomposition",
    "rf_estimate_from_partition",
    "STAGE_ONE",
    "STAGE_TWO",
    "EdgeCountStagePolicy",
    "FixedStagePolicy",
    "ModularityStagePolicy",
    "StagePolicy",
    "SelectionRecord",
    "StageTelemetry",
    "StageOneOnlyPartitioner",
    "StageTwoOnlyPartitioner",
    "TLPPartitioner",
    "TLPRPartitioner",
    "WindowedLocalPartitioner",
]
