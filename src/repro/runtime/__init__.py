"""Distributed graph-computation simulator (PowerGraph-style GAS engine)."""

from repro.runtime.engine import EngineResult, GASEngine
from repro.runtime.programs import (
    ConnectedComponents,
    GASProgram,
    KCoreDecomposition,
    PageRank,
    SingleSourceShortestPaths,
    h_index,
    reference_coreness,
    run_reference,
)
from repro.runtime.replication import ReplicationTable
from repro.runtime.stats import (
    MachineLoad,
    RunStats,
    SuperstepStats,
    estimate_makespan,
    load_imbalance,
)

__all__ = [
    "EngineResult",
    "GASEngine",
    "ConnectedComponents",
    "GASProgram",
    "KCoreDecomposition",
    "PageRank",
    "SingleSourceShortestPaths",
    "h_index",
    "reference_coreness",
    "run_reference",
    "ReplicationTable",
    "MachineLoad",
    "RunStats",
    "SuperstepStats",
    "estimate_makespan",
    "load_imbalance",
]
