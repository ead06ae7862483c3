"""Out-of-core two-pass streaming edge partitioning.

Partition and bundle graphs far larger than RAM: pass 1 streams the
edge file through bounded-memory clustering and degree sketching
(2PS, arXiv:2001.07086), pass 2 re-streams it through the shared
cluster-aware HDRF/greedy scorer into per-partition spill files, and
the bundle stage external-sorts each spill into
:func:`~repro.partitioning.serialization.write_bundle`, the writer
behind ``save_partition`` too, one partition at a time: edge files,
manifest and mmap-able CSR sidecar, byte-identical to an in-memory save.

Front door: :func:`~repro.partitioning.oocore.pipeline.partition_stream`
(CLI: ``python -m repro partition-stream``).  In-memory registry
adapter: ``"2PS"``.
"""

from repro.partitioning.oocore.pipeline import (
    BudgetPlan,
    OocoreResult,
    load_refined_offsets,
    partition_stream,
)
from repro.partitioning.oocore.partitioner import TwoPhaseStreamingPartitioner

__all__ = [
    "BudgetPlan",
    "OocoreResult",
    "TwoPhaseStreamingPartitioner",
    "load_refined_offsets",
    "partition_stream",
]
