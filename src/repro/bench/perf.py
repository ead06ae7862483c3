"""Tracked throughput benchmark for the TLP hot path.

``python -m repro.bench perf`` times TLP and TLP_R on the G5 (Slashdot)
stand-in — through the compiled kernel when it builds, else the numpy
path — and writes the measurements to ``BENCH_perf.json`` so regressions
show up in review diffs.  Bit-for-bit parity with the dict-of-sets
reference loop is pinned by the test suite, not timed here.

METIS and LDG ride along as context: they bound what "fast" and "good"
mean for a non-local streaming heuristic and an offline partitioner on
the same workload.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.graph.graph import Graph
from repro.partitioning.metrics import replication_factor

#: Bump when the schema of ``BENCH_perf.json`` changes.
#: v2 adds the ``parallel`` section: ``grow_threads``, sequential vs
#: thread-pool growth timings, and the compaction-fold ``fold_seconds``
#: (all additive — v1 readers ignore it).
#: v3 adds the ``refine`` section written by ``python -m repro.bench
#: refine`` (local-search RF refinement: rf_before/rf_after/rf_delta,
#: moves/s, time-to-convergence per dataset x source partitioner).
#: v4 adds the ``oocore`` section written by ``python -m repro.bench
#: oocore`` (out-of-core streaming partitioner vs in-memory HDRF:
#: RF ratio, edges/s, and subprocess-measured peak RSS vs the byte
#: budget).
#: v5 drops ``fold_seconds_sequential`` and ``fold_identical`` from the
#: ``parallel`` section: the compaction fold has no thread pool, and
#: ``fold_seconds`` times its one sequential fold plus save.
#: v6 drops the ``reference`` TLP rows, the top-level ``speedup`` and the
#: per-row ``backend`` field: TLP has one growth path.
SCHEMA_VERSION = 6

#: The probe workload: G5 (Slashdot0811) is the largest stand-in that the
#: full benchmark finishes in a couple of minutes at scale 0.25.
PROBE_DATASET = "G5"
QUICK_SCALE = 0.05
FULL_SCALE = 0.25
DEFAULT_P = 8
DEFAULT_REPORT = "BENCH_perf.json"


@dataclass
class PerfRow:
    """One timed ``partition()`` call."""

    dataset: str
    algorithm: str
    p: int
    seed: int
    edges: int
    seconds: float
    edges_per_s: float
    rf: float


def _timed(partitioner, graph: Graph, p: int) -> tuple:
    start = time.perf_counter()
    partition = partitioner.partition(graph, p)
    seconds = time.perf_counter() - start
    return partition, seconds


def run_perf(
    graph: Graph,
    dataset: str = PROBE_DATASET,
    p: int = DEFAULT_P,
    seeds: Sequence[int] = (0, 1),
    quick: bool = False,
    progress: Optional[Callable[[PerfRow], None]] = None,
) -> Dict:
    """Time every contender on ``graph`` and assemble the report dict."""
    from repro.core.tlp import TLPPartitioner
    from repro.core.tlp_r import TLPRPartitioner
    from repro.partitioning.registry import make_partitioner

    # Pay the one-off kernel compilation outside the timed region.
    from repro._native import load_kernel

    load_kernel()
    # One untimed TLP call: the first call in a process pays one-off
    # warm-up costs that would otherwise land on the first seed's row.
    if seeds:
        TLPPartitioner(seed=seeds[0]).partition(graph, p)

    rows: List[PerfRow] = []

    def record(algorithm: str, partitioner, seed: int) -> None:
        partition, seconds = _timed(partitioner, graph, p)
        row = PerfRow(
            dataset=dataset,
            algorithm=algorithm,
            p=p,
            seed=seed,
            edges=graph.num_edges,
            seconds=round(seconds, 4),
            edges_per_s=round(graph.num_edges / seconds) if seconds else 0.0,
            rf=round(replication_factor(partition, graph), 6),
        )
        rows.append(row)
        if progress is not None:
            progress(row)

    for seed in seeds:
        record("TLP", TLPPartitioner(seed=seed), seed)
        record("TLP_R(R=0.5)", TLPRPartitioner(0.5, seed=seed), seed)
        record("METIS", make_partitioner("METIS", seed=seed), seed)
        record("LDG", make_partitioner("LDG", seed=seed), seed)

    return {
        "version": SCHEMA_VERSION,
        "quick": quick,
        "dataset": dataset,
        "p": p,
        "seeds": list(seeds),
        "edges": graph.num_edges,
        "parallel": _parallel_section(graph, p, seeds),
        "results": [asdict(row) for row in rows],
    }


def _parallel_section(graph: Graph, p: int, seeds: Sequence[int]) -> Dict:
    """Measure thread-pool growth vs sequential, and one compaction fold.

    The growth measurement doubles as an identity check: the threaded
    growth jobs must reproduce the sequential partitionings exactly.  On
    a 1-core host the timings tie — the fields still land so multi-core
    runs have a baseline to diff against.  ``fold_seconds`` times one
    overlay fold plus ``save_partition``, the compaction's core.
    """
    from repro.core.parallel import partition_many, resolve_workers
    from repro.core.tlp import TLPPartitioner
    from repro.partitioning.serialization import save_partition
    from repro.service.ingest import DeltaOverlay
    from repro.service.store import PartitionStore

    threads = resolve_workers(None)

    # -- growth: independent per-seed jobs, sequential vs thread pool ----
    def jobs():
        return [
            (TLPPartitioner(seed=seed), graph, p)
            for seed in seeds
        ]

    start = time.perf_counter()
    sequential = [pt.partition(g, num) for pt, g, num in jobs()]
    grow_seq = time.perf_counter() - start
    start = time.perf_counter()
    threaded = partition_many(jobs(), workers=threads)
    grow_par = time.perf_counter() - start
    grow_identical = all(
        [s.edges_of(k) for k in range(p)] == [t.edges_of(k) for k in range(p)]
        for s, t in zip(sequential, threaded)
    )

    # -- compaction fold: overlay with synthetic mutations ---------------
    overlay = DeltaOverlay(PartitionStore.from_partition(sequential[0]))
    _ = overlay.base.partition  # materialise once, outside the timed folds
    victims = []
    for k in range(p):  # spread deletions over every partition
        victims.extend(sequential[0].edges_of(k)[: max(1, graph.num_edges // (20 * p))])
    for i, (u, v) in enumerate(victims):
        was = overlay.apply_delete(u, v)
        if i % 2 == 0:  # move half of them instead of dropping
            overlay.apply_insert(u, v, (was + 1) % p)

    with tempfile.TemporaryDirectory(prefix="repro-perf-fold-") as tmp:
        start = time.perf_counter()
        save_partition(overlay.to_partition(), Path(tmp), workers=1)
        fold_seconds = time.perf_counter() - start

    return {
        "grow_threads": threads,
        "grow_seconds_sequential": round(grow_seq, 4),
        "grow_seconds_parallel": round(grow_par, 4),
        "grow_identical": grow_identical,
        "fold_mutations": len(victims),
        "fold_seconds": round(fold_seconds, 4),
    }


def write_report(report: Dict, path: str = DEFAULT_REPORT) -> str:
    """Write the report atomically; returns the path written."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)
    return path
