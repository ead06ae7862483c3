"""Tracked throughput benchmark for the TLP hot path.

The CSR backend exists purely for speed, so its speed is a tracked
artefact: ``python -m repro.bench perf`` times the TLP hot loop on the G5
(Slashdot) stand-in for every backend, checks that the CSR and reference
backends produce *identical* partitionings (same RF per seed — the
backends are bit-for-bit equivalent, so anything else is a bug), and
writes the measurements to ``BENCH_perf.json`` so regressions show up in
review diffs.

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
SCHEMA_VERSION = 4

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
    backend: str
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
    """Time every contender on ``graph`` and assemble the report dict.

    Raises ``AssertionError`` if the CSR and reference TLP backends
    disagree on any (p, seed) cell — equivalence is part of what this
    benchmark tracks.
    """
    from repro.core.tlp import TLPPartitioner
    from repro.core.tlp_r import TLPRPartitioner
    from repro.partitioning.registry import make_partitioner

    # Pay the one-off kernel compilation outside the timed region.
    from repro.core.native_grow import native_kernel

    native_kernel()

    rows: List[PerfRow] = []

    def record(algorithm: str, backend: str, partitioner, seed: int) -> PerfRow:
        partition, seconds = _timed(partitioner, graph, p)
        row = PerfRow(
            dataset=dataset,
            algorithm=algorithm,
            backend=backend,
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
        return row

    ref_secs = csr_secs = 0.0
    for seed in seeds:
        csr = record("TLP", "csr", TLPPartitioner(seed=seed, backend="csr"), seed)
        ref = record(
            "TLP", "reference", TLPPartitioner(seed=seed, backend="reference"), seed
        )
        csr_secs += csr.seconds
        ref_secs += ref.seconds
        assert csr.rf == ref.rf, (
            f"backend parity violated on {dataset} p={p} seed={seed}: "
            f"csr RF={csr.rf} != reference RF={ref.rf}"
        )
        record(
            "TLP_R(R=0.5)",
            "csr",
            TLPRPartitioner(0.5, seed=seed, backend="csr"),
            seed,
        )
        record("METIS", "-", make_partitioner("METIS", seed=seed), seed)
        record("LDG", "-", make_partitioner("LDG", seed=seed), seed)

    return {
        "version": SCHEMA_VERSION,
        "quick": quick,
        "dataset": dataset,
        "p": p,
        "seeds": list(seeds),
        "edges": graph.num_edges,
        "speedup": round(ref_secs / csr_secs, 2) if csr_secs else None,
        "parallel": _parallel_section(graph, p, seeds),
        "results": [asdict(row) for row in rows],
    }


def _bundle_digests(directory: Path) -> Dict[str, object]:
    """The checksums save_partition recorded (identity fingerprint)."""
    manifest = json.loads(
        (directory / "partition.json").read_text(encoding="utf-8")
    )
    return {
        "sidecar": manifest["csr_sidecar"]["checksum"],
        "parts": [entry["checksum"] for entry in manifest["partitions"]],
    }


def _parallel_section(graph: Graph, p: int, seeds: Sequence[int]) -> Dict:
    """Measure thread-pool growth and compaction fold vs sequential.

    Both measurements double as identity checks: the threaded growth
    jobs must reproduce the sequential partitionings exactly, and the
    parallel fold+save must produce a bundle with the same sha256
    digests (per-partition edge checksums and sidecar checksum) as the
    sequential one.  On a 1-core host the timings tie — the fields
    still land so multi-core runs have a baseline to diff against.
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
            (TLPPartitioner(seed=seed, backend="csr"), graph, p)
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

    def fold(workers: int, directory: Path) -> float:
        start = time.perf_counter()
        folded = overlay.to_partition(workers=workers)
        save_partition(folded, directory, workers=workers)
        return time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="repro-perf-fold-") as tmp:
        seq_dir, par_dir = Path(tmp) / "seq", Path(tmp) / "par"
        fold_seq = fold(1, seq_dir)
        fold_par = fold(threads, par_dir)
        fold_identical = _bundle_digests(seq_dir) == _bundle_digests(par_dir)

    return {
        "grow_threads": threads,
        "grow_seconds_sequential": round(grow_seq, 4),
        "grow_seconds_parallel": round(grow_par, 4),
        "grow_identical": grow_identical,
        "fold_mutations": len(victims),
        "fold_seconds": round(fold_par, 4),
        "fold_seconds_sequential": round(fold_seq, 4),
        "fold_identical": fold_identical,
    }


def write_report(report: Dict, path: str = DEFAULT_REPORT) -> str:
    """Write the report atomically; returns the path written."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)
    return path
