"""The two-pass out-of-core partitioning pipeline.

:func:`partition_stream` is the subsystem's front door, wired to the
``python -m repro partition-stream`` CLI: stream an edge file twice
(clustering + degree sketch, then cluster-aware placement into spills)
and fold the spills into a standard serving bundle, all under a byte
budget that **does not grow with the edge count**:

===========================  =========================================
stage                        peak memory
===========================  =========================================
pass 1 (cluster + sketch)    49 B per vertex-index row (index, exact
                             degree, cluster id, volume), or fixed
                             count-min on top, + one edge batch
pass 2 (placement)           40 + 8 * ceil(p / 64) B per row (index,
                             degree, affinity, replica mask words)
                             + spill buffers + one edge batch
bundle (sort + CSR)          O(edges / partitions) per shard + O(vertices)
===========================  =========================================

The fold hands :func:`~repro.partitioning.serialization.write_bundle`,
the one writer of every bundle, each partition's spill as the sorted
chunks of :func:`~repro.partitioning.oocore.spill.sorted_chunks`.

A vertex-index row is 8 B of id, 16 B of open-addressing slots and the
per-vertex columns; rows double on demand, so there are between one and
two per vertex.  That is the compiled kernel's layout
(:class:`~repro.partitioning.oocore.native.VertexIndex`).  Without a
kernel, the Python fallback keeps the same state in dicts, a few hundred
bytes per vertex (``_BYTES_PER_VERTEX`` budgets 400).

Both passes read the file through :meth:`ChunkedEdgeStream.edge_arrays`
and work on ``int64`` arrays of at most ``hash_batch_edges`` edges.
When :func:`~repro._native.load_kernel` returns a library, each batch
goes to the kernel's compiled passes (:class:`VertexIndex`,
:func:`cluster_natively` and :class:`NativePlacer`, in
:mod:`~repro.partitioning.oocore.native`); otherwise to the Python
classes (:class:`DegreeSketch`, :class:`StreamingClustering`,
:class:`StreamingPlacer`), which are also their oracle.  Both write the
same bundle bytes.

``memory_budget`` (bytes) sizes the knobs: the exact-degree vertex cap
(past it the sketch degrades to count-min), the edge batch, the spill
append buffers, and the external-sort run length.  The budget is
advisory for the O(vertices) terms — the paper-standard 2PS state — and
binding for every per-edge term.  ``tests/partitioning/test_oocore_rss.py``
holds the whole pipeline under 2x budget (subprocess ``VmHWM``) on a
graph whose in-memory partitioning is several times larger, and
perfbench's offline workload reports the command's peak RSS as
``stream_rss_mib``.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro._native import load_kernel
from repro.graph.chunked import DEFAULT_CHUNK_BYTES, ChunkedEdgeStream
from repro.partitioning.oocore import spill as spill_mod
from repro.partitioning.oocore.cluster import (
    CLUSTERS_PER_PARTITION,
    StreamingClustering,
    map_clusters,
)
from repro.partitioning.oocore.native import (
    NativePlacer,
    VertexIndex,
    cluster_natively,
    native_affinity,
)
from repro.partitioning.oocore.place import (
    DEFAULT_GAMMA,
    StreamingPlacer,
    affinity_targets,
)
from repro.partitioning.oocore.sketch import DegreeSketch
from repro.partitioning.scoring import balance_offsets
from repro.partitioning.serialization import partition_metadata, write_bundle

PathLike = Union[str, Path]

#: Scratch directory for spills and their sort runs, inside the output
#: bundle (same filesystem as the bundle it folds into).
SCRATCH_NAME = ".oocore-scratch"

#: Rough bytes of pass-1/2 per-vertex state (sketch + cluster + bitmask
#: dict entries), used to derive the exact-degree cap from the budget.
_BYTES_PER_VERTEX = 400

#: Rough peak bytes per edge while sorting a run (record + index + copy).
_BYTES_PER_RUN_EDGE = 48

#: Rough transient bytes per edge of a batch: its rows and their
#: Python-int lists, the id array and its hash temporaries, and pass 1's
#: per-endpoint position lists (~640 B measured with ``tracemalloc``
#: when batches were tuple lists; an upper bound for arrays).
_BYTES_PER_HASHED_EDGE = 640

#: Cap on a hashing batch: beyond a few thousand edges the per-batch
#: NumPy overhead is already amortised and only the transient grows.
_MAX_HASH_BATCH_EDGES = 4096


@dataclass
class BudgetPlan:
    """Concrete knob settings derived from a byte budget."""

    memory_budget: Optional[int]
    max_exact_vertices: int
    cm_width: int
    spill_buffer_bytes: int
    run_edges: int
    #: Edges per array batch of both passes (one vectorised count-min
    #: hash per batch once the sketch degrades).
    hash_batch_edges: int

    @classmethod
    def from_budget(cls, memory_budget: Optional[int]) -> "BudgetPlan":
        if memory_budget is None:
            return cls(
                memory_budget=None,
                max_exact_vertices=1 << 62,  # never degrade
                cm_width=1 << 20,
                spill_buffer_bytes=spill_mod.DEFAULT_BUFFER_BYTES,
                run_edges=spill_mod.DEFAULT_RUN_EDGES,
                hash_batch_edges=_MAX_HASH_BATCH_EDGES,
            )
        if memory_budget < 1 << 20:
            raise ValueError(
                f"memory_budget must be >= 1 MiB, got {memory_budget} bytes"
            )
        return cls(
            memory_budget=memory_budget,
            max_exact_vertices=memory_budget // _BYTES_PER_VERTEX,
            # A quarter of the budget for the count-min matrix if needed.
            cm_width=max(1 << 10, memory_budget // 4 // 8 // 4),
            spill_buffer_bytes=int(
                min(1 << 26, max(1 << 16, memory_budget // 8))
            ),
            run_edges=int(
                max(1 << 14, memory_budget // 4 // _BYTES_PER_RUN_EDGE)
            ),
            # A sixteenth of the budget per batch, but at least 256 edges
            # so the per-batch NumPy calls stay amortised.
            hash_batch_edges=int(
                min(
                    _MAX_HASH_BATCH_EDGES,
                    max(1 << 8, memory_budget // 16 // _BYTES_PER_HASHED_EDGE),
                )
            ),
        )


@dataclass
class OocoreResult:
    """What one :func:`partition_stream` run did, for the CLI and bench."""

    num_partitions: int
    num_edges: int
    num_vertices: int
    replication_factor: float
    partition_sizes: List[int]
    sketch_kind: str
    num_clusters: int
    skipped_self_loops: int
    pass1_seconds: float
    pass2_seconds: float
    bundle_seconds: float
    manifest_path: Path
    plan: BudgetPlan = field(repr=False)

    @property
    def total_seconds(self) -> float:
        return self.pass1_seconds + self.pass2_seconds + self.bundle_seconds

    @property
    def edges_per_s(self) -> float:
        return self.num_edges / self.total_seconds if self.total_seconds else 0.0

    def summary(self) -> Dict[str, object]:
        """JSON-ready record (bench section / CLI output)."""
        return {
            "num_partitions": self.num_partitions,
            "num_edges": self.num_edges,
            "num_vertices": self.num_vertices,
            "replication_factor": round(self.replication_factor, 6),
            "partition_sizes": list(self.partition_sizes),
            "sketch_kind": self.sketch_kind,
            "num_clusters": self.num_clusters,
            "skipped_self_loops": self.skipped_self_loops,
            "pass1_seconds": round(self.pass1_seconds, 6),
            "pass2_seconds": round(self.pass2_seconds, 6),
            "bundle_seconds": round(self.bundle_seconds, 6),
            "edges_per_s": round(self.edges_per_s, 3),
            "memory_budget_bytes": self.plan.memory_budget,
        }


def load_refined_offsets(
    hints: PathLike, num_partitions: int
) -> List[int]:
    """Balance priors from a prior bundle's refined partition-size profile.

    Reads ``metadata["refined"]["partition_sizes"]`` from the bundle at
    ``hints`` (written by refined compactions and ``repro refine``) and
    converts it to additive offsets.  Raises ``ValueError`` when the
    bundle has no refined profile or its partition count differs.
    """
    meta = partition_metadata(hints)
    refined = meta.get("refined")
    sizes = refined.get("partition_sizes") if isinstance(refined, dict) else None
    if not isinstance(sizes, list) or not sizes:
        raise ValueError(
            f"bundle {hints} has no refined partition-size profile "
            "(metadata['refined']['partition_sizes'])"
        )
    if len(sizes) != num_partitions:
        raise ValueError(
            f"refined profile in {hints} covers {len(sizes)} partitions, "
            f"stream is placing into {num_partitions}"
        )
    return balance_offsets([int(s) for s in sizes])


def _without_loops(rows: np.ndarray) -> np.ndarray:
    """``rows`` minus its self loops."""
    keep = rows[:, 0] != rows[:, 1]
    return rows if keep.all() else rows[keep]


def _sketch_pass(
    stream: ChunkedEdgeStream,
    count: Callable[[np.ndarray], None],
    batch_edges: int,
) -> int:
    """Pass 1: hand every edge to ``count``, in arrays of up to ``batch_edges``.

    Self loops are dropped first; returns how many were skipped.
    """
    skipped = 0
    for rows in stream.edge_arrays(batch_edges):
        edges = _without_loops(rows)
        skipped += len(rows) - len(edges)
        if len(edges):
            count(edges)
    return skipped


def _python_count(
    sketch: DegreeSketch, clustering: Optional[StreamingClustering]
) -> Callable[[np.ndarray], None]:
    """Pass 1's batch step on the Python classes.

    A batch is counted first, endpoint by endpoint in stream order:
    through the sketch's dict while it is exact (a batch that trips the
    exact-vertex cap finishes on the scalar count-min path), or, once it
    is count-min, hashed in one vectorised :meth:`positions` call with the
    conservative updates following in order (:meth:`add_each`).  Every
    estimate therefore equals the scalar path's.  The clustering then
    observes the batch with those degrees.
    """

    def count(edges: np.ndarray) -> None:
        cm = sketch.count_min
        if cm is None:
            add = sketch.add
            degrees = [add(x) for x in edges.ravel().tolist()]
        else:
            degrees = cm.add_each(cm.positions(edges.ravel()).tolist())
        if clustering is not None:
            clustering.observe_many(edges.tolist(), degrees)

    return count


def _python_place(placer: StreamingPlacer) -> Callable[[np.ndarray], np.ndarray]:
    """Pass 2's batch step on :meth:`StreamingPlacer.place_batch`.

    Degrees are final after pass 1, so with a count-min sketch (and an
    HDRF policy, the one that reads degrees) a batch's degrees come from
    one vectorised gather-and-min; the exact sketch is a dict lookup per
    endpoint inside the placer.
    """
    cm = placer.degrees.count_min if placer.policy == "hdrf" else None

    def place(edges: np.ndarray) -> np.ndarray:
        us, vs = edges[:, 0].tolist(), edges[:, 1].tolist()
        if cm is None:
            parts = placer.place_batch(us, vs)
        else:
            degrees = cm.get_many(edges.T.ravel()).tolist()
            parts = placer.place_batch(us, vs, degrees[: len(us)], degrees[len(us) :])
        return np.array(parts, dtype=np.intp)

    return place


def _placement_pass(
    stream: ChunkedEdgeStream,
    place: Callable[[np.ndarray], np.ndarray],
    writer: spill_mod.SpillWriter,
    batch_edges: int,
) -> None:
    """Pass 2: place every edge into ``writer``'s spills, a batch at a time.

    Each array of up to ``batch_edges`` edges loses its self loops, is
    oriented ``(min, max)``, placed by ``place`` (one partition per row)
    and appended to the spills in one call.
    """
    for rows in stream.edge_arrays(batch_edges):
        edges = _without_loops(rows)
        if len(edges):
            edges = np.sort(edges, axis=1)
            writer.append_batch(place(edges), edges)


def partition_stream(
    source: PathLike,
    directory: PathLike,
    *,
    num_partitions: int,
    memory_budget: Optional[int] = None,
    policy: str = "hdrf",
    lam: float = 1.1,
    epsilon: float = 1.0,
    gamma: float = DEFAULT_GAMMA,
    cluster: bool = True,
    clusters_per_partition: int = CLUSTERS_PER_PARTITION,
    hints: Optional[PathLike] = None,
    metadata: Optional[Dict[str, object]] = None,
    compress: bool = False,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> OocoreResult:
    """Partition the edge list at ``source`` into a bundle at ``directory``.

    Never materialises the graph: two streaming passes over ``source``
    (plain or ``.gz``) plus a per-partition external sort.  Self loops
    are skipped (counted in the result); duplicate edges are rejected
    where sorting makes them adjacent.  The input stream is otherwise
    taken as-is — edges arrive in file order, orientation normalised to
    ``(min, max)`` like every other partitioner here.

    ``hints`` names a prior bundle whose refined partition-size profile
    becomes HDRF balance priors (see :func:`load_refined_offsets`).
    """
    if num_partitions < 1:
        raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
    source = Path(source)
    directory = Path(directory)
    plan = BudgetPlan.from_budget(memory_budget)
    offsets = (
        load_refined_offsets(hints, num_partitions) if hints is not None else None
    )
    stream = ChunkedEdgeStream(source, chunk_bytes=chunk_bytes)
    kernel = load_kernel()

    # -- pass 1: degree sketch + streaming clustering ----------------------
    t0 = time.perf_counter()
    num_clusters = 0
    if kernel is not None:
        index = VertexIndex(kernel, plan.max_exact_vertices, plan.cm_width)
        if cluster:
            cluster_natively(index, num_partitions, clusters_per_partition)
        skipped = _sketch_pass(stream, index.count, plan.hash_batch_edges)
        if cluster:
            num_clusters = native_affinity(index, num_partitions)
        sketch_kind = index.kind
    else:
        sketch = DegreeSketch(plan.max_exact_vertices, plan.cm_width)
        clustering: Optional[StreamingClustering] = None
        if cluster:
            clustering = StreamingClustering(
                sketch, num_partitions, clusters_per_partition=clusters_per_partition
            )
        skipped = _sketch_pass(
            stream, _python_count(sketch, clustering), plan.hash_batch_edges
        )
        affinity: Dict[int, int] = {}
        if clustering is not None:
            affinity = affinity_targets(
                clustering.cluster_of, map_clusters(clustering.volume, num_partitions)
            )
            num_clusters = clustering.num_clusters
            clustering = None  # drop the per-vertex cluster ids before pass 2
        sketch_kind = sketch.kind
    pass1_seconds = time.perf_counter() - t0

    # -- pass 2: placement into spills -------------------------------------
    t0 = time.perf_counter()
    options = dict(policy=policy, lam=lam, epsilon=epsilon, gamma=gamma, offsets=offsets)
    placer: Union[NativePlacer, StreamingPlacer]
    if kernel is not None:
        placer = NativePlacer(index, num_partitions, **options)
        place = placer.place
    else:
        placer = StreamingPlacer(num_partitions, sketch, affinity=affinity, **options)
        place = _python_place(placer)
    directory.mkdir(parents=True, exist_ok=True)
    scratch = directory / SCRATCH_NAME
    writer = spill_mod.SpillWriter(
        scratch, num_partitions, buffer_bytes=plan.spill_buffer_bytes
    )
    try:
        _placement_pass(stream, place, writer, plan.hash_batch_edges)
        spills = writer.close()
        pass2_seconds = time.perf_counter() - t0

        # -- fold spills into the bundle -----------------------------------
        t0 = time.perf_counter()
        sorted_spills = [
            spill_mod.sorted_chunks(path, count, plan.run_edges)
            for path, count in zip(spills, writer.counts)
        ]
        manifest_path = write_bundle(
            directory, sorted_spills, metadata=metadata, compress=compress
        )
        bundle_seconds = time.perf_counter() - t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    return OocoreResult(
        num_partitions=num_partitions,
        num_edges=sum(writer.counts),
        num_vertices=placer.num_vertices,
        replication_factor=placer.replication_factor(),
        partition_sizes=list(placer.sizes),
        sketch_kind=sketch_kind,
        num_clusters=num_clusters,
        skipped_self_loops=skipped,
        pass1_seconds=pass1_seconds,
        pass2_seconds=pass2_seconds,
        bundle_seconds=bundle_seconds,
        manifest_path=manifest_path,
        plan=plan,
    )
