"""Local-search RF refinement: gain-indexed boundary moves and pair swaps.

A post-pass that lowers the replication factor of *any*
:class:`~repro.partitioning.assignment.EdgePartition` — whatever
partitioner produced it, offline or online — by local search over the
boundary edges, in the spirit of "Enhancing Balanced Graph Edge
Partition with Effective Local Search" (see PAPERS.md):

* **Moves.**  Relocating edge ``(u, v)`` from partition ``A`` to ``B``
  frees a replica for every endpoint whose *last* ``A``-edge it was, and
  costs one for every endpoint absent from ``B``.  Positive-gain moves
  strictly shrink ``sum_k |V(P_k)|`` (the RF numerator), so greedy
  application terminates.  Candidates are drawn from a **gain-indexed
  max-heap** with lazy invalidation: stale entries are re-scored on pop,
  and every applied move re-seeds the heap with the incident edges whose
  gains it disturbed — the classic FM work-list, adapted to edge
  partitions.
* **Swaps.**  A positive-gain move whose target sits at the capacity
  bound is not lost: the swap phase pairs it with a counter-move from
  the target back to the source (sizes restored exactly), accepted only
  when the *combined* replica delta is negative.  Swaps unlock the
  plateau that a perfectly balanced input otherwise presents to
  move-only refinement — no slack required.
* **Determinism.**  There is no randomness anywhere: ties break on
  (gain, target size, target id, edge) everywhere, so refining the same
  partition twice — in the same process or from a WAL replay — produces
  the identical result.  The property suite pins this.
* **Stopping.**  A pass is one heap drain plus one swap phase.  The
  refiner stops at a fixpoint (no improving move or swap), when a pass
  improves RF by less than ``epsilon``, or at ``max_passes`` —
  whichever comes first, recorded in :attr:`RefineStats.converged`.

The capacity bound is by default ``ceil(slack * m / p)``, floored at the
input's largest partition so refinement never *worsens* an unbalanced
input.  Balance can only improve or stay.

:func:`refine_bundle` applies the engine to an on-disk
``save_partition`` bundle and rewrites it (atomically, manifest last)
with the before/after RF recorded in the manifest metadata.  A bundle
whose write-ahead log still holds unfolded mutations is **refused** with
:class:`PendingMutationsError` — mirroring the serving layer's guard
that refuses a plain reload while mutations pend: rewriting the base
under an outstanding delta would orphan acknowledged writes.  Compact
first; ``Ingestor(refine_on_compact=True)`` does both in one step.
"""

from __future__ import annotations

import heapq
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.partitioning.assignment import EdgePartition

PathLike = Union[str, Path]

#: The serving layer's WAL file name inside a bundle directory.  Kept in
#: lockstep with :data:`repro.service.ingest.WAL_NAME` (pinned by a test);
#: duplicated here so the partitioning layer does not import the service
#: layer.
INGEST_WAL_NAME = "ingest.wal"

#: Gain-matrix cells scored per :meth:`_State.best_moves` call when
#: seeding the heap, bounding its temporaries to about 10 MiB.
_SCORE_CELLS = 1 << 18


class RefineError(RuntimeError):
    """Base class for refinement failures."""


class PendingMutationsError(RefineError):
    """The bundle's WAL holds unfolded mutations; compact before refining.

    Mirrors the serving layer's reload guard: rewriting the base bundle
    while a delta overlay / WAL still references it would silently drop
    acknowledged mutations and poison the next WAL replay.
    """


@dataclass
class RefineStats:
    """What one refinement run did, and why it stopped."""

    passes: int
    moves: int
    swaps: int
    replicas_before: int
    replicas_after: int
    covered_vertices: int
    capacity: int
    seconds: float
    #: ``"fixpoint"`` (no improving move/swap), ``"epsilon"`` (pass gain
    #: under the threshold), or ``"max_passes"``.
    converged: str

    @property
    def replicas_saved(self) -> int:
        """Total replicas removed."""
        return self.replicas_before - self.replicas_after

    @property
    def rf_before(self) -> float:
        """Input RF (``1.0`` for an empty partition)."""
        if self.covered_vertices == 0:
            return 1.0
        return self.replicas_before / self.covered_vertices

    @property
    def rf_after(self) -> float:
        """Output RF (``1.0`` for an empty partition)."""
        if self.covered_vertices == 0:
            return 1.0
        return self.replicas_after / self.covered_vertices

    @property
    def rf_delta(self) -> float:
        """``rf_before - rf_after`` (>= 0: refinement never worsens RF)."""
        return self.rf_before - self.rf_after

    @property
    def applied(self) -> int:
        """Moves plus swaps."""
        return self.moves + self.swaps

    @property
    def moves_per_s(self) -> float:
        """Applied moves+swaps per wall-clock second."""
        if self.seconds <= 0.0:
            return 0.0
        return self.applied / self.seconds

    def manifest_entry(self) -> Dict[str, object]:
        """The summary :func:`refine_bundle` records in the manifest."""
        return {
            "rf_before": round(self.rf_before, 6),
            "rf_after": round(self.rf_after, 6),
            "rf_delta": round(self.rf_delta, 6),
            "moves": self.moves,
            "swaps": self.swaps,
            "passes": self.passes,
            "capacity": self.capacity,
            "seconds": round(self.seconds, 6),
            "converged": self.converged,
        }


class LocalSearchRefiner:
    """Configured move/swap local search over edge partitions.

    One instance is reusable across partitions (``refine`` builds fresh
    state per call).  Parameters:

    ``capacity``
        Per-partition edge bound; ``0`` derives ``ceil(slack * m / p)``
        floored at the input's largest partition.
    ``slack``
        Headroom multiplier for the derived capacity (>= 1.0).  With
        swaps enabled the default ``1.0`` already escapes the balanced
        plateau; slack simply lets single moves do more of the work.
    ``epsilon``
        Stop when a full pass improves RF by less than this (``0.0`` =
        run to the exact fixpoint).
    ``max_passes``
        Hard bound on the number of passes.
    ``swaps``
        Enable the capacity-neutral pair-swap phase.  Each swap attempt
        scores the target partition's whole edge set in one vectorised
        pass, so a swap phase costs ``O(attempts * m)`` array work.
    """

    def __init__(
        self,
        capacity: int = 0,
        slack: float = 1.0,
        epsilon: float = 0.0,
        max_passes: int = 8,
        swaps: bool = True,
    ) -> None:
        if slack < 1.0:
            raise ValueError(f"slack must be >= 1.0, got {slack}")
        if epsilon < 0.0:
            raise ValueError(f"epsilon must be >= 0.0, got {epsilon}")
        if max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {max_passes}")
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.slack = slack
        self.epsilon = epsilon
        self.max_passes = max_passes
        self.swaps = swaps

    # -- public API --------------------------------------------------------

    def refine(
        self, partition: EdgePartition
    ) -> Tuple[EdgePartition, RefineStats]:
        """Refine ``partition``; returns ``(refined, stats)``.

        The input is never mutated.  The output covers exactly the same
        edge set (conservation), respects the capacity bound, and has
        ``total_replicas(refined) <= total_replicas(partition)``.
        """
        started = time.perf_counter()
        state = _State(partition, self.capacity, self.slack)
        converged = "max_passes"
        passes = 0
        for _ in range(self.max_passes):
            passes += 1
            saved_before = state.replicas
            state.drain_moves()
            if self.swaps:
                state.drain_swaps()
            pass_saved = saved_before - state.replicas
            if pass_saved == 0:
                converged = "fixpoint"
                break
            if self.epsilon > 0.0 and state.covered:
                if pass_saved / state.covered < self.epsilon:
                    converged = "epsilon"
                    break
        refined = state.to_partition()
        stats = RefineStats(
            passes=passes,
            moves=state.moves,
            swaps=state.swaps,
            replicas_before=state.replicas_before,
            replicas_after=state.replicas,
            covered_vertices=state.covered,
            capacity=state.capacity,
            seconds=time.perf_counter() - started,
            converged=converged,
        )
        return refined, stats


def refine_partition(
    partition: EdgePartition, **options: object
) -> Tuple[EdgePartition, RefineStats]:
    """One-shot convenience wrapper around :class:`LocalSearchRefiner`."""
    return LocalSearchRefiner(**options).refine(partition)  # type: ignore[arg-type]


# -- the mutable search state -------------------------------------------------


class _State:
    """Edge ownership, per-vertex incidence counts, and the gain heap.

    Edges are held in sorted ``(u, v)`` order and named by their index in
    that order, so every tie broken on "the smaller edge" is a tie broken
    on the smaller index.  The arrays:

    * ``eu`` / ``ev`` — endpoint vertex indices (ranks of the vertex ids);
    * ``epart`` — each edge's partition;
    * ``counts`` — dense ``V x p`` incidence counts: ``counts[w, k]`` is
      the number of ``w``'s edges in partition ``k`` (4 bytes per cell);
    * ``sizes`` — edges per partition;
    * ``indptr`` / ``incident`` — vertex -> incident edge indices (CSR).
    """

    def __init__(
        self, partition: EdgePartition, capacity: int, slack: float
    ) -> None:
        p = partition.num_partitions
        m = partition.num_edges
        self.p = p
        if capacity <= 0:
            capacity = max(1, math.ceil(slack * m / p)) if p else 1
            capacity = max(capacity, max(partition.partition_sizes() or [0]))
        self.capacity = capacity
        parts = np.repeat(
            np.arange(p, dtype=np.int32), partition.partition_sizes()
        )
        # Ids beyond int64 arrive as object arrays and sort as Python ints.
        ids = np.concatenate(
            [partition.edge_array(k) for k in range(p)]
            or [np.empty((0, 2), dtype=np.int64)]
        )
        vertex_ids, ranks = np.unique(ids, return_inverse=True)
        ranks = ranks.reshape(m, 2)
        num_vertices = len(vertex_ids)
        order = np.argsort(ranks[:, 0] * num_vertices + ranks[:, 1], kind="stable")
        self.eu = ranks[order, 0]
        self.ev = ranks[order, 1]
        if np.any((self.eu[1:] == self.eu[:-1]) & (self.ev[1:] == self.ev[:-1])):
            partition.edge_to_partition()  # raises, naming the duplicate
        #: Endpoint ids of each edge, in edge-index order.
        self.ids = ids[order]
        self.epart = parts[order]
        self.counts = (
            np.bincount(self.eu * p + self.epart, minlength=num_vertices * p)
            + np.bincount(self.ev * p + self.epart, minlength=num_vertices * p)
        ).astype(np.int32).reshape(num_vertices, p)
        self.sizes = np.bincount(self.epart, minlength=p).astype(np.int64)
        endpoints = np.concatenate([self.eu, self.ev])
        self.incident = np.argsort(endpoints, kind="stable") % max(m, 1)
        self.indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(endpoints, minlength=num_vertices), out=self.indptr[1:])
        self.replicas = int(np.count_nonzero(self.counts))
        self.replicas_before = self.replicas
        self.covered = num_vertices
        self.moves = 0
        self.swaps = 0
        #: Positive-gain moves blocked by capacity, found during drains;
        #: the swap phase works through them.  edge index -> recorded gain.
        self.blocked: Dict[int, int] = {}

    # -- gain arithmetic ---------------------------------------------------

    def best_move(self, edge: int, respect_capacity: bool) -> Tuple[int, int]:
        """``(gain, target)`` of the best relocation of edge ``edge``.

        The scalar scorer, for the one-edge re-scores of heap pops and
        swap candidates (:meth:`best_moves` scores batches).  Only
        partitions already hosting an endpoint can yield a positive gain
        (an alien target costs two adds against at most two removes).
        Ties break to the smaller, then lower-id target — fully
        deterministic.  Returns ``(0, -1)`` when nothing improves.
        """
        source = int(self.epart[edge])
        row_u = self.counts[self.eu[edge]].tolist()
        row_v = self.counts[self.ev[edge]].tolist()
        remove = (row_u[source] == 1) + (row_v[source] == 1)
        if remove == 0:
            return 0, -1
        sizes = self.sizes.tolist()
        best_gain, best_target = 0, -1
        for target in range(self.p):
            if target == source:
                continue
            if respect_capacity and sizes[target] >= self.capacity:
                continue
            gain = remove - (row_u[target] == 0) - (row_v[target] == 0)
            if gain <= 0:
                continue
            if (
                best_target < 0
                or gain > best_gain
                or (gain == best_gain and sizes[target] < sizes[best_target])
            ):
                best_gain, best_target = gain, target
        return best_gain, best_target

    def best_moves(
        self, edges: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`best_move` of every edge in ``edges``, both ways at once.

        Scores one ``len(edges) x p`` gain matrix and returns ``(gain,
        target)`` under the capacity bound, then ``(gain, target)``
        ignoring it.  The tie-break is the scalar one: gain, then smaller
        target size, then lower target id (``argmax`` takes the first
        maximum).
        """
        source = self.epart[edges]
        rows = np.arange(len(edges))
        row_u = self.counts[self.eu[edges]]
        row_v = self.counts[self.ev[edges]]
        remove = (row_u[rows, source] == 1).astype(np.int64) + (
            row_v[rows, source] == 1
        )
        gain = remove[:, None] - (row_u == 0) - (row_v == 0)
        gain[rows, source] = 0
        # Larger gain first, then smaller target: sizes stay below m + 2.
        key = np.where(gain > 0, gain * (len(self.epart) + 2) - self.sizes, -1)
        free_target = key.argmax(axis=1)
        free_ok = key[rows, free_target] >= 0
        key[:, self.sizes >= self.capacity] = -1
        target = key.argmax(axis=1)
        ok = key[rows, target] >= 0
        return (
            np.where(ok, gain[rows, target], 0),
            np.where(ok, target, -1),
            np.where(free_ok, gain[rows, free_target], 0),
            np.where(free_ok, free_target, -1),
        )

    # -- mutation ----------------------------------------------------------

    def apply_move(self, edge: int, target: int) -> None:
        """Relocate ``edge`` to ``target``, keeping every aggregate exact."""
        source = self.epart[edge]
        self.epart[edge] = target
        self.sizes[source] -= 1
        self.sizes[target] += 1
        counts = self.counts
        for w in (self.eu[edge], self.ev[edge]):
            counts[w, source] -= 1
            if counts[w, source] == 0:
                self.replicas -= 1
            counts[w, target] += 1
            if counts[w, target] == 1:
                self.replicas += 1

    # -- the move drain ----------------------------------------------------

    def drain_moves(self) -> None:
        """Apply positive-gain moves until none remain.

        Lazy heap of ``(-gain, edge, target)``: every pop is re-scored
        against the live state; a stale entry re-enqueues its fresh score
        instead of acting on an outdated one.  The heap is seeded from
        one gain-matrix pass over every edge, and each applied move
        re-seeds, in one :meth:`best_moves` call, the edges incident to
        the moved edge's endpoints — the only gains a move can disturb
        (plus capacity effects, which the lazy re-score already covers).
        """
        heap: List[Tuple[int, int, int]] = []
        m = len(self.epart)
        step = max(1, _SCORE_CELLS // max(self.p, 1))
        for start in range(0, m, step):
            heap.extend(self._heap_entries(np.arange(start, min(m, start + step))))
        heapq.heapify(heap)
        while heap:
            neg_gain, edge, target = heapq.heappop(heap)
            gain, best_target = self.best_move(edge, respect_capacity=True)
            if best_target < 0:
                self._note_blocked(edge)
                continue
            if (-gain, best_target) != (neg_gain, target):
                heapq.heappush(heap, (-gain, edge, best_target))
                continue
            self.apply_move(edge, best_target)
            self.moves += 1
            self.blocked.pop(edge, None)
            u, v = self.eu[edge], self.ev[edge]
            others = np.concatenate(
                (
                    self.incident[self.indptr[u] : self.indptr[u + 1]],
                    self.incident[self.indptr[v] : self.indptr[v + 1]],
                )
            )
            for entry in self._heap_entries(others[others != edge]):
                heapq.heappush(heap, entry)

    def _heap_entries(self, edges: np.ndarray) -> List[Tuple[int, int, int]]:
        """Heap entries for ``edges``; notes their capacity-blocked moves."""
        gain, target, free_gain, free_target = self.best_moves(edges)
        blocked = free_target >= 0
        blocked[blocked] = self.sizes[free_target[blocked]] >= self.capacity
        self.blocked.update(
            zip(edges[blocked].tolist(), free_gain[blocked].tolist())
        )
        movable = target >= 0
        return list(
            zip(
                (-gain[movable]).tolist(),
                edges[movable].tolist(),
                target[movable].tolist(),
            )
        )

    def _note_blocked(self, edge: int) -> None:
        """Record a positive-gain move currently shut out by capacity."""
        gain, target = self.best_move(edge, respect_capacity=False)
        if target >= 0 and self.sizes[target] >= self.capacity:
            self.blocked[edge] = gain

    # -- the swap phase ----------------------------------------------------

    def drain_swaps(self) -> None:
        """Pair capacity-blocked moves with counter-moves (sizes neutral).

        For a blocked candidate ``e: A -> B`` the phase tentatively
        applies the move (``B`` runs one over capacity), then finds the
        best counter-move of some ``f in B`` back to ``A`` in one
        vectorised pass over ``B``'s edges — scored *after* ``e`` landed,
        so the combined delta is exact — and keeps the pair only when it
        strictly lowers the replica total; otherwise ``e`` is rolled
        back.  Partition sizes end exactly where they started, so the
        capacity bound holds throughout the refined output.
        """
        candidates = sorted(
            self.blocked.items(), key=lambda item: (-item[1], item[0])
        )
        self.blocked.clear()
        for edge, _recorded in candidates:
            gain, target = self.best_move(edge, respect_capacity=False)
            if target < 0 or self.sizes[target] < self.capacity:
                continue  # no longer blocked; the next move drain takes it
            source = int(self.epart[edge])
            before = self.replicas
            self.apply_move(edge, target)
            counter = self._best_counter_move(target, source, exclude=edge)
            if counter < 0:
                self.apply_move(edge, source)  # roll back
                continue
            self.apply_move(counter, source)
            if self.replicas < before:
                self.swaps += 1
            else:  # combined delta not an improvement: roll both back
                self.apply_move(counter, target)
                self.apply_move(edge, source)

    def _best_counter_move(self, source: int, target: int, exclude: int) -> int:
        """Best edge ``f: source -> target`` scored on the live state.

        One vectorised pass over ``source``'s edges scores ``(c[u,
        source] == 1) + (c[v, source] == 1) - (c[u, target] == 0) - (c[v,
        target] == 0)`` and takes the first maximum — the smallest edge
        among the best, as the indices ascend.  Returns ``-1`` when the
        partition has nothing to give back (only ``exclude`` itself).
        """
        edges = np.flatnonzero(self.epart == source)
        edges = edges[edges != exclude]
        if len(edges) == 0:
            return -1
        at_source = self.counts[:, source]
        at_target = self.counts[:, target]
        u, v = self.eu[edges], self.ev[edges]
        gain = (
            (at_source[u] == 1).astype(np.int8)
            + (at_source[v] == 1)
            - (at_target[u] == 0)
            - (at_target[v] == 0)
        )
        return int(edges[gain.argmax()])

    # -- output ------------------------------------------------------------

    def to_partition(self) -> EdgePartition:
        """Materialise the refined assignment (sorted edge order)."""
        return EdgePartition.from_arrays(
            [self.ids[self.epart == k] for k in range(self.p)]
        )


# -- bundle-level refinement --------------------------------------------------


def refine_bundle(
    directory: PathLike,
    output: Optional[PathLike] = None,
    *,
    verify: bool = True,
    capacity: int = 0,
    slack: float = 1.0,
    epsilon: float = 0.0,
    max_passes: int = 8,
    swaps: bool = True,
) -> Tuple[Path, RefineStats]:
    """Refine the bundle at ``directory``; returns ``(manifest, stats)``.

    Loads the bundle (manifest-verified unless ``verify=False``), runs
    the local search, and rewrites it — in place by default, or to
    ``output`` — via :func:`~repro.partitioning.serialization.
    save_partition` (atomic files, manifest last, CSR sidecar rebuilt),
    with the run summary under ``metadata["refined"]`` and the
    metadata's ``replication_factor`` updated when present.

    Raises :class:`PendingMutationsError` when the bundle carries a
    non-empty write-ahead log: those mutations are not in the edge
    files yet, and a refined rewrite would orphan them.  Run compaction
    first (``python -m repro compact`` against the live server, or
    ``Ingestor(refine_on_compact=True)`` to fold and refine in one
    pass).
    """
    from repro.partitioning.serialization import load_partition, save_partition

    directory = Path(directory)
    wal = directory / INGEST_WAL_NAME
    if wal.exists() and wal.stat().st_size > 0:
        raise PendingMutationsError(
            f"bundle {directory} has {wal.stat().st_size} bytes of unfolded "
            "WAL mutations; compact before refining"
        )
    partition = load_partition(directory, verify=verify)
    refiner = LocalSearchRefiner(
        capacity=capacity,
        slack=slack,
        epsilon=epsilon,
        max_passes=max_passes,
        swaps=swaps,
    )
    refined, stats = refiner.refine(partition)
    from repro.partitioning.serialization import partition_metadata

    metadata = partition_metadata(directory)
    entry = stats.manifest_entry()
    # Size profile of the refined layout: downstream placers (oocore
    # pass 2, the ingest path) consume it as HDRF balance priors.
    entry["partition_sizes"] = refined.partition_sizes()
    metadata["refined"] = entry
    if "replication_factor" in metadata:
        metadata["replication_factor"] = round(stats.rf_after, 6)
    destination = directory if output is None else Path(output)
    manifest = _save_refined_atomically(refined, destination, metadata=metadata)
    return manifest, stats


def _save_refined_atomically(
    partition: EdgePartition,
    destination: Path,
    *,
    metadata: Dict[str, object],
) -> Path:
    """``save_partition`` with all-or-nothing publication.

    Writing straight into ``destination`` would expose readers (and the
    source bundle, when ``destination`` is the source itself or a path
    inside it) to a torn state if the save dies midway: some edge files
    replaced, manifest still carrying the old checksums.  Instead the
    whole bundle is built in a fresh staging directory next to
    ``destination`` (same filesystem, so publication is pure rename),
    then published:

    * fresh destination — one atomic ``os.rename`` of the directory;
    * existing destination (in-place refine, or overwriting an older
      bundle) — per-file ``os.replace`` with the manifest **last**, plus
      removal of stale other-compression counterparts, mirroring
      ``save_partition``'s own crash discipline.

    Publication is then made durable by fsyncing the directory whose
    entries changed: ``destination``'s parent after the rename, or
    ``destination`` after the per-file replaces.  A failure before
    publication leaves ``destination`` byte-untouched.
    """
    from repro.partitioning.serialization import (
        MANIFEST_NAME,
        fsync_path,
        save_partition,
    )

    def publish(directory: Path) -> Path:
        if os.name == "posix":  # a directory cannot be opened for fsync elsewhere
            fsync_path(directory)
        return destination / MANIFEST_NAME

    destination = Path(destination)
    destination.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(
        tempfile.mkdtemp(prefix=destination.name + ".refine-", dir=destination.parent)
    )
    try:
        save_partition(partition, stage, metadata=metadata)
        if not destination.exists():
            os.rename(stage, destination)
            return publish(destination.parent)
        names = sorted(os.listdir(stage))
        names.remove(MANIFEST_NAME)
        for name in names:
            os.replace(stage / name, destination / name)
            # A counterpart with the other compression setting is stale
            # the moment its replacement lands.
            if name.endswith(".edges"):
                (destination / (name + ".gz")).unlink(missing_ok=True)
            elif name.endswith(".edges.gz"):
                (destination / name[: -len(".gz")]).unlink(missing_ok=True)
        os.replace(stage / MANIFEST_NAME, destination / MANIFEST_NAME)
        return publish(destination)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
