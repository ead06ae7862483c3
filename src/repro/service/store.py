"""Read-optimised view of a persisted partition: the serving-side store.

A :class:`PartitionStore` answers routing queries over the flat arrays of
a :class:`~repro.partitioning.csr_bundle.PartitionCSR`:

* ``master_of`` / ``replicas_of`` / ``mirrors_of`` — the PowerGraph
  placement (the :class:`~repro.runtime.replication.ReplicationTable`
  rule, frozen into arrays);
* ``neighbors`` — fan-out to every partition spanning the vertex and
  merge the per-partition adjacency rows;
* ``owner_of_edge`` — which partition holds an edge;
* ``partition_stats`` / ``stats`` — per-partition and global summaries.

:meth:`PartitionStore.open` memory-maps the binary CSR sidecar that
``save_partition`` writes next to the edge lists
(:mod:`repro.partitioning.csr_bundle`), so opening touches O(partitions)
Python objects instead of O(edges).  A bundle whose manifest records no
sidecar predates sidecars: its arrays are rebuilt in memory from the
edge-list text.  A manifest that records a sidecar whose file is gone is
a torn bundle and refuses to open.

The store is immutable after construction and safe to share across the
asyncio server's tasks (all reads, no locks needed).

Hot re-partitioning is layered on top by :class:`StoreManager`: it owns
the *live* store, stamps every store with a monotonically increasing
**epoch** id, hands out leases (``acquire``/``release`` refcounts) so
requests stay pinned to the store they started on, and swaps in a new
bundle atomically — the old epoch is retired, drains to zero leases, and
only then is its store released.
"""

from __future__ import annotations

import asyncio
import time
from bisect import bisect_left
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.graph.graph import normalize_edge
from repro.partitioning.assignment import EdgePartition

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.partitioning.csr_bundle import PartitionCSR
    from repro.service.ingest import DeltaOverlay
    from repro.service.metrics import ServiceMetrics

PathLike = Union[str, Path]

#: Batch-answer types: ``(master, replicas)`` and ``(neighbours, replicas)``
#: per vertex, ``None`` where the vertex (or edge) is not in the store.
Route = Optional[Tuple[int, Tuple[int, ...]]]
NeighborRow = Optional[Tuple[List[int], Tuple[int, ...]]]


def _view(array: np.ndarray) -> memoryview:
    """An int64 memoryview of ``array``: indexing it yields Python ints.

    No copy for the sidecar's little-endian maps; a big-endian host gets
    a converted copy.
    """
    return memoryview(np.asarray(array, dtype=np.int64)).cast("B").cast("q")


def _index(view: memoryview, v: int) -> int:
    """Position of ``v`` in the sorted ``view``, or -1 if absent.

    Any Python int compares, so an id beyond int64 is a plain miss.
    """
    i = bisect_left(view, v)
    return i if i < len(view) and view[i] == v else -1


class PartitionStore:
    """Routing tables backed by (memory-mapped) CSR arrays.

    Reads walk rows directly: a vertex lookup is a ``bisect`` over a
    memoryview of the sorted id array, a replica list is a slice of it,
    an adjacency row is one numpy gather, and edge ownership is a
    ``bisect`` inside the owning row.  A request costs a few
    microseconds whatever the batch size, without numpy's fixed cost
    per call on rows of a dozen ids.  Construction does no per-edge
    Python work, which is the point: opening a bundle (or hot-reloading
    one under load) touches O(partitions) Python objects instead of
    O(edges).
    """

    def __init__(
        self,
        csr: "PartitionCSR",
        metadata: Optional[Dict[str, object]] = None,
        epoch: int = 0,
    ) -> None:
        self._csr = csr
        self.metadata: Dict[str, object] = dict(metadata or {})
        #: Deployment generation; 0 until a :class:`StoreManager` adopts
        #: the store and stamps it with its serving epoch.
        self.epoch = epoch
        self._materialized: Optional[EdgePartition] = None
        self._ids, self._master, self._rep_indptr, self._rep_parts = (
            _view(a)
            for a in (csr.vertex_ids, csr.master, csr.rep_indptr, csr.rep_parts)
        )
        #: Per partition: ``(ids, indptr, indices)`` views for lookups,
        #: plus the ``ids`` and ``indices`` arrays for row gathers.
        self._parts: List[
            Tuple[memoryview, memoryview, memoryview, np.ndarray, np.ndarray]
        ] = []
        for ids, indptr, indices in csr.parts:
            ids = np.asarray(ids, dtype=np.int64)
            indices = np.asarray(indices, dtype=np.int64)
            self._parts.append(
                (_view(ids), _view(indptr), _view(indices), ids, indices)
            )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_partition(
        cls,
        partition: EdgePartition,
        metadata: Optional[Dict[str, object]] = None,
        epoch: int = 0,
    ) -> "PartitionStore":
        """Freeze an in-memory :class:`EdgePartition` into the CSR form."""
        from repro.partitioning.csr_bundle import build_partition_csr

        return cls(build_partition_csr(partition), metadata=metadata, epoch=epoch)

    @classmethod
    def open(cls, directory: PathLike, verify: bool = True) -> "PartitionStore":
        """Open a ``save_partition`` directory (manifest-verified by default).

        Memory-maps the bundle's CSR sidecar.  A bundle whose manifest
        has no ``csr_sidecar`` entry is a pre-sidecar bundle: its arrays
        are built in memory from the edge-list text instead.  A manifest
        entry whose file is missing raises ``FileNotFoundError`` (a torn
        bundle, never a silent fallback to text), and a corrupt sidecar
        raises ``ValueError`` under ``verify=True``.
        """
        from repro.partitioning import csr_bundle
        from repro.partitioning.serialization import (
            has_sidecar,
            load_partition,
            load_sidecar,
            partition_metadata,
        )

        if has_sidecar(directory):
            csr = load_sidecar(directory, verify=verify)
        else:
            csr = csr_bundle.build_partition_csr(
                load_partition(directory, verify=verify)
            )
        return cls(csr, metadata=partition_metadata(directory))

    # -- row helpers -------------------------------------------------------

    def _replicas_at(self, row: int) -> Tuple[int, ...]:
        """Replica set for an already-resolved global row."""
        indptr = self._rep_indptr
        return tuple(self._rep_parts[indptr[row] : indptr[row + 1]])

    def _route(self, v: int) -> Route:
        row = _index(self._ids, v)
        if row < 0:
            return None
        return self._master[row], self._replicas_at(row)

    def _local_row(self, v: int, k: int) -> List[int]:
        """Sorted neighbours of ``v`` inside partition ``k`` ([] if absent)."""
        ids, indptr, _, id_array, index_array = self._parts[k]
        row = _index(ids, v)
        if row < 0:
            return []
        return id_array[index_array[indptr[row] : indptr[row + 1]]].tolist()

    def _neighbour_row(self, v: int) -> NeighborRow:
        row = _index(self._ids, v)
        if row < 0:
            return None
        replicas = self._replicas_at(row)
        merged: List[int] = []
        for k in replicas:
            merged += self._local_row(v, k)
        if len(replicas) > 1:
            # Each edge lives in exactly one partition and the graph is
            # simple, so the per-partition rows are disjoint: sorting
            # the concatenation *is* the merged neighbour list.
            merged.sort()
        return merged, replicas

    def _owner(self, a: int, b: int) -> Optional[int]:
        """Partition holding the normalised edge ``(a, b)``, or None."""
        row = _index(self._ids, a)
        if row < 0:
            return None
        for k in self._replicas_at(row):
            ids, indptr, indices, _, _ = self._parts[k]
            other = _index(ids, b)
            if other < 0:
                continue
            local = _index(ids, a)  # a replica implies presence
            hi = indptr[local + 1]
            j = bisect_left(indices, other, indptr[local], hi)  # sorted row
            if j < hi and indices[j] == other:
                return k
        return None

    # -- basic shape -------------------------------------------------------

    @property
    def partition(self) -> EdgePartition:
        """The partition, materialised lazily as edge arrays (compaction)."""
        if self._materialized is None:
            from repro.partitioning.csr_bundle import csr_to_partition

            self._materialized = csr_to_partition(self._csr)
        return self._materialized

    @property
    def num_partitions(self) -> int:
        return self._csr.num_partitions

    @property
    def num_edges(self) -> int:
        return self._csr.num_edges

    @property
    def num_vertices(self) -> int:
        """Vertices covered by at least one edge."""
        return len(self._ids)

    def has_vertex(self, v: int) -> bool:
        """Whether any partition hosts a replica of ``v``."""
        return _index(self._ids, v) >= 0

    # -- routing -----------------------------------------------------------

    def master_of(self, v: int) -> int:
        """Master partition of ``v``; raises ``KeyError`` if uncovered."""
        route = self._route(v)
        if route is None:
            raise KeyError(v)
        return route[0]

    def replicas_of(self, v: int) -> Tuple[int, ...]:
        """All partitions hosting a replica of ``v`` (sorted)."""
        route = self._route(v)
        return () if route is None else route[1]

    def mirrors_of(self, v: int) -> Tuple[int, ...]:
        """Non-master replicas of ``v`` (sorted) — one row lookup."""
        route = self._route(v)
        if route is None:
            raise KeyError(v)
        master, replicas = route
        return tuple(k for k in replicas if k != master)

    def owner_of_edge(self, u: int, v: int) -> int:
        """Partition holding edge ``{u, v}``; raises ``KeyError`` if absent."""
        edge = normalize_edge(u, v)
        owner = self._owner(*edge)
        if owner is None:
            raise KeyError(edge)
        return owner

    def neighbors(self, v: int) -> Set[int]:
        """Merged neighbour set of ``v`` across all spanning partitions.

        This is the routed equivalent of ``Graph.neighbors``: the caller
        fans out to every replica and unions the partial adjacency lists.
        Raises ``KeyError`` for an uncovered vertex.
        """
        row = self._neighbour_row(v)
        if row is None:
            raise KeyError(v)
        return set(row[0])

    def local_neighbors(self, v: int, k: int) -> Set[int]:
        """Neighbours of ``v`` within partition ``k`` only."""
        return set(self._local_row(v, k))

    def local_degree(self, v: int, k: int) -> int:
        """Number of partition-``k`` edges incident to ``v`` (0 if absent).

        The graph is simple, so this equals ``len(local_neighbors(v, k))``
        but without materialising the set — the ingest overlay calls it
        once per mutation endpoint.
        """
        ids, indptr, _, _, _ = self._parts[k]
        row = _index(ids, v)
        return 0 if row < 0 else indptr[row + 1] - indptr[row]

    # -- batch routing -----------------------------------------------------
    #
    # One call answers a whole coalesced request batch with the same row
    # walk as the scalar methods, one item at a time: a lookup is about a
    # microsecond, so a batch of one costs what one item of a batch of
    # 64 costs.  A miss (including an id beyond int64) yields ``None``
    # instead of raising so one uncovered vertex cannot poison the rest
    # of a batch.

    def route_many(self, vertices: Sequence[int]) -> List[Route]:
        """``(master, replicas)`` per vertex; ``None`` where uncovered."""
        return [self._route(v) for v in vertices]

    def neighbors_many(self, vertices: Sequence[int]) -> List[NeighborRow]:
        """``(sorted neighbours, replicas)`` per vertex; ``None`` on a miss."""
        return [self._neighbour_row(v) for v in vertices]

    def owners_many(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> List[Optional[int]]:
        """Owning partition per ``(u, v)`` pair; ``None`` where absent."""
        return [self._owner(*normalize_edge(u, v)) for u, v in pairs]

    # -- summaries ---------------------------------------------------------

    def partition_stats(self, k: int) -> Dict[str, int]:
        """Edge/vertex/master counts for partition ``k``."""
        if not 0 <= k < self.num_partitions:
            raise KeyError(k)
        csr = self._csr
        ids, _, indices = csr.parts[k]
        vertices = len(ids)
        if vertices:
            rows = np.searchsorted(csr.vertex_ids, ids)
            masters = int(np.count_nonzero(csr.master[rows] == k))
        else:
            masters = 0
        return {
            "partition": k,
            "edges": len(indices) // 2,
            "vertices": vertices,
            "masters": masters,
            "mirrors": vertices - masters,
        }

    def partition_sizes(self) -> List[int]:
        """``|E(P_k)|`` for each partition."""
        return [len(indices) // 2 for _, _, indices in self._csr.parts]

    def total_replicas(self) -> int:
        """Total replica count over all covered vertices (the RF numerator)."""
        return len(self._rep_parts)

    def replication_factor(self) -> float:
        """Mean replicas per covered vertex (1.0 for the empty store)."""
        covered = len(self._ids)
        if covered == 0:
            return 1.0
        return self.total_replicas() / covered

    def stats(self) -> Dict[str, object]:
        """Global summary used by the ``stats`` query."""
        return store_summary(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(epoch={self.epoch}, p={self.num_partitions}, "
            f"edges={self.num_edges}, vertices={self.num_vertices})"
        )


#: What serves queries: a bare store, or one wrapped in the ingest overlay
#: (which answers the same query surface over base + delta).
ServingStore = Union[PartitionStore, "DeltaOverlay"]


def store_summary(store: ServingStore) -> Dict[str, object]:
    """The ``stats`` summary of any serving store."""
    return {
        "epoch": store.epoch,
        "num_partitions": store.num_partitions,
        "num_edges": store.num_edges,
        "num_vertices": store.num_vertices,
        "replication_factor": round(store.replication_factor(), 6),
        "partition_sizes": store.partition_sizes(),
        "metadata": store.metadata,
    }

# -- hot re-partitioning ----------------------------------------------------


class ReloadError(RuntimeError):
    """A hot reload could not be applied; the live epoch is unchanged."""


class ReloadInProgress(ReloadError):
    """A reload was requested while another build is still running."""


class BundleValidationError(ReloadError):
    """The candidate store failed sanity checks against the live epoch."""


class StoreManager:
    """Owns the live :class:`PartitionStore` and swaps replacements in.

    The manager is the concurrency boundary for hot re-partitioning:

    * ``acquire()`` hands out ``(store, epoch)`` leases; a request pinned
      to an epoch keeps reading the store it started on even if a swap
      lands mid-flight.  ``release(epoch)`` returns the lease.
    * ``reload()`` builds a new store from a ``save_partition`` bundle
      **off the event loop** (executor thread), validates it against the
      live epoch, flips it in atomically, then waits for the retired
      epoch to drain (lease count → 0) before the old store is dropped.
    * Exactly one build runs at a time; a second ``reload`` is rejected
      with :class:`ReloadInProgress` (the reject-during-build policy).

    Lease bookkeeping is plain integers: like the rest of the service it
    is single-event-loop code (``reload_sync`` exists for in-process,
    single-threaded use such as the bench driver and tests).
    """

    def __init__(
        self,
        store: ServingStore,
        *,
        metrics: Optional["ServiceMetrics"] = None,
        allow_partition_count_change: bool = False,
        drain_timeout: float = 30.0,
    ) -> None:
        self.metrics = metrics
        self.allow_partition_count_change = allow_partition_count_change
        self.drain_timeout = drain_timeout
        #: Optional decorator applied to every store the manager builds
        #: (the live one via :meth:`wrap_live`, replacements in
        #: :meth:`_build`).  The ingest layer uses it to re-wrap each new
        #: epoch in a fresh :class:`~repro.service.ingest.DeltaOverlay`.
        self.wrap: Optional[Callable[[PartitionStore], ServingStore]] = None
        if store.epoch == 0:
            store.epoch = 1
        self._store = store
        self._leases: Dict[int, int] = {}
        #: Retired epochs still holding leases: epoch -> (store, event|None).
        self._retired: Dict[
            int, Tuple[ServingStore, Optional[asyncio.Event]]
        ] = {}
        self._reloading = False
        self._set_gauge("epoch", store.epoch)

    # -- live view ---------------------------------------------------------

    @property
    def store(self) -> ServingStore:
        """The store serving the live epoch."""
        return self._store

    @property
    def epoch(self) -> int:
        """The live epoch id (increments by one per successful swap)."""
        return self._store.epoch

    @property
    def reloading(self) -> bool:
        """Whether a build is currently in flight."""
        return self._reloading

    # -- leases ------------------------------------------------------------

    def acquire(self) -> Tuple[ServingStore, int]:
        """Pin the live store: returns ``(store, epoch)``, refcount +1."""
        store = self._store
        epoch = store.epoch
        self._leases[epoch] = self._leases.get(epoch, 0) + 1
        return store, epoch

    def release(self, epoch: int) -> None:
        """Return a lease taken with :meth:`acquire`."""
        count = self._leases.get(epoch, 0) - 1
        if count < 0:  # pragma: no cover - a double release is a bug
            raise RuntimeError(f"lease underflow for epoch {epoch}")
        if count:
            self._leases[epoch] = count
            return
        self._leases.pop(epoch, None)
        retired = self._retired.pop(epoch, None)
        if retired is not None:
            _store, event = retired
            if self.metrics is not None:
                self.metrics.inc("epochs_retired")
            if event is not None:
                event.set()

    def active_leases(self, epoch: Optional[int] = None) -> int:
        """Outstanding leases for ``epoch`` (or across all epochs)."""
        if epoch is not None:
            return self._leases.get(epoch, 0)
        return sum(self._leases.values())

    def retired_epochs(self) -> Tuple[int, ...]:
        """Epochs that were swapped out but still hold leases."""
        return tuple(sorted(self._retired))

    # -- validation --------------------------------------------------------

    def validate(self, candidate: ServingStore) -> None:
        """Sanity-check a candidate store against the live epoch.

        Raises :class:`BundleValidationError` on an empty store, a
        partition-count change (unless allowed), or a nonsensical
        replication factor — the cheap invariants that catch a wrong or
        torn bundle before it starts serving.
        """
        if candidate.num_partitions < 1:
            raise BundleValidationError("candidate has no partitions")
        if candidate.num_edges < 1:
            raise BundleValidationError("candidate holds no edges")
        live = self._store
        if (
            not self.allow_partition_count_change
            and candidate.num_partitions != live.num_partitions
        ):
            raise BundleValidationError(
                f"partition count changed {live.num_partitions} -> "
                f"{candidate.num_partitions}; pass "
                "allow_partition_count_change=True to permit"
            )
        rf = candidate.replication_factor()
        if not rf >= 1.0:  # also catches NaN
            raise BundleValidationError(f"replication factor {rf!r} is invalid")

    # -- swapping ----------------------------------------------------------

    def install(self, candidate: ServingStore) -> Dict[str, object]:
        """Validate and atomically flip ``candidate`` in as the new epoch.

        Synchronous and atomic from the event loop's point of view: the
        epoch stamp, the swap, and the retire of the old epoch happen
        with no awaits in between.  Returns a summary dict; the retired
        store is dropped as soon as its lease count reaches zero.
        """
        self.validate(candidate)
        old = self._store
        candidate.epoch = old.epoch + 1
        self._store = candidate
        pinned = self._leases.get(old.epoch, 0)
        if pinned:
            try:
                asyncio.get_running_loop()
                event: Optional[asyncio.Event] = asyncio.Event()
            except RuntimeError:  # sync caller: freed on last release, no wait
                event = None
            self._retired[old.epoch] = (old, event)
        if self.metrics is not None:
            self.metrics.inc("reloads_ok")
            self._set_gauge("epoch", candidate.epoch)
        return {
            "epoch": candidate.epoch,
            "previous_epoch": old.epoch,
            "pinned_to_previous": pinned,
            "num_partitions": candidate.num_partitions,
            "num_edges": candidate.num_edges,
            "replication_factor": round(candidate.replication_factor(), 6),
        }

    def _build(self, directory: PathLike, verify: bool) -> ServingStore:
        store = PartitionStore.open(directory, verify=verify)
        return store if self.wrap is None else self.wrap(store)

    def wrap_live(
        self, wrapper: Callable[[PartitionStore], ServingStore]
    ) -> ServingStore:
        """Decorate the live store in place and every future build.

        Must run before the manager starts handing out leases (server
        start-up): the live store is replaced under the same epoch, so a
        request pinned to the bare store would otherwise keep seeing it.
        Returns the wrapped live store.
        """
        if self.active_leases():
            raise RuntimeError("cannot wrap the live store while leases are out")
        self.wrap = wrapper
        epoch = self._store.epoch
        wrapped = wrapper(self._store)
        wrapped.epoch = epoch
        self._store = wrapped
        return wrapped

    async def reload(
        self, directory: PathLike, *, verify: bool = True
    ) -> Dict[str, object]:
        """Hot-swap the bundle at ``directory`` in; returns a summary.

        The store is built in an executor thread so the event loop keeps
        serving the old epoch during the build.  After the atomic flip
        the call waits (up to ``drain_timeout``) for every request pinned
        to the old epoch to finish: ``drained`` in the result is the
        number of in-flight requests that were still reading the old
        store when the flip landed.
        """
        if self._reloading:
            self._count_failure("reloads_rejected")
            raise ReloadInProgress("another reload is already building")
        self._reloading = True
        started = time.perf_counter()
        try:
            loop = asyncio.get_running_loop()
            try:
                candidate = await loop.run_in_executor(
                    None, self._build, directory, verify
                )
            except Exception as exc:  # noqa: BLE001 — any corrupt bundle
                self._count_failure("reloads_failed")
                raise ReloadError(f"cannot open bundle {directory}: {exc}") from exc
            try:
                info = self.install(candidate)
            except BundleValidationError:
                self._count_failure("reloads_failed")
                raise
            build_seconds = time.perf_counter() - started
            drained = int(info["pinned_to_previous"])
            retired = self._retired.get(info["previous_epoch"])
            if retired is not None and retired[1] is not None:
                try:
                    await asyncio.wait_for(
                        retired[1].wait(), self.drain_timeout
                    )
                except asyncio.TimeoutError:
                    info["drain_timed_out"] = True
            info["drained"] = drained
            info["build_seconds"] = round(build_seconds, 6)
            if self.metrics is not None:
                self.metrics.observe("reload_build", build_seconds)
                self.metrics.observe(
                    "reload_swap", time.perf_counter() - started
                )
                self.metrics.inc("queries_drained", drained)
            return info
        finally:
            self._reloading = False

    def reload_sync(
        self, directory: PathLike, *, verify: bool = True
    ) -> Dict[str, object]:
        """Blocking counterpart of :meth:`reload` for in-process use.

        Builds in the calling thread; with single-threaded callers there
        are no leases pinned across the call, so no drain wait is needed
        (a still-pinned old epoch is simply retired and freed on its last
        ``release``).
        """
        if self._reloading:
            self._count_failure("reloads_rejected")
            raise ReloadInProgress("another reload is already building")
        self._reloading = True
        started = time.perf_counter()
        try:
            try:
                candidate = self._build(directory, verify)
            except Exception as exc:  # noqa: BLE001 — any corrupt bundle
                self._count_failure("reloads_failed")
                raise ReloadError(f"cannot open bundle {directory}: {exc}") from exc
            try:
                info = self.install(candidate)
            except BundleValidationError:
                self._count_failure("reloads_failed")
                raise
            build_seconds = time.perf_counter() - started
            info["drained"] = int(info["pinned_to_previous"])
            info["build_seconds"] = round(build_seconds, 6)
            if self.metrics is not None:
                self.metrics.observe("reload_build", build_seconds)
                self.metrics.inc("queries_drained", info["drained"])
            return info
        finally:
            self._reloading = False

    # -- metrics glue ------------------------------------------------------

    def _set_gauge(self, name: str, value: float) -> None:
        if self.metrics is not None and hasattr(self.metrics, "set_gauge"):
            self.metrics.set_gauge(name, value)

    def _count_failure(self, counter: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(counter)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StoreManager(epoch={self.epoch}, leases={self.active_leases()}, "
            f"retired={list(self.retired_epochs())})"
        )
