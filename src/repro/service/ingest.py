"""The write path: WAL-backed edge mutations over the immutable stores.

The serving bundles (:mod:`repro.service.store`) are immutable by
design — that is what makes them shareable, mmap-able, and hot-swappable.
This module layers mutability on top without giving any of that up:

* :class:`DeltaOverlay` wraps a base :class:`PartitionStore` and
  records edge inserts/deletes plus the implied vertex-replica and
  master changes.  Every read query merges base + delta, and the
  summary stats — ``replication_factor()``,
  ``partition_sizes()``, ``partition_stats()`` — stay **exact**, not
  approximations: the overlay maintains the same integer numerator and
  denominator a from-scratch rebuild would produce, so the RF float is
  bit-identical to recomputing from the materialised partition.
* Placement reuses the streaming heuristics the repo already ships:
  :func:`place_hdrf` (Petroni et al.) and :func:`place_greedy`
  (PowerGraph Oblivious), restricted to partitions under the capacity
  bound ``C`` and made deterministic (ties break to the lowest id) so a
  WAL replay reproduces the exact same placements.
* :class:`Ingestor` owns the mutation protocol: validate → append to
  the :class:`~repro.service.wal.WriteAheadLog` → apply to the overlay
  (WAL-before-apply, so a crash never acknowledges a lost mutation),
  with client-sequence deduplication for idempotent retries, and
  **compaction**: fold the overlay into a fresh bundle via
  ``save_partition``, reset the WAL, and epoch-swap it in through the
  PR 3 :class:`~repro.service.store.StoreManager` without dropping
  in-flight queries.

Consistency model (documented for operators in docs/SERVING.md): reads
are snapshot-consistent per batch — the handler keys batches by
``(epoch, delta_version)`` so one batch observes one delta version —
and mutations are serial (the asyncio server applies them one at a
time on the event loop; there is no cross-mutation interleaving).
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.partitioning.refine import LocalSearchRefiner, RefineStats
from repro.graph.graph import Edge, normalize_edge
from repro.partitioning.assignment import EdgePartition, edges_to_array
from repro.partitioning.scoring import balance_offsets, greedy_choice, hdrf_ties
from repro.service.store import (
    NeighborRow,
    PartitionStore,
    Route,
    StoreManager,
    store_summary,
)
from repro.service.wal import WriteAheadLog

PathLike = Union[str, Path]

#: Default WAL file name inside a bundle directory.
WAL_NAME = "ingest.wal"

#: Accepted values for the ``policy=`` option of :class:`Ingestor`.
PLACEMENT_POLICIES = ("hdrf", "greedy")

#: Vertex ids a bundle can hold: the CSR sidecar stores them as int64.
_ID_MIN, _ID_MAX = -(2**63), 2**63 - 1


def _check_storable(u: int, v: int) -> None:
    """Raise ``ValueError`` unless both endpoints fit the bundle's int64."""
    for w in (u, v):
        if not _ID_MIN <= w <= _ID_MAX:
            raise ValueError(f"vertex id {w} is outside the int64 range")


class IngestError(RuntimeError):
    """Base class for mutation failures."""


class ConflictError(IngestError):
    """The mutation contradicts current state (duplicate insert, double delete)."""


class CapacityError(IngestError):
    """Every partition is at the capacity bound; compact or repartition."""


class IngestFrozen(IngestError):
    """Mutations are paused while a compaction folds the overlay (retryable)."""


# -- the overlay -------------------------------------------------------------


class DeltaOverlay:
    """Base store + mutation delta, answering every store query exactly.

    The overlay keeps the base untouched and tracks, per partition, the
    inserted edges, the deleted base edges, and — per *touched* vertex —
    the effective local degree in every partition plus the current
    master.  Untouched vertices fall through to the base store, so read
    cost only grows with the mutation set, not the graph.

    Aggregates are maintained incrementally as plain integers
    (``covered`` vertices and ``total replicas``), which makes
    :meth:`replication_factor` bit-identical to recomputing from
    :meth:`to_partition` — the acceptance criterion the property tests
    pin down.

    Thread-model: mutations only ever run on the event loop (or the
    single test thread); read queries never write overlay state, so a
    compaction may safely fold :meth:`to_partition` in an executor
    thread while reads continue.
    """

    def __init__(self, base: PartitionStore) -> None:
        self._base = base
        self.metadata = base.metadata
        self.epoch = base.epoch
        p = base.num_partitions
        #: Owner of every overlay-inserted edge.
        self._ins_owner: Dict[Edge, int] = {}
        #: Base owner of every deleted base edge.
        self._del_owner: Dict[Edge, int] = {}
        # Per-partition adjacency deltas: added / removed neighbour sets.
        self._adj_ins: List[Dict[int, Set[int]]] = [{} for _ in range(p)]
        self._adj_del: List[Dict[int, Set[int]]] = [{} for _ in range(p)]
        # Per-partition aggregate deltas vs. the base store.
        self._size_delta: List[int] = [0] * p
        self._vertex_delta: List[int] = [0] * p
        self._master_delta: List[int] = [0] * p
        #: Effective local degree per touched vertex ({} = now uncovered).
        self._deg: Dict[int, Dict[int, int]] = {}
        #: Current master per touched vertex (None = uncovered).
        self._master: Dict[int, Optional[int]] = {}
        # Live RF as integers: denominator and numerator.
        self._covered = base.num_vertices
        self._total_replicas = base.total_replicas()
        #: Bumped once per applied mutation; batch snapshot key.
        self.delta_version = 0
        #: Mutations applied since this overlay was created (compaction resets
        #: by swapping in a fresh overlay, not by rewinding this counter).
        self.pending_mutations = 0

    # -- identity ----------------------------------------------------------

    @property
    def base(self) -> PartitionStore:
        """The wrapped immutable store."""
        return self._base

    @property
    def partition(self) -> EdgePartition:
        """Materialise base + delta (expensive; compaction/compat only)."""
        return self.to_partition()

    # -- basic shape -------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return self._base.num_partitions

    @property
    def num_edges(self) -> int:
        return self._base.num_edges + sum(self._size_delta)

    @property
    def num_vertices(self) -> int:
        return self._covered

    def has_vertex(self, v: int) -> bool:
        deg = self._deg.get(v)
        if deg is not None:
            return bool(deg)
        return self._base.has_vertex(v)

    # -- routing -----------------------------------------------------------

    def master_of(self, v: int) -> int:
        if v in self._deg:
            master = self._master.get(v)
            if master is None:
                raise KeyError(v)
            return master
        return self._base.master_of(v)

    def replicas_of(self, v: int) -> Tuple[int, ...]:
        deg = self._deg.get(v)
        if deg is not None:
            return tuple(sorted(deg))
        return self._base.replicas_of(v)

    def mirrors_of(self, v: int) -> Tuple[int, ...]:
        master = self.master_of(v)
        return tuple(k for k in self.replicas_of(v) if k != master)

    def owner_of_edge(self, u: int, v: int) -> int:
        edge = normalize_edge(u, v)
        owner = self._ins_owner.get(edge)
        if owner is not None:
            return owner
        if edge in self._del_owner:
            raise KeyError(edge)
        return self._base.owner_of_edge(u, v)

    def neighbors(self, v: int) -> Set[int]:
        deg = self._deg.get(v)
        if deg is None:
            return self._base.neighbors(v)
        if not deg:
            raise KeyError(v)
        merged: Set[int] = set()
        for k in deg:
            merged |= self.local_neighbors(v, k)
        return merged

    def local_neighbors(self, v: int, k: int) -> Set[int]:
        neighbours = self._base.local_neighbors(v, k)
        dropped = self._adj_del[k].get(v)
        if dropped:
            neighbours -= dropped
        added = self._adj_ins[k].get(v)
        if added:
            neighbours |= added
        return neighbours

    def local_degree(self, v: int, k: int) -> int:
        deg = self._deg.get(v)
        if deg is not None:
            return deg.get(k, 0)
        return self._base.local_degree(v, k)

    def degree(self, v: int) -> int:
        """Total effective degree of ``v`` (0 if uncovered).

        Each edge lives in exactly one partition, so summing local
        degrees over the replica set gives the true degree — the partial
        degree the HDRF placement score needs.
        """
        deg = self._deg.get(v)
        if deg is not None:
            return sum(deg.values())
        base = self._base
        return sum(base.local_degree(v, k) for k in base.replicas_of(v))

    # -- batch routing -----------------------------------------------------
    #
    # Delta corrections only apply to *touched* rows: ``_bump_degree``
    # records both endpoints of every mutation in ``_deg``, so any vertex
    # absent from it answers exactly as the base store.  Each batch is
    # therefore split once — touched vertices take the scalar overlay
    # path, the (typically much larger) untouched remainder is answered
    # by one vectorised call on the base.

    def route_many(self, vertices: Sequence[int]) -> List[Route]:
        out: List[Route] = [None] * len(vertices)
        base_pos: List[int] = []
        base_vs: List[int] = []
        for i, v in enumerate(vertices):
            deg = self._deg.get(v)
            if deg is None:
                base_pos.append(i)
                base_vs.append(v)
            elif deg:
                master = self._master.get(v)
                if master is not None:
                    out[i] = (master, tuple(sorted(deg)))
        if base_vs:
            for i, route in zip(base_pos, self._base.route_many(base_vs)):
                out[i] = route
        return out

    def neighbors_many(self, vertices: Sequence[int]) -> List[NeighborRow]:
        out: List[NeighborRow] = [None] * len(vertices)
        base_pos: List[int] = []
        base_vs: List[int] = []
        for i, v in enumerate(vertices):
            deg = self._deg.get(v)
            if deg is None:
                base_pos.append(i)
                base_vs.append(v)
            elif deg:
                merged: Set[int] = set()
                for k in deg:
                    merged |= self.local_neighbors(v, k)
                out[i] = (sorted(merged), tuple(sorted(deg)))
        if base_vs:
            for i, row in zip(base_pos, self._base.neighbors_many(base_vs)):
                out[i] = row
        return out

    def owners_many(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> List[Optional[int]]:
        out: List[Optional[int]] = [None] * len(pairs)
        base_pos: List[int] = []
        base_pairs: List[Tuple[int, int]] = []
        for i, (u, v) in enumerate(pairs):
            edge = normalize_edge(u, v)
            owner = self._ins_owner.get(edge)
            if owner is not None:
                out[i] = owner
            elif edge not in self._del_owner:
                base_pos.append(i)
                base_pairs.append(edge)
        if base_pairs:
            for i, owner in zip(base_pos, self._base.owners_many(base_pairs)):
                out[i] = owner
        return out

    # -- summaries ---------------------------------------------------------

    def partition_stats(self, k: int) -> Dict[str, int]:
        stats = self._base.partition_stats(k)
        stats["edges"] += self._size_delta[k]
        stats["vertices"] += self._vertex_delta[k]
        stats["masters"] += self._master_delta[k]
        stats["mirrors"] = stats["vertices"] - stats["masters"]
        return stats

    def partition_sizes(self) -> List[int]:
        return [
            size + delta
            for size, delta in zip(self._base.partition_sizes(), self._size_delta)
        ]

    def total_replicas(self) -> int:
        return self._total_replicas

    def replication_factor(self) -> float:
        if self._covered == 0:
            return 1.0
        return self._total_replicas / self._covered

    def rf_drift(self) -> float:
        """Overlay RF minus base RF — what compaction would claw back."""
        return self.replication_factor() - self._base.replication_factor()

    def stats(self) -> Dict[str, object]:
        out = store_summary(self)
        out["pending_mutations"] = self.pending_mutations
        out["delta_version"] = self.delta_version
        return out

    # -- mutation queries --------------------------------------------------

    def edge_exists(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is in the effective edge set."""
        edge = normalize_edge(u, v)
        if edge in self._ins_owner:
            return True
        if edge in self._del_owner:
            return False
        try:
            self._base.owner_of_edge(u, v)
        except KeyError:
            return False
        return True

    # -- mutation appliers -------------------------------------------------
    # Validation and WAL ordering live in Ingestor; these assume a legal
    # mutation and keep every aggregate exact.

    def apply_insert(self, u: int, v: int, k: int) -> None:
        """Add edge ``{u, v}`` to partition ``k``."""
        a, b = normalize_edge(u, v)
        edge = (a, b)
        if edge in self._ins_owner:  # pragma: no cover - Ingestor validates
            raise ConflictError(f"edge {edge} already inserted")
        if self._del_owner.get(edge) == k:
            # Reinsert into the partition whose base copy we deleted:
            # cancel the delete rather than stacking an insert on top.
            del self._del_owner[edge]
            self._drop_adj(self._adj_del, k, a, b)
        else:
            self._ins_owner[edge] = k
            self._add_adj(self._adj_ins, k, a, b)
        self._size_delta[k] += 1
        self._bump_degree(a, k, +1)
        self._bump_degree(b, k, +1)
        self._mutated()

    def apply_delete(self, u: int, v: int) -> int:
        """Remove edge ``{u, v}``; returns the partition that held it."""
        a, b = normalize_edge(u, v)
        edge = (a, b)
        k = self._ins_owner.pop(edge, None)
        if k is not None:
            self._drop_adj(self._adj_ins, k, a, b)
        else:
            if edge in self._del_owner:
                raise ConflictError(f"edge {edge} already deleted")
            k = self._base.owner_of_edge(a, b)  # KeyError if absent
            self._del_owner[edge] = k
            self._add_adj(self._adj_del, k, a, b)
        self._size_delta[k] -= 1
        self._bump_degree(a, k, -1)
        self._bump_degree(b, k, -1)
        self._mutated()
        return k

    def to_partition(self) -> EdgePartition:
        """Fold base + delta into a fresh, array-built :class:`EdgePartition`.

        Deterministic: base edge order is preserved, overlay inserts are
        appended in sorted order.  This is the compaction input and the
        reference the property tests rebuild stats from.  Per partition,
        a mask drops the deleted base edges and the sorted inserts are
        concatenated, so the cost is array passes over the base plus
        Python work over the delta only.  The caller must hold mutations
        off for the duration (compaction freezes ingest).
        """
        p = self.num_partitions
        deleted: List[Set[Edge]] = [set() for _ in range(p)]
        for edge, k in self._del_owner.items():
            deleted[k].add(edge)
        inserted: List[List[Edge]] = [[] for _ in range(p)]
        for edge, k in self._ins_owner.items():
            inserted[k].append(edge)
        base = self._base.partition
        arrays: List[np.ndarray] = []
        for k in range(p):
            edges = base.edge_array(k)
            if deleted[k]:
                edges = edges[~_rows_in(edges, deleted[k])]
            if inserted[k]:
                edges = np.concatenate((edges, edges_to_array(sorted(inserted[k]))))
            arrays.append(edges)
        return EdgePartition.from_arrays(arrays)

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _add_adj(
        table: List[Dict[int, Set[int]]], k: int, a: int, b: int
    ) -> None:
        adj = table[k]
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    @staticmethod
    def _drop_adj(
        table: List[Dict[int, Set[int]]], k: int, a: int, b: int
    ) -> None:
        adj = table[k]
        for x, y in ((a, b), (b, a)):
            row = adj.get(x)
            if row is not None:
                row.discard(y)
                if not row:
                    del adj[x]

    def _touch(self, v: int) -> Dict[int, int]:
        """Pull ``v``'s base degrees/master into the overlay (once)."""
        deg = self._deg.get(v)
        if deg is None:
            base = self._base
            deg = {k: base.local_degree(v, k) for k in base.replicas_of(v)}
            self._deg[v] = deg
            self._master[v] = base.master_of(v) if deg else None
        return deg

    def _bump_degree(self, v: int, k: int, delta: int) -> None:
        deg = self._touch(v)
        old = deg.get(k, 0)
        new = old + delta
        if new < 0:  # pragma: no cover - appliers keep this impossible
            raise IngestError(f"negative degree for vertex {v} in partition {k}")
        if new:
            deg[k] = new
        else:
            deg.pop(k, None)
        if old == 0 and new > 0:
            self._total_replicas += 1
            self._vertex_delta[k] += 1
            if len(deg) == 1:
                self._covered += 1
        elif old > 0 and new == 0:
            self._total_replicas -= 1
            self._vertex_delta[k] -= 1
            if not deg:
                self._covered -= 1
        self._update_master(v, deg)

    def _update_master(self, v: int, deg: Dict[int, int]) -> None:
        # Same rule as ReplicationTable / the CSR sidecar: most local
        # edges, ties to the lowest partition id.
        new: Optional[int]
        if deg:
            new = max(deg, key=lambda k: (deg[k], -k))
        else:
            new = None
        old = self._master.get(v)
        if new == old:
            return
        if old is not None:
            self._master_delta[old] -= 1
        if new is not None:
            self._master_delta[new] += 1
        self._master[v] = new

    def _mutated(self) -> None:
        self.delta_version += 1
        self.pending_mutations += 1


def _rows_in(edges: np.ndarray, targets: Set[Edge]) -> np.ndarray:
    """Boolean mask of the rows of ``edges`` that are in ``targets``.

    A vectorised membership test on the first endpoint narrows the rows
    to the few that can match; only those are checked as tuples.
    """
    mask = np.isin(edges[:, 0], [u for u, _ in targets])
    rows = np.flatnonzero(mask)
    mask[rows] = [edge in targets for edge in map(tuple, edges[rows].tolist())]
    return mask


# -- placement ---------------------------------------------------------------


def _under_capacity(sizes: List[int], capacity: Optional[int]) -> List[int]:
    if capacity is None:
        return list(range(len(sizes)))
    candidates = [k for k, size in enumerate(sizes) if size < capacity]
    if not candidates:
        raise CapacityError(
            f"all {len(sizes)} partitions at capacity {capacity}; compact first"
        )
    return candidates


def place_hdrf(
    store: DeltaOverlay,
    u: int,
    v: int,
    *,
    capacity: Optional[int] = None,
    lam: float = 1.1,
    epsilon: float = 1.0,
    offsets: Optional[Sequence[int]] = None,
) -> int:
    """HDRF score over under-capacity partitions; ties to the lowest id.

    Identical scoring to :class:`repro.partitioning.hdrf.HDRFPartitioner`
    with partial degrees (the degree *including* the arriving edge), but
    deterministic — online placement must replay identically from the
    WAL, so random tie-breaking is off the table.  ``offsets`` are the
    optional refined-profile balance priors
    (:func:`repro.partitioning.scoring.balance_offsets`); placement is
    unchanged when they are absent.
    """
    sizes = store.partition_sizes()
    candidates = _under_capacity(sizes, capacity)
    du = store.degree(u) + 1
    dv = store.degree(v) + 1
    ties = hdrf_ties(
        du,
        dv,
        set(store.replicas_of(u)),
        set(store.replicas_of(v)),
        sizes,
        candidates=candidates,
        lam=lam,
        epsilon=epsilon,
        offsets=offsets,
    )
    return ties[0]  # candidates ascend, so [0] is the lowest id on ties


def place_greedy(
    store: DeltaOverlay,
    u: int,
    v: int,
    *,
    capacity: Optional[int] = None,
) -> int:
    """PowerGraph's four greedy rules over under-capacity partitions.

    Replica sets are intersected with the candidate set first (a full
    partition cannot take the edge even if it hosts both endpoints);
    least-loaded ties break to the lowest id for determinism.
    """
    sizes = store.partition_sizes()
    candidates = _under_capacity(sizes, capacity)
    return greedy_choice(
        set(store.replicas_of(u)), set(store.replicas_of(v)), sizes, candidates
    )


# -- the ingestor ------------------------------------------------------------


class Ingestor:
    """Mutation front door: validate → WAL → overlay, plus compaction.

    One instance per served bundle.  :meth:`enable` is the normal entry
    point: it opens (and replays) the bundle's WAL, wraps the manager's
    live store in a :class:`DeltaOverlay` — and registers the wrap so
    every future reload/compaction epoch gets a fresh overlay too.
    """

    def __init__(
        self,
        manager: StoreManager,
        wal: WriteAheadLog,
        bundle_dir: PathLike,
        *,
        policy: str = "hdrf",
        capacity: Optional[int] = None,
        lam: float = 1.1,
        epsilon: float = 1.0,
        metrics=None,
        dedup_size: int = 4096,
        refine_on_compact: bool = False,
        refine_slack: float = 1.0,
        refine_epsilon: float = 0.0,
        refine_max_passes: int = 8,
        refined_hints: bool = True,
    ) -> None:
        if policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"policy must be one of {PLACEMENT_POLICIES}, got {policy!r}"
            )
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.manager = manager
        self.wal = wal
        self.bundle_dir = Path(bundle_dir)
        self.policy = policy
        self.capacity = capacity
        self.lam = lam
        self.epsilon = epsilon
        self.metrics = metrics
        self.dedup_size = dedup_size
        #: Local-search RF refinement run on every compaction fold
        #: (``refine_on_compact``), clawing back mutation-induced RF drift
        #: before the epoch swap.  Built here, not per fold, so a bad
        #: refine setting fails at enable time instead of on every
        #: compaction.
        self.refiner: Optional[LocalSearchRefiner] = None
        if refine_on_compact:
            from repro.partitioning.refine import LocalSearchRefiner

            self.refiner = LocalSearchRefiner(
                slack=refine_slack,
                epsilon=refine_epsilon,
                max_passes=refine_max_passes,
            )
        #: Consume a ``metadata["refined"]["partition_sizes"]`` profile
        #: (when the bundle carries one) as HDRF balance priors.
        self.refined_hints = refined_hints
        #: Per-partition additive size offsets derived from the refined
        #: profile (``None`` until a profile is seen; placement is
        #: bit-identical to the prior behaviour while ``None``).
        self.balance_offsets: Optional[List[int]] = None
        #: :class:`~repro.partitioning.refine.RefineStats` of the most
        #: recent refined compaction (``None`` until one runs).
        self.last_refine_stats: Optional[RefineStats] = None
        #: Wall-clock seconds of the most recent fold + refine + save.
        self.last_fold_seconds = 0.0
        #: Next WAL sequence number (monotonic across compactions).
        self.next_seq = 0
        self.inserts = 0
        self.deletes = 0
        self.compactions = 0
        self.replayed_mutations = 0
        self._frozen = False
        #: (client, cseq) -> cached result, LRU-bounded, for idempotent retries.
        self._dedup: "OrderedDict[Tuple[str, int], Dict[str, object]]" = (
            OrderedDict()
        )

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def enable(
        cls,
        manager: StoreManager,
        bundle_dir: PathLike,
        *,
        wal_path: Optional[PathLike] = None,
        fsync: str = "batch",
        batch_interval: float = 0.05,
        policy: str = "hdrf",
        capacity: Optional[int] = None,
        lam: float = 1.1,
        epsilon: float = 1.0,
        metrics=None,
        dedup_size: int = 4096,
        refine_on_compact: bool = False,
        refine_slack: float = 1.0,
        refine_epsilon: float = 0.0,
        refine_max_passes: int = 8,
        refined_hints: bool = True,
    ) -> "Ingestor":
        """Turn a read-only manager into a mutable one.

        Must run before the server starts admitting requests (the live
        store is re-wrapped under the same epoch).  Replays any WAL left
        by a previous process, so restarting after a crash converges to
        the acknowledged state.
        """
        bundle_dir = Path(bundle_dir)
        wal = WriteAheadLog(
            wal_path or bundle_dir / WAL_NAME,
            fsync=fsync,
            batch_interval=batch_interval,
            metrics=metrics,
        )
        # Validate every setting before touching the WAL or the manager.
        ingestor = cls(
            manager,
            wal,
            bundle_dir,
            policy=policy,
            capacity=capacity,
            lam=lam,
            epsilon=epsilon,
            metrics=metrics,
            dedup_size=dedup_size,
            refine_on_compact=refine_on_compact,
            refine_slack=refine_slack,
            refine_epsilon=refine_epsilon,
            refine_max_passes=refine_max_passes,
            refined_hints=refined_hints,
        )
        records = wal.open()
        manager.wrap_live(DeltaOverlay)
        ingestor._load_refined_hints()
        ingestor._replay(records)
        ingestor.publish_gauges()
        return ingestor

    def close(self) -> None:
        """Flush and close the WAL."""
        self.wal.close()

    @property
    def overlay(self) -> DeltaOverlay:
        """The live overlay (the manager's current store)."""
        store = self.manager.store
        if not isinstance(store, DeltaOverlay):  # pragma: no cover - wiring bug
            raise IngestError("live store is not wrapped in a DeltaOverlay")
        return store

    @property
    def frozen(self) -> bool:
        """Whether mutations are paused by an in-flight compaction."""
        return self._frozen

    # -- mutations ---------------------------------------------------------

    def insert_edge(
        self,
        u: int,
        v: int,
        *,
        client: Optional[str] = None,
        cseq: Optional[int] = None,
    ) -> Dict[str, object]:
        """Insert edge ``{u, v}``; returns ``{partition, seq, ...}``.

        Raises :class:`ConflictError` if the edge already exists,
        :class:`CapacityError` if no partition can take it,
        :class:`IngestFrozen` during a compaction fold, and
        ``ValueError`` for a self-loop or an endpoint outside int64 (the
        bundle could not store it), before anything reaches the WAL.
        """
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not a valid edge")
        _check_storable(u, v)
        key = self._dedup_key(client, cseq)
        cached = self._cached(key)
        if cached is not None:
            return cached
        self._check_unfrozen()
        overlay = self.overlay
        a, b = normalize_edge(u, v)
        if overlay.edge_exists(a, b):
            raise ConflictError(f"edge ({a}, {b}) already exists")
        k = self._place(overlay, a, b)
        result = self._commit(
            {"op": "insert", "u": a, "v": b, "k": k}, key
        )
        overlay.apply_insert(a, b, k)
        self.inserts += 1
        self._count("edges_inserted")
        self.publish_gauges()
        return result

    def delete_edge(
        self,
        u: int,
        v: int,
        *,
        client: Optional[str] = None,
        cseq: Optional[int] = None,
    ) -> Dict[str, object]:
        """Delete edge ``{u, v}``; routed to ``owner_of_edge``.

        Raises ``KeyError`` (→ ``not_found`` on the wire) if the edge is
        not in the effective set, :class:`IngestFrozen` mid-compaction.
        """
        key = self._dedup_key(client, cseq)
        cached = self._cached(key)
        if cached is not None:
            return cached
        self._check_unfrozen()
        overlay = self.overlay
        a, b = normalize_edge(u, v)
        k = overlay.owner_of_edge(a, b)  # KeyError if absent
        result = self._commit(
            {"op": "delete", "u": a, "v": b, "k": k}, key
        )
        overlay.apply_delete(a, b)
        self.deletes += 1
        self._count("edges_deleted")
        self.publish_gauges()
        return result

    def ingest_stats(self) -> Dict[str, object]:
        """Operator view: pending delta, WAL size, RF drift, counters."""
        overlay = self.overlay
        rf = overlay.replication_factor()
        base_rf = overlay.base.replication_factor()
        return {
            "epoch": overlay.epoch,
            "policy": self.policy,
            "capacity": self.capacity,
            "frozen": self._frozen,
            "next_seq": self.next_seq,
            "pending_mutations": overlay.pending_mutations,
            "delta_version": overlay.delta_version,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "replayed_mutations": self.replayed_mutations,
            "compactions": self.compactions,
            "wal_bytes": self.wal.size,
            "wal_fsync_policy": self.wal.fsync_policy,
            "refined_hints": self.balance_offsets is not None,
            "num_edges": overlay.num_edges,
            "replication_factor": round(rf, 6),
            "base_replication_factor": round(base_rf, 6),
            "overlay_rf_drift": round(rf - base_rf, 6),
        }

    # -- compaction --------------------------------------------------------

    def compact_sync(self, *, verify: bool = True) -> Dict[str, object]:
        """Blocking compaction for in-process use (CLI, tests, bench)."""
        precheck = self._compaction_precheck()
        if precheck is not None:
            return precheck
        started = time.perf_counter()
        folded = self.overlay.pending_mutations
        self._frozen = True
        try:
            self._fold_and_save()
            self.wal.reset()
            info = self.manager.reload_sync(self.bundle_dir, verify=verify)
        except Exception:
            self._count("compactions_failed")
            raise
        finally:
            self._frozen = False
            self.publish_gauges()
        return self._finish_compaction(info, folded, started)

    async def compact(self, *, verify: bool = True) -> Dict[str, object]:
        """Compact without blocking the event loop.

        The fold + ``save_partition`` run in an executor thread while
        reads keep serving (mutations are frozen — they fail fast with
        :class:`IngestFrozen`, which clients treat as retryable).  The
        WAL resets *after* the folded bundle is durably on disk and
        *before* the epoch swap, so a crash at any point restarts into a
        consistent state: folded bundle + WAL records with sequence
        numbers below the folded watermark are skipped on replay.
        """
        precheck = self._compaction_precheck()
        if precheck is not None:
            return precheck
        started = time.perf_counter()
        folded = self.overlay.pending_mutations
        self._frozen = True
        try:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self._fold_and_save)
            self.wal.reset()
            info = await self.manager.reload(self.bundle_dir, verify=verify)
        except Exception:
            self._count("compactions_failed")
            raise
        finally:
            self._frozen = False
            self.publish_gauges()
        return self._finish_compaction(info, folded, started)

    # -- internals ---------------------------------------------------------

    def _place(self, overlay: DeltaOverlay, u: int, v: int) -> int:
        if self.policy == "greedy":
            return place_greedy(overlay, u, v, capacity=self.capacity)
        return place_hdrf(
            overlay, u, v,
            capacity=self.capacity, lam=self.lam, epsilon=self.epsilon,
            offsets=self.balance_offsets,
        )

    def _load_refined_hints(self) -> None:
        """Adopt the bundle's refined size profile as balance priors.

        No-op (placement bit-identical to before) unless hints are on
        and the bundle's ``metadata["refined"]`` carries a
        ``partition_sizes`` profile matching the partition count.
        """
        if not self.refined_hints:
            return
        refined = self.overlay.metadata.get("refined")
        if not isinstance(refined, dict):
            return
        profile = refined.get("partition_sizes")
        if (
            isinstance(profile, list)
            and len(profile) == self.overlay.num_partitions
            and all(isinstance(s, int) and s >= 0 for s in profile)
        ):
            self.balance_offsets = balance_offsets(profile)

    def _commit(
        self,
        record: Dict[str, object],
        key: Optional[Tuple[str, int]],
    ) -> Dict[str, object]:
        """Stamp, WAL-append, and build the result for one mutation."""
        seq = self.next_seq
        record["seq"] = seq
        if key is not None:
            record["client"], record["cseq"] = key
        self.wal.append(record)
        self.next_seq = seq + 1
        result = {
            "op": record["op"],
            "u": record["u"],
            "v": record["v"],
            "partition": record["k"],
            "seq": seq,
        }
        self._remember(key, result)
        return result

    def _check_unfrozen(self) -> None:
        if self._frozen:
            raise IngestFrozen("compaction in progress; retry shortly")

    def _replay(self, records: List[Dict[str, object]]) -> None:
        overlay = self.overlay
        folded_seq = int(overlay.metadata.get("ingest_folded_seq", 0) or 0)
        self.next_seq = folded_seq
        applied = 0
        for record in records:
            try:
                seq = int(record["seq"])  # type: ignore[arg-type]
                if seq < folded_seq:
                    # A compaction saved the folded bundle but crashed
                    # before resetting the WAL; this record is already in.
                    continue
                op = record["op"]
                u = int(record["u"])  # type: ignore[arg-type]
                v = int(record["v"])  # type: ignore[arg-type]
                if op == "insert":
                    # A log written before inserts were range-checked
                    # can hold an id no bundle can store.
                    _check_storable(u, v)
                    overlay.apply_insert(u, v, int(record["k"]))  # type: ignore[arg-type]
                elif op == "delete":
                    overlay.apply_delete(u, v)
                else:
                    raise IngestError(f"unknown op {op!r}")
            except (KeyError, ConflictError, IngestError, TypeError, ValueError) as exc:
                raise IngestError(
                    f"WAL replay failed at record {record!r}: {exc}"
                ) from exc
            applied += 1
            self.next_seq = seq + 1
            client = record.get("client")
            cseq = record.get("cseq")
            if client is not None and cseq is not None:
                self._remember(
                    (str(client), int(cseq)),  # type: ignore[arg-type]
                    {
                        "op": op,
                        "u": min(u, v),
                        "v": max(u, v),
                        "partition": int(record["k"]),  # type: ignore[arg-type]
                        "seq": seq,
                    },
                )
        self.replayed_mutations = applied
        if applied:
            self._count("mutations_replayed", applied)

    @staticmethod
    def _dedup_key(
        client: Optional[str], cseq: Optional[int]
    ) -> Optional[Tuple[str, int]]:
        if client is None or cseq is None:
            return None
        return (str(client), int(cseq))

    def _cached(
        self, key: Optional[Tuple[str, int]]
    ) -> Optional[Dict[str, object]]:
        if key is None:
            return None
        cached = self._dedup.get(key)
        if cached is None:
            return None
        self._dedup.move_to_end(key)
        self._count("mutations_deduplicated")
        return dict(cached, deduplicated=True)

    def _remember(
        self, key: Optional[Tuple[str, int]], result: Dict[str, object]
    ) -> None:
        if key is None:
            return
        self._dedup[key] = result
        self._dedup.move_to_end(key)
        while len(self._dedup) > self.dedup_size:
            self._dedup.popitem(last=False)

    def _compaction_precheck(self) -> Optional[Dict[str, object]]:
        if self._frozen:
            raise IngestFrozen("compaction already in progress")
        overlay = self.overlay
        if overlay.pending_mutations == 0 and self.wal.size == 0:
            return {
                "skipped": True,
                "reason": "no pending mutations",
                "epoch": overlay.epoch,
                "folded_mutations": 0,
            }
        return None

    def _fold_and_save(self) -> None:
        from repro.partitioning.serialization import save_partition

        fold_started = time.perf_counter()
        overlay = self.overlay
        partition = overlay.to_partition()
        metadata = dict(overlay.metadata)
        # Watermark: WAL records below this are folded into the bundle.
        metadata["ingest_folded_seq"] = self.next_seq
        metadata["compacted_mutations"] = (
            int(metadata.get("compacted_mutations", 0) or 0)
            + overlay.pending_mutations
        )
        if self.refiner is not None:
            # Local-search post-pass over the folded partition: claws
            # back mutation-induced RF drift before the epoch swap, so
            # every refined compaction publishes a strictly-no-worse
            # bundle (still zero dropped queries — same reload path).
            partition, stats = self.refiner.refine(partition)
            self.last_refine_stats = stats
            entry = stats.manifest_entry()
            sizes = partition.partition_sizes()
            entry["partition_sizes"] = sizes
            metadata["refined"] = entry
            if "replication_factor" in metadata:
                metadata["replication_factor"] = round(stats.rf_after, 6)
            if self.refined_hints:
                # Future placements lean toward the freshly refined
                # layout instead of the stale pre-compaction profile.
                self.balance_offsets = balance_offsets(sizes)
        # One thread: the save is a few array passes, and compaction CPU
        # is what a pool's start-up would add to.
        save_partition(partition, self.bundle_dir, metadata=metadata, workers=1)
        self.last_fold_seconds = time.perf_counter() - fold_started

    def _finish_compaction(
        self, info: Dict[str, object], folded: int, started: float
    ) -> Dict[str, object]:
        self.compactions += 1
        elapsed = time.perf_counter() - started
        info = dict(info)
        info["folded_mutations"] = folded
        info["compaction_seconds"] = round(elapsed, 6)
        info["fold_seconds"] = round(self.last_fold_seconds, 6)
        info["wal_bytes"] = self.wal.size
        if self.refiner is not None and self.last_refine_stats is not None:
            stats = self.last_refine_stats
            info["refined"] = {
                "rf_before": round(stats.rf_before, 6),
                "rf_after": round(stats.rf_after, 6),
                "moves": stats.moves,
                "swaps": stats.swaps,
                "passes": stats.passes,
                "seconds": round(stats.seconds, 6),
            }
        self._count("compactions_ok")
        if self.metrics is not None:
            self.metrics.observe("compaction", elapsed)
        return info

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    def publish_gauges(self) -> None:
        """Refresh the operator gauges (no-op without attached metrics)."""
        if self.metrics is None:
            return
        overlay = self.overlay
        self.metrics.set_gauge("pending_mutations", overlay.pending_mutations)
        self.metrics.set_gauge("wal_bytes", self.wal.size)
        self.metrics.set_gauge("overlay_rf_drift", overlay.rf_drift())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Ingestor(policy={self.policy!r}, next_seq={self.next_seq}, "
            f"pending={self.overlay.pending_mutations}, frozen={self._frozen})"
        )
