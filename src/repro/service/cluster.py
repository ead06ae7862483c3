"""Multi-process sharded serving: workers, replicas, failover, epoch swap.

The single-process :class:`~repro.service.server.PartitionServer` hosts
every partition behind one GIL.  This module shards the store across
worker *processes* and keeps the wire protocol unchanged::

                        client (TCP, unchanged protocol)
                          |
              +-----------v-----------+
              |  front-end            |   PartitionServer + ClusterHandler
              |  (routing store mmap) |   routes from its own adjacency.csr
              +--+--------+--------+--+
                 | unix    | unix   | unix     one shard_query frame per
              +--v--+   +--v--+  +--v--+       worker per dispatcher flush
              | s0  |   | s1  |  | s2  |       (vectorised group sweep)
              | r0 r1|  | r0 r1| | r0 r1|      replicas per shard
              +-----+   +-----+  +-----+

* **Workers** — the supervisor spawns ``workers × replicas`` processes
  (``multiprocessing`` *spawn* context: no forked event-loop or thread
  state leaks into the children).  Each worker memory-maps its own view
  of the bundle's ``adjacency.csr`` sidecar and serves the contiguous
  partition group ``[floor(s·p/W), floor((s+1)·p/W))`` over a UNIX
  socket, through a stock :class:`PartitionServer` — same framing, same
  batching, same lease discipline as the TCP front door.
* **Scatter-gather** — the front-end answers ``ping``/``master``/
  ``stats`` locally from its routing arrays, and turns each dispatcher
  flush of ``neighbors``/``edge``/``partition_stats`` reads into at most
  one ``shard_query`` frame per worker: the worker answers its whole
  sub-batch with one vectorised group-restricted sweep
  (:meth:`~repro.service.store.PartitionStore.group_neighbors_many`).
  Per-partition adjacency lists are disjoint, so merging shard partials
  is a concatenate + sort — answers are bit-identical to single-process
  serving.
* **Pre-encoded splicing** — internal worker links speak the binary
  wire codec by default (``wire="binary"``), and ``shard_query`` then
  asks for *pre-encoded* neighbour partials: the worker encodes each
  partial once (:func:`~repro.service.protocol.encode_int_run`) and the
  front-end splices a single-shard partial verbatim into the outgoing
  response frame as a :class:`~repro.service.protocol.PreEncoded` value
  — no decode/re-encode round-trip on the hot path.  Only vertices
  whose replicas span multiple shards (or mixed-codec fallbacks) pay
  the decode-merge-sort, and cross-shard reductions like ``stats``
  always do.  The canonical binary encoding makes spliced bytes
  indistinguishable from freshly encoded ones, so answers stay
  bit-identical either way.
* **Replicas & failover** — every shard has ``replicas`` identical
  workers (the PR 2 deterministic master tie-break makes any process
  over the same bundle a valid read replica).  A shard call walks the
  replica ring, marks a worker down on a transport error, and retries
  the ring (with backoff) until ``failover_timeout``; only then does the
  *request* fail, with the retryable ``unavailable`` code — a read is
  never answered wrongly, only late or not at all.
* **Supervision** — a health loop pings every worker
  (``worker_up_s{s}r{r}`` / ``worker_epoch_s{s}r{r}`` gauges) and
  respawns dead processes against the *current* bundle and epoch.
* **Coordinated swap** — ``reload`` is intercepted by the front-end's
  :class:`ClusterStoreManager` and runs as a two-phase commit: *prepare*
  (open + validate, hold staged) on every live worker, then *commit*
  (install, one epoch for the whole cluster) — any prepare failure
  aborts all stages and the old epoch keeps serving.  The front-end's
  own lease machinery pins in-flight requests to the epoch they were
  admitted under, and workers retain each previous epoch's store until
  the front-end's old-epoch leases drain (``release_epoch``) — zero
  dropped queries, zero mixed-generation answers.

Cluster mode is read-only: the WAL/overlay ingest path stays a
single-process feature (mutations answer ``bad_request`` exactly like a
server without ``--wal``).
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import os
import shutil
import signal
import tempfile
import time
from bisect import bisect_right
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.graph.graph import normalize_edge
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.handler import (
    OPERATIONS,
    ServiceHandler,
    _BadArgs,
    _int_arg,
    _str_arg,
    count_shared_response,
)
from repro.service.metrics import ServiceMetrics
from repro.service.server import PartitionServer
from repro.service.store import (
    BundleValidationError,
    PartitionStore,
    ReloadError,
    ReloadInProgress,
    StoreManager,
)

logger = logging.getLogger(__name__)

#: Cluster-internal operations the shard workers answer on top of the
#: public protocol (never exposed on the front door).
SHARD_OPS = (
    "shard_query",
    "prepare",
    "commit",
    "abort",
    "release_epoch",
    "worker_info",
)

#: Public ops the front-end scatters to workers; everything else in
#: OPERATIONS is answered locally or rejected.
_SCATTER_OPS = frozenset({"neighbors", "edge", "partition_stats"})

#: How many retired epoch stores a worker keeps at most.  Normally one
#: (released as soon as the front-end's old-epoch leases drain); the cap
#: only matters when a drain times out repeatedly.
_MAX_RETAINED = 4

_INGEST_DISABLED = "ingest is not enabled on this server (serve --wal)"


def shard_bounds(num_partitions: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous partition groups: shard ``i`` owns ``[i·p/W, (i+1)·p/W)``.

    The floor split is the standard balanced contiguous assignment: every
    group differs in size by at most one partition and the union covers
    ``range(num_partitions)`` exactly.
    """
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    return [
        (i * num_partitions // workers, (i + 1) * num_partitions // workers)
        for i in range(workers)
    ]


class ClusterError(RuntimeError):
    """A cluster-level operation failed (startup, supervision, swap)."""


class ShardUnavailable(ClusterError):
    """Every replica of a shard failed within the failover window."""

    def __init__(self, shard: int, cause: Optional[BaseException]) -> None:
        super().__init__(f"shard {shard} unavailable: {cause}")
        self.shard = shard
        self.cause = cause


class _StaleEpoch(Exception):
    """A shard sub-query named an epoch this worker does not retain."""


# -- worker side ------------------------------------------------------------


class ShardWorkerHandler(ServiceHandler):
    """A :class:`ServiceHandler` plus the cluster-internal shard ops.

    Runs inside a worker process.  Public ops keep working unchanged
    (useful for debugging a worker directly over its socket); the shard
    ops answer group-restricted batch reads and drive the two-phase
    epoch swap:

    * ``shard_query`` — one vectorised sweep over this worker's
      partition group for a whole front-end flush (``neighbors`` partial
      lists, ``owners`` for edges, ``stats`` for partitions), pinned to
      an explicit epoch;
    * ``prepare`` — open + validate a candidate bundle, hold it staged;
    * ``commit`` — install the staged store under the cluster-wide epoch
      number, retaining the previous store until ``release_epoch``;
    * ``abort`` — drop the staged store;
    * ``worker_info`` — identity/health (shard, replica, group, epoch).
    """

    def __init__(
        self,
        store: PartitionStore,
        metrics: Optional[ServiceMetrics] = None,
        *,
        group: Tuple[int, int],
        shard: int,
        replica: int,
    ) -> None:
        super().__init__(store, metrics)
        self.group = group
        self.shard = shard
        self.replica = replica
        self._staged: Optional[PartitionStore] = None
        #: Previous-epoch stores still queryable: epoch -> store.  Kept
        #: until the front-end's old-epoch leases drain (release_epoch).
        self._retained: "OrderedDict[int, PartitionStore]" = OrderedDict()

    def execute(
        self,
        request: Dict[str, Any],
        lease: Optional[Tuple[PartitionStore, int]] = None,
    ) -> Dict[str, Any]:
        op = request.get("op")
        if not isinstance(op, str) or op not in SHARD_OPS:
            return super().execute(request, lease)
        request_id = request.get("id")
        args = request.get("args") or {}
        owned = lease is None
        store, epoch = lease if lease is not None else self.manager.acquire()
        try:
            if not isinstance(args, dict):
                raise _BadArgs("args must be an object")
            result = self._dispatch_shard(op, args, store, epoch)
        except _BadArgs as exc:
            self.metrics.inc("requests_bad")
            return protocol.error_response(
                request_id, protocol.BAD_REQUEST, str(exc), epoch=epoch
            )
        except _StaleEpoch as exc:
            self.metrics.inc("requests_stale_epoch")
            return protocol.error_response(
                request_id,
                protocol.STALE_EPOCH,
                str(exc),
                epoch=self.manager.epoch,
            )
        except KeyError as exc:
            self.metrics.inc("requests_not_found")
            return protocol.error_response(
                request_id,
                protocol.NOT_FOUND,
                f"not in store: {exc.args[0]!r}",
                epoch=epoch,
            )
        except ReloadError as exc:  # includes BundleValidationError
            self.metrics.inc("reloads_failed")
            return protocol.error_response(
                request_id,
                protocol.RELOAD_FAILED,
                str(exc),
                epoch=self.manager.epoch,
            )
        except Exception as exc:  # noqa: BLE001 — fault barrier at the edge
            self.metrics.inc("requests_internal_error")
            return protocol.error_response(
                request_id,
                protocol.INTERNAL,
                f"{type(exc).__name__}: {exc}",
                epoch=epoch,
            )
        finally:
            if owned:
                self.manager.release(epoch)
        self.metrics.inc("requests_ok")
        self.metrics.inc(f"op_{op}")
        # A commit answers with the epoch it installed, like reload does.
        out_epoch = self.manager.epoch if op == "commit" else epoch
        return protocol.ok_response(request_id, result, epoch=out_epoch)

    # -- shard op dispatch -------------------------------------------------

    def _dispatch_shard(
        self,
        op: str,
        args: Dict[str, Any],
        store: PartitionStore,
        epoch: int,
    ) -> Dict[str, Any]:
        lo, hi = self.group
        if op == "worker_info":
            return {
                "shard": self.shard,
                "replica": self.replica,
                "group": [lo, hi],
                "epoch": self.manager.epoch,
                "staged": self._staged is not None,
                "retained": sorted(self._retained),
                "pid": os.getpid(),
            }
        if op == "shard_query":
            return self._shard_query(args, store, epoch)
        if op == "prepare":
            directory = _str_arg(args, "directory")
            candidate = PartitionStore.open(
                directory, verify=bool(args.get("verify", True))
            )
            self.manager.validate(candidate)
            self._staged = candidate
            self.metrics.inc("shard_prepares")
            return {
                "staged": True,
                "num_partitions": candidate.num_partitions,
                "num_edges": candidate.num_edges,
            }
        if op == "commit":
            new_epoch = _int_arg(args, "epoch")
            if self._staged is None:
                raise ReloadError("nothing staged to commit")
            staged, self._staged = self._staged, None
            old = self.manager.store
            info = self.manager.install(staged)
            if self.manager.store.epoch != new_epoch:
                # A respawned worker restarts local numbering at its spec
                # epoch; force-align with the cluster-wide number so every
                # worker answers the same generation under the same id.
                self.manager.store.epoch = new_epoch
                info["epoch"] = new_epoch
            self._retained[int(old.epoch)] = old
            while len(self._retained) > _MAX_RETAINED:
                self._retained.popitem(last=False)
            self.metrics.inc("shard_commits")
            return info
        if op == "abort":
            had = self._staged is not None
            self._staged = None
            self.metrics.inc("shard_aborts")
            return {"aborted": had}
        if op == "release_epoch":
            released = self._retained.pop(_int_arg(args, "epoch"), None)
            return {"released": released is not None}
        raise _BadArgs(f"unknown op {op!r}")  # pragma: no cover - guarded

    def _shard_query(
        self, args: Dict[str, Any], store: PartitionStore, epoch: int
    ) -> Dict[str, Any]:
        want = _int_arg(args, "epoch")
        target = self._store_for_epoch(want, store, epoch)
        lo, hi = self.group
        nq = args.get("neighbors") or []
        oq = args.get("owners") or []
        sq = args.get("stats") or []
        if (
            not isinstance(nq, list)
            or not isinstance(oq, list)
            or not isinstance(sq, list)
        ):
            raise _BadArgs("neighbors/owners/stats must be arrays")
        result: Dict[str, Any] = {"epoch": want, "shard": self.shard}
        try:
            if nq:
                partials = target.group_neighbors_many(
                    [int(v) for v in nq], lo, hi
                )
                if args.get("encoded"):
                    # Pre-encode each partial once; the front-end splices
                    # single-shard partials verbatim into its response
                    # frame.  Only meaningful over a binary link — the
                    # front-end clears the flag on a downgraded client.
                    result["neighbors_wire"] = [
                        None if p is None else protocol.encode_int_run(p)
                        for p in partials
                    ]
                else:
                    result["neighbors"] = partials
            if oq:
                result["owners"] = target.group_owners_many(
                    [(int(u), int(v)) for u, v in oq], lo, hi
                )
            if sq:
                stats: List[Optional[Dict[str, int]]] = []
                for raw in sq:
                    k = int(raw)
                    stats.append(
                        target.partition_stats(k) if lo <= k < hi else None
                    )
                result["stats"] = stats
        except (TypeError, ValueError) as exc:
            raise _BadArgs(f"malformed shard_query payload: {exc}") from exc
        self.metrics.inc("shard_query_items", len(nq) + len(oq) + len(sq))
        return result

    def _store_for_epoch(
        self, want: int, store: PartitionStore, epoch: int
    ) -> PartitionStore:
        if want == epoch:
            return store
        if want == self.manager.epoch:
            return self.manager.store
        retained = self._retained.get(want)
        if retained is None:
            raise _StaleEpoch(
                f"worker s{self.shard}r{self.replica} serves epoch "
                f"{self.manager.epoch}, not {want}"
            )
        return retained


def worker_main(spec: Dict[str, Any]) -> None:
    """Entry point of one worker process (``spawn`` target; picklable).

    Opens its own memory-map of the bundle in ``spec["directory"]``,
    stamps the cluster-assigned epoch, and serves the partition group
    over the UNIX socket in ``spec["socket_path"]`` until SIGTERM/SIGINT
    (graceful drain through ``PartitionServer.stop``).
    """
    logging.basicConfig(level=logging.WARNING)
    try:
        asyncio.run(_worker_async_main(spec))
    except KeyboardInterrupt:  # pragma: no cover - race on double signal
        pass


async def _worker_async_main(spec: Dict[str, Any]) -> None:
    store = PartitionStore.open(
        spec["directory"], verify=bool(spec.get("verify", True))
    )
    store.epoch = int(spec["epoch"])
    handler = ShardWorkerHandler(
        store,
        group=(int(spec["group_lo"]), int(spec["group_hi"])),
        shard=int(spec["shard"]),
        replica=int(spec["replica"]),
    )
    path = str(spec["socket_path"])
    if os.path.exists(path):
        os.unlink(path)  # a SIGKILLed predecessor leaves its socket behind
    server = PartitionServer(
        handler=handler,
        path=path,
        allow_reload=False,  # swaps arrive as prepare/commit, never reload
        batch_window=0.0,  # the front-end already batches per flush
        max_batch=int(spec.get("max_batch", 64)),
        max_queue=int(spec.get("max_queue", 1024)),
        request_timeout=float(spec.get("request_timeout", 30.0)),
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    await server.start()
    try:
        await stop.wait()
    finally:
        await server.stop()


# -- front-end: worker handles, shard groups, supervisor --------------------


class _WorkerHandle:
    """One worker process + its pipelined client + health state."""

    __slots__ = (
        "spec",
        "process",
        "client",
        "up",
        "epoch",
        "last_respawn",
        "_ctx",
        "_call_timeout",
        "_wire",
    )

    def __init__(
        self,
        spec: Dict[str, Any],
        ctx: Any,
        call_timeout: float,
        wire: str = protocol.WIRE_BINARY,
    ) -> None:
        self.spec = spec
        self.process: Optional[Any] = None
        self.client: Optional[ServiceClient] = None
        self.up = False
        self.epoch: Optional[int] = None
        self.last_respawn = 0.0
        self._ctx = ctx
        self._call_timeout = call_timeout
        self._wire = wire

    @property
    def name(self) -> str:
        return f"s{self.spec['shard']}r{self.spec['replica']}"

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def spawn(self) -> None:
        self.process = self._ctx.Process(
            target=worker_main,
            args=(dict(self.spec),),
            name=f"repro-worker-{self.name}",
            daemon=True,
        )
        self.process.start()

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    async def call(self, op: str, **args: Any) -> Dict[str, Any]:
        if self.client is None:
            # No transparent retries: the shard group owns failover.
            self.client = ServiceClient(
                path=str(self.spec["socket_path"]),
                max_retries=0,
                call_timeout=self._call_timeout,
                wire=self._wire,
            )
        if args.get("encoded"):
            # Pre-encoded partials are bytes — only a binary link can
            # carry them.  Negotiation happens on first connect; if this
            # link downgraded to JSON, fall back to plain partials.
            if self.client.wire_active is None:
                await self.client.connect()
            if self.client.wire_active != protocol.WIRE_BINARY:
                args = dict(args, encoded=False)
        return await self.client.call(op, **args)

    async def drop_client(self) -> None:
        if self.client is not None:
            client, self.client = self.client, None
            await client.close()


#: Transport-level failures a shard call treats as "this replica is down".
_TRANSPORT_ERRORS = (
    OSError,  # includes ConnectionError, FileNotFoundError on the socket
    asyncio.TimeoutError,
    asyncio.IncompleteReadError,
    protocol.ProtocolError,
)


class _ShardGroup:
    """The replica ring of one shard, with health-checked failover.

    A call walks the ring starting at the preferred (last known good)
    replica; transport failures and ``stale_epoch`` answers mark the
    replica down and move on.  When a full ring pass fails the group
    backs off briefly (the supervisor may be respawning a worker) and
    tries again until ``failover_timeout`` — then, and only then, the
    caller sees :class:`ShardUnavailable`.
    """

    __slots__ = ("shard", "bounds", "handles", "metrics", "failover_timeout", "_preferred")

    def __init__(
        self,
        shard: int,
        bounds: Tuple[int, int],
        handles: List[_WorkerHandle],
        metrics: ServiceMetrics,
        *,
        failover_timeout: float,
    ) -> None:
        self.shard = shard
        self.bounds = bounds
        self.handles = handles
        self.metrics = metrics
        self.failover_timeout = failover_timeout
        self._preferred = 0

    async def call(self, op: str, **args: Any) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.failover_timeout
        last_exc: Optional[BaseException] = None
        delay = 0.02
        while True:
            n = len(self.handles)
            for offset in range(n):
                idx = (self._preferred + offset) % n
                handle = self.handles[idx]
                try:
                    result = await handle.call(op, **args)
                except ServiceError as exc:
                    if exc.code != protocol.STALE_EPOCH:
                        raise  # semantic error: the answer, not a failure
                    # Wrong generation (respawn racing a swap): another
                    # replica, or the next health round, resolves it.
                    last_exc = exc
                    self._mark_down(handle)
                    continue
                except _TRANSPORT_ERRORS as exc:
                    last_exc = exc
                    self._mark_down(handle)
                    await handle.drop_client()
                    continue
                if offset:
                    self.metrics.inc("failovers")
                    self._preferred = idx
                handle.up = True
                return result
            now = loop.time()
            if now >= deadline:
                self.metrics.inc("shard_unavailable_errors")
                raise ShardUnavailable(self.shard, last_exc)
            await asyncio.sleep(min(delay, deadline - now))
            delay = min(delay * 2.0, 0.25)

    def _mark_down(self, handle: _WorkerHandle) -> None:
        if handle.up:
            self.metrics.inc("workers_marked_down")
        handle.up = False


class ClusterStoreManager(StoreManager):
    """The front-end's :class:`StoreManager` over its routing store.

    Reuses the whole lease/epoch machinery — admission pinning, retired
    epoch drain barrier, install validation — but ``reload`` runs the
    cluster's two-phase coordinated swap instead of a local build.
    """

    def __init__(
        self, store: PartitionStore, cluster: "PartitionCluster", **kwargs: Any
    ) -> None:
        super().__init__(store, **kwargs)
        self._cluster = cluster

    async def reload(
        self, directory: Any, *, verify: bool = True
    ) -> Dict[str, object]:
        return await self._cluster.coordinated_reload(directory, verify=verify)

    def reload_sync(
        self, directory: Any, *, verify: bool = True
    ) -> Dict[str, object]:
        raise ReloadError(
            "coordinated cluster reloads are async-only; "
            "send a reload request to the front-end"
        )


class PartitionCluster:
    """Supervisor + router for ``workers × replicas`` shard processes.

    Owns the worker processes, the per-shard failover groups, the health
    loop, and the front-end's own routing store (wrapped in a
    :class:`ClusterStoreManager` so the server's admission leases and
    the coordinated swap share one epoch authority).
    """

    def __init__(
        self,
        directory: Any,
        *,
        workers: int,
        replicas: int = 1,
        verify: bool = True,
        metrics: Optional[ServiceMetrics] = None,
        socket_dir: Optional[str] = None,
        failover_timeout: float = 5.0,
        worker_call_timeout: float = 10.0,
        health_interval: float = 0.25,
        respawn_backoff: float = 1.0,
        spawn_timeout: float = 60.0,
        drain_timeout: float = 10.0,
        worker_request_timeout: float = 30.0,
        wire: str = protocol.WIRE_BINARY,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if wire not in protocol.WIRES:
            raise ValueError(f"wire must be one of {sorted(protocol.WIRES)}")
        self.wire = wire
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.directory = str(directory)
        self.verify = verify
        router = PartitionStore.open(self.directory, verify=verify)
        #: Shards never outnumber partitions — an empty group would serve
        #: nothing and waste a process.
        self.workers = min(workers, router.num_partitions)
        self.replicas = max(1, int(replicas))
        self.failover_timeout = failover_timeout
        self.health_interval = health_interval
        self.respawn_backoff = respawn_backoff
        self.spawn_timeout = spawn_timeout
        self.manager = ClusterStoreManager(
            router, self, metrics=self.metrics, drain_timeout=drain_timeout
        )
        self._bounds = shard_bounds(router.num_partitions, self.workers)
        self._lows = [lo for lo, _ in self._bounds]
        # AF_UNIX paths are capped around 108 bytes and pytest tmp_paths
        # routinely exceed that — default to a short mkdtemp instead.
        self._own_socket_dir = socket_dir is None
        self.socket_dir = socket_dir or tempfile.mkdtemp(prefix="repro-cluster-")
        self._ctx = multiprocessing.get_context("spawn")
        self._groups: List[_ShardGroup] = []
        for s, (lo, hi) in enumerate(self._bounds):
            handles = []
            for r in range(self.replicas):
                spec = {
                    "directory": self.directory,
                    "socket_path": os.path.join(self.socket_dir, f"w{s}-{r}.sock"),
                    "shard": s,
                    "replica": r,
                    "group_lo": lo,
                    "group_hi": hi,
                    "epoch": self.manager.epoch,
                    "verify": verify,
                    "request_timeout": worker_request_timeout,
                }
                handles.append(
                    _WorkerHandle(
                        spec,
                        self._ctx,
                        call_timeout=worker_call_timeout,
                        wire=wire,
                    )
                )
            self._groups.append(
                _ShardGroup(
                    s, (lo, hi), handles, self.metrics,
                    failover_timeout=failover_timeout,
                )
            )
        self._supervise_task: Optional[asyncio.Task] = None
        self._reloading = False
        self._started = False

    # -- lookups -----------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self.manager.epoch

    @property
    def router(self) -> PartitionStore:
        """The front-end's own routing store (its private mmap)."""
        return self.manager.store

    def shard_of(self, partition: int) -> int:
        """Which shard serves ``partition`` (bounds are contiguous)."""
        return bisect_right(self._lows, partition) - 1

    def group(self, shard: int) -> _ShardGroup:
        return self._groups[shard]

    def handle(self, shard: int, replica: int = 0) -> _WorkerHandle:
        """The handle for one worker (tests use this to find PIDs)."""
        return self._groups[shard].handles[replica]

    def _all_handles(self) -> List[_WorkerHandle]:
        return [h for g in self._groups for h in g.handles]

    def worker_pids(self) -> Dict[str, Optional[int]]:
        """``{"s0r0": pid, ...}`` for every worker process."""
        return {h.name: h.pid for h in self._all_handles()}

    def describe(self) -> Dict[str, Any]:
        """Topology + health summary (served under ``stats.cluster``)."""
        return {
            "workers": self.workers,
            "replicas": self.replicas,
            "epoch": self.epoch,
            "shards": [
                {
                    "shard": g.shard,
                    "partitions": [g.bounds[0], g.bounds[1]],
                    "workers": [
                        {
                            "replica": int(h.spec["replica"]),
                            "up": bool(h.up),
                            "epoch": h.epoch,
                            "pid": h.pid,
                        }
                        for h in g.handles
                    ],
                }
                for g in self._groups
            ],
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Spawn every worker, wait until all answer, start supervision."""
        if self._started:
            raise RuntimeError("cluster already started")
        try:
            for handle in self._all_handles():
                handle.spawn()
            deadline = asyncio.get_running_loop().time() + self.spawn_timeout
            for handle in self._all_handles():
                await self._wait_handle_ready(handle, deadline)
        except BaseException:
            await self.stop()
            raise
        self._supervise_task = asyncio.create_task(
            self._supervise(), name="repro-cluster-supervise"
        )
        self._started = True
        logger.info(
            "cluster up: %d shards x %d replicas over %s",
            self.workers, self.replicas, self.socket_dir,
        )

    async def _wait_handle_ready(
        self, handle: _WorkerHandle, deadline: float
    ) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                info = await handle.call("worker_info")
            except _TRANSPORT_ERRORS + (ServiceError,) as exc:
                if not handle.alive():
                    raise ClusterError(
                        f"worker {handle.name} died during startup "
                        f"(exit code {handle.process.exitcode})"
                    ) from exc
                if loop.time() >= deadline:
                    raise ClusterError(
                        f"worker {handle.name} not ready within "
                        f"{self.spawn_timeout:g}s: {exc}"
                    ) from exc
                await handle.drop_client()
                await asyncio.sleep(0.05)
            else:
                handle.up = True
                epoch = info.get("epoch")
                handle.epoch = epoch if isinstance(epoch, int) else None
                self._set_worker_gauges(handle)
                return

    async def stop(self) -> None:
        """Terminate (SIGTERM → drain) and reap every worker process."""
        if self._supervise_task is not None:
            self._supervise_task.cancel()
            try:
                await self._supervise_task
            except asyncio.CancelledError:
                pass
            self._supervise_task = None
        for handle in self._all_handles():
            await handle.drop_client()
            if handle.process is not None and handle.process.is_alive():
                handle.process.terminate()
        deadline = time.monotonic() + 5.0
        for handle in self._all_handles():
            process = handle.process
            if process is None:
                continue
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(timeout=1.0)
            handle.process = None
            handle.up = False
            self._set_worker_gauges(handle)
        if self._own_socket_dir:
            shutil.rmtree(self.socket_dir, ignore_errors=True)
        self._started = False

    # -- supervision -------------------------------------------------------

    async def _supervise(self) -> None:
        """Health loop: ping workers, publish gauges, respawn the dead."""
        ping_timeout = max(0.5, self.health_interval * 4)
        while True:
            await asyncio.sleep(self.health_interval)
            for handle in self._all_handles():
                if not handle.alive():
                    self._mark_down(handle)
                    await self._maybe_respawn(handle)
                    continue
                try:
                    info = await asyncio.wait_for(
                        handle.call("worker_info"), ping_timeout
                    )
                except _TRANSPORT_ERRORS + (ServiceError,):
                    self._mark_down(handle)
                    await handle.drop_client()
                else:
                    handle.up = True
                    epoch = info.get("epoch")
                    handle.epoch = epoch if isinstance(epoch, int) else None
                self._set_worker_gauges(handle)

    def _mark_down(self, handle: _WorkerHandle) -> None:
        if handle.up:
            self.metrics.inc("workers_marked_down")
        handle.up = False

    async def _maybe_respawn(self, handle: _WorkerHandle) -> None:
        now = time.monotonic()
        if now - handle.last_respawn < self.respawn_backoff:
            return  # a crash-looping worker must not spin the supervisor
        handle.last_respawn = now
        await handle.drop_client()
        if handle.process is not None:
            handle.process.join(timeout=0)  # reap the zombie
        # Respawn against the *current* bundle and epoch — a worker that
        # died before (or during) a swap must not resurrect the old one.
        handle.spec = dict(
            handle.spec, directory=self.directory, epoch=self.manager.epoch
        )
        self.metrics.inc("worker_respawns")
        logger.warning("respawning dead worker %s", handle.name)
        handle.spawn()
        self._set_worker_gauges(handle)

    def _set_worker_gauges(self, handle: _WorkerHandle) -> None:
        self.metrics.set_gauge(
            f"worker_up_{handle.name}", 1.0 if handle.up else 0.0
        )
        if handle.epoch is not None:
            self.metrics.set_gauge(
                f"worker_epoch_{handle.name}", float(handle.epoch)
            )

    # -- coordinated epoch swap -------------------------------------------

    async def coordinated_reload(
        self, directory: Any, *, verify: bool = True
    ) -> Dict[str, object]:
        """Two-phase cluster-wide swap to the bundle at ``directory``.

        1. Build the front-end's replacement router and validate it — a
           corrupt bundle fails here before any worker is disturbed.
        2. **Prepare** on every live worker (standbys included): open +
           validate + hold staged.  Any failure aborts all stages; the
           old epoch keeps serving everywhere.
        3. **Commit**: flip the front-end router atomically (its lease
           machinery keeps in-flight requests on their admitted epoch),
           then commit every prepared worker under the same new epoch
           number.  A worker that fails to commit is terminated and
           respawned straight onto the new bundle — it can never answer
           the new epoch with old data.
        4. Wait for the front-end's old-epoch leases to drain, then tell
           workers to drop their retained previous store.
        """
        if self._reloading:
            self.metrics.inc("reloads_rejected")
            raise ReloadInProgress("another reload is already building")
        self._reloading = True
        started = time.perf_counter()
        try:
            directory = str(directory)
            loop = asyncio.get_running_loop()
            try:
                candidate = await loop.run_in_executor(
                    None,
                    lambda: PartitionStore.open(directory, verify=verify),
                )
            except Exception as exc:  # noqa: BLE001 — any corrupt bundle
                self.metrics.inc("reloads_failed")
                raise ReloadError(
                    f"cannot open bundle {directory}: {exc}"
                ) from exc
            try:
                self.manager.validate(candidate)
            except BundleValidationError:
                self.metrics.inc("reloads_failed")
                raise
            build_seconds = time.perf_counter() - started

            # Phase 1: prepare everywhere.
            targets = [h for h in self._all_handles() if h.alive()]
            prepared = await asyncio.gather(
                *(
                    h.call("prepare", directory=directory, verify=verify)
                    for h in targets
                ),
                return_exceptions=True,
            )
            failures = [
                (h, r)
                for h, r in zip(targets, prepared)
                if isinstance(r, BaseException)
            ]
            if failures:
                await asyncio.gather(
                    *(
                        h.call("abort")
                        for h, r in zip(targets, prepared)
                        if not isinstance(r, BaseException)
                    ),
                    return_exceptions=True,
                )
                self.metrics.inc("reloads_failed")
                bad_handle, bad = failures[0]
                raise ReloadError(
                    f"prepare failed on worker {bad_handle.name} "
                    f"({len(failures)}/{len(targets)} failed): {bad}"
                )

            # Phase 2: flip the router, then commit every worker under
            # the same epoch number.
            try:
                info = self.manager.install(candidate)
            except BundleValidationError:
                await asyncio.gather(
                    *(h.call("abort") for h in targets), return_exceptions=True
                )
                self.metrics.inc("reloads_failed")
                raise
            new_epoch = int(info["epoch"])  # type: ignore[arg-type]
            previous_epoch = int(info["previous_epoch"])  # type: ignore[arg-type]
            # From here on a respawn must come up on the new bundle.
            self.directory = directory
            for h in self._all_handles():
                h.spec = dict(h.spec, directory=directory, epoch=new_epoch)
            commits = await asyncio.gather(
                *(h.call("commit", epoch=new_epoch) for h in targets),
                return_exceptions=True,
            )
            committed = 0
            for h, r in zip(targets, commits):
                if isinstance(r, BaseException):
                    # This worker could not flip: take it out of rotation
                    # and let the supervisor respawn it onto the new
                    # bundle — it must not keep answering the old one.
                    logger.warning("commit failed on worker %s: %s", h.name, r)
                    self.metrics.inc("worker_commit_failures")
                    self._mark_down(handle=h)
                    if h.process is not None and h.process.is_alive():
                        h.process.terminate()
                    await h.drop_client()
                else:
                    committed += 1
                    h.epoch = new_epoch
                self._set_worker_gauges(h)

            # Old-epoch leases on the front-end drain, then workers drop
            # their retained previous store.
            drained = int(info["pinned_to_previous"])  # type: ignore[arg-type]
            drain_timed_out = False
            retired = self.manager._retired.get(previous_epoch)
            if retired is not None and retired[1] is not None:
                try:
                    await asyncio.wait_for(
                        retired[1].wait(), self.manager.drain_timeout
                    )
                except asyncio.TimeoutError:  # pragma: no cover - stuck lease
                    drain_timed_out = True
                    info["drain_timed_out"] = True
            if not drain_timed_out:
                await asyncio.gather(
                    *(
                        h.call("release_epoch", epoch=previous_epoch)
                        for h in targets
                        if h.up
                    ),
                    return_exceptions=True,
                )
            info["drained"] = drained
            info["build_seconds"] = round(build_seconds, 6)
            info["workers_prepared"] = len(targets)
            info["workers_committed"] = committed
            self.metrics.observe("reload_build", build_seconds)
            self.metrics.observe("reload_swap", time.perf_counter() - started)
            self.metrics.inc("queries_drained", drained)
            logger.info(
                "coordinated swap: epoch %s -> %s (%d/%d workers committed)",
                previous_epoch, new_epoch, committed, len(targets),
            )
            return info
        finally:
            self._reloading = False


# -- front-end batch handler ------------------------------------------------


class _PlanItem:
    """One unique scatter read; duplicates coalesce onto positions/ids."""

    __slots__ = (
        "op", "positions", "ids", "v", "u", "norm", "k",
        "replicas", "shards", "arrived", "partial", "wire_partials",
        "owner", "stats", "failure",
    )

    def __init__(self, op: str, position: int, request_id: Any) -> None:
        self.op = op
        self.positions = [position]
        self.ids: List[Any] = [request_id]
        self.v = 0
        self.u = 0
        self.norm: Tuple[int, int] = (0, 0)
        self.k = 0
        self.replicas: Tuple[int, ...] = ()
        self.shards: List[int] = []
        self.arrived = 0
        self.partial: List[int] = []
        #: Pre-encoded binary partials (worker answered ``encoded``).
        self.wire_partials: List[bytes] = []
        self.owner: Optional[int] = None
        self.stats: Optional[Dict[str, int]] = None
        self.failure: Optional[BaseException] = None


class _ShardSub:
    """The sub-batch one shard receives for one epoch plan."""

    __slots__ = ("neighbors", "owners", "stats")

    def __init__(self) -> None:
        self.neighbors: List[_PlanItem] = []
        self.owners: List[_PlanItem] = []
        self.stats: List[_PlanItem] = []


class _EpochPlan:
    """All scatter reads of one batch pinned to one ``(store, epoch)``."""

    __slots__ = ("store", "epoch", "items", "pending", "subs")

    def __init__(self, store: PartitionStore, epoch: int) -> None:
        self.store = store
        self.epoch = epoch
        self.items: List[_PlanItem] = []
        #: coalesce key -> item (dedup identical reads inside the batch).
        self.pending: Dict[Tuple, _PlanItem] = {}
        self.subs: Dict[int, _ShardSub] = {}

    def sub(self, shard: int) -> _ShardSub:
        sub = self.subs.get(shard)
        if sub is None:
            sub = self.subs[shard] = _ShardSub()
        return sub


class ClusterHandler:
    """Front-end batch executor: local routing + scatter-gather.

    Duck-typed :class:`ServiceHandler` for :class:`PartitionServer`
    (``metrics`` / ``manager`` / awaitable ``execute_batch``).  The
    server's admission leases pin each request to the router's
    ``(store, epoch)`` exactly as in single-process serving, so a
    coordinated swap mid-flight never mixes generations — scatter
    sub-queries carry the pinned epoch and workers answer them from the
    matching retained store.
    """

    def __init__(self, cluster: PartitionCluster) -> None:
        self.cluster = cluster
        self.metrics = cluster.metrics
        self.manager: StoreManager = cluster.manager
        self.ingestor = None  # read-only: keeps the server's compact gate shut

    async def execute_batch(
        self,
        requests: List[Dict[str, Any]],
        leases: Optional[Sequence[Optional[Tuple[PartitionStore, int]]]] = None,
    ) -> List[Dict[str, Any]]:
        metrics = self.metrics
        metrics.inc("batches")
        metrics.inc("batch_requests_total", len(requests))
        if len(requests) > 1:
            metrics.inc("batched_requests", len(requests))
        if leases is None:
            leases = [None] * len(requests)
        responses: List[Optional[Dict[str, Any]]] = [None] * len(requests)
        plans: "OrderedDict[int, _EpochPlan]" = OrderedDict()

        for i, (request, lease) in enumerate(zip(requests, leases)):
            request_id = request.get("id")
            op = request.get("op")
            if lease is not None:
                store, epoch = lease
            else:
                store, epoch = self.manager.store, self.manager.epoch
            if not isinstance(op, str) or op not in OPERATIONS:
                metrics.inc("requests_bad")
                responses[i] = protocol.error_response(
                    request_id,
                    protocol.BAD_REQUEST,
                    f"unknown op {op!r}",
                    epoch=self.manager.epoch,
                )
                continue
            args = request.get("args") or {}
            if not isinstance(args, dict):
                metrics.inc("requests_bad")
                responses[i] = protocol.error_response(
                    request_id,
                    protocol.BAD_REQUEST,
                    "args must be an object",
                    epoch=self.manager.epoch,
                )
                continue
            if op in ("insert_edge", "delete_edge", "ingest_stats", "compact"):
                # Same answer a single-process server without --wal gives.
                metrics.inc("requests_bad")
                responses[i] = protocol.error_response(
                    request_id, protocol.BAD_REQUEST, _INGEST_DISABLED, epoch=epoch
                )
                continue
            if op == "reload":
                # Normally intercepted at admission by the server; if one
                # arrives through an in-process batch, refuse safely.
                responses[i] = protocol.error_response(
                    request_id,
                    protocol.RELOAD_FAILED,
                    "cluster reload must go through the server admin plane",
                    epoch=self.manager.epoch,
                )
                continue
            if op == "ping":
                metrics.inc("requests_ok")
                metrics.inc("op_ping")
                responses[i] = protocol.ok_response(
                    request_id, {"pong": True}, epoch=epoch
                )
                continue
            if op == "stats":
                result = store.stats()
                result["metrics"] = metrics.snapshot()
                result["cluster"] = self.cluster.describe()
                metrics.inc("requests_ok")
                metrics.inc("op_stats")
                responses[i] = protocol.ok_response(
                    request_id, result, epoch=epoch
                )
                continue
            # Scatter ops (+ master, answered locally from the router but
            # batched through the same vectorised route pass).
            plan = plans.get(epoch)
            if plan is None:
                plan = plans[epoch] = _EpochPlan(store, epoch)
            try:
                self._admit(plan, op, args, i, request_id)
            except _BadArgs as exc:
                metrics.inc("requests_bad")
                responses[i] = protocol.error_response(
                    request_id, protocol.BAD_REQUEST, str(exc), epoch=epoch
                )
        calls: List[Tuple[_EpochPlan, int, _ShardSub]] = []
        for plan in plans.values():
            self._route_plan(plan, responses)
            for shard, sub in sorted(plan.subs.items()):
                calls.append((plan, shard, sub))
        if calls:
            metrics.inc("cluster_scatter_calls", len(calls))
            # Ask for pre-encoded neighbour partials whenever the worker
            # links speak binary; the handle clears the flag per-call if
            # its link negotiated down to JSON.
            encoded = self.cluster.wire == protocol.WIRE_BINARY
            results = await asyncio.gather(
                *(
                    self.cluster.group(shard).call(
                        "shard_query",
                        epoch=plan.epoch,
                        encoded=encoded and bool(sub.neighbors),
                        neighbors=[item.v for item in sub.neighbors],
                        owners=[[item.norm[0], item.norm[1]] for item in sub.owners],
                        stats=[item.k for item in sub.stats],
                    )
                    for plan, shard, sub in calls
                ),
                return_exceptions=True,
            )
            for (plan, shard, sub), result in zip(calls, results):
                self._merge_shard_result(sub, result)
        for plan in plans.values():
            self._finish_plan(plan, responses)
        for i, response in enumerate(responses):
            if response is None:  # pragma: no cover - defensive
                responses[i] = protocol.error_response(
                    requests[i].get("id"),
                    protocol.INTERNAL,
                    "request fell through the cluster batch planner",
                    epoch=self.manager.epoch,
                )
        return responses  # type: ignore[return-value]

    # -- admission ---------------------------------------------------------

    def _admit(
        self,
        plan: _EpochPlan,
        op: str,
        args: Dict[str, Any],
        position: int,
        request_id: Any,
    ) -> None:
        if op == "master" or op == "neighbors":
            v = _int_arg(args, "v")
            key: Tuple = (op, v)
            item = self._coalesce(plan, key, op, position, request_id)
            if item is not None:
                item.v = v
            return
        if op == "edge":
            u = _int_arg(args, "u")
            v = _int_arg(args, "v")
            if u == v:
                raise _BadArgs(f"self loop ({u}, {v}) is not a valid edge")
            key = (op, u, v)
            item = self._coalesce(plan, key, op, position, request_id)
            if item is not None:
                item.u, item.v = u, v
                item.norm = normalize_edge(u, v)
            return
        if op == "partition_stats":
            k = _int_arg(args, "k")
            key = (op, k)
            item = self._coalesce(plan, key, op, position, request_id)
            if item is not None:
                item.k = k
            return
        raise _BadArgs(f"unknown op {op!r}")  # pragma: no cover - guarded

    def _coalesce(
        self,
        plan: _EpochPlan,
        key: Tuple,
        op: str,
        position: int,
        request_id: Any,
    ) -> Optional[_PlanItem]:
        existing = plan.pending.get(key)
        if existing is not None:
            self.metrics.inc("batch_dedup_hits")
            existing.positions.append(position)
            existing.ids.append(request_id)
            return None
        item = _PlanItem(op, position, request_id)
        plan.pending[key] = item
        plan.items.append(item)
        return item

    # -- routing pass ------------------------------------------------------

    def _route_plan(
        self,
        plan: _EpochPlan,
        responses: List[Optional[Dict[str, Any]]],
    ) -> None:
        """One vectorised route pass; builds the per-shard sub-batches."""
        cluster = self.cluster
        vertex_items = [
            it for it in plan.items if it.op in ("master", "neighbors")
        ]
        edge_items = [it for it in plan.items if it.op == "edge"]
        stat_items = [it for it in plan.items if it.op == "partition_stats"]
        # One route_many over every vertex this plan touches.
        queries: List[int] = [it.v for it in vertex_items]
        for it in edge_items:
            queries.append(it.norm[0])
            queries.append(it.norm[1])
        routes = plan.store.route_many(queries) if queries else []
        pos = 0
        for item in vertex_items:
            route = routes[pos]
            pos += 1
            if route is None:
                self._finish_item(
                    item, self._miss(item, item.v, plan.epoch), responses
                )
                continue
            master, replicas = route
            if item.op == "master":
                self._finish_item(
                    item,
                    self._ok(
                        item,
                        {
                            "v": item.v,
                            "master": master,
                            "mirrors": [k for k in replicas if k != master],
                            "replicas": list(replicas),
                        },
                        plan.epoch,
                    ),
                    responses,
                )
                continue
            item.replicas = replicas
            shards = sorted({cluster.shard_of(k) for k in replicas})
            item.shards = shards
            for s in shards:
                plan.sub(s).neighbors.append(item)
        for item in edge_items:
            ra, rb = routes[pos], routes[pos + 1]
            pos += 2
            if ra is None or rb is None:
                self._finish_item(
                    item, self._miss(item, item.norm, plan.epoch), responses
                )
                continue
            candidates = set(ra[1]).intersection(rb[1])
            if not candidates:
                self._finish_item(
                    item, self._miss(item, item.norm, plan.epoch), responses
                )
                continue
            shards = sorted({cluster.shard_of(k) for k in candidates})
            item.shards = shards
            for s in shards:
                plan.sub(s).owners.append(item)
        num_partitions = plan.store.num_partitions
        for item in stat_items:
            if not 0 <= item.k < num_partitions:
                self._finish_item(
                    item, self._miss(item, item.k, plan.epoch), responses
                )
                continue
            shard = cluster.shard_of(item.k)
            item.shards = [shard]
            plan.sub(shard).stats.append(item)

    # -- gather ------------------------------------------------------------

    @staticmethod
    def _merge_shard_result(sub: _ShardSub, result: Any) -> None:
        if isinstance(result, BaseException):
            for item in sub.neighbors + sub.owners + sub.stats:
                item.failure = item.failure or result
            return
        wires = result.get("neighbors_wire")
        if wires is not None:
            for item, blob in zip(sub.neighbors, wires):
                item.arrived += 1
                if blob is None:
                    item.failure = item.failure or ClusterError(
                        "shard answered None for a routed vertex"
                    )
                elif isinstance(blob, (bytes, bytearray)):
                    item.wire_partials.append(bytes(blob))
                else:
                    item.failure = item.failure or ClusterError(
                        "shard answered a non-bytes pre-encoded partial"
                    )
        partials = result.get("neighbors") or []
        for item, partial in zip(sub.neighbors, partials):
            item.arrived += 1
            if partial is None:
                # The router said this shard spans the vertex but the
                # worker disagrees — impossible for bit-identical stores
                # under the pinned epoch; surface it as a failure rather
                # than answer with a silently truncated list.
                item.failure = item.failure or ClusterError(
                    "shard answered None for a routed vertex"
                )
            else:
                item.partial.extend(partial)
        owners = result.get("owners") or []
        for item, owner in zip(sub.owners, owners):
            item.arrived += 1
            if owner is not None:
                item.owner = int(owner)
        stats = result.get("stats") or []
        for item, stat in zip(sub.stats, stats):
            item.arrived += 1
            if stat is not None:
                item.stats = stat

    def _finish_plan(
        self,
        plan: _EpochPlan,
        responses: List[Optional[Dict[str, Any]]],
    ) -> None:
        epoch = plan.epoch
        for item in plan.items:
            if responses[item.positions[0]] is not None:
                continue  # answered during the route pass
            if item.op == "neighbors":
                if item.failure is not None or item.arrived < len(item.shards):
                    response = self._unavailable(item, epoch)
                else:
                    neighbors: Any
                    if len(item.wire_partials) == 1 and not item.partial:
                        # One shard answered the whole (sorted) list
                        # pre-encoded: splice its bytes verbatim into the
                        # response frame.  Canonical encoding makes this
                        # bit-identical to encoding the list ourselves.
                        self.metrics.inc("scatter_spliced")
                        neighbors = protocol.PreEncoded(item.wire_partials[0])
                    else:
                        # Cross-shard vertex (or mixed encoded/plain
                        # fallback): decode, concatenate, sort.  Disjoint
                        # per-shard partials make the sorted concatenation
                        # exactly the single-process merged list.
                        try:
                            for blob in item.wire_partials:
                                item.partial.extend(protocol.decode_value(blob))
                        except protocol.ProtocolError as exc:
                            item.failure = exc
                            self._finish_item(
                                item, self._unavailable(item, epoch), responses
                            )
                            continue
                        self.metrics.inc("scatter_merged")
                        item.partial.sort()
                        neighbors = item.partial
                    response = self._ok(
                        item,
                        {
                            "v": item.v,
                            "neighbors": neighbors,
                            "partitions": list(item.replicas),
                        },
                        epoch,
                    )
            elif item.op == "edge":
                if item.owner is not None:
                    # A positive owner is complete evidence — each edge
                    # lives in exactly one partition — even if another
                    # candidate shard failed.
                    response = self._ok(
                        item,
                        {"u": item.u, "v": item.v, "partition": item.owner},
                        epoch,
                    )
                elif item.failure is not None or item.arrived < len(item.shards):
                    response = self._unavailable(item, epoch)
                else:
                    response = self._miss(item, item.norm, epoch)
            else:  # partition_stats
                if item.stats is not None:
                    response = self._ok(item, dict(item.stats), epoch)
                else:
                    response = self._unavailable(item, epoch)
            self._finish_item(item, response, responses)

    # -- response helpers --------------------------------------------------

    def _ok(
        self, item: _PlanItem, result: Dict[str, Any], epoch: int
    ) -> Dict[str, Any]:
        self.metrics.inc("requests_ok")
        self.metrics.inc(f"op_{item.op}")
        return protocol.ok_response(item.ids[0], result, epoch=epoch)

    def _miss(
        self, item: _PlanItem, missing: object, epoch: int
    ) -> Dict[str, Any]:
        self.metrics.inc("requests_not_found")
        return protocol.error_response(
            item.ids[0],
            protocol.NOT_FOUND,
            f"not in store: {missing!r}",
            epoch=epoch,
        )

    def _unavailable(self, item: _PlanItem, epoch: int) -> Dict[str, Any]:
        self.metrics.inc("requests_unavailable")
        cause = item.failure or "incomplete scatter"
        return protocol.error_response(
            item.ids[0],
            protocol.UNAVAILABLE,
            f"{cause}",
            epoch=epoch,
        )

    def _finish_item(
        self,
        item: _PlanItem,
        response: Dict[str, Any],
        responses: List[Optional[Dict[str, Any]]],
    ) -> None:
        responses[item.positions[0]] = response
        for position, request_id in zip(item.positions[1:], item.ids[1:]):
            shared = dict(response)
            shared["id"] = request_id
            responses[position] = shared
            # Coalesced duplicates share the scatter, not the accounting.
            count_shared_response(self.metrics, item.op, shared)


# -- facade -----------------------------------------------------------------


class ClusterServer:
    """The user-facing cluster front door: ``serve --workers N``.

    Composes a :class:`PartitionCluster` (worker processes, failover,
    supervision) with a stock :class:`PartitionServer` front-end running
    a :class:`ClusterHandler`.  The wire protocol, batching, admission
    leases, backpressure, and admin-plane reload interception are all
    the single-process server's — only batch execution is scattered.
    """

    def __init__(
        self,
        directory: Any,
        *,
        workers: int,
        replicas: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        verify: bool = True,
        metrics: Optional[ServiceMetrics] = None,
        socket_dir: Optional[str] = None,
        max_queue: int = 1024,
        batch_window: float = 0.002,
        max_batch: int = 64,
        request_timeout: float = 5.0,
        allow_reload: bool = True,
        concurrent_batches: int = 8,
        **cluster_kwargs: Any,
    ) -> None:
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.cluster = PartitionCluster(
            directory,
            workers=workers,
            replicas=replicas,
            verify=verify,
            metrics=self.metrics,
            socket_dir=socket_dir,
            **cluster_kwargs,
        )
        self.handler = ClusterHandler(self.cluster)
        self.server = PartitionServer(
            handler=self.handler,
            host=host,
            port=port,
            max_queue=max_queue,
            batch_window=batch_window,
            max_batch=max_batch,
            request_timeout=request_timeout,
            metrics=self.metrics,
            allow_reload=allow_reload,
            # Keep forming batches while earlier scatters wait on worker
            # round trips — safe: cluster data-plane ops are reads pinned
            # to admission-time epoch leases (see PartitionServer).
            concurrent_batches=concurrent_batches,
        )

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    @property
    def manager(self) -> StoreManager:
        return self.cluster.manager

    async def start(self) -> Tuple[str, int]:
        await self.cluster.start()
        try:
            return await self.server.start()
        except BaseException:
            await self.cluster.stop()
            raise

    async def stop(self) -> None:
        await self.server.stop()
        await self.cluster.stop()

    async def __aenter__(self) -> "ClusterServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()


__all__ = [
    "ClusterError",
    "ClusterHandler",
    "ClusterServer",
    "ClusterStoreManager",
    "PartitionCluster",
    "ShardUnavailable",
    "ShardWorkerHandler",
    "SHARD_OPS",
    "shard_bounds",
    "worker_main",
]
