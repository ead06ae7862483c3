"""Query execution against a :class:`~repro.service.store.PartitionStore`.

The handler is the server's brain but knows nothing about sockets: it maps
request dicts to response dicts, so it can be exercised in-process (tests,
the bench load generator) exactly as it runs behind TCP.

Supported operations:

======================  ====================  =================================
op                      args                  result
======================  ====================  =================================
``ping``                —                     ``{"pong": true}``
``master``              ``v``                 master + mirrors + replicas of v
``neighbors``           ``v``                 merged adjacency + partitions hit
``edge``                ``u, v``              owning partition of edge {u, v}
``partition_stats``     ``k``                 per-partition counts
``stats``               —                     global summary + metrics snapshot
``reload``              ``directory``         hot-swap a new bundle in (admin)
``insert_edge``         ``u, v[, client,      place + WAL + apply one edge
                        cseq]``               insert (needs ingest enabled)
``delete_edge``         ``u, v[, client,      WAL + apply one edge delete,
                        cseq]``               routed to ``owner_of_edge``
``ingest_stats``        —                     pending delta, WAL size, RF drift
``compact``             —                     fold overlay → bundle, swap epoch
======================  ====================  =================================

``execute_batch`` coalesces duplicate ``(op, args)`` pairs inside one
batch — under skewed access patterns (the norm for power-law graphs) hot
vertices are looked up many times per batching window and computed once.
Mutating ops are never coalesced, and read results are shared only
within one ``(epoch, delta_version)`` — a coalesced read batch observes
one delta version even when a mutation lands mid-batch.

The mutation ops are live only when an :class:`~repro.service.ingest.
Ingestor` is attached (``serve --wal`` / ``attach_ingestor``); without
one they answer ``bad_request``.

Every response is stamped with the **epoch** of the store that produced
it: the handler leases the live store from its
:class:`~repro.service.store.StoreManager` per request (or accepts a
lease the server pinned at admission time), so a response never mixes
data from two serving generations.  ``reload`` here is the *blocking*
in-process path; the TCP server intercepts the op and runs the build off
the event loop instead (see ``PartitionServer``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union, cast

from repro.graph.graph import normalize_edge
from repro.service import protocol
from repro.service.ingest import (
    CapacityError,
    ConflictError,
    IngestFrozen,
    Ingestor,
)
from repro.service.metrics import ServiceMetrics
from repro.service.store import (
    ReloadError,
    ReloadInProgress,
    ServingStore,
    StoreManager,
)

#: Operations a request may name.
OPERATIONS = (
    "ping",
    "master",
    "neighbors",
    "edge",
    "partition_stats",
    "stats",
    "reload",
    "insert_edge",
    "delete_edge",
    "ingest_stats",
    "compact",
)

#: Ops that change server state: never coalesced inside a batch.
MUTATING_OPS = frozenset({"insert_edge", "delete_edge", "compact", "reload"})

#: Read ops answered in bulk through the stores' vectorised ``*_many``
#: batch methods — ``execute_batch`` groups them per snapshot.
VECTOR_OPS = frozenset({"master", "neighbors", "edge"})

#: A ``(store, epoch)`` pair pinned by :meth:`StoreManager.acquire`.
Lease = Tuple[ServingStore, int]

#: Error-code → metrics-counter mapping used when counting dedup-shared
#: responses; mirrors the counters bumped on the fresh-computation path.
_ERROR_COUNTERS = {
    protocol.NOT_FOUND: "requests_not_found",
    protocol.BAD_REQUEST: "requests_bad",
    protocol.CONFLICT: "requests_conflict",
    protocol.CAPACITY: "requests_capacity",
    protocol.INGEST_FROZEN: "requests_frozen",
    protocol.INTERNAL: "requests_internal_error",
}


class ServiceHandler:
    """Executes protocol requests against a store, recording metrics."""

    def __init__(
        self,
        store: Union[ServingStore, StoreManager],
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        if isinstance(store, StoreManager):
            self.manager = store
            if self.manager.metrics is None:
                self.manager.metrics = self.metrics
        else:
            self.manager = StoreManager(store, metrics=self.metrics)
        #: Mutation subsystem; ``None`` keeps the service read-only.
        self.ingestor: Optional[Ingestor] = None

    def attach_ingestor(self, ingestor: Ingestor) -> None:
        """Enable the mutation ops (``insert_edge`` etc.) on this handler.

        The handler's metrics are shared with the ingest layer (unless it
        brought its own) so WAL fsync latency and the
        ``pending_mutations`` / ``wal_bytes`` / ``overlay_rf_drift``
        gauges surface through the ``stats`` query.
        """
        self.ingestor = ingestor
        if ingestor.metrics is None:
            ingestor.metrics = self.metrics
        if ingestor.wal.metrics is None:
            ingestor.wal.metrics = self.metrics
        ingestor.publish_gauges()

    @property
    def store(self) -> ServingStore:
        """The store serving the live epoch."""
        return self.manager.store

    # -- single request ----------------------------------------------------

    def execute(
        self, request: Dict[str, Any], lease: Optional[Lease] = None
    ) -> Dict[str, Any]:
        """Map one request dict to one response dict (never raises).

        With ``lease`` the request runs against the pinned ``(store,
        epoch)`` (the caller releases it); otherwise a lease is taken and
        returned around the dispatch.
        """
        request_id = request.get("id")
        op = request.get("op")
        if not isinstance(op, str) or op not in OPERATIONS:
            self.metrics.inc("requests_bad")
            return protocol.error_response(
                request_id,
                protocol.BAD_REQUEST,
                f"unknown op {op!r}",
                epoch=self.manager.epoch,
            )
        args = request.get("args") or {}
        if not isinstance(args, dict):
            self.metrics.inc("requests_bad")
            return protocol.error_response(
                request_id,
                protocol.BAD_REQUEST,
                "args must be an object",
                epoch=self.manager.epoch,
            )
        owned = lease is None
        store, epoch = lease if lease is not None else self.manager.acquire()
        try:
            result = self._dispatch(op, args, store)
        except _BadArgs as exc:
            self.metrics.inc("requests_bad")
            return protocol.error_response(
                request_id, protocol.BAD_REQUEST, str(exc), epoch=epoch
            )
        except ReloadInProgress as exc:
            return protocol.error_response(
                request_id,
                protocol.RELOAD_IN_PROGRESS,
                str(exc),
                epoch=self.manager.epoch,
            )
        except ReloadError as exc:
            return protocol.error_response(
                request_id,
                protocol.RELOAD_FAILED,
                str(exc),
                epoch=self.manager.epoch,
            )
        except ConflictError as exc:
            self.metrics.inc("requests_conflict")
            return protocol.error_response(
                request_id, protocol.CONFLICT, str(exc), epoch=epoch
            )
        except CapacityError as exc:
            self.metrics.inc("requests_capacity")
            return protocol.error_response(
                request_id, protocol.CAPACITY, str(exc), epoch=epoch
            )
        except IngestFrozen as exc:
            self.metrics.inc("requests_frozen")
            return protocol.error_response(
                request_id, protocol.INGEST_FROZEN, str(exc), epoch=epoch
            )
        except KeyError as exc:
            self.metrics.inc("requests_not_found")
            return protocol.error_response(
                request_id,
                protocol.NOT_FOUND,
                f"not in store: {exc.args[0]!r}",
                epoch=epoch,
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
        # A successful reload/compact answers with the *new* epoch it installed.
        if op in ("reload", "compact"):
            epoch = result.get("epoch", epoch)
        return protocol.ok_response(request_id, result, epoch=epoch)

    # -- batched requests --------------------------------------------------

    def execute_batch(
        self,
        requests: List[Dict[str, Any]],
        leases: Optional[Sequence[Optional[Lease]]] = None,
    ) -> List[Dict[str, Any]]:
        """Execute a batch: dedup duplicates, answer routing reads in bulk.

        Responses line up index-for-index with ``requests`` and carry each
        request's own ``id`` even when the result was shared.  ``leases``
        optionally pins each request to the ``(store, epoch)`` the server
        leased at admission; results are only shared within one epoch.

        Requests for the three routing ops (:data:`VECTOR_OPS`) are
        grouped per ``(store, epoch, delta_version)`` snapshot and
        answered through the store's vectorised ``route_many`` /
        ``neighbors_many`` / ``owners_many`` — one searchsorted/gather
        pass per batch instead of per request.  A mutating op flushes the
        pending groups first, so observable ordering is unchanged: a read
        admitted before a mutation is answered from the pre-mutation
        snapshot, exactly as the scalar loop did.
        """
        self.metrics.inc("batches")
        self.metrics.inc("batch_requests_total", len(requests))
        if len(requests) > 1:
            self.metrics.inc("batched_requests", len(requests))
        if leases is None:
            leases = [None] * len(requests)
        computed: Dict[Tuple, Dict[str, Any]] = {}
        pending: Dict[Tuple, _VectorItem] = {}
        groups: Dict[Tuple, _VectorGroup] = {}
        responses: List[Optional[Dict[str, Any]]] = [None] * len(requests)

        def flush() -> None:
            for group in groups.values():
                self._answer_vector_group(group, responses, computed)
            groups.clear()
            pending.clear()

        for i, (request, lease) in enumerate(zip(requests, leases)):
            op = request.get("op")
            if isinstance(op, str) and op in MUTATING_OPS:
                flush()  # state may change: answer the earlier reads first
            key = _coalesce_key(request)
            if key is not None:
                # Results are shared only within one (epoch, delta_version)
                # snapshot: a mutation mid-batch bumps the version, so later
                # duplicates recompute instead of reusing a stale answer.
                store = lease[0] if lease else self.manager.store
                epoch = lease[1] if lease else self.manager.epoch
                version = getattr(store, "delta_version", 0)
                key = (epoch, version) + key
                hit = computed.get(key)
                if hit is not None:
                    self.metrics.inc("batch_dedup_hits")
                    response = dict(hit)
                    response["id"] = request.get("id")
                    responses[i] = response
                    self._count_shared(op, response)
                    continue
                item = pending.get(key)
                if item is not None:
                    # Duplicate of a read already queued for the bulk pass.
                    self.metrics.inc("batch_dedup_hits")
                    item.positions.append(i)
                    item.ids.append(request.get("id"))
                    continue
                if op in VECTOR_OPS:
                    parsed = _vector_args(op, request.get("args") or {})
                    if parsed is not None:
                        gkey = (id(store), epoch, version)
                        group = groups.get(gkey)
                        if group is None:
                            group = groups[gkey] = _VectorGroup(store, epoch)
                        item = _VectorItem(op, parsed, key, request, lease, i)
                        group.items.append(item)
                        pending[key] = item
                        continue
            responses[i] = self.execute(request, lease=lease)
            if key is not None:
                computed[key] = responses[i]
        flush()
        return cast(List[Dict[str, Any]], responses)

    def _answer_vector_group(
        self,
        group: "_VectorGroup",
        responses: List[Optional[Dict[str, Any]]],
        computed: Dict[Tuple, Dict[str, Any]],
    ) -> None:
        """Answer one snapshot's worth of queued routing reads in bulk."""
        store, epoch, items = group.store, group.epoch, group.items
        m_items = [it for it in items if it.op == "master"]
        n_items = [it for it in items if it.op == "neighbors"]
        e_items = [it for it in items if it.op == "edge"]
        try:
            routes = (
                store.route_many([it.args[0] for it in m_items])
                if m_items
                else []
            )
            rows = (
                store.neighbors_many([it.args[0] for it in n_items])
                if n_items
                else []
            )
            owners = (
                store.owners_many(
                    [cast(Tuple[int, int], it.args) for it in e_items]
                )
                if e_items
                else []
            )
        except Exception:  # noqa: BLE001 — fault barrier: scalar fallback
            for item in items:
                self._finish_vector_item(
                    item,
                    self.execute(item.request, lease=item.lease),
                    responses,
                    computed,
                )
            return
        self.metrics.inc("requests_vectorised", len(items))
        for item, route in zip(m_items, routes):
            if route is None:
                response = self._vector_miss(item, item.args[0], epoch)
            else:
                master, replicas = route
                response = self._vector_ok(
                    item,
                    {
                        "v": item.args[0],
                        "master": master,
                        "mirrors": [k for k in replicas if k != master],
                        "replicas": list(replicas),
                    },
                    epoch,
                )
            self._finish_vector_item(item, response, responses, computed)
        for item, row in zip(n_items, rows):
            if row is None:
                response = self._vector_miss(item, item.args[0], epoch)
            else:
                neighbours, replicas = row
                response = self._vector_ok(
                    item,
                    {
                        "v": item.args[0],
                        "neighbors": neighbours,
                        "partitions": list(replicas),
                    },
                    epoch,
                )
            self._finish_vector_item(item, response, responses, computed)
        for item, owner in zip(e_items, owners):
            u, v = cast(Tuple[int, int], item.args)
            if owner is None:
                response = self._vector_miss(item, normalize_edge(u, v), epoch)
            else:
                response = self._vector_ok(
                    item, {"u": u, "v": v, "partition": owner}, epoch
                )
            self._finish_vector_item(item, response, responses, computed)

    def _vector_ok(
        self, item: "_VectorItem", result: Dict[str, Any], epoch: int
    ) -> Dict[str, Any]:
        self.metrics.inc("requests_ok")
        self.metrics.inc(f"op_{item.op}")
        return protocol.ok_response(item.ids[0], result, epoch=epoch)

    def _vector_miss(
        self, item: "_VectorItem", missing: object, epoch: int
    ) -> Dict[str, Any]:
        self.metrics.inc("requests_not_found")
        return protocol.error_response(
            item.ids[0],
            protocol.NOT_FOUND,
            f"not in store: {missing!r}",
            epoch=epoch,
        )

    def _finish_vector_item(
        self,
        item: "_VectorItem",
        response: Dict[str, Any],
        responses: List[Optional[Dict[str, Any]]],
        computed: Dict[Tuple, Dict[str, Any]],
    ) -> None:
        responses[item.positions[0]] = response
        for pos, rid in zip(item.positions[1:], item.ids[1:]):
            shared = dict(response)
            shared["id"] = rid
            responses[pos] = shared
            self._count_shared(item.op, shared)
        computed[item.key] = response

    def _count_shared(self, op: Any, response: Dict[str, Any]) -> None:
        """Count a dedup-answered request like a freshly computed one.

        Coalescing shares the *computation*, not the accounting: every
        request answered from a shared result still increments
        ``requests_ok``/``op_*`` (or the matching error counter), so server
        counters equal the number of requests actually answered — the
        bench asserts this parity against its client-side counts.
        """
        if response.get("ok"):
            self.metrics.inc("requests_ok")
            if isinstance(op, str):
                self.metrics.inc(f"op_{op}")
        else:
            error = response.get("error") or {}
            counter = _ERROR_COUNTERS.get(error.get("code"))
            if counter is not None:
                self.metrics.inc(counter)

    # -- operations --------------------------------------------------------

    def _dispatch(
        self, op: str, args: Dict[str, Any], store: ServingStore
    ) -> Dict[str, Any]:
        if op == "ping":
            return {"pong": True}
        if op == "master":
            v = _int_arg(args, "v")
            master = store.master_of(v)
            return {
                "v": v,
                "master": master,
                "mirrors": list(store.mirrors_of(v)),
                "replicas": list(store.replicas_of(v)),
            }
        if op == "neighbors":
            v = _int_arg(args, "v")
            partitions = list(store.replicas_of(v))
            if not partitions:
                raise KeyError(v)
            return {
                "v": v,
                "neighbors": sorted(store.neighbors(v)),
                "partitions": partitions,
            }
        if op == "edge":
            u = _int_arg(args, "u")
            v = _int_arg(args, "v")
            if u == v:
                raise _BadArgs(f"self loop ({u}, {v}) is not a valid edge")
            return {"u": u, "v": v, "partition": store.owner_of_edge(u, v)}
        if op == "partition_stats":
            return store.partition_stats(_int_arg(args, "k"))
        if op == "stats":
            result = store.stats()
            result["metrics"] = self.metrics.snapshot()
            return result
        if op == "reload":
            self._guard_reload()
            return self.manager.reload_sync(
                _str_arg(args, "directory"),
                verify=bool(args.get("verify", True)),
            )
        if op == "insert_edge":
            ingestor = self._require_ingestor()
            u = _int_arg(args, "u")
            v = _int_arg(args, "v")
            if u == v:
                raise _BadArgs(f"self loop ({u}, {v}) is not a valid edge")
            client = _opt_str_arg(args, "client")
            cseq = _opt_int_arg(args, "cseq")
            try:
                return ingestor.insert_edge(u, v, client=client, cseq=cseq)
            except ValueError as exc:  # an id the bundle cannot store
                raise _BadArgs(str(exc)) from exc
        if op == "delete_edge":
            ingestor = self._require_ingestor()
            u = _int_arg(args, "u")
            v = _int_arg(args, "v")
            if u == v:
                raise _BadArgs(f"self loop ({u}, {v}) is not a valid edge")
            return ingestor.delete_edge(
                u, v, client=_opt_str_arg(args, "client"),
                cseq=_opt_int_arg(args, "cseq"),
            )
        if op == "ingest_stats":
            return self._require_ingestor().ingest_stats()
        if op == "compact":
            # Blocking in-process path; the TCP server intercepts the op
            # and awaits Ingestor.compact() off the event loop instead.
            return self._require_ingestor().compact_sync(
                verify=bool(args.get("verify", True))
            )
        raise _BadArgs(f"unknown op {op!r}")  # pragma: no cover - guarded above

    def _require_ingestor(self) -> Ingestor:
        if self.ingestor is None:
            raise _BadArgs("ingest is not enabled on this server (serve --wal)")
        return self.ingestor

    def _guard_reload(self) -> None:
        """Refuse a plain reload that would orphan unfolded mutations.

        Swapping in an unrelated bundle while the overlay/WAL hold
        acknowledged mutations would silently drop them (and poison the
        next WAL replay).  ``compact`` is the sanctioned path: it folds,
        resets the WAL, then swaps.
        """
        ingestor = self.ingestor
        if ingestor is None:
            return
        if ingestor.overlay.pending_mutations or ingestor.wal.size:
            raise ReloadError(
                f"{ingestor.overlay.pending_mutations} pending mutations "
                "in the overlay/WAL; run compact instead of reload"
            )


class _BadArgs(ValueError):
    """Argument validation failure → ``bad_request``."""


class _VectorItem:
    """One unique routing read queued for a bulk store call.

    ``positions``/``ids`` grow when later requests in the batch coalesce
    onto this computation; the first entry owns the canonical response.
    """

    __slots__ = ("op", "args", "key", "request", "lease", "positions", "ids")

    def __init__(
        self,
        op: str,
        args: Tuple[int, ...],
        key: Tuple,
        request: Dict[str, Any],
        lease: Optional[Lease],
        position: int,
    ) -> None:
        self.op = op
        self.args = args
        self.key = key
        self.request = request
        self.lease = lease
        self.positions = [position]
        self.ids: List[Any] = [request.get("id")]


class _VectorGroup:
    """All vector items pinned to one ``(store, epoch, delta_version)``."""

    __slots__ = ("store", "epoch", "items")

    def __init__(self, store: ServingStore, epoch: int) -> None:
        self.store = store
        self.epoch = epoch
        self.items: List[_VectorItem] = []


def _vector_args(op: str, args: Dict[str, Any]) -> Optional[Tuple[int, ...]]:
    """Validated positional args for a vector op, or None → scalar path.

    Anything the scalar dispatch would reject (non-int vertex, self
    loop) drops back to :meth:`ServiceHandler.execute` so error
    responses stay bit-identical.
    """
    if not isinstance(args, dict):
        return None
    try:
        if op == "edge":
            u, v = _int_arg(args, "u"), _int_arg(args, "v")
            return None if u == v else (u, v)
        return (_int_arg(args, "v"),)
    except _BadArgs:
        return None


def _int_arg(args: Dict[str, Any], name: str) -> int:
    value = args.get(name)
    # bool is an int subclass; reject it explicitly.
    if isinstance(value, bool) or not isinstance(value, int):
        raise _BadArgs(f"argument {name!r} must be an integer, got {value!r}")
    return value


def _str_arg(args: Dict[str, Any], name: str) -> str:
    value = args.get(name)
    if not isinstance(value, str) or not value:
        raise _BadArgs(f"argument {name!r} must be a non-empty string, got {value!r}")
    return value


def _opt_int_arg(args: Dict[str, Any], name: str) -> Optional[int]:
    if args.get(name) is None:
        return None
    return _int_arg(args, name)


def _opt_str_arg(args: Dict[str, Any], name: str) -> Optional[str]:
    if args.get(name) is None:
        return None
    return _str_arg(args, name)


def _coalesce_key(request: Dict[str, Any]) -> Optional[Tuple]:
    """Hashable identity of a request, ignoring ``id``; None if unkeyable.

    Mutating ops are never coalesced: two identical inserts are two
    mutations (the second must report its own conflict/dedup outcome),
    not one computation.
    """
    op = request.get("op")
    args = request.get("args") or {}
    if not isinstance(op, str) or not isinstance(args, dict):
        return None
    if op in MUTATING_OPS:
        return None
    try:
        key = (op, tuple(sorted(args.items())))
        hash(key)  # list-valued args are unkeyable
    except TypeError:
        return None
    return key
