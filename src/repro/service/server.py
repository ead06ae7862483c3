"""Asyncio TCP server for partition queries: batching, backpressure, drain.

Architecture (one event loop, no threads)::

    conn reader --\\                       /--> batch --> handler
    conn reader ----> bounded queue --> dispatcher
    conn reader --/        |              \\--> futures resolved
         |                 | full -> overload error
    conn writer <---- per-conn response queue (responses in request order)

* **Backpressure** — the global request queue is bounded
  (``max_queue``).  When it is full the request is answered immediately
  with an ``overload`` error instead of buffering without limit; the
  per-connection response queue is bounded too, so a flooding client
  eventually blocks on TCP instead of growing server memory.
* **Batching** — the dispatcher pulls one request, then greedily drains
  everything already queued (yielding to the connection readers once so
  buffered frames join in) up to ``max_batch`` requests or
  ``batch_window`` seconds, and executes the batch in one handler call.
  The window is an upper bound, not a wait: a lone request dispatches
  immediately.  Duplicate lookups in a batch are computed once and the
  routing reads are answered through the store's vectorised batch
  methods; see ``ServiceHandler.execute_batch``.
* **Timeouts** — a request that has not been answered ``request_timeout``
  seconds after arrival gets a ``timeout`` error; its slot is abandoned
  (the dispatcher skips completed/cancelled entries).
* **Graceful shutdown** — ``stop()`` closes the listener, stops reading
  from established connections, lets the dispatcher finish everything
  already queued, writes those responses, then closes connections.
* **Hot re-partitioning** — a ``reload`` request is intercepted at
  admission and runs as its own task, bypassing the data-plane queue
  (whose old-epoch leases its drain barrier waits on): the replacement
  :class:`PartitionStore` is built in an executor thread while the
  dispatcher keeps serving the old epoch, then the
  :class:`~repro.service.store.StoreManager` flips it in atomically.
  Every *other* request is pinned to the live ``(store, epoch)`` at
  admission time (when its frame is read), so requests in flight across
  a flip keep reading the store they started on; the old store is only
  released once those leases drain.  Exactly one build runs at a time —
  a second ``reload`` gets a ``reload_in_progress`` error, and a corrupt
  or insane bundle gets ``reload_failed`` while the old epoch keeps
  serving.

Responses on one connection are written in request order (clients may
pipeline; the ``id`` field also supports out-of-order matching if that
guarantee is ever relaxed).
"""

from __future__ import annotations

import asyncio
import inspect
import logging
from typing import Any, Awaitable, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.service import protocol
from repro.service.handler import ServiceHandler
from repro.service.ingest import IngestFrozen, Ingestor
from repro.service.metrics import ServiceMetrics
from repro.service.store import (
    ReloadError,
    ReloadInProgress,
    ServingStore,
    StoreManager,
)

logger = logging.getLogger(__name__)

#: A handler is anything mapping a batch of requests to a list of
#: responses, sync or async — tests inject slow/async fakes.
BatchHandler = Callable[
    [List[Dict[str, Any]]],
    Union[List[Dict[str, Any]], Awaitable[List[Dict[str, Any]]]],
]

_DEFAULT_HOST = "127.0.0.1"


class _Pending:
    """One enqueued request: payload + future + arrival time + epoch lease.

    ``wire`` records the codec the request frame arrived in; the writer
    answers in the same codec, so one connection may interleave JSON and
    binary requests freely.
    """

    __slots__ = ("request", "future", "arrived", "lease", "wire")

    def __init__(
        self,
        request: Dict[str, Any],
        future: "asyncio.Future",
        arrived: float,
        lease: Optional[Tuple[ServingStore, int]] = None,
        wire: str = protocol.WIRE_JSON,
    ) -> None:
        self.request = request
        self.future = future
        self.arrived = arrived
        self.lease = lease
        self.wire = wire


class PartitionServer:
    """Serve a :class:`PartitionStore` over length-prefixed JSON TCP."""

    def __init__(
        self,
        store: Optional[Union[ServingStore, StoreManager]] = None,
        host: str = _DEFAULT_HOST,
        port: int = 0,
        *,
        max_queue: int = 1024,
        batch_window: float = 0.002,
        max_batch: int = 64,
        request_timeout: float = 5.0,
        metrics: Optional[ServiceMetrics] = None,
        batch_handler: Optional[BatchHandler] = None,
        handler: Optional[Any] = None,
        allow_reload: bool = True,
        ingestor: Optional[Ingestor] = None,
        accept_binary: bool = True,
    ) -> None:
        if store is None and batch_handler is None and handler is None:
            raise ValueError("need a store, a handler, or an explicit batch_handler")
        # asyncio.Queue(maxsize=0) is unbounded: it would silently turn
        # the overload backpressure off.
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.host = host
        self.port = port
        #: Whether binary-codec frames are accepted.  When off, a binary
        #: request is answered with a JSON ``bad_request`` (the connection
        #: stays up) — which is exactly the signal that makes a
        #: binary-preferring client downgrade to JSON.
        self.accept_binary = accept_binary
        self.max_queue = max_queue
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.request_timeout = request_timeout
        self.allow_reload = allow_reload
        if metrics is None and handler is not None:
            metrics = handler.metrics  # share the injected handler's metrics
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        #: The epoch/lease authority, when serving a real store (None with
        #: a custom ``batch_handler``: no epochs, no pinning, no reload).
        self.manager: Optional[StoreManager] = None
        #: ServiceHandler-compatible duck type: needs ``metrics``,
        #: ``manager``, and ``execute_batch(requests, leases=)`` (which may
        #: return an awaitable — tests gate batches that way).
        self._handler: Optional[Any] = None
        if batch_handler is None:
            if handler is None:
                handler = ServiceHandler(store, self.metrics)
            self._handler = handler
            self.manager = handler.manager
            batch_handler = handler.execute_batch
        self._batch_handler = batch_handler
        #: Mutation subsystem (``serve --wal``); None = read-only service.
        self.ingestor = ingestor
        if ingestor is not None and self._handler is not None:
            self._handler.attach_ingestor(ingestor)

        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional[asyncio.Queue] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._conn_tasks: Set["asyncio.Task"] = set()
        self._reader_tasks: Set["asyncio.Task"] = set()
        self._admin_tasks: Set["asyncio.Task"] = set()
        self._closing = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (port resolved if 0 was asked)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._closing = False
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-serve-dispatch"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        host, port = self.address
        logger.info("serving partition queries on %s:%d", host, port)
        return host, port

    async def stop(self) -> None:
        """Graceful shutdown: drain everything already accepted, then close.

        1. stop accepting connections and stop reading new requests;
        2. let the dispatcher finish every request already in the queue;
        3. write the pending responses, then close the connections.
        """
        if self._server is None:
            return
        self._closing = True
        self._server.close()
        await self._server.wait_closed()
        # Stop the per-connection readers: no new requests enter the queue.
        for task in list(self._reader_tasks):
            task.cancel()
        if self._reader_tasks:
            await asyncio.gather(*self._reader_tasks, return_exceptions=True)
        # Drain the queue, then retire the dispatcher.
        assert self._queue is not None
        await self._queue.join()
        self._dispatcher.cancel()
        try:
            await self._dispatcher
        except asyncio.CancelledError:
            pass
        # Let any in-flight reload finish so its response gets written.
        if self._admin_tasks:
            await asyncio.gather(*list(self._admin_tasks), return_exceptions=True)
        # Writers exit once their response queues (fed before the readers
        # stopped) are flushed.
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._server = None
        self._dispatcher = None
        self._queue = None

    async def __aenter__(self) -> "PartitionServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- dispatcher --------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        # Greedy adaptive batching.  After the first request lands, drain
        # whatever is already queued, then yield once to the event loop so
        # connection readers can parse frames that are sitting in their
        # socket buffers, and stop as soon as a yield produces nothing
        # new.  ``batch_window`` is only an upper bound on this gathering,
        # never a mandatory wait — under pipelined load batches still form
        # (readers enqueue whole TCP chunks between dispatches), while an
        # isolated request is answered in microseconds instead of idling
        # out the window.
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            first: _Pending = await self._queue.get()
            batch = [first]
            deadline = loop.time() + self.batch_window
            while len(batch) < self.max_batch:
                try:
                    while len(batch) < self.max_batch:
                        batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    pass
                if len(batch) >= self.max_batch or loop.time() >= deadline:
                    break
                await asyncio.sleep(0)
                if self._queue.empty():
                    break
            await self._run_batch(batch)

    async def _run_batch(self, batch: List[_Pending]) -> None:
        # A request whose future is already done timed out while queued —
        # skip the work, its error was already written.
        queries = [p for p in batch if not p.future.done()]
        try:
            if queries:
                if self._handler is not None:
                    responses = self._handler.execute_batch(
                        [p.request for p in queries],
                        leases=[p.lease for p in queries],
                    )
                else:
                    responses = self._batch_handler([p.request for p in queries])
                if inspect.isawaitable(responses):
                    responses = await responses
                if len(responses) != len(queries):  # defensive: a broken handler
                    raise RuntimeError(
                        f"handler returned {len(responses)} responses "
                        f"for {len(queries)} requests"
                    )
                for pending, response in zip(queries, responses):
                    if not pending.future.done():
                        pending.future.set_result(response)
        except Exception as exc:  # noqa: BLE001 — keep serving after a bad batch
            logger.exception("batch handler failed")
            for pending in queries:
                if not pending.future.done():
                    pending.future.set_result(
                        protocol.error_response(
                            pending.request.get("id"),
                            protocol.INTERNAL,
                            f"{type(exc).__name__}: {exc}",
                            epoch=self._live_epoch(),
                        )
                    )
        finally:
            assert self._queue is not None
            for pending in batch:
                self._release_lease(pending)
                self._queue.task_done()

    # -- hot reload --------------------------------------------------------

    def _live_epoch(self) -> Optional[int]:
        return self.manager.epoch if self.manager is not None else None

    def _release_lease(self, pending: _Pending) -> None:
        if pending.lease is not None and self.manager is not None:
            self.manager.release(pending.lease[1])
            pending.lease = None

    def _spawn_reload(self, pending: _Pending) -> None:
        task = asyncio.create_task(
            self._reload_request(pending), name="repro-serve-reload"
        )
        self._admin_tasks.add(task)
        task.add_done_callback(self._admin_tasks.discard)

    def _spawn_compact(self, pending: _Pending) -> None:
        task = asyncio.create_task(
            self._compact_request(pending), name="repro-serve-compact"
        )
        self._admin_tasks.add(task)
        task.add_done_callback(self._admin_tasks.discard)

    async def _compact_request(self, pending: _Pending) -> None:
        """Admission + execution of one ``compact`` admin request.

        Like ``reload``, compaction bypasses the data-plane queue: its
        epoch swap waits for old-epoch leases to drain, so it must never
        sit *behind* the requests holding those leases.  The fold and
        ``save_partition`` run in an executor thread; only mutations are
        frozen meanwhile (they fail fast with the retryable
        ``ingest_frozen``), reads keep serving throughout.
        """
        assert self.manager is not None and self.ingestor is not None
        request_id = pending.request.get("id")
        args = pending.request.get("args") or {}
        if not isinstance(args, dict):
            args = {}
        try:
            info = await self.ingestor.compact(
                verify=bool(args.get("verify", True))
            )
        except IngestFrozen as exc:
            response = protocol.error_response(
                request_id,
                protocol.INGEST_FROZEN,
                str(exc),
                epoch=self.manager.epoch,
            )
        except ReloadInProgress as exc:
            response = protocol.error_response(
                request_id,
                protocol.RELOAD_IN_PROGRESS,
                str(exc),
                epoch=self.manager.epoch,
            )
        except ReloadError as exc:
            response = protocol.error_response(
                request_id,
                protocol.RELOAD_FAILED,
                str(exc),
                epoch=self.manager.epoch,
            )
        except Exception as exc:  # noqa: BLE001 — fault barrier
            logger.exception("compaction failed unexpectedly")
            response = protocol.error_response(
                request_id,
                protocol.INTERNAL,
                f"{type(exc).__name__}: {exc}",
                epoch=self.manager.epoch,
            )
        else:
            self.metrics.inc("requests_ok")
            self.metrics.inc("op_compact")
            if not info.get("skipped"):
                logger.info(
                    "compaction: folded %s mutations, epoch %s -> %s",
                    info.get("folded_mutations"),
                    info.get("previous_epoch"),
                    info.get("epoch"),
                )
            response = protocol.ok_response(
                request_id, info, epoch=info.get("epoch", self.manager.epoch)
            )
        if not pending.future.done():
            pending.future.set_result(response)

    async def _reload_request(self, pending: _Pending) -> None:
        """Admission + execution of one ``reload`` admin request."""
        assert self.manager is not None
        request_id = pending.request.get("id")
        args = pending.request.get("args") or {}
        directory = args.get("directory") if isinstance(args, dict) else None
        pending_mutations = (
            self.ingestor.overlay.pending_mutations
            if self.ingestor is not None
            else 0
        )
        if not self.allow_reload:
            self.metrics.inc("requests_bad")
            response = protocol.error_response(
                request_id,
                protocol.BAD_REQUEST,
                "hot reload is disabled on this server",
                epoch=self.manager.epoch,
            )
        elif pending_mutations or (
            self.ingestor is not None and self.ingestor.wal.size
        ):
            # A plain reload would orphan acknowledged mutations (and
            # poison the next WAL replay); compact is the sanctioned path.
            response = protocol.error_response(
                request_id,
                protocol.RELOAD_FAILED,
                f"{pending_mutations} pending mutations in the overlay/WAL; "
                "run compact instead of reload",
                epoch=self.manager.epoch,
            )
        elif not isinstance(directory, str) or not directory:
            self.metrics.inc("requests_bad")
            response = protocol.error_response(
                request_id,
                protocol.BAD_REQUEST,
                f"argument 'directory' must be a non-empty string, got {directory!r}",
                epoch=self.manager.epoch,
            )
        else:
            try:
                info = await self.manager.reload(
                    directory, verify=bool(args.get("verify", True))
                )
            except ReloadInProgress as exc:
                response = protocol.error_response(
                    request_id,
                    protocol.RELOAD_IN_PROGRESS,
                    str(exc),
                    epoch=self.manager.epoch,
                )
            except ReloadError as exc:
                response = protocol.error_response(
                    request_id,
                    protocol.RELOAD_FAILED,
                    str(exc),
                    epoch=self.manager.epoch,
                )
            except Exception as exc:  # noqa: BLE001 — fault barrier
                logger.exception("reload failed unexpectedly")
                response = protocol.error_response(
                    request_id,
                    protocol.INTERNAL,
                    f"{type(exc).__name__}: {exc}",
                    epoch=self.manager.epoch,
                )
            else:
                self.metrics.inc("requests_ok")
                self.metrics.inc("op_reload")
                logger.info(
                    "hot reload: epoch %s -> %s (drained %s in-flight)",
                    info["previous_epoch"],
                    info["epoch"],
                    info["drained"],
                )
                response = protocol.ok_response(
                    request_id, info, epoch=info["epoch"]
                )
        if not pending.future.done():
            pending.future.set_result(response)

    # -- connections -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.inc("connections")
        # Responses flow through a bounded per-connection queue so a client
        # that stops reading eventually blocks our reader (TCP handles it).
        responses: asyncio.Queue = asyncio.Queue(maxsize=max(2, self.max_queue))
        reader_task = asyncio.create_task(self._read_requests(reader, responses))
        self._reader_tasks.add(reader_task)
        reader_task.add_done_callback(self._reader_tasks.discard)
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._conn_tasks.add(conn_task)
            conn_task.add_done_callback(self._conn_tasks.discard)
        try:
            await self._write_responses(writer, responses)
        finally:
            reader_task.cancel()
            try:
                await reader_task
            except asyncio.CancelledError:
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_requests(
        self, reader: asyncio.StreamReader, responses: asyncio.Queue
    ) -> None:
        """Read frames, enqueue work, push response futures in order."""
        loop = asyncio.get_running_loop()
        frames = protocol.BufferedFrameReader(reader)
        wire = protocol.WIRE_JSON
        try:
            while True:
                try:
                    request = await frames.read_frame()
                except protocol.ProtocolError as exc:
                    self.metrics.inc("protocol_errors")
                    await responses.put(
                        _done(
                            protocol.error_response(
                                None,
                                protocol.BAD_REQUEST,
                                str(exc),
                                epoch=self._live_epoch(),
                            ),
                            loop,
                            wire,
                        )
                    )
                    break  # framing is lost; drop the connection
                if request is None:
                    break  # clean EOF
                wire = frames.last_wire
                self.metrics.inc("requests_received")
                if wire == protocol.WIRE_BINARY and not self.accept_binary:
                    # Refuse in JSON but keep the connection — the frame
                    # itself decoded fine, only the codec is unwelcome.
                    # Binary-preferring clients downgrade on this error.
                    self.metrics.inc("requests_bad")
                    await responses.put(
                        _done(
                            protocol.error_response(
                                request.get("id"),
                                protocol.BAD_REQUEST,
                                "binary wire codec not accepted here",
                                epoch=self._live_epoch(),
                            ),
                            loop,
                            protocol.WIRE_JSON,
                        )
                    )
                    continue
                if self._closing:
                    self.metrics.inc("requests_rejected_shutdown")
                    await responses.put(
                        _done(
                            protocol.error_response(
                                request.get("id"),
                                protocol.SHUTTING_DOWN,
                                "server is draining",
                                epoch=self._live_epoch(),
                            ),
                            loop,
                            wire,
                        )
                    )
                    continue
                if self.manager is not None and request.get("op") == "reload":
                    # Admin plane: a reload runs as its own task and
                    # bypasses the request queue entirely — it must not
                    # wait behind data-plane requests whose old-epoch
                    # leases its own drain barrier is about to wait on.
                    pending = _Pending(
                        request, loop.create_future(), loop.time(), wire=wire
                    )
                    self._spawn_reload(pending)
                    await responses.put(pending)
                    continue
                if (
                    self.manager is not None
                    and self.ingestor is not None
                    and request.get("op") == "compact"
                ):
                    # Same admin plane for compaction: its epoch swap also
                    # drains data-plane leases.  (Without an ingestor the
                    # op falls through to the handler's bad_request.)
                    pending = _Pending(
                        request, loop.create_future(), loop.time(), wire=wire
                    )
                    self._spawn_compact(pending)
                    await responses.put(pending)
                    continue
                # Pin the request to the live epoch *now*: if a hot swap
                # lands while it waits in the queue, it still reads the
                # store it was admitted under.
                lease = None
                if self.manager is not None:
                    lease = self.manager.acquire()
                pending = _Pending(
                    request, loop.create_future(), loop.time(), lease, wire
                )
                assert self._queue is not None
                try:
                    self._queue.put_nowait(pending)
                except asyncio.QueueFull:
                    self._release_lease(pending)
                    self.metrics.inc("requests_overload")
                    await responses.put(
                        _done(
                            protocol.error_response(
                                request.get("id"),
                                protocol.OVERLOAD,
                                f"request queue full ({self.max_queue})",
                                epoch=self._live_epoch(),
                            ),
                            loop,
                            wire,
                        )
                    )
                    continue
                # Fast path first: put() is a coroutine even when the queue
                # has room, and this runs once per request.  The awaiting
                # fallback keeps the back-pressure chain intact (writer
                # stalled on a slow client -> queue fills -> reader blocks
                # here -> TCP pushes back on the sender).
                try:
                    responses.put_nowait(pending)
                except asyncio.QueueFull:
                    await responses.put(pending)
        finally:
            # Tell the writer nothing further is coming.  Runs after a
            # cancellation too, so never block on a full queue: the writer
            # is draining it concurrently and space will appear.
            while True:
                try:
                    responses.put_nowait(None)
                    break
                except asyncio.QueueFull:
                    await asyncio.sleep(0.005)

    async def _write_responses(
        self, writer: asyncio.StreamWriter, responses: asyncio.Queue
    ) -> None:
        """Pop futures in request order, enforce timeouts, write frames.

        Greedy like the dispatcher: each wakeup drains every queued item
        (awaiting unresolved futures in order), encodes all their frames,
        and flushes them with a *single* ``write()`` + ``drain()``.  When
        a dispatch batch resolves many futures at once this collapses N
        per-response write/drain round-trips into one transport call —
        and the client's reader sees one TCP chunk instead of N.
        """
        loop = asyncio.get_running_loop()
        closing = False
        while not closing:
            item = await responses.get()
            chunks = []
            while True:
                if item is None:
                    closing = True
                    break
                if item.future.done() and not item.future.cancelled():
                    # Fast path: the dispatcher already resolved it —
                    # no wait_for timer handle needed.
                    response = item.future.result()
                    op = item.request.get("op")
                    if isinstance(op, str):
                        self.metrics.observe(op, loop.time() - item.arrived)
                else:
                    # Deadline as a bare call_later + await, not
                    # asyncio.wait_for: the writer usually dequeues a
                    # pending *before* the dispatcher answers it, so
                    # this branch runs once per request and wait_for's
                    # waiter/coroutine overhead is measurable.  The
                    # timer stamps a sentinel result; every dispatch
                    # path guards ``future.done()``, so a late real
                    # answer is simply dropped.
                    budget = self.request_timeout - (loop.time() - item.arrived)
                    handle = loop.call_later(
                        max(0.0, budget), _expire, item.future
                    )
                    try:
                        response = await item.future
                    finally:
                        handle.cancel()
                    if response is _TIMED_OUT:
                        self.metrics.inc("requests_timeout")
                        response = protocol.error_response(
                            item.request.get("id"),
                            protocol.TIMEOUT,
                            f"no result within {self.request_timeout:g}s",
                            epoch=item.lease[1]
                            if item.lease
                            else self._live_epoch(),
                        )
                    else:
                        op = item.request.get("op")
                        if isinstance(op, str):
                            self.metrics.observe(op, loop.time() - item.arrived)
                try:
                    chunks.append(protocol.encode_frame(response, item.wire))
                except protocol.ProtocolError as exc:
                    # An unencodable/over-limit response must not kill the
                    # writer (and with it every pipelined response behind
                    # it) — substitute an internal error in its place.
                    self.metrics.inc("responses_unencodable")
                    chunks.append(
                        protocol.encode_frame(
                            protocol.error_response(
                                response.get("id"),
                                protocol.INTERNAL,
                                f"response exceeded frame limit: {exc}",
                                epoch=self._live_epoch(),
                            ),
                            item.wire,
                        )
                    )
                try:
                    item = responses.get_nowait()
                except asyncio.QueueEmpty:
                    break
            if chunks:
                try:
                    writer.write(b"".join(chunks))
                    await writer.drain()
                except (ConnectionError, OSError):
                    self.metrics.inc("responses_dropped")
                    break


#: Sentinel result `_expire` stamps on futures whose deadline passed.
_TIMED_OUT: Any = object()


def _expire(future: "asyncio.Future") -> None:
    """Timer callback: resolve an overdue request future to the sentinel."""
    if not future.done():
        future.set_result(_TIMED_OUT)


def _done(
    response: Dict[str, Any],
    loop: "asyncio.AbstractEventLoop",
    wire: str = protocol.WIRE_JSON,
) -> _Pending:
    """A pre-answered pending (error fast-paths), tagged with its codec."""
    future = loop.create_future()
    future.set_result(response)
    return _Pending({}, future, loop.time(), wire=wire)
