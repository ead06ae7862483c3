"""Asyncio TCP server for partition queries: batching, backpressure, drain.

Architecture (one event loop, no threads, no per-request tasks)::

    conn data_received --\\   split + decode + lease           one flush per
    conn data_received ----> server-wide pending list  ----> loop iteration
    conn data_received --/        | over max_queue                 |
         ^                        v -> overload      execute_batch (<= max_batch)
         |                                                          |
    conn transport.write <---- answers in request order, one write per flush

* **Admission** — each connection is an :class:`asyncio.Protocol`.
  ``data_received`` splits the complete frames out of the bytes it got
  (:class:`~repro.service.protocol.FrameSplitter`), decodes them, pins
  each request to the live ``(store, epoch)`` and appends it to one
  server-wide pending list.  ``reload`` and ``compact`` go to admin tasks
  instead (see below).
* **Batching** — the first admission in a loop iteration schedules one
  ``call_soon`` flush.  The flush answers everything admitted in that
  iteration, across all connections, in ``execute_batch`` calls of at most
  ``max_batch`` requests.  Duplicate lookups in a batch are computed once
  and the routing reads are answered through the store's batch methods;
  see ``ServiceHandler.execute_batch``.  Every batch is answered
  synchronously inside the flush: mutations fsync inline, so no request
  needs a future, a timer or a queue hop, and no request times out.  Each
  connection's answers go out in request order in one ``transport.write``
  per flush.
* **Backpressure** — at most ``max_queue`` requests are admitted but
  unanswered at a time; a request over the bound is answered at once with
  an ``overload`` error instead of buffering without limit.  A
  connection holds at most ``2 * max_queue`` response slots (answered or
  not; answers wait behind an unanswered one, e.g. a running ``reload``):
  at the bound the server stops reading it and holds the frames already
  read until its answers are written.  When a connection's transport
  buffer passes its high-water mark (``pause_writing``), the server also
  stops reading it until the buffer drains, so a client that stops
  reading is pushed back by TCP instead of growing server memory.
* **Graceful shutdown** — ``stop()`` closes the listener, pauses reading
  on every connection, answers everything already admitted (waiting for
  running admin tasks), writes those responses, then closes the
  connections.  A connection whose client has not taken its answers
  ``STOP_GRACE_S`` seconds later is aborted.
* **Hot re-partitioning** — a ``reload`` request is intercepted at
  admission and runs as its own task, bypassing the pending list (whose
  old-epoch leases its drain barrier waits on): the replacement
  :class:`PartitionStore` is built in an executor thread while the
  flushes keep serving the old epoch, then the
  :class:`~repro.service.store.StoreManager` flips it in atomically.
  Every *other* request is pinned to the live epoch when its frame is
  read, so requests in flight across a flip keep reading the store they
  started on; the old store is only released once those leases drain.
  Exactly one build runs at a time — a second ``reload`` gets a
  ``reload_in_progress`` error, and a corrupt or insane bundle gets
  ``reload_failed`` while the old epoch keeps serving.  ``compact``
  (with an ingestor) takes the same admin path.

Responses on one connection are written in request order (clients may
pipeline; the ``id`` field also supports out-of-order matching if that
guarantee is ever relaxed).  A frame that does not decode — a bad length,
a body without the binary magic — loses the framing: it gets one
``bad_request`` answer, then the connection closes.
"""

from __future__ import annotations

import asyncio
import logging
from collections import deque
from typing import (
    Any,
    Awaitable,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
    cast,
)

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

_DEFAULT_HOST = "127.0.0.1"

#: Seconds ``stop()`` waits for the connections to take their last
#: answers before it aborts the ones still open: a client that pipelines
#: and never reads would otherwise hold a graceful stop forever.
STOP_GRACE_S = 5.0

#: Expected ``reload``/``compact`` failures and their error codes, most
#: specific first (``ReloadInProgress`` is a ``ReloadError``).
_ADMIN_ERRORS = (
    (IngestFrozen, protocol.INGEST_FROZEN),
    (ReloadInProgress, protocol.RELOAD_IN_PROGRESS),
    (ReloadError, protocol.RELOAD_FAILED),
)


class _Request:
    """One request's response slot on its connection.

    ``frame`` is the encoded response once the request is answered (empty
    until then); a connection writes its slots in request order as they
    fill.
    """

    __slots__ = ("conn", "request", "lease", "arrived", "frame")

    def __init__(
        self,
        conn: "_Connection",
        request: Dict[str, Any],
        lease: Optional[Tuple[ServingStore, int]],
        arrived: float,
    ) -> None:
        self.conn = conn
        self.request = request
        self.lease = lease
        self.arrived = arrived
        self.frame = b""


class PartitionServer:
    """Serve a store (or a :class:`StoreManager`) over length-prefixed TCP
    frames, answering every batch through its own :class:`ServiceHandler`."""

    def __init__(
        self,
        store: Union[ServingStore, StoreManager],
        host: str = _DEFAULT_HOST,
        port: int = 0,
        *,
        max_queue: int = 1024,
        max_batch: int = 64,
        metrics: Optional[ServiceMetrics] = None,
        allow_reload: bool = True,
        ingestor: Optional[Ingestor] = None,
    ) -> None:
        # A zero bound would refuse every request with overload.
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.host = host
        self.port = port
        self.max_queue = max_queue
        #: Response slots one connection may hold before it stops being
        #: read: as many again as may be unanswered, so a connection that
        #: pipelines past ``max_queue`` still gets its ``overload`` answers.
        self.max_slots = 2 * max_queue
        self.max_batch = max_batch
        self.allow_reload = allow_reload
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._handler = ServiceHandler(store, self.metrics)
        #: The epoch/lease authority every request is pinned through.
        self.manager: StoreManager = self._handler.manager
        #: Mutation subsystem (``serve --wal``); None = read-only service.
        self.ingestor = ingestor
        if ingestor is not None:
            self._handler.attach_ingestor(ingestor)

        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._conns: Set[_Connection] = set()
        self._admin_tasks: Set["asyncio.Task[None]"] = set()
        self._closing = False
        #: Admitted requests not yet answered (``reload``/``compact``
        #: aside); every flush empties it.
        self._pending: List[_Request] = []
        self._flush_handle: Optional[asyncio.Handle] = None
        #: Connections with answers to write at the end of this flush.
        self._dirty: Dict[_Connection, None] = {}

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
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        host, port = self.address
        logger.info("serving partition queries on %s:%d", host, port)
        return host, port

    async def stop(self) -> None:
        """Graceful shutdown: answer everything already admitted, then close.

        1. stop accepting connections and pause reading on every one;
        2. answer every admitted request (running admin tasks included);
        3. write the pending responses, then close the connections;
           abort those still open after ``STOP_GRACE_S`` seconds.
        """
        if self._server is None:
            return
        self._closing = True
        self._server.close()
        for conn in list(self._conns):
            conn.pause()
        self._flush()
        # Let any in-flight reload/compact finish so its response gets written.
        if self._admin_tasks:
            await asyncio.gather(*list(self._admin_tasks), return_exceptions=True)
        self._flush()  # write their answers
        closed = [conn.closed for conn in self._conns]
        for conn in list(self._conns):
            conn.close_when_written()
        if closed:
            await asyncio.wait(closed, timeout=STOP_GRACE_S)
            stalled = list(self._conns)  # connection_lost drops the closed ones
            if stalled:
                logger.warning(
                    "aborting %d connection(s) that did not take their answers "
                    "within %g s", len(stalled), STOP_GRACE_S,
                )
                for conn in stalled:
                    if conn.transport is not None:
                        conn.transport.abort()
                await asyncio.gather(*(conn.closed for conn in stalled), return_exceptions=True)
        await self._server.wait_closed()
        self._server = None

    async def __aenter__(self) -> "PartitionServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- admission ---------------------------------------------------------

    def _admit(self, conn: "_Connection", body: bytes) -> None:
        """Decode one frame and queue it, or answer it at once."""
        request = protocol.decode_body(body)
        self.metrics.inc("requests_received")
        loop = self._loop
        assert loop is not None
        op = request.get("op")
        if op == "reload" or (op == "compact" and self.ingestor is not None):
            # Admin plane: reload and compact run as their own tasks and
            # bypass the pending list — their epoch swap waits for the
            # old-epoch leases that list holds.  (Without an ingestor
            # compact falls through to the handler's bad_request.)
            slot = _Request(conn, request, None, loop.time())
            conn.slots.append(slot)
            run = self._reload_request if op == "reload" else self._compact_request
            task = loop.create_task(self._admin(slot, run))
            self._admin_tasks.add(task)
            task.add_done_callback(self._admin_tasks.discard)
            return
        if len(self._pending) >= self.max_queue:
            self.metrics.inc("requests_overload")
            self._answer_now(
                conn, request.get("id"), protocol.OVERLOAD,
                f"request queue full ({self.max_queue})",
            )
            return
        # Pin the request to the live epoch *now*: if a hot swap lands
        # before it is answered, it still reads the store it was admitted
        # under.
        slot = _Request(conn, request, self.manager.acquire(), loop.time())
        conn.slots.append(slot)
        self._pending.append(slot)
        if self._flush_handle is None:
            self._flush_handle = loop.call_soon(self._flush)

    def _answer_now(
        self,
        conn: "_Connection",
        request_id: Any,
        code: str,
        message: str,
    ) -> None:
        """Answer at admission with an error (kept in request order)."""
        response = protocol.error_response(
            request_id, code, message, epoch=self.manager.epoch
        )
        slot = _Request(conn, {}, None, 0.0)
        slot.frame = self._encode(response)
        conn.slots.append(slot)
        self._mark_dirty(conn)

    def _mark_dirty(self, conn: "_Connection") -> None:
        self._dirty[conn] = None
        if self._flush_handle is None and self._loop is not None:
            self._flush_handle = self._loop.call_soon(self._flush)

    # -- flush -------------------------------------------------------------

    def _flush(self) -> None:
        """Answer the pending requests in batches, then write every answer."""
        # A flush already scheduled when this one is called directly finds
        # nothing to do; it is not cancelled, to keep the common path short.
        self._flush_handle = None
        pending = self._pending
        while pending:
            batch = pending[: self.max_batch]
            del pending[: self.max_batch]
            self._run_batch(batch)
        self._write_dirty()

    def _write_dirty(self) -> None:
        dirty = self._dirty
        if dirty:
            self._dirty = {}
            for conn in dirty:
                conn.write_ready()

    def _run_batch(self, batch: List[_Request]) -> None:
        try:
            responses = self._handler.execute_batch(
                [slot.request for slot in batch],
                leases=[slot.lease for slot in batch],
            )
            self._finish_batch(batch, responses)
        except Exception as exc:  # noqa: BLE001 — keep serving after a bad batch
            self._fail_batch(batch, exc)

    def _finish_batch(
        self, batch: List[_Request], responses: List[Dict[str, Any]]
    ) -> None:
        if len(responses) != len(batch):  # defensive: a broken handler
            raise RuntimeError(
                f"handler returned {len(responses)} responses "
                f"for {len(batch)} requests"
            )
        assert self._loop is not None
        now = self._loop.time()
        observe = self.metrics.observe
        dirty = self._dirty
        for slot, response in zip(batch, responses):
            self._release(slot)
            op = slot.request.get("op")
            if isinstance(op, str):
                observe(op, now - slot.arrived)
            slot.frame = self._encode(response)
            dirty[slot.conn] = None

    def _fail_batch(self, batch: List[_Request], exc: Exception) -> None:
        logger.error("batch failed", exc_info=exc)
        message = f"{type(exc).__name__}: {exc}"
        for slot in batch:
            self._release(slot)
            if not slot.frame:
                response = protocol.error_response(
                    slot.request.get("id"), protocol.INTERNAL, message,
                    epoch=self.manager.epoch,
                )
                slot.frame = self._encode(response)
                self._dirty[slot.conn] = None

    def _encode(self, response: Dict[str, Any]) -> bytes:
        try:
            return protocol.encode_frame(response)
        except protocol.ProtocolError as exc:
            # An unencodable/over-limit response must not stall every
            # pipelined response behind it — answer with an internal
            # error in its place.
            self.metrics.inc("responses_unencodable")
            return protocol.encode_frame(
                protocol.error_response(
                    response.get("id"),
                    protocol.INTERNAL,
                    f"response exceeded frame limit: {exc}",
                    epoch=self.manager.epoch,
                ),
            )

    # -- hot reload / compaction -------------------------------------------

    def _release(self, slot: _Request) -> None:
        if slot.lease is not None:
            self.manager.release(slot.lease[1])
            slot.lease = None

    async def _admin(
        self,
        slot: _Request,
        run: Callable[[Any, Dict[str, Any]], Awaitable[Dict[str, Any]]],
    ) -> None:
        """Run one admin request and answer it in its connection's order."""
        assert self._loop is not None
        request_id = slot.request.get("id")
        args = slot.request.get("args") or {}
        try:
            response = await run(request_id, args if isinstance(args, dict) else {})
        except (IngestFrozen, ReloadError) as exc:
            code = next(c for kind, c in _ADMIN_ERRORS if isinstance(exc, kind))
            response = protocol.error_response(
                request_id, code, str(exc), epoch=self.manager.epoch
            )
        except Exception as exc:  # noqa: BLE001 — fault barrier
            logger.exception("%s failed unexpectedly", slot.request.get("op"))
            response = protocol.error_response(
                request_id,
                protocol.INTERNAL,
                f"{type(exc).__name__}: {exc}",
                epoch=self.manager.epoch,
            )
        self.metrics.observe(slot.request["op"], self._loop.time() - slot.arrived)
        slot.frame = self._encode(response)
        self._mark_dirty(slot.conn)

    async def _compact_request(
        self, request_id: Any, args: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Execution of one ``compact`` admin request.

        Like ``reload``, compaction bypasses the pending list: its epoch
        swap waits for old-epoch leases to drain, so it must never sit
        *behind* the requests holding those leases.  The fold and
        ``save_partition`` run in an executor thread; only mutations are
        frozen meanwhile (they fail fast with the retryable
        ``ingest_frozen``), reads keep serving throughout.
        """
        assert self.ingestor is not None
        info = await self.ingestor.compact(verify=bool(args.get("verify", True)))
        self.metrics.inc("requests_ok")
        self.metrics.inc("op_compact")
        if not info.get("skipped"):
            logger.info(
                "compaction: folded %s mutations, epoch %s -> %s",
                info.get("folded_mutations"),
                info.get("previous_epoch"),
                info.get("epoch"),
            )
        return protocol.ok_response(
            request_id, info, epoch=info.get("epoch", self.manager.epoch)
        )

    async def _reload_request(
        self, request_id: Any, args: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Execution of one ``reload`` admin request."""
        directory = args.get("directory")
        pending_mutations = (
            self.ingestor.overlay.pending_mutations
            if self.ingestor is not None
            else 0
        )
        if not self.allow_reload:
            self.metrics.inc("requests_bad")
            return protocol.error_response(
                request_id,
                protocol.BAD_REQUEST,
                "hot reload is disabled on this server",
                epoch=self.manager.epoch,
            )
        if pending_mutations or (self.ingestor is not None and self.ingestor.wal.size):
            # A plain reload would orphan acknowledged mutations (and
            # poison the next WAL replay); compact is the sanctioned path.
            return protocol.error_response(
                request_id,
                protocol.RELOAD_FAILED,
                f"{pending_mutations} pending mutations in the overlay/WAL; "
                "run compact instead of reload",
                epoch=self.manager.epoch,
            )
        if not isinstance(directory, str) or not directory:
            self.metrics.inc("requests_bad")
            return protocol.error_response(
                request_id,
                protocol.BAD_REQUEST,
                f"argument 'directory' must be a non-empty string, got {directory!r}",
                epoch=self.manager.epoch,
            )
        info = await self.manager.reload(directory, verify=bool(args.get("verify", True)))
        self.metrics.inc("requests_ok")
        self.metrics.inc("op_reload")
        logger.info(
            "hot reload: epoch %s -> %s (drained %s in-flight)",
            info["previous_epoch"],
            info["epoch"],
            info["drained"],
        )
        return protocol.ok_response(request_id, info, epoch=info["epoch"])


class _Connection(asyncio.Protocol):
    """One client connection: frame admission and in-order answer writes."""

    def __init__(self, server: PartitionServer) -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.splitter = protocol.FrameSplitter()
        #: Response slots in request order; the filled prefix is written.
        self.slots: Deque[_Request] = deque()
        #: No more requests will be read; close once every slot is written.
        self.done_reading = False
        #: Frames split from the bytes read so far, not all admitted yet.
        self.frames: Iterator[bytes] = iter(())
        #: Reading is paused because the slots reached ``max_slots``; the
        #: rest of ``frames`` is admitted once answers are written.
        self.held = False
        #: Reading is paused because the transport buffer is full.
        self.write_paused = False
        self.closed: "asyncio.Future[None]" = asyncio.get_running_loop().create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)
        self.server._conns.add(self)
        self.server.metrics.inc("connections")
        if self.server._closing:
            self.pause()

    def data_received(self, data: bytes) -> None:
        if not self.done_reading:
            self.frames = self.splitter.feed(data)
            self._admit_frames()

    def _admit_frames(self) -> None:
        """Admit the frames read so far, or hold the rest at ``max_slots``."""
        server = self.server
        slots = self.slots
        limit = server.max_slots
        try:
            for body in self.frames:
                server._admit(self, body)
                if len(slots) >= limit:
                    # Too many answers owed: stop reading until write_ready
                    # has written enough of them.
                    self.held = True
                    if self.transport is not None:
                        self.transport.pause_reading()
                    return
        except protocol.ProtocolError as exc:
            self._framing_lost(exc)
        self.held = False

    def eof_received(self) -> bool:
        try:
            self.splitter.eof()
        except protocol.ProtocolError as exc:
            self._framing_lost(exc)
        else:
            self.close_when_written()
        return True  # half-close: keep writing the answers still owed

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.transport = None
        self.done_reading = True
        self.server._conns.discard(self)
        if not self.closed.done():
            self.closed.set_result(None)

    def pause_writing(self) -> None:
        # The client is not reading its answers: stop reading its requests.
        self.write_paused = True
        if self.transport is not None:
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        self._resume_reading()

    def _resume_reading(self) -> None:
        if not (self.held or self.write_paused or self.done_reading):
            if self.transport is not None:
                self.transport.resume_reading()

    def pause(self) -> None:
        """Stop reading requests (shutdown)."""
        self.done_reading = True
        if self.transport is not None:
            self.transport.pause_reading()

    def close_when_written(self) -> None:
        self.done_reading = True
        self.write_ready()

    def _framing_lost(self, exc: protocol.ProtocolError) -> None:
        # Framing is lost: answer bad_request, then drop the connection.
        server = self.server
        server.metrics.inc("protocol_errors")
        server._answer_now(self, None, protocol.BAD_REQUEST, str(exc))
        self.pause()
        self.close_when_written()

    def write_ready(self) -> None:
        """Write the answered prefix of the slots in one transport write."""
        slots = self.slots
        frames: List[bytes] = []
        while slots and slots[0].frame:
            frames.append(slots.popleft().frame)
        transport = self.transport
        if frames:
            if transport is None or transport.is_closing():
                self.server.metrics.inc("responses_dropped")
            else:
                transport.write(frames[0] if len(frames) == 1 else b"".join(frames))
        if self.held and len(slots) < self.server.max_slots and not self.done_reading:
            self._admit_frames()
            self._resume_reading()
        if self.done_reading and not slots and transport is not None:
            transport.close()

