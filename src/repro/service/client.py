"""Clients for the partition service: pipelined asyncio + blocking sync.

:class:`ServiceClient` (asyncio) keeps one connection, pipelines any
number of concurrent ``call()``s over it (matching responses by request
``id``), and transparently retries *retryable* failures — connection
drops, call timeouts, ``overload``, ``ingest_frozen`` — with exponentially
capped **full-jitter** backoff (each sleep is drawn uniformly from
``[cap/8, cap]`` where ``cap = base * factor**attempt``; the floor keeps
a fleet of clients from landing near-zero sleeps that hammer a
recovering server on the very first retry, while the jitter spreads them
out instead of thundering in lock-step; pass ``jitter=False`` for the
old deterministic delays when a test needs exact timing).  Semantic
errors (``bad_request``, ``not_found``) raise :class:`ServiceError`
immediately.

Both clients speak the one binary wire codec from their first frame;
there is nothing to negotiate.  Their ``wire`` keyword is kept so that
callers which name the codec keep working: its one accepted value is
``"binary"``, which is also the default.

:class:`SyncServiceClient` is a minimal blocking counterpart over a plain
socket (one request in flight), for shells and examples where an event
loop is a burden.

Both clients surface the server's serving **epoch**: every response is
stamped with the epoch of the store that produced it, ``last_epoch``
tracks the most recent one seen, and an ``on_epoch_change`` callback
fires when a hot reload flips the server to a new bundle mid-session.  A
connection reset in the middle of such a flip (or a server restart) is
handled like any retryable failure: the client tears the dead connection
down and reconnects with the existing backoff policy.

Mutations (``insert_edge`` / ``delete_edge``) are **idempotent under
retry**: each client stamps every mutation with its ``client_tag`` plus
a monotonically increasing client sequence number, and the retry loop
reuses the exact same args dict — so when a call timeout (or connection
drop) hides whether the server applied the mutation, the retried request
carries the same ``(client, cseq)`` and the server's dedup window
returns the original result instead of double-applying.
"""

from __future__ import annotations

import asyncio
import random
import socket
import time
import uuid
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.service import protocol


class ServiceError(RuntimeError):
    """An error response from the service, carrying its protocol code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code

    @property
    def retryable(self) -> bool:
        """Whether a client may transparently retry this failure."""
        return self.code in protocol.RETRYABLE_CODES


def _backoff_delays(base: float, factor: float, retries: int) -> List[float]:
    """Per-attempt backoff *caps*: ``base * factor**attempt``.

    With jitter enabled the actual sleep for attempt ``i`` is drawn
    uniformly from ``[delays[i] / 8, delays[i]]`` (full jitter with a
    floor); without it the cap itself is slept, which is the historical
    deterministic behaviour.
    """
    return [base * factor**i for i in range(retries)]


#: Fraction of the backoff cap used as the minimum sleep.  Pure full
#: jitter draws from ``[0, cap]``, so some clients sleep ~0 and retry
#: into a still-recovering server immediately — the floor guarantees
#: every retry backs off by something while keeping 7/8 of the range
#: for spreading the fleet out.
_JITTER_FLOOR = 0.125


def _jittered(cap: float, rng: Optional[random.Random]) -> float:
    return rng.uniform(cap * _JITTER_FLOOR, cap) if rng is not None else cap


def _expire_call(future: "asyncio.Future") -> None:
    """Timer callback: fail an unanswered call future with TimeoutError."""
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


class ServiceClient:
    """Pipelined asyncio client with retry/backoff.

    ``wire`` is a compatibility parameter, not a knob: binary is the only
    codec, so its one accepted value is ``"binary"`` (the default) and any
    other raises ``ValueError``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_retries: int = 3,
        backoff_base: float = 0.05,
        backoff_factor: float = 2.0,
        call_timeout: float = 10.0,
        jitter: bool = True,
        jitter_seed: Optional[int] = None,
        on_epoch_change: Optional[Callable[[Optional[int], int], None]] = None,
        client_tag: Optional[str] = None,
        wire: str = protocol.WIRE_BINARY,
    ) -> None:
        protocol.require_binary(wire)
        self.host = host
        self.port = port
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.call_timeout = call_timeout
        self._rng: Optional[random.Random] = (
            random.Random(jitter_seed) if jitter else None
        )
        #: Identity for mutation dedup; survives reconnects (not restarts —
        #: pass an explicit tag for durable at-most-once across processes).
        self.client_tag = client_tag or f"c-{uuid.uuid4().hex[:12]}"
        self._next_cseq = 0
        #: Serving epoch stamped on the most recent response (None until
        #: the first epoch-carrying response arrives).
        self.last_epoch: Optional[int] = None
        self.on_epoch_change = on_epoch_change
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._recv_task: Optional[asyncio.Task] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 0

    # -- lifecycle ---------------------------------------------------------

    async def connect(self) -> "ServiceClient":
        """Open the connection (idempotent); returns ``self``."""
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
            self._recv_task = asyncio.create_task(
                self._recv_loop(), name="repro-serve-client-recv"
            )
        return self

    async def close(self) -> None:
        """Close the connection and fail any in-flight calls."""
        writer, self._writer, self._reader = self._writer, None, None
        if self._recv_task is not None:
            self._recv_task.cancel()
            try:
                await self._recv_task
            except asyncio.CancelledError:
                pass
            self._recv_task = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._fail_pending(ConnectionError("client closed"))

    async def __aenter__(self) -> "ServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- calls -------------------------------------------------------------

    async def call(self, op: str, **args: Any) -> Dict[str, Any]:
        """Issue one request; returns the ``result`` dict.

        Retries retryable failures up to ``max_retries`` times with
        exponential backoff, reconnecting if the connection dropped.
        """
        result, _epoch = await self.call_with_epoch(op, **args)
        return result

    async def call_with_epoch(
        self, op: str, **args: Any
    ) -> Tuple[Dict[str, Any], Optional[int]]:
        """Like :meth:`call`, but also returns the response's epoch.

        Under pipelining ``last_epoch`` is shared between concurrent
        calls; this returns the epoch stamped on *this* response, so a
        caller can attribute the answer to exactly one serving
        generation across a hot reload.
        """
        delays = _backoff_delays(
            self.backoff_base, self.backoff_factor, self.max_retries
        )
        attempt = 0
        while True:
            try:
                return await self._call_once(op, args)
            except ServiceError as exc:
                if not exc.retryable or attempt >= len(delays):
                    raise
            except (ConnectionError, asyncio.IncompleteReadError):
                await self.close()
                if attempt >= len(delays):
                    raise
            except asyncio.TimeoutError:
                if attempt >= len(delays):
                    raise
            await asyncio.sleep(_jittered(delays[attempt], self._rng))
            attempt += 1

    async def _call_once(
        self, op: str, args: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Optional[int]]:
        await self.connect()
        assert self._writer is not None
        loop = asyncio.get_running_loop()
        self._next_id += 1
        request_id = self._next_id
        future: asyncio.Future = loop.create_future()
        self._pending[request_id] = future
        try:
            # A bare write() never yields to the loop, so concurrent
            # pipelined calls can't interleave frames — no lock needed;
            # drain() is only awaited for transport back-pressure.
            self._writer.write(
                protocol.encode_frame(protocol.request(request_id, op, args))
            )
            await self._writer.drain()
            # The timeout guards only the wait for the response, and is a
            # bare call_later + await rather than asyncio.wait_for: this
            # is the per-request hot path, and wait_for's extra coroutine,
            # waiter future, and done-callback bookkeeping are measurable
            # at serving rates.  The recv loop only resolves futures that
            # are not yet done, so a late response after expiry is simply
            # dropped.
            handle = loop.call_later(self.call_timeout, _expire_call, future)
            try:
                response = await future
            finally:
                handle.cancel()
        finally:
            self._pending.pop(request_id, None)
        epoch = response.get("epoch")
        self._observe_epoch(epoch)
        if not isinstance(epoch, int):
            epoch = None
        if response.get("ok"):
            return response.get("result", {}), epoch
        error = response.get("error") or {}
        raise ServiceError(
            str(error.get("code", protocol.INTERNAL)),
            str(error.get("message", "unknown error")),
        )

    async def _recv_loop(self) -> None:
        assert self._reader is not None
        frames = protocol.BufferedFrameReader(self._reader)
        try:
            while True:
                response = await frames.read_frame()
                if response is None:
                    raise ConnectionError("server closed the connection")
                future = self._pending.get(response.get("id"))
                if future is not None and not future.done():
                    future.set_result(response)
        except (
            ConnectionError,
            protocol.ProtocolError,
            asyncio.IncompleteReadError,
        ) as exc:
            # The connection is dead (server restart, or a reset racing a
            # hot reload).  Tear it down *here* so the retry loop's next
            # connect() opens a fresh one instead of writing into a dead
            # transport and stalling until call_timeout.
            self._mark_connection_lost(ConnectionError(str(exc)))
        except asyncio.CancelledError:
            raise

    def _mark_connection_lost(self, exc: Exception) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        self._recv_task = None  # this task is exiting on its own
        if writer is not None:
            writer.close()
        self._fail_pending(exc)

    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    def _observe_epoch(self, epoch: Any) -> None:
        if not isinstance(epoch, int):
            return
        previous, self.last_epoch = self.last_epoch, epoch
        if previous != epoch and self.on_epoch_change is not None:
            self.on_epoch_change(previous, epoch)

    # -- convenience wrappers ---------------------------------------------

    async def ping(self) -> bool:
        return bool((await self.call("ping")).get("pong"))

    async def master(self, v: int) -> Dict[str, Any]:
        return await self.call("master", v=v)

    async def neighbors(self, v: int) -> Dict[str, Any]:
        return await self.call("neighbors", v=v)

    async def edge(self, u: int, v: int) -> Dict[str, Any]:
        return await self.call("edge", u=u, v=v)

    async def partition_stats(self, k: int) -> Dict[str, Any]:
        return await self.call("partition_stats", k=k)

    async def stats(self) -> Dict[str, Any]:
        return await self.call("stats")

    async def reload(self, directory: str, verify: bool = True) -> Dict[str, Any]:
        """Ask the server to hot-swap the bundle at ``directory`` in."""
        return await self.call("reload", directory=str(directory), verify=verify)

    async def insert_edge(self, u: int, v: int) -> Dict[str, Any]:
        """Insert edge ``{u, v}``; idempotent under transparent retry."""
        self._next_cseq += 1
        return await self.call(
            "insert_edge", u=u, v=v, client=self.client_tag, cseq=self._next_cseq
        )

    async def delete_edge(self, u: int, v: int) -> Dict[str, Any]:
        """Delete edge ``{u, v}``; idempotent under transparent retry."""
        self._next_cseq += 1
        return await self.call(
            "delete_edge", u=u, v=v, client=self.client_tag, cseq=self._next_cseq
        )

    async def ingest_stats(self) -> Dict[str, Any]:
        return await self.call("ingest_stats")

    async def compact(self, verify: bool = True) -> Dict[str, Any]:
        """Fold pending mutations into the bundle and swap the new epoch in.

        Large folds can exceed ``call_timeout``; raise it (or retry — the
        retried request finds the compaction either still ``ingest_frozen``
        or already done and skipped) when compacting big overlays.
        """
        return await self.call("compact", verify=verify)


class SyncServiceClient:
    """Blocking one-request-at-a-time client over a plain socket.

    ``wire`` is a compatibility parameter, as on :class:`ServiceClient`:
    only ``"binary"`` (the default) is accepted.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_retries: int = 3,
        backoff_base: float = 0.05,
        backoff_factor: float = 2.0,
        timeout: float = 10.0,
        jitter: bool = True,
        jitter_seed: Optional[int] = None,
        client_tag: Optional[str] = None,
        wire: str = protocol.WIRE_BINARY,
    ) -> None:
        protocol.require_binary(wire)
        self.host = host
        self.port = port
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.timeout = timeout
        self._rng: Optional[random.Random] = (
            random.Random(jitter_seed) if jitter else None
        )
        self.last_epoch: Optional[int] = None
        self.client_tag = client_tag or f"c-{uuid.uuid4().hex[:12]}"
        self._next_cseq = 0
        self._sock: Optional[socket.socket] = None
        self._splitter = protocol.FrameSplitter()
        self._next_id = 0

    def connect(self) -> "SyncServiceClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._splitter = protocol.FrameSplitter()
        return self

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "SyncServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def call(self, op: str, **args: Any) -> Dict[str, Any]:
        """Issue one request; returns the ``result`` dict (retries like async)."""
        delays = _backoff_delays(
            self.backoff_base, self.backoff_factor, self.max_retries
        )
        attempt = 0
        while True:
            try:
                return self._call_once(op, args)
            except ServiceError as exc:
                if not exc.retryable or attempt >= len(delays):
                    raise
            except (ConnectionError, socket.timeout, protocol.ProtocolError):
                self.close()
                if attempt >= len(delays):
                    raise
            time.sleep(_jittered(delays[attempt], self._rng))
            attempt += 1

    def _call_once(self, op: str, args: Dict[str, Any]) -> Dict[str, Any]:
        self.connect()
        assert self._sock is not None
        self._next_id += 1
        request_id = self._next_id
        protocol.send_frame_sync(self._sock, protocol.request(request_id, op, args))
        response = protocol.recv_frame_sync(self._sock, self._splitter)
        if response is None:
            raise ConnectionError("server closed the connection")
        epoch = response.get("epoch")
        if isinstance(epoch, int):
            self.last_epoch = epoch
        if response.get("ok"):
            return response.get("result", {})
        error = response.get("error") or {}
        raise ServiceError(
            str(error.get("code", protocol.INTERNAL)),
            str(error.get("message", "unknown error")),
        )

    def reload(self, directory: str, verify: bool = True) -> Dict[str, Any]:
        """Ask the server to hot-swap the bundle at ``directory`` in."""
        return self.call("reload", directory=str(directory), verify=verify)

    def insert_edge(self, u: int, v: int) -> Dict[str, Any]:
        """Insert edge ``{u, v}``; idempotent under transparent retry."""
        self._next_cseq += 1
        return self.call(
            "insert_edge", u=u, v=v, client=self.client_tag, cseq=self._next_cseq
        )

    def delete_edge(self, u: int, v: int) -> Dict[str, Any]:
        """Delete edge ``{u, v}``; idempotent under transparent retry."""
        self._next_cseq += 1
        return self.call(
            "delete_edge", u=u, v=v, client=self.client_tag, cseq=self._next_cseq
        )

    def ingest_stats(self) -> Dict[str, Any]:
        return self.call("ingest_stats")

    def compact(self, verify: bool = True) -> Dict[str, Any]:
        """Fold pending mutations into the bundle and swap the new epoch in."""
        return self.call("compact", verify=verify)
