"""Backpressure: a client that pipelines and never reads is pushed back by TCP.

The server stops reading a connection whose answers pile up in its
transport buffer, so the stalled client's own writes block, the server's
buffers stay bounded, and other connections keep being served.  Once the
client reads again, every request it sent gets exactly one answer, in
order: a result or ``overload``.

It also stops reading a connection that holds ``2 * max_queue`` response
slots, so answers that wait behind a long admin operation (they are
written in request order) cannot pile up without limit either.

A graceful stop does not wait for such a client for ever: connections
that have not taken their answers within ``STOP_GRACE_S`` are aborted.
"""

import asyncio
import socket

from repro.graph.graph import Graph
from repro.partitioning.registry import make_partitioner
from repro.service import protocol
from repro.service import server as server_module
from repro.service.client import ServiceClient
from repro.service.server import PartitionServer
from repro.service.store import PartitionStore

#: Requests written per step while looking for the client-side stall.
STEP = 32
#: Give up if the server never pushes back within this many requests.
MAX_REQUESTS = 20_000
HUB_DEGREE = 20_000
#: Leaf ids above 2**32 pack at 8 bytes each on the wire.
LEAF_BASE = 2**33


def _star_store():
    # A star: every answer for the hub is a ~160 KB frame, so the
    # server's transport buffer passes its high-water mark at once.
    star = Graph.from_edges(
        (0, LEAF_BASE + leaf) for leaf in range(1, HUB_DEGREE + 1)
    )
    return PartitionStore.from_partition(make_partitioner("DBH", seed=0).partition(star, 4))


async def _small_buffer_connection(host, port):
    sock = socket.socket()
    # Small client buffers so the stall shows after few requests.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    sock.setblocking(False)
    await asyncio.get_running_loop().sock_connect(sock, (host, port))
    return await asyncio.open_connection(sock=sock)


def _hub_reads(first, count):
    return b"".join(
        protocol.encode_frame(protocol.request(first + i, "neighbors", {"v": 0}))
        for i in range(count)
    )


async def _close(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


def test_stalled_reader_is_pushed_back():
    store = _star_store()

    async def go():
        server = PartitionServer(store, max_queue=8)
        async with server:
            host, port = server.address
            reader, writer = await _small_buffer_connection(host, port)
            try:
                sent = 0
                while True:
                    writer.write(_hub_reads(sent, STEP))
                    sent += STEP
                    try:
                        await asyncio.wait_for(writer.drain(), 0.5)
                    except asyncio.TimeoutError:
                        break  # pushed back: the server stopped reading us
                    assert sent < MAX_REQUESTS, "the server never pushed back"

                # Another connection is still answered promptly.
                async with ServiceClient(host, port, max_retries=0) as other:
                    assert await asyncio.wait_for(other.ping(), 2.0)

                # What the server holds for the stalled client is bounded.
                for conn in server._conns:
                    assert len(conn.slots) <= 2 * server.max_queue
                    assert conn.transport.get_write_buffer_size() < 32 << 20

                frames = protocol.BufferedFrameReader(reader)
                codes = []
                for expected_id in range(sent):
                    response = await asyncio.wait_for(frames.read_frame(), 10.0)
                    assert response["id"] == expected_id
                    codes.append(
                        "ok" if response["ok"] else response["error"]["code"]
                    )
                assert set(codes) <= {"ok", protocol.OVERLOAD}
                assert "ok" in codes
            finally:
                await _close(writer)

    asyncio.run(go())


def test_stop_aborts_a_client_that_never_reads(monkeypatch):
    monkeypatch.setattr(server_module, "STOP_GRACE_S", 0.5)
    store = _star_store()

    async def go():
        server = PartitionServer(store)
        host, port = await server.start()
        _reader, writer = await _small_buffer_connection(host, port)
        try:
            writer.write(_hub_reads(0, 64))
            await writer.drain()
            await asyncio.sleep(0.3)
            (conn,) = server._conns
            assert conn.transport.get_write_buffer_size() > 0  # answers owed
            # The answers can never be delivered; stop() gives up on them
            # after the grace period instead of waiting for the client.
            await asyncio.wait_for(server.stop(), 5.0)
            assert not server._conns
        finally:
            await _close(writer)

    asyncio.run(go())


def test_answers_behind_a_running_reload_are_bounded():
    edges = [(v, v + 1) for v in range(200)]
    store = PartitionStore.from_partition(
        make_partitioner("DBH", seed=0).partition(Graph.from_edges(edges), 4)
    )
    reads = 300

    async def go():
        server = PartitionServer(store, max_queue=4)
        gate = asyncio.Event()

        async def gated_reload(request_id, args):
            await gate.wait()
            return protocol.ok_response(request_id, {"gated": True})

        server._reload_request = gated_reload  # a reload that runs until set
        async with server:
            reader, writer = await asyncio.open_connection(*server.address)
            try:
                writer.write(
                    protocol.encode_frame(protocol.request(0, "reload", {}))
                    + b"".join(
                        protocol.encode_frame(
                            protocol.request(i, "neighbors", {"v": i % 200})
                        )
                        for i in range(1, reads + 1)
                    )
                )
                await writer.drain()
                await asyncio.sleep(0.2)
                # Every read behind the reload is answered but cannot be
                # written before it; the server holds at most the bound.
                (conn,) = server._conns
                assert len(conn.slots) == 2 * server.max_queue
                assert conn.held

                gate.set()
                frames = protocol.BufferedFrameReader(reader)
                codes = []
                for expected_id in range(reads + 1):
                    response = await asyncio.wait_for(frames.read_frame(), 10.0)
                    assert response["id"] == expected_id
                    codes.append(
                        "ok" if response["ok"] else response["error"]["code"]
                    )
                assert codes[0] == "ok"  # the reload itself
                # Reads admitted in one go past max_queue get overload.
                assert set(codes) <= {"ok", protocol.OVERLOAD}
                assert "ok" in codes[1:]
                assert not conn.held and not conn.slots
            finally:
                gate.set()  # stop() waits for the reload
                writer.close()
                await writer.wait_closed()

    asyncio.run(go())
