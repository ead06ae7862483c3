"""Wire protocol: framing, limits, the sync/async helper parity, and a
fuzz pass that feeds hostile byte streams to a *live* server.
"""

import asyncio
import json
import socket
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import protocol


class TestFraming:
    def test_encode_decode_round_trip(self):
        message = {"id": 7, "op": "neighbors", "args": {"v": 12}}
        frame = protocol.encode_frame(message)
        length = struct.unpack(">I", frame[:4])[0]
        assert length == len(frame) - 4
        assert protocol.decode_body(frame[4:]) == message

    def test_non_object_payload_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_body(b"[1, 2, 3]")

    def test_json_body_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="not a binary frame"):
            protocol.decode_body(json.dumps({"id": 1, "op": "ping"}).encode())

    @pytest.mark.parametrize("wire", ["json", "", None])
    def test_encode_frame_refuses_other_codecs(self, wire):
        with pytest.raises(ValueError):
            protocol.encode_frame(protocol.request(1, "ping"), wire)

    def test_garbage_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_body(b"\xff\xfe not json")

    def test_oversized_frame_rejected_on_encode(self):
        huge = {"blob": "x" * (protocol.MAX_FRAME_BYTES + 1)}
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_frame(huge)


class TestMessages:
    def test_request_shape(self):
        assert protocol.request(3, "ping") == {"id": 3, "op": "ping", "args": {}}

    def test_ok_response_shape(self):
        response = protocol.ok_response(3, {"pong": True})
        assert response == {"id": 3, "ok": True, "result": {"pong": True}}

    def test_error_response_carries_known_code(self):
        response = protocol.error_response(3, protocol.OVERLOAD, "full")
        assert response["ok"] is False
        assert response["error"]["code"] in protocol.ERROR_CODES

    def test_retryable_codes_are_a_subset(self):
        assert protocol.RETRYABLE_CODES <= protocol.ERROR_CODES


class TestAsyncStreamHelpers:
    def _reader_with(self, data: bytes) -> protocol.BufferedFrameReader:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return protocol.BufferedFrameReader(reader)

    def test_read_frame_round_trip(self):
        async def go():
            message = {"id": 1, "op": "ping", "args": {}}
            frames = self._reader_with(protocol.encode_frame(message))
            assert await frames.read_frame() == message
            assert await frames.read_frame() is None  # clean EOF

        asyncio.run(go())

    def test_read_frame_split_across_feeds(self):
        async def go():
            message = {"id": 2, "op": "stats", "args": {}}
            frame = protocol.encode_frame(message)
            reader = asyncio.StreamReader()
            reader.feed_data(frame[:3])

            async def feed_rest():
                await asyncio.sleep(0.01)
                reader.feed_data(frame[3:])
                reader.feed_eof()

            task = asyncio.create_task(feed_rest())
            frames = protocol.BufferedFrameReader(reader)
            assert await frames.read_frame() == message
            await task

        asyncio.run(go())

    def test_truncated_frame_raises(self):
        async def go():
            frame = protocol.encode_frame({"id": 1, "op": "ping", "args": {}})
            frames = self._reader_with(frame[:-2])  # cut mid-body
            with pytest.raises(protocol.ProtocolError):
                await frames.read_frame()

        asyncio.run(go())

    def test_hostile_length_prefix_rejected(self):
        async def go():
            frames = self._reader_with(struct.pack(">I", 2**31) + b"xx")
            with pytest.raises(protocol.ProtocolError):
                await frames.read_frame()

        asyncio.run(go())


class TestFrameSplitter:
    """The one synchronous splitter behind the server and the client."""

    FRAMES = [
        protocol.encode_frame(protocol.request(1, "ping")),
        protocol.encode_frame(protocol.request(2, "neighbors", {"v": 7})),
        protocol.encode_frame({"id": 3, "blob": "x" * 300}),
    ]

    @staticmethod
    def _expected(frames):
        return [f[4:] for f in frames]

    def test_one_frame_split_at_every_offset(self):
        frame = self.FRAMES[1]
        for cut in range(len(frame) + 1):
            splitter = protocol.FrameSplitter()
            got = list(splitter.feed(frame[:cut])) + list(splitter.feed(frame[cut:]))
            assert got == self._expected([frame]), cut
            splitter.eof()  # clean boundary: no error

    def test_many_frames_in_one_chunk(self):
        stream = b"".join(self.FRAMES * 3)
        splitter = protocol.FrameSplitter()
        got = list(splitter.feed(stream))
        assert got == self._expected(self.FRAMES * 3)
        assert all(type(body) is bytes for body in got)
        splitter.eof()

    def test_frames_spanning_chunk_boundaries(self):
        stream = b"".join(self.FRAMES * 4)
        splitter = protocol.FrameSplitter()
        got = []
        for i in range(0, len(stream), 7):
            got += splitter.feed(stream[i : i + 7])
        assert got == self._expected(self.FRAMES * 4)

    def test_large_frame_in_small_chunks(self):
        frame = protocol.encode_frame({"neighbors": list(range(200_000))})
        splitter = protocol.FrameSplitter()
        got = []
        for i in range(0, len(frame), 1 << 16):
            got += splitter.feed(frame[i : i + (1 << 16)])
        assert got == self._expected([frame])
        assert protocol.decode_body(got[0]) == {"neighbors": list(range(200_000))}

    def test_oversized_length_header(self):
        hostile = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1) + b"x"
        splitter = protocol.FrameSplitter()
        frames = splitter.feed(self.FRAMES[0] + hostile)
        # The frame before the bad header still comes out first.
        assert next(frames) == self._expected(self.FRAMES[:1])[0]
        with pytest.raises(protocol.ProtocolError) as excinfo:
            next(frames)
        assert str(excinfo.value) == (
            f"frame of {protocol.MAX_FRAME_BYTES + 1} bytes exceeds "
            f"{protocol.MAX_FRAME_BYTES}"
        )

    @pytest.mark.parametrize(
        "cut, message",
        [(2, "connection closed mid-header"), (-3, "connection closed mid-frame")],
    )
    def test_eof_inside_a_frame(self, cut, message):
        splitter = protocol.FrameSplitter()
        assert list(splitter.feed(self.FRAMES[0] + self.FRAMES[1][:cut])) == (
            self._expected(self.FRAMES[:1])
        )
        with pytest.raises(protocol.ProtocolError, match=message):
            splitter.eof()

    @pytest.mark.parametrize(
        "cut, message",
        [(2, "connection closed mid-header"), (-3, "connection closed mid-frame")],
    )
    def test_buffered_reader_eof_messages(self, cut, message):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(self.FRAMES[0] + self.FRAMES[1][:cut])
            reader.feed_eof()
            frames = protocol.BufferedFrameReader(reader)
            assert await frames.read_frame() == protocol.request(1, "ping")
            with pytest.raises(protocol.ProtocolError, match=message):
                await frames.read_frame()

        asyncio.run(go())


class TestSyncSocketHelpers:
    def test_send_recv_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            message = {"id": 9, "op": "edge", "args": {"u": 1, "v": 2}}
            protocol.send_frame_sync(a, message)
            assert protocol.recv_frame_sync(b, protocol.FrameSplitter()) == message
        finally:
            a.close()
            b.close()

    def test_recv_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert protocol.recv_frame_sync(b, protocol.FrameSplitter()) is None
        finally:
            b.close()

    def test_recv_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        try:
            frame = protocol.encode_frame({"id": 1, "op": "ping", "args": {}})
            a.sendall(frame[:-3])
            a.close()
            with pytest.raises(protocol.ProtocolError):
                protocol.recv_frame_sync(b, protocol.FrameSplitter())
        finally:
            b.close()


class TestSyncClientOverSocketpair:
    """``SyncServiceClient`` reads its answers through a ``FrameSplitter``:
    driven over a socketpair by a peer that checks the request is binary
    and answers however the test says."""

    @staticmethod
    def _exchange(answer):
        """One ``ping`` call against a peer that runs ``answer(sock, id)``."""
        import threading

        from repro.service.client import SyncServiceClient

        ours, theirs = socket.socketpair()
        for sock in (ours, theirs):
            sock.settimeout(10)  # a broken peer fails the test, not hangs it
        seen = {}

        def peer():
            splitter = protocol.FrameSplitter()
            body = None
            while body is None:
                chunk = theirs.recv(1 << 16)
                assert chunk, "client sent no request"
                body = next(iter(splitter.feed(chunk)), None)
            seen["magic"] = body[0]
            answer(theirs, protocol.decode_body(body)["id"])

        thread = threading.Thread(target=peer, daemon=True)
        thread.start()
        client = SyncServiceClient("unused", 0, max_retries=0)
        client._sock = ours
        try:
            return client.call("ping")
        finally:
            client.close()
            thread.join(timeout=10)
            theirs.close()
            assert seen.get("magic") == protocol.BINARY_MAGIC

    def test_answer_split_across_many_recvs(self):
        def answer(sock, request_id):
            frame = protocol.encode_frame(
                protocol.ok_response(request_id, {"pong": True, "xs": list(range(500))})
            )
            for i in range(len(frame)):  # one byte per send
                sock.sendall(frame[i : i + 1])

        assert self._exchange(answer) == {"pong": True, "xs": list(range(500))}

    def test_clean_eof_raises_connection_error(self):
        def answer(sock, request_id):
            sock.shutdown(socket.SHUT_WR)

        with pytest.raises(ConnectionError):
            self._exchange(answer)

    def test_eof_mid_frame_raises_protocol_error(self):
        def answer(sock, request_id):
            frame = protocol.encode_frame(protocol.ok_response(request_id, {"pong": True}))
            sock.sendall(frame[:-2])
            sock.shutdown(socket.SHUT_WR)

        with pytest.raises(protocol.ProtocolError, match="mid-frame"):
            self._exchange(answer)


class TestClientsRefuseOtherCodecs:
    def test_async_client(self):
        from repro.service.client import ServiceClient

        with pytest.raises(ValueError):
            ServiceClient("127.0.0.1", 1, wire="json")
        ServiceClient("127.0.0.1", 1, wire=protocol.WIRE_BINARY)  # still accepted

    def test_sync_client(self):
        from repro.service.client import SyncServiceClient

        with pytest.raises(ValueError):
            SyncServiceClient("127.0.0.1", 1, wire="json")
        SyncServiceClient("127.0.0.1", 1, wire=protocol.WIRE_BINARY)  # still accepted


# -- fuzzing a live server -------------------------------------------------


@pytest.fixture
def live_server(small_social):
    """A started server + a helper that throws raw bytes at it.

    The helper returns the frames the server answered with before closing
    the connection (possibly none), with a hard timeout so a hung server
    fails the test instead of hanging it.
    """
    from repro.core.tlp import TLPPartitioner
    from repro.service.server import PartitionServer
    from repro.service.store import PartitionStore

    store = PartitionStore.from_partition(
        TLPPartitioner(seed=0).partition(small_social, 3)
    )
    return PartitionServer(store)


async def _send_raw(address, payload: bytes, close_after: bool = True):
    """Write raw bytes, read whatever comes back until EOF or timeout."""
    reader, writer = await asyncio.open_connection(*address)
    frames = protocol.BufferedFrameReader(reader)
    responses = []
    try:
        writer.write(payload)
        await writer.drain()
        if close_after:
            writer.write_eof()
        while True:
            try:
                frame = await asyncio.wait_for(frames.read_frame(), 3.0)
            except (protocol.ProtocolError, asyncio.TimeoutError, ConnectionError):
                break
            if frame is None:
                break
            responses.append(frame)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return responses


async def _server_still_healthy(server) -> bool:
    """A fresh connection gets a real answer after the abuse."""
    reader, writer = await asyncio.open_connection(*server.address)
    try:
        writer.write(protocol.encode_frame(protocol.request(99, "ping")))
        await writer.drain()
        response = await asyncio.wait_for(
            protocol.BufferedFrameReader(reader).read_frame(), 3.0
        )
        return bool(response and response.get("ok"))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestServerFuzz:
    """Hostile byte streams must yield clean error responses (or a clean
    close) — never an unhandled exception in a server task or a hung
    client waiting on a frame that will never come.
    """

    def test_truncated_length_prefix(self, live_server):
        async def go():
            async with live_server as server:
                responses = await _send_raw(server.address, b"\x00\x02")
                # Closed mid-header: one bad_request frame, then dropped.
                assert len(responses) == 1
                assert responses[0]["error"]["code"] == protocol.BAD_REQUEST
                assert await _server_still_healthy(server)

        asyncio.run(go())

    def test_truncated_body(self, live_server):
        async def go():
            async with live_server as server:
                frame = protocol.encode_frame(protocol.request(1, "ping"))
                responses = await _send_raw(server.address, frame[:-3])
                assert len(responses) == 1
                assert responses[0]["error"]["code"] == protocol.BAD_REQUEST
                assert await _server_still_healthy(server)

        asyncio.run(go())

    def test_oversized_declared_length(self, live_server):
        async def go():
            async with live_server as server:
                hostile = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1) + b"x"
                responses = await _send_raw(server.address, hostile)
                assert len(responses) == 1
                assert responses[0]["ok"] is False
                assert responses[0]["error"]["code"] == protocol.BAD_REQUEST
                assert await _server_still_healthy(server)

        asyncio.run(go())

    def test_non_utf8_payload(self, live_server):
        async def go():
            async with live_server as server:
                body = b"\xff\xfe\x00\x01 definitely not json"
                frame = struct.pack(">I", len(body)) + body
                responses = await _send_raw(server.address, frame)
                assert len(responses) == 1
                assert responses[0]["error"]["code"] == protocol.BAD_REQUEST
                assert await _server_still_healthy(server)

        asyncio.run(go())

    def test_non_object_json_payload(self, live_server):
        async def go():
            async with live_server as server:
                body = json.dumps([1, 2, 3]).encode()
                frame = struct.pack(">I", len(body)) + body
                responses = await _send_raw(server.address, frame)
                assert len(responses) == 1
                assert responses[0]["error"]["code"] == protocol.BAD_REQUEST
                assert await _server_still_healthy(server)

        asyncio.run(go())

    def test_unknown_op_keeps_connection_alive(self, live_server):
        async def go():
            async with live_server as server:
                reader, writer = await asyncio.open_connection(*server.address)
                frames = protocol.BufferedFrameReader(reader)
                try:
                    writer.write(protocol.encode_frame(protocol.request(1, "explode")))
                    await writer.drain()
                    response = await asyncio.wait_for(frames.read_frame(), 3.0)
                    assert response["error"]["code"] == protocol.BAD_REQUEST
                    # A malformed *request* (valid frame) is survivable:
                    # the same connection still serves.
                    writer.write(protocol.encode_frame(protocol.request(2, "ping")))
                    await writer.drain()
                    response = await asyncio.wait_for(frames.read_frame(), 3.0)
                    assert response["ok"] is True
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass

        asyncio.run(go())

    # Every example starts and stops the fixture's server afresh.
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(payload=st.binary(min_size=0, max_size=80))
    def test_random_bytes_never_hang_or_crash(self, live_server, payload):
        """Pure fuzz: arbitrary bytes get error frames or a clean close."""

        async def go():
            async with live_server as server:
                responses = await _send_raw(server.address, payload)
                for r in responses:
                    # Every answered frame is a well-formed response.
                    assert isinstance(r, dict) and "ok" in r
                assert await _server_still_healthy(server)

        asyncio.run(go())


# -- binary wire codec ------------------------------------------------------


def _binary_frame(payload) -> bytes:
    return protocol.encode_frame(payload, protocol.WIRE_BINARY)


#: Values the codec must carry exactly as a JSON round trip would (the
#: closed protocol vocabulary: ints, strings, bools, None, floats, arrays,
#: objects).
_CODEC_CORPUS = [
    {},
    {"id": 1, "op": "ping", "args": {}},
    {"id": 0, "ok": True, "result": {"pong": True}, "epoch": 3},
    {"neighbors": list(range(200))},
    {"neighbors": [-(2**40), -1, 0, 1, 127, 128, 2**40]},
    {"big": 2**80, "negative_big": -(2**80)},
    {"s": "héllo ↯ 端", "empty": "", "long": "x" * 300},
    {"nested": {"a": [1, [2, [3, {"b": None}]]]}},
    {"floats": [0.0, -1.5, 3.141592653589793, 1e300]},
    {"bools": [True, False], "null": None},
    {"mixed": [1, "two", None, True, 4.5, [6], {"seven": 8}]},
    {"empty_list": [], "empty_map": {}},
]


class TestBinaryCodec:
    def test_round_trip_corpus_and_json_parity(self):
        """Every corpus payload decodes to what a stdlib JSON round trip
        gives."""
        for payload in _CODEC_CORPUS:
            frame = protocol.encode_frame(payload)
            assert frame[4] == protocol.BINARY_MAGIC
            via_json = json.loads(json.dumps(payload))
            via_binary = protocol.decode_body(frame[4:])
            assert via_binary == via_json == payload

    def test_bools_survive_without_collapsing_to_ints(self):
        """``array('q')`` would accept True as 1 — the codec must not."""
        decoded = protocol.decode_value(
            protocol.encode_value({"b": [True, False], "n": [1, 0]})
        )
        assert decoded["b"] == [True, False]
        assert all(type(x) is bool for x in decoded["b"])
        assert all(type(x) is int for x in decoded["n"])

    def test_non_string_keys_match_json_coercion(self):
        payload = {"m": {1: "a", True: "b", None: "c", 2.5: "d"}}
        via_json = json.loads(json.dumps(payload))
        via_binary = protocol.decode_body(protocol.encode_frame(payload)[4:])
        assert via_binary == via_json

    def test_bad_version_rejected(self):
        body = bytearray(_binary_frame({"id": 1})[4:])
        body[1] = 0x7F
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_body(bytes(body))

    def test_trailing_bytes_rejected(self):
        body = _binary_frame({"id": 1})[4:] + b"\x00"
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_body(body)

    def test_truncations_rejected_everywhere(self):
        body = protocol.encode_binary_body(
            {"id": 7, "xs": list(range(64)), "s": "abcdef", "big": 2**70}
        )
        for cut in range(2, len(body)):
            with pytest.raises(protocol.ProtocolError):
                protocol.decode_body(body[:cut])

    def test_non_object_binary_payload_rejected(self):
        body = bytes((protocol.BINARY_MAGIC, protocol.BINARY_VERSION)) + \
            protocol.encode_value([1, 2, 3])
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_body(body)

    def test_hostile_packed_run_count_rejected(self):
        # 0xE1 run declaring 2**31 8-byte ints with a 2-byte body.
        hostile = bytes((protocol.BINARY_MAGIC, protocol.BINARY_VERSION)) + \
            b"\x81\xa1x" + b"\xe1\x08" + struct.pack("<I", 2**31) + b"\x00\x00"
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_body(hostile)

    @settings(max_examples=200, deadline=None)
    @given(payload=st.binary(min_size=0, max_size=64))
    def test_random_binary_bodies_never_crash(self, payload):
        body = bytes((protocol.BINARY_MAGIC, protocol.BINARY_VERSION)) + payload
        try:
            decoded = protocol.decode_body(body)
        except protocol.ProtocolError:
            return
        assert isinstance(decoded, dict)


class TestFrameSizeLimit:
    """Satellite regression: near-limit responses must be rejected by an
    incremental size check, and the boundary must agree between calls —
    not only after materialising a 16 MiB body.
    """

    def test_oversized_rejected(self):
        huge = {"blob": "x" * (protocol.MAX_FRAME_BYTES + 1)}
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_frame(huge)

    def test_just_under_limit_encodes(self):
        # Leave room for framing, keys, and codec overhead.
        payload = {"blob": "x" * (protocol.MAX_FRAME_BYTES - 4096)}
        frame = protocol.encode_frame(payload)
        assert len(frame) - 4 <= protocol.MAX_FRAME_BYTES
        assert protocol.decode_body(frame[4:]) == payload

    def test_oversized_int_array_rejected_incrementally(self):
        # 3M ints above 2**32 pack at 8 bytes each (~24 MiB): must
        # raise, and from the size guard, not a MemoryError.
        huge = {"xs": list(range(2**40, 2**40 + 3_000_000))}
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_frame(huge)


class TestCrossCodecFuzz:
    """The hostile-bytes fuzz corpus, replayed in binary framing against
    a live server: bad frames get clean error answers and never take the
    server down.
    """

    def _hostile_bodies(self):
        ping = protocol.encode_frame(protocol.request(1, "ping"))
        return [
            ping[:-3],                                     # truncated body
            struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
            + bytes((protocol.BINARY_MAGIC,)),             # oversized length
            struct.pack(">I", 6)
            + bytes((protocol.BINARY_MAGIC, protocol.BINARY_VERSION))
            + b"\xc1\xc1\xc1\xc1",                         # unknown tags
            struct.pack(">I", 3)
            + bytes((protocol.BINARY_MAGIC, 0x7F)) + b"\x80",  # bad version
            struct.pack(">I", 5)
            + bytes((protocol.BINARY_MAGIC, protocol.BINARY_VERSION))
            + protocol.encode_value([1]),                  # non-object value
        ]

    def test_hostile_binary_frames_get_clean_errors(self, live_server):
        async def go():
            async with live_server as server:
                for hostile in self._hostile_bodies():
                    responses = await _send_raw(server.address, hostile)
                    assert len(responses) >= 1
                    assert responses[0]["ok"] is False
                    assert responses[0]["error"]["code"] == protocol.BAD_REQUEST
                assert await _server_still_healthy(server)

        asyncio.run(go())

    # Every example starts and stops the fixture's server afresh.
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(payload=st.binary(min_size=0, max_size=80))
    def test_random_bytes_with_binary_magic_never_hang_or_crash(
        self, live_server, payload
    ):
        body = bytes((protocol.BINARY_MAGIC,)) + payload
        frame = struct.pack(">I", len(body)) + body

        async def go():
            async with live_server as server:
                responses = await _send_raw(server.address, frame)
                for r in responses:
                    assert isinstance(r, dict) and "ok" in r
                assert await _server_still_healthy(server)

        asyncio.run(go())


class TestMixedCodecSessions:
    def test_json_frame_gets_one_bad_request_then_close(self, live_server):
        """A JSON body is not a frame the server can read: one binary
        ``bad_request`` answer, then the connection closes; a fresh
        connection is still served."""

        async def go():
            async with live_server as server:
                body = json.dumps(protocol.request(1, "ping")).encode()
                reader, writer = await asyncio.open_connection(*server.address)
                try:
                    writer.write(struct.pack(">I", len(body)) + body)
                    await writer.drain()
                    tail = await asyncio.wait_for(reader.read(), 3.0)
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass
                [answer] = list(protocol.FrameSplitter().feed(tail))  # then EOF
                assert answer[0] == protocol.BINARY_MAGIC
                response = protocol.decode_body(answer)
                assert response["ok"] is False
                assert response["error"]["code"] == protocol.BAD_REQUEST
                assert server.metrics.counters["protocol_errors"] == 1
                assert await _server_still_healthy(server)

        asyncio.run(go())

    def test_sync_client_speaks_binary(self, small_social):
        """Blocking client: its first frame is its first request, in
        binary — no probe precedes it."""
        import threading

        from repro.core.tlp import TLPPartitioner
        from repro.service.client import SyncServiceClient
        from repro.service.server import PartitionServer
        from repro.service.store import PartitionStore

        store = PartitionStore.from_partition(
            TLPPartitioner(seed=0).partition(small_social, 3)
        )
        v = next(iter(small_social.vertices()))
        server = PartitionServer(store)
        loop = asyncio.new_event_loop()
        started = threading.Event()
        shared = {}

        def serve():
            async def run():
                await server.start()
                shared["addr"] = server.address
                shared["stop"] = asyncio.Event()
                started.set()
                await shared["stop"].wait()
                await server.stop()

            loop.run_until_complete(run())
            loop.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert started.wait(10)
        try:
            with SyncServiceClient(*shared["addr"]) as client:
                result = client.call("neighbors", v=v)
                assert set(result["neighbors"]) == small_social.neighbors(v)
                assert server.metrics.counters["requests_received"] == 1
                assert not server.metrics.counters.get("protocol_errors")
        finally:
            loop.call_soon_threadsafe(shared["stop"].set)
            thread.join(timeout=10)
