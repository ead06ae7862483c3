"""Frame parity: a live server's raw response bytes equal the in-process answer.

A mixed request log (every op, misses, bad arguments, an unknown op,
duplicate lookups in one pipelined burst) is sent to a running
``PartitionServer`` once in a single write and once one byte per write,
so the server's ``FrameSplitter`` also sees every frame cut at every
offset.  Every raw response frame must equal
``encode_frame(execute_batch(log)[i])`` computed in-process on an
identical store, byte for byte.  The ``stats`` answer embeds the
answering handler's live metrics, so it is compared with those removed.
"""

import asyncio

import pytest

from repro.core.tlp import TLPPartitioner
from repro.service import protocol
from repro.service.handler import ServiceHandler
from repro.service.server import PartitionServer
from repro.service.store import PartitionStore


@pytest.fixture
def partition(small_social):
    return TLPPartitioner(seed=0).partition(small_social, 4)


def _request_log(small_social):
    vertices = sorted(small_social.vertices())
    u, v = next(iter(small_social.edges()))
    hub = max(vertices, key=small_social.degree)
    calls = [
        ("ping", {}),
        ("master", {"v": vertices[0]}),
        ("master", {"v": 10**9}),  # miss
        ("master", {"v": "zz"}),  # bad argument
        ("master", {"v": 2**70}),  # beyond int64: a miss
        ("neighbors", {"v": hub}),
        ("neighbors", {"v": hub}),  # duplicates in one burst
        ("neighbors", {"v": -1}),  # miss
        ("neighbors", {}),  # missing argument
        ("neighbors", {"v": hub}),
        ("edge", {"u": u, "v": v}),
        ("edge", {"u": v, "v": u}),  # reversed orientation
        ("edge", {"u": 0, "v": 10**9}),  # miss
        ("edge", {"u": 3, "v": 3}),  # self loop
        ("edge", {"u": "a", "v": 1}),  # bad argument
        ("partition_stats", {"k": 0}),
        ("partition_stats", {"k": 99}),  # no such partition
        ("partition_stats", {"k": "x"}),
        ("stats", {}),
        ("reload", {}),  # admin path: missing directory
        ("compact", {}),  # no ingestor
        ("insert_edge", {"u": 1, "v": 2}),
        ("delete_edge", {"u": 1, "v": 2}),
        ("ingest_stats", {}),
        ("explode", {}),  # unknown op
        ("master", {"v": vertices[0]}),  # duplicate of an earlier read
    ]
    log = [protocol.request(i, op, args) for i, (op, args) in enumerate(calls)]
    log.append({"id": len(log), "op": "neighbors", "args": [1]})  # args not an object
    log.append({"id": len(log), "args": {}})  # no op
    return log


async def _read_raw_frames(reader, count):
    frames = []
    splitter = protocol.FrameSplitter()
    while len(frames) < count:
        chunk = await asyncio.wait_for(reader.read(1 << 16), 5.0)
        assert chunk, f"connection closed after {len(frames)} of {count} frames"
        for body in splitter.feed(chunk):
            frames.append(len(body).to_bytes(4, "big") + body)
    return frames


def _without_metrics(response):
    response = dict(response, result=dict(response["result"]))
    response["result"].pop("metrics")
    return response


@pytest.mark.parametrize("chunk", [0, 1])  # bytes per write; 0: one write
def test_raw_frames_equal_in_process_answers(partition, small_social, chunk):
    log = _request_log(small_social)
    expected = ServiceHandler(PartitionStore.from_partition(partition)).execute_batch(log)

    async def go():
        server = PartitionServer(PartitionStore.from_partition(partition))
        async with server:
            reader, writer = await asyncio.open_connection(*server.address)
            try:
                stream = b"".join(protocol.encode_frame(r) for r in log)
                step = chunk or len(stream)
                for i in range(0, len(stream), step):
                    writer.write(stream[i : i + step])
                    await writer.drain()
                    await asyncio.sleep(0)  # let the server read this piece
                got = await _read_raw_frames(reader, len(log))
                # Framing lost: one bad_request, then close.
                writer.write(b"\x00\x00\x00\x05hello")
                await writer.drain()
                tail = await asyncio.wait_for(reader.read(), 5.0)
            finally:
                writer.close()
                await writer.wait_closed()
        return got, tail

    got, tail = asyncio.run(go())
    assert len(got) == len(log)
    for request, response, frame in zip(log, expected, got):
        if request.get("op") == "stats":
            assert _without_metrics(protocol.decode_body(frame[4:])) == (
                _without_metrics(response)
            )
        else:
            assert frame == protocol.encode_frame(response), request
    [body] = list(protocol.FrameSplitter().feed(tail))  # one frame, then EOF
    bad = protocol.decode_body(body)
    assert bad["ok"] is False and bad["error"]["code"] == protocol.BAD_REQUEST
    assert bad["id"] is None and bad["epoch"] == 1
