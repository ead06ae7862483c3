"""Server semantics: routing correctness, batching, backpressure, drain.

No pytest-asyncio in the toolchain — each test drives its own loop via
``asyncio.run``.
"""

import asyncio
import struct

import pytest

from repro.core.tlp import TLPPartitioner
from repro.partitioning.registry import make_partitioner
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.handler import ServiceHandler
from repro.service.server import PartitionServer
from repro.service.store import PartitionStore


@pytest.fixture
def store(small_social):
    return PartitionStore.from_partition(
        TLPPartitioner(seed=0).partition(small_social, 4)
    )


class TestRoutedQueries:
    def test_neighbors_set_equal_over_tcp_tlp(self, store, small_social):
        async def go():
            async with PartitionServer(store) as server:
                async with ServiceClient(*server.address) as client:
                    for v in list(small_social.vertices())[:120]:
                        result = await client.neighbors(v)
                        assert set(result["neighbors"]) == small_social.neighbors(v)
                        assert result["partitions"] == list(store.replicas_of(v))

        asyncio.run(go())

    def test_neighbors_set_equal_over_tcp_baseline(self, small_social):
        partition = make_partitioner("DBH", seed=1).partition(small_social, 5)
        baseline_store = PartitionStore.from_partition(partition)

        async def go():
            async with PartitionServer(baseline_store) as server:
                async with ServiceClient(*server.address) as client:
                    for v in list(small_social.vertices())[:120]:
                        result = await client.neighbors(v)
                        assert set(result["neighbors"]) == small_social.neighbors(v)

        asyncio.run(go())

    def test_master_edge_and_stats(self, store, small_social):
        async def go():
            async with PartitionServer(store) as server:
                async with ServiceClient(*server.address) as client:
                    v = next(iter(small_social.vertices()))
                    master = await client.master(v)
                    assert master["master"] == store.master_of(v)
                    assert master["replicas"] == list(store.replicas_of(v))

                    u, w = next(iter(small_social.edges()))
                    edge = await client.edge(u, w)
                    assert edge["partition"] == store.owner_of_edge(u, w)

                    stats = await client.stats()
                    assert stats["num_partitions"] == store.num_partitions
                    # master + edge succeeded before the snapshot (the stats
                    # request itself is counted after its result is built).
                    assert stats["metrics"]["counters"]["requests_ok"] >= 2

                    pstats = await client.partition_stats(0)
                    assert pstats["edges"] == len(store.partition.edges_of(0))

        asyncio.run(go())

    def test_error_codes(self, store):
        async def go():
            async with PartitionServer(store) as server:
                async with ServiceClient(*server.address, max_retries=0) as client:
                    with pytest.raises(ServiceError) as not_found:
                        await client.neighbors(10**9)
                    assert not_found.value.code == protocol.NOT_FOUND
                    with pytest.raises(ServiceError) as bad_op:
                        await client.call("explode")
                    assert bad_op.value.code == protocol.BAD_REQUEST
                    with pytest.raises(ServiceError) as bad_args:
                        await client.call("neighbors", v="five")
                    assert bad_args.value.code == protocol.BAD_REQUEST
                    # The connection survives all of the above.
                    assert await client.ping()

        asyncio.run(go())


class TestBatching:
    def test_pipelined_burst_is_batched(self, store, small_social):
        async def go():
            server = PartitionServer(store, max_batch=64)
            async with server:
                async with ServiceClient(*server.address) as client:
                    vertices = list(small_social.vertices())[:80]
                    results = await asyncio.gather(
                        *(client.neighbors(v) for v in vertices)
                    )
                    for v, result in zip(vertices, results):
                        assert set(result["neighbors"]) == small_social.neighbors(v)
            counters = server.metrics.counters
            # 80 concurrent requests must not take 80 singleton batches.
            assert counters["batches"] < 80
            assert counters.get("batched_requests", 0) > 0

        asyncio.run(go())

    def test_duplicate_lookups_computed_once(self, store):
        handler = ServiceHandler(store, metrics=None)
        v = next(iter(store.partition.edges_of(0)))[0]
        batch = [protocol.request(i, "neighbors", {"v": v}) for i in range(10)]
        responses = handler.execute_batch(batch)
        assert [r["id"] for r in responses] == list(range(10))
        assert all(r["result"] == responses[0]["result"] for r in responses)
        assert handler.metrics.counters["batch_dedup_hits"] == 9
        # Dedup shares the computation, not the accounting: all ten
        # answered requests count, so server counters stay in parity
        # with client-side op counts (checked over TCP below).
        assert handler.metrics.counters["op_neighbors"] == 10
        assert handler.metrics.counters["requests_ok"] == 10

    def test_op_counters_match_client_requests(self, store, small_social):
        """Server ``op_*`` counters equal what pipelining clients sent."""
        vertices = list(small_social.vertices())[:40]
        edges = list(small_social.edges())[:40]

        async def go():
            async with PartitionServer(store, max_batch=16) as server:
                async with ServiceClient(
                    *server.address, wire="binary"
                ) as a, ServiceClient(*server.address) as b:
                    calls = []
                    for i, v in enumerate(vertices):
                        client = a if i % 2 else b
                        # The repeat is answered by dedup, and still counts.
                        calls += [client.neighbors(v), client.neighbors(v), client.master(v)]
                    calls += [a.edge(u, w) for u, w in edges]
                    await asyncio.gather(*calls)
                return server.metrics.counters

        counters = asyncio.run(go())
        assert counters["batch_dedup_hits"] > 0
        sent = {"neighbors": 80, "master": 40, "edge": 40}
        assert {op: counters[f"op_{op}"] for op in sent} == sent
        # The binary client sends binary from its first frame: no probe.
        assert not counters.get("op_ping")
        assert not counters.get("requests_overload")


async def _close(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


class TestOverloadAndTimeouts:
    def test_overload_is_explicit_and_survivable(self, store):
        """A pipelined burst past ``max_queue``, sent in one write, is
        admitted before one flush: the requests over the bound are answered
        ``overload`` at once, and every request gets exactly one answer."""
        burst = 12

        async def go():
            server = PartitionServer(store, max_queue=2, max_batch=1)
            async with server:
                reader, writer = await asyncio.open_connection(*server.address)
                frames = protocol.BufferedFrameReader(reader)
                try:
                    writer.write(
                        b"".join(
                            protocol.encode_frame(protocol.request(i, "ping"))
                            for i in range(burst)
                        )
                    )
                    await writer.drain()
                    responses = [
                        await asyncio.wait_for(frames.read_frame(), 5.0)
                        for _ in range(burst)
                    ]
                    # The connection survives its overloads.
                    writer.write(
                        protocol.encode_frame(protocol.request(burst, "ping"))
                    )
                    after = await asyncio.wait_for(frames.read_frame(), 5.0)
                finally:
                    await _close(writer)
            return responses, after, server.metrics.counters

        responses, after, counters = asyncio.run(go())
        assert [r["id"] for r in responses] == list(range(burst))
        overload = [r for r in responses if not r["ok"]]
        assert overload, "bounded queue never reported overload"
        assert {r["error"]["code"] for r in overload} == {protocol.OVERLOAD}
        assert any(r["ok"] for r in responses)
        assert counters["requests_overload"] == len(overload)
        assert after["ok"] is True

    @pytest.mark.parametrize(
        "limits", [{"max_queue": 0}, {"max_queue": -1}, {"max_batch": 0}]
    )
    def test_non_positive_limits_rejected(self, store, limits):
        """``asyncio.Queue(maxsize=0)`` is unbounded, so a zero queue
        bound would silently disable overload backpressure."""
        name = next(iter(limits))
        with pytest.raises(ValueError, match=name):
            PartitionServer(store, **limits)

    def test_client_retries_through_overload(self, store):
        async def go():
            server = PartitionServer(store, max_queue=1, max_batch=1)
            async with server:
                client = ServiceClient(
                    *server.address, max_retries=10, backoff_base=0.02
                )
                async with client:
                    # The six calls write in one loop iteration, so the
                    # server reads them in one go, past its bound of one.
                    results = await asyncio.gather(
                        *(client.call("ping") for _ in range(6))
                    )
            assert all(r == {"pong": True} for r in results)
            assert server.metrics.counters["requests_overload"] > 0

        asyncio.run(go())


class TestGracefulShutdown:
    def test_stop_drains_in_flight_requests(self, store, small_social):
        """``stop()`` waits for a running reload, then writes its answer and
        the reads answered behind it on the same connection."""
        vertices = list(small_social.vertices())[:5]

        async def go():
            server = PartitionServer(store)
            gate = asyncio.Event()

            async def gated_reload(request_id, args):
                await gate.wait()
                return protocol.ok_response(request_id, {"gated": True})

            server._reload_request = gated_reload  # a reload that runs until set
            host, port = await server.start()
            client = await ServiceClient(host, port, max_retries=0).connect()
            tasks = [asyncio.create_task(client.call("reload"))]
            tasks += [asyncio.create_task(client.neighbors(v)) for v in vertices]
            await asyncio.sleep(0.1)  # all admitted; the reads wait behind the reload

            stop_task = asyncio.create_task(server.stop())
            await asyncio.sleep(0.1)
            assert not stop_task.done()  # still draining: the reload is running
            assert not any(task.done() for task in tasks)
            gate.set()
            results = await asyncio.gather(*tasks)
            await stop_task
            await client.close()
            return results

        reload_result, *reads = asyncio.run(go())
        assert reload_result == {"gated": True}
        for v, result in zip(vertices, reads):
            assert set(result["neighbors"]) == small_social.neighbors(v)

    def test_stopped_server_refuses_connections(self, store):
        async def go():
            server = PartitionServer(store)
            host, port = await server.start()
            await server.stop()
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.wait_for(asyncio.open_connection(host, port), 1.0)

        asyncio.run(go())

    def test_restartable_after_stop(self, store, small_social):
        async def go():
            server = PartitionServer(store)
            await server.start()
            await server.stop()
            host, port = await server.start()
            async with ServiceClient(host, port) as client:
                v = next(iter(small_social.vertices()))
                result = await client.neighbors(v)
                assert set(result["neighbors"]) == small_social.neighbors(v)
            await server.stop()

        asyncio.run(go())


class TestProtocolRobustness:
    def test_garbage_frame_gets_bad_request_then_close(self, store):
        async def go():
            async with PartitionServer(store) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                frames = protocol.BufferedFrameReader(reader)
                writer.write(struct.pack(">I", 8) + b"not json")
                await writer.drain()
                response = await frames.read_frame()
                assert response["ok"] is False
                assert response["error"]["code"] == protocol.BAD_REQUEST
                assert await frames.read_frame() is None  # dropped
                writer.close()

        asyncio.run(go())

    def test_unknown_op_does_not_kill_connection(self, store):
        async def go():
            async with PartitionServer(store) as server:
                async with ServiceClient(*server.address, max_retries=0) as client:
                    for _ in range(3):
                        with pytest.raises(ServiceError):
                            await client.call("nope")
                    assert await client.ping()

        asyncio.run(go())
