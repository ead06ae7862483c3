"""Client behaviour: retry/backoff classification and the blocking client."""

import asyncio
import threading
import time

import pytest

from repro.core.tlp import TLPPartitioner
from repro.service import protocol
from repro.service.client import (
    ServiceClient,
    ServiceError,
    SyncServiceClient,
    _JITTER_FLOOR,
    _backoff_delays,
    _jittered,
)
from repro.service.server import PartitionServer
from repro.service.store import PartitionStore


class TestBackoffPolicy:
    def test_delays_grow_geometrically(self):
        assert _backoff_delays(0.1, 2.0, 3) == [0.1, 0.2, 0.4]

    def test_zero_retries_means_no_delays(self):
        assert _backoff_delays(0.1, 2.0, 0) == []

    def test_jitter_floor_statistics(self):
        """Regression: full jitter must have a floor of cap/8.

        The old draw was ``uniform(0, cap)``, so ~12.5% of retries slept
        under cap/8 and stampeded a recovering server.  Over many draws:
        no sample below the floor or above the cap, and the spread must
        still cover most of the [floor, cap] range (the fix must not
        collapse jitter into a constant).
        """
        import random

        rng = random.Random(0xBACC0FF)
        for cap in (0.05, 0.2, 1.0, 8.0):
            floor = cap * _JITTER_FLOOR
            draws = [_jittered(cap, rng) for _ in range(4000)]
            assert min(draws) >= floor
            assert max(draws) <= cap
            # Uniform over [floor, cap]: mean near the midpoint, and
            # both halves of the range actually hit.
            mid = (floor + cap) / 2
            mean = sum(draws) / len(draws)
            assert abs(mean - mid) < (cap - floor) * 0.05
            assert any(d < mid for d in draws)
            assert any(d > mid for d in draws)
            # A tighter sanity bound: at least some draws land in the
            # bottom decile of the allowed range, proving the floor is
            # cap/8 and not something larger.
            bottom = floor + (cap - floor) * 0.1
            assert any(d <= bottom for d in draws)

    def test_jitter_disabled_sleeps_the_cap(self):
        assert _jittered(0.4, None) == 0.4

    def test_error_retryability(self):
        assert ServiceError(protocol.OVERLOAD, "x").retryable
        assert ServiceError(protocol.INGEST_FROZEN, "x").retryable
        assert not ServiceError(protocol.NOT_FOUND, "x").retryable
        assert not ServiceError(protocol.BAD_REQUEST, "x").retryable


class TestAsyncClient:
    def test_semantic_errors_are_not_retried(self, small_social):
        store = PartitionStore.from_partition(
            TLPPartitioner(seed=0).partition(small_social, 3)
        )

        async def go():
            async with PartitionServer(store) as server:
                async with ServiceClient(
                    *server.address, max_retries=5, backoff_base=0.05
                ) as client:
                    start = time.perf_counter()
                    with pytest.raises(ServiceError):
                        await client.neighbors(10**9)
                    # If not_found were retried, 5 backoffs >= 1.55s elapse.
                    assert time.perf_counter() - start < 1.0
            counters = server.metrics.counters
            assert counters["requests_not_found"] == 1

        asyncio.run(go())

    def test_connection_refused_raises_after_retries(self):
        async def go():
            client = ServiceClient(
                "127.0.0.1", 1, max_retries=1, backoff_base=0.01
            )
            with pytest.raises((ConnectionError, OSError)):
                await client.call("ping")
            await client.close()

        asyncio.run(go())

    def test_many_concurrent_calls_on_one_connection(self, small_social):
        store = PartitionStore.from_partition(
            TLPPartitioner(seed=0).partition(small_social, 3)
        )
        vertices = list(small_social.vertices())[:150]

        async def go():
            async with PartitionServer(store) as server:
                async with ServiceClient(*server.address) as client:
                    results = await asyncio.gather(
                        *(client.neighbors(v) for v in vertices)
                    )
            # Pipelined responses must map back to their own requests.
            for v, result in zip(vertices, results):
                assert result["v"] == v
                assert set(result["neighbors"]) == small_social.neighbors(v)

        asyncio.run(go())


@pytest.fixture
def threaded_server(small_social):
    """A live server on a background thread, for the blocking client."""
    store = PartitionStore.from_partition(
        TLPPartitioner(seed=0).partition(small_social, 3)
    )
    loop = asyncio.new_event_loop()
    server = PartitionServer(store)
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(5.0)
    yield server.address
    asyncio.run_coroutine_threadsafe(server.stop(), loop).result(5.0)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(5.0)
    loop.close()


class TestSyncClient:
    def test_round_trip(self, threaded_server, small_social):
        host, port = threaded_server
        with SyncServiceClient(host, port) as client:
            assert client.call("ping")["pong"] is True
            for v in list(small_social.vertices())[:30]:
                result = client.call("neighbors", v=v)
                assert set(result["neighbors"]) == small_social.neighbors(v)

    def test_semantic_error_raises(self, threaded_server):
        host, port = threaded_server
        with SyncServiceClient(host, port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.call("neighbors", v=10**9)
            assert excinfo.value.code == protocol.NOT_FOUND

    def test_reconnects_after_close(self, threaded_server):
        host, port = threaded_server
        client = SyncServiceClient(host, port)
        assert client.call("ping")["pong"] is True
        client.close()
        assert client.call("ping")["pong"] is True  # transparent reconnect
        client.close()


class TestReconnectOnReset:
    """A dead connection (server restart, reset racing a hot reload) is a
    retryable failure: the client must tear it down and reconnect with
    the normal backoff policy instead of stalling on the old transport.
    """

    def test_async_client_survives_server_restart(self, small_social):
        store = PartitionStore.from_partition(
            TLPPartitioner(seed=0).partition(small_social, 3)
        )

        async def go():
            first = PartitionServer(store)
            host, port = await first.start()
            client = ServiceClient(
                host, port, max_retries=6, backoff_base=0.05, call_timeout=5.0
            )
            try:
                assert await client.ping()
                # Kill the server: the established connection is now dead.
                await first.stop()
                second = PartitionServer(store, host=host, port=port)
                await second.start()
                try:
                    # The regression: without reconnect-on-reset the client
                    # keeps writing into the dead transport and stalls for
                    # the full call_timeout instead of retrying.
                    start = time.perf_counter()
                    assert await client.ping()
                    assert time.perf_counter() - start < 4.0
                    v = next(iter(small_social.vertices()))
                    result = await client.neighbors(v)
                    assert set(result["neighbors"]) == small_social.neighbors(v)
                finally:
                    await second.stop()
            finally:
                await client.close()

        asyncio.run(go())

    def test_async_client_retries_while_server_is_down(self, small_social):
        """A request issued while the server is down succeeds once it is back."""
        store = PartitionStore.from_partition(
            TLPPartitioner(seed=0).partition(small_social, 3)
        )

        async def go():
            first = PartitionServer(store)
            host, port = await first.start()
            client = ServiceClient(
                host, port, max_retries=8, backoff_base=0.05, call_timeout=5.0
            )
            try:
                assert await client.ping()
                await first.stop()

                async def restart_later():
                    await asyncio.sleep(0.3)
                    server = PartitionServer(store, host=host, port=port)
                    await server.start()
                    return server

                restart = asyncio.create_task(restart_later())
                # Issued into the gap: connection refused at first, then the
                # backoff loop reconnects against the restarted server.
                assert await client.ping()
                second = await restart
                await second.stop()
            finally:
                await client.close()

        asyncio.run(go())

    def test_sync_client_survives_server_restart(self, small_social):
        store = PartitionStore.from_partition(
            TLPPartitioner(seed=0).partition(small_social, 3)
        )

        def run_server_thread(server, loop):
            started = threading.Event()

            def run():
                asyncio.set_event_loop(loop)
                loop.run_until_complete(server.start())
                started.set()
                loop.run_forever()

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            assert started.wait(5.0)
            return thread

        def stop_server_thread(server, loop, thread):
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(5.0)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(5.0)
            loop.close()

        loop1 = asyncio.new_event_loop()
        server1 = PartitionServer(store)
        thread1 = run_server_thread(server1, loop1)
        host, port = server1.address
        client = SyncServiceClient(host, port, max_retries=6, backoff_base=0.05)
        try:
            assert client.call("ping")["pong"] is True
            stop_server_thread(server1, loop1, thread1)

            loop2 = asyncio.new_event_loop()
            server2 = PartitionServer(store, host=host, port=port)
            thread2 = run_server_thread(server2, loop2)
            try:
                assert client.call("ping")["pong"] is True
            finally:
                stop_server_thread(server2, loop2, thread2)
        finally:
            client.close()
