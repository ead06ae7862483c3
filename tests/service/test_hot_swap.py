"""Hot re-partitioning: epoch-based atomic bundle swap, under load.

The headline harness hammers a live server with verified ``neighbors`` /
``master`` / ``edge`` queries from concurrent clients while bundles flip
repeatedly underneath them, and asserts the swap contract end to end:

* zero requests dropped — every issued query gets exactly one answer;
* no torn reads — every response is internally consistent with exactly
  the epoch it reports (checked against a per-epoch reference store);
* per-client epochs never go backwards (requests are pinned to the live
  epoch at admission, and responses come back in admission order);
* a corrupt bundle never changes the live epoch;
* after the dust settles, every lease is released and every retired
  store is freed.

No pytest-asyncio in the toolchain — each test drives its own loop via
``asyncio.run``.
"""

import asyncio
import random

import pytest

from repro.core.tlp import TLPPartitioner
from repro.partitioning.registry import make_partitioner
from repro.partitioning.serialization import save_partition
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import PartitionServer
from repro.service.store import PartitionStore, StoreManager


@pytest.fixture(scope="module")
def graph():
    from repro.graph.generators import holme_kim

    return holme_kim(250, 4, 0.5, seed=7)


@pytest.fixture(scope="module")
def bundles(graph, tmp_path_factory):
    """Three different partitionings of the same graph, saved as bundles.

    Different seeds/algorithms give different placements, so a response
    can be attributed to exactly one bundle by its routing answers.
    """
    root = tmp_path_factory.mktemp("bundles")
    partitions = [
        TLPPartitioner(seed=0).partition(graph, 4),
        TLPPartitioner(seed=5).partition(graph, 4),
        make_partitioner("DBH", seed=1).partition(graph, 4),
    ]
    directories = []
    for i, partition in enumerate(partitions):
        directory = root / f"bundle_{i}"
        save_partition(partition, directory, metadata={"bundle": i})
        directories.append(directory)
    return directories


@pytest.fixture(scope="module")
def reference_stores(bundles):
    """Epoch-independent reference copies of each bundle's routing tables."""
    return [PartitionStore.open(d) for d in bundles]


@pytest.fixture
def corrupt_bundle(tmp_path):
    """A directory whose manifest names edge files that do not exist."""
    directory = tmp_path / "corrupt"
    directory.mkdir()
    (directory / "partition.json").write_text(
        '{"format_version": 1, "num_partitions": 4, "num_edges": 99,'
        ' "files": [{"file": "part_0000.edges", "edges": 99,'
        ' "checksum": "deadbeefdeadbeef"}], "metadata": {}}'
    )
    return directory


def _verify(op, result, epoch, graph, epoch_stores):
    """One response is internally consistent with the epoch it reports."""
    assert epoch in epoch_stores, f"response from unknown epoch {epoch}"
    store = epoch_stores[epoch]
    if op == "neighbors":
        v = result["v"]
        assert set(result["neighbors"]) == graph.neighbors(v)
        assert result["partitions"] == list(store.replicas_of(v))
    elif op == "master":
        v = result["v"]
        assert result["master"] == store.master_of(v)
        assert result["replicas"] == list(store.replicas_of(v))
        assert result["mirrors"] == list(store.mirrors_of(v))
    elif op == "edge":
        assert result["partition"] == store.owner_of_edge(result["u"], result["v"])
    else:  # pragma: no cover - harness bug
        raise AssertionError(f"unexpected op {op}")


class TestSwapUnderLoad:
    def test_three_hot_reloads_under_verified_query_load(
        self, graph, bundles, reference_stores, corrupt_bundle
    ):
        """≥3 consecutive hot reloads under load: no drops, no torn reads."""
        vertices = list(graph.vertices())
        edges = list(graph.edges())
        num_workers = 4
        reload_plan = [1, 2, 0, 1]  # four flips through the bundle cycle

        async def go():
            store = PartitionStore.open(bundles[0])
            server = PartitionServer(store)
            # epoch -> reference store (epoch 1 is the bundle the server
            # started on; each successful reload maps the next epoch).
            epoch_stores = {server.manager.epoch: reference_stores[0]}
            stop = asyncio.Event()
            issued = [0] * num_workers
            answered = [0] * num_workers
            epochs_seen = [[] for _ in range(num_workers)]

            async def worker(idx):
                rng = random.Random(1000 + idx)
                async with ServiceClient(*server.address) as client:
                    while not stop.is_set():
                        op = rng.choice(("neighbors", "master", "edge"))
                        if op == "edge":
                            u, v = rng.choice(edges)
                            args = {"u": u, "v": v}
                        else:
                            args = {"v": rng.choice(vertices)}
                        issued[idx] += 1
                        # Sequential calls per client: last_epoch after the
                        # call is the epoch of the response just returned.
                        result = await client.call(op, **args)
                        epoch = client.last_epoch
                        _verify(op, result, epoch, graph, epoch_stores)
                        answered[idx] += 1
                        epochs_seen[idx].append(epoch)

            async def controller():
                async with ServiceClient(
                    *server.address, max_retries=0, call_timeout=60.0
                ) as admin:
                    await asyncio.sleep(0.15)  # load runs on the first epoch
                    for step, bundle_idx in enumerate(reload_plan):
                        before = server.manager.epoch
                        # Map the upcoming epoch *before* the flip: workers
                        # may see new-epoch responses while the reload call
                        # is still waiting on its drain barrier.
                        epoch_stores[before + 1] = reference_stores[bundle_idx]
                        info = await admin.reload(str(bundles[bundle_idx]))
                        assert info["epoch"] == before + 1
                        assert info["num_partitions"] == 4
                        if step == 1:
                            # Mid-sequence: a corrupt bundle must leave the
                            # freshly flipped epoch serving.
                            live = server.manager.epoch
                            with pytest.raises(ServiceError) as excinfo:
                                await admin.reload(str(corrupt_bundle))
                            assert excinfo.value.code == protocol.RELOAD_FAILED
                            assert server.manager.epoch == live
                        await asyncio.sleep(0.15)  # load runs on this epoch

            async with server:
                workers = [
                    asyncio.create_task(worker(i)) for i in range(num_workers)
                ]
                await controller()
                stop.set()
                await asyncio.gather(*workers)

                # Zero dropped responses: every issued query was answered.
                assert issued == answered
                assert sum(issued) > 0
                # Epochs never go backwards on a connection.
                for seen in epochs_seen:
                    assert seen == sorted(seen)
                # The load actually spanned the flips.
                distinct = set().union(*map(set, epochs_seen))
                assert len(distinct) >= 2
                # All four reloads landed: epoch 1 + len(reload_plan).
                assert server.manager.epoch == 1 + len(reload_plan)
                # Every lease returned; every retired store freed.
                assert server.manager.active_leases() == 0
                assert server.manager.retired_epochs() == ()
                counters = server.metrics.counters
                assert counters["reloads_ok"] == len(reload_plan)
                assert counters["reloads_failed"] == 1
                assert server.metrics.gauges["epoch"] == server.manager.epoch

        asyncio.run(go())


class TestDrainBarrier:
    def test_reload_waits_for_pinned_requests_and_reports_drain_count(
        self, graph, bundles
    ):
        """The flip is atomic; the old store drains exactly the pinned set."""
        pinned = 5
        vertices = list(graph.vertices())[:pinned]

        async def go():
            server = PartitionServer(PartitionStore.open(bundles[0]))
            manager = server.manager
            async with server:
                # Leases as admission takes them: each pins the live store.
                leases = [manager.acquire() for _ in range(pinned)]
                assert manager.active_leases(1) == pinned

                async with ServiceClient(
                    *server.address, max_retries=0, call_timeout=60.0
                ) as admin:
                    reload_task = asyncio.create_task(admin.reload(str(bundles[1])))
                    await asyncio.sleep(0.3)
                    # The flip already landed (new admissions see epoch 2)
                    # but the reload response is held at the drain barrier
                    # while 5 leases still read the old store.
                    assert manager.epoch == 2
                    assert not reload_task.done()
                    assert manager.active_leases(1) == pinned
                    assert manager.retired_epochs() == (1,)
                    # Requests pinned before the flip are answered by the
                    # *old* epoch.
                    answers = server._handler.execute_batch(
                        [protocol.request(i, "neighbors", {"v": v})
                         for i, v in enumerate(vertices)],
                        leases=leases,
                    )

                    for _store, epoch in leases:
                        manager.release(epoch)
                    info = await reload_task

                assert info["drained"] == pinned
                assert "drain_timed_out" not in info
                assert manager.active_leases() == 0
                assert manager.retired_epochs() == ()
                assert server.metrics.counters["queries_drained"] == pinned
                old = PartitionStore.open(bundles[0])
                for v, answer in zip(vertices, answers):
                    assert answer["epoch"] == 1
                    assert answer["result"]["partitions"] == list(old.replicas_of(v))

        asyncio.run(go())


class TestSwapPolicy:
    def test_second_reload_rejected_while_building(self, bundles):
        """Reject-during-build: one build at a time, explicit error code."""

        async def go():
            store = PartitionStore.open(bundles[0])
            server = PartitionServer(store)
            # Make the build step slow enough to overlap deterministically.
            real_build = server.manager._build
            release = asyncio.Event()

            def slow_build(directory, verify):
                # Runs on the executor thread; block until released.
                fut = asyncio.run_coroutine_threadsafe(release.wait(), loop)
                fut.result(timeout=10)
                return real_build(directory, verify)

            server.manager._build = slow_build
            loop = asyncio.get_running_loop()
            async with server:
                # Two connections: responses are written in request order
                # per connection, so the rejection must not queue behind
                # the slow first reload's response.
                async with ServiceClient(
                    *server.address, max_retries=0, call_timeout=60.0
                ) as admin1, ServiceClient(
                    *server.address, max_retries=0
                ) as admin2:
                    first = asyncio.create_task(admin1.reload(str(bundles[1])))
                    await asyncio.sleep(0.1)
                    with pytest.raises(ServiceError) as excinfo:
                        await admin2.reload(str(bundles[2]))
                    assert excinfo.value.code == protocol.RELOAD_IN_PROGRESS
                    # The rejected reload did not disturb the build in flight.
                    release.set()
                    info = await first
                    assert info["epoch"] == 2
                    assert server.manager.epoch == 2

        asyncio.run(go())

    def test_partition_count_change_rejected_by_default(self, graph, tmp_path):
        async def go():
            p4 = TLPPartitioner(seed=0).partition(graph, 4)
            p8 = TLPPartitioner(seed=0).partition(graph, 8)
            d4, d8 = tmp_path / "p4", tmp_path / "p8"
            save_partition(p4, d4)
            save_partition(p8, d8)
            server = PartitionServer(PartitionStore.open(d4))
            async with server:
                async with ServiceClient(
                    *server.address, max_retries=0
                ) as admin:
                    with pytest.raises(ServiceError) as excinfo:
                        await admin.reload(str(d8))
                    assert excinfo.value.code == protocol.RELOAD_FAILED
                    assert "partition count" in str(excinfo.value)
                    assert server.manager.epoch == 1

        asyncio.run(go())

    def test_reload_disabled_server_refuses(self, bundles):
        async def go():
            server = PartitionServer(
                PartitionStore.open(bundles[0]), allow_reload=False
            )
            async with server:
                async with ServiceClient(
                    *server.address, max_retries=0
                ) as admin:
                    with pytest.raises(ServiceError) as excinfo:
                        await admin.reload(str(bundles[1]))
                    assert excinfo.value.code == protocol.BAD_REQUEST
                    assert server.manager.epoch == 1
                    # Queries still work.
                    assert await admin.ping()

        asyncio.run(go())

    def test_reload_missing_directory_argument(self, bundles):
        async def go():
            server = PartitionServer(PartitionStore.open(bundles[0]))
            async with server:
                async with ServiceClient(
                    *server.address, max_retries=0
                ) as admin:
                    with pytest.raises(ServiceError) as excinfo:
                        await admin.call("reload")
                    assert excinfo.value.code == protocol.BAD_REQUEST
                    assert await admin.ping()

        asyncio.run(go())


class TestEpochEcho:
    def test_every_response_kind_carries_the_epoch(self, bundles):
        """Success, not-found, and bad-request responses all echo the epoch."""

        async def go():
            server = PartitionServer(PartitionStore.open(bundles[0]))
            async with server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                requests = [
                    protocol.request(1, "ping"),
                    protocol.request(2, "neighbors", {"v": 10**9}),
                    protocol.request(3, "definitely_not_an_op"),
                    protocol.request(4, "stats"),
                ]
                for message in requests:
                    writer.write(protocol.encode_frame(message))
                await writer.drain()
                frames = protocol.BufferedFrameReader(reader)
                for _ in requests:
                    response = await frames.read_frame()
                    assert response["epoch"] == 1
                writer.close()
                await writer.wait_closed()

        asyncio.run(go())

    def test_stats_exposes_epoch_and_swap_metrics(self, bundles):
        async def go():
            server = PartitionServer(PartitionStore.open(bundles[0]))
            async with server:
                async with ServiceClient(*server.address) as client:
                    await client.reload(str(bundles[1]))
                    stats = await client.stats()
                    assert stats["epoch"] == 2
                    metrics = stats["metrics"]
                    assert metrics["gauges"]["epoch"] == 2
                    assert metrics["counters"]["reloads_ok"] == 1
                    assert metrics["latency"]["reload_build"]["count"] == 1

        asyncio.run(go())

    def test_client_epoch_change_callback_fires_on_flip(self, bundles):
        async def go():
            server = PartitionServer(PartitionStore.open(bundles[0]))
            flips = []
            async with server:
                async with ServiceClient(
                    *server.address,
                    on_epoch_change=lambda old, new: flips.append((old, new)),
                ) as client:
                    await client.ping()
                    await client.reload(str(bundles[1]))
                    await client.ping()
            assert flips == [(None, 1), (1, 2)]

        asyncio.run(go())


class TestInProcessManager:
    """StoreManager invariants exercised directly (no sockets)."""

    def test_acquire_release_refcounting(self, bundles):
        manager = StoreManager(PartitionStore.open(bundles[0]))
        store, epoch = manager.acquire()
        _, epoch2 = manager.acquire()
        assert epoch == epoch2 == 1
        assert manager.active_leases() == 2
        manager.release(epoch)
        manager.release(epoch2)
        assert manager.active_leases() == 0

    def test_pinned_lease_survives_a_sync_swap(self, bundles):
        manager = StoreManager(PartitionStore.open(bundles[0]))
        old_store, old_epoch = manager.acquire()
        info = manager.reload_sync(bundles[1])
        assert info["epoch"] == 2
        assert info["drained"] == 1  # our lease was pinned across the flip
        # The pinned lease still reads the retired store.
        assert manager.retired_epochs() == (old_epoch,)
        assert old_store.num_edges > 0
        manager.release(old_epoch)
        assert manager.retired_epochs() == ()
        assert manager.store.epoch == 2

    def test_reload_sync_of_missing_bundle_raises_and_keeps_epoch(
        self, bundles, tmp_path
    ):
        from repro.service.store import ReloadError

        manager = StoreManager(PartitionStore.open(bundles[0]))
        with pytest.raises(ReloadError):
            manager.reload_sync(tmp_path / "nope")
        assert manager.epoch == 1
        assert manager.reloading is False


class TestRefinedCompactionUnderLoad:
    """Compaction-with-refinement swaps epochs under verified live load.

    An ingestor with ``refine_on_compact`` folds the pending mutations
    and then runs the local-search refinement pass on the folded
    partition before every epoch swap.  Under concurrent verified query
    load the contract is: zero dropped queries, and per-epoch RF
    attribution — every published epoch serves *exactly* the RF its
    compaction reported, and carries it in the bundle manifest.
    """

    def test_refined_compaction_under_verified_load(self, graph, tmp_path):
        from repro.partitioning.refine import RefineStats
        from repro.service.ingest import Ingestor

        # DBH placement leaves real refinement headroom (TLP output is
        # typically already move-optimal on dense graphs).
        bundle = tmp_path / "dbh"
        save_partition(
            make_partitioner("DBH", seed=1).partition(graph, 4), bundle
        )
        vertices = list(graph.vertices())
        num_workers = 3
        rounds = 2

        async def go():
            manager = StoreManager(PartitionStore.open(bundle))
            ingestor = Ingestor.enable(
                manager,
                bundle,
                fsync="never",
                refine_on_compact=True,
                refine_slack=1.05,
            )
            server = PartitionServer(manager, ingestor=ingestor)
            stop = asyncio.Event()
            issued = [0] * num_workers
            answered = [0] * num_workers
            rf_by_epoch = {}

            async def worker(idx):
                rng = random.Random(700 + idx)
                async with ServiceClient(*server.address) as client:
                    while not stop.is_set():
                        v = rng.choice(vertices)
                        issued[idx] += 1
                        result = await client.call("neighbors", v=v)
                        # The controller only *adds* fresh edges, so the
                        # base neighbourhood must always be present.
                        assert set(result["neighbors"]) >= graph.neighbors(v)
                        answered[idx] += 1

            async def controller():
                fresh = max(vertices) + 10
                async with ServiceClient(
                    *server.address, max_retries=0, call_timeout=60.0
                ) as admin:
                    await asyncio.sleep(0.1)
                    for round_no in range(rounds):
                        for i in range(20):
                            await admin.insert_edge(
                                rng.choice(vertices),
                                fresh + round_no * 100 + i,
                            )
                        await asyncio.sleep(0.05)
                        before = manager.epoch
                        info = await admin.call("compact")
                        assert info["folded_mutations"] == 20
                        assert manager.epoch == before + 1
                        refined = info["refined"]
                        assert (
                            refined["rf_after"] <= refined["rf_before"] + 1e-9
                        )
                        rf_by_epoch[info["epoch"]] = refined
                        # Attribution at publish time: the freshly swapped
                        # epoch serves the refined RF (the overlay is clean
                        # — this controller is the only mutator)...
                        live_rf = manager.store.replication_factor()
                        assert live_rf == pytest.approx(
                            refined["rf_after"], abs=1e-6
                        )
                        # ...and the manifest records the same numbers.
                        manifest = manager.store.metadata["refined"]
                        assert manifest["rf_after"] == pytest.approx(
                            refined["rf_after"], abs=1e-6
                        )
                        await asyncio.sleep(0.05)

            rng = random.Random(77)
            async with server:
                workers = [
                    asyncio.create_task(worker(i)) for i in range(num_workers)
                ]
                await controller()
                stop.set()
                await asyncio.gather(*workers)

                # Zero dropped queries across the refined swaps.
                assert issued == answered
                assert sum(issued) > 0
                assert manager.epoch == 1 + rounds
                assert manager.active_leases() == 0
                assert manager.retired_epochs() == ()
                assert server.metrics.counters["compactions_ok"] == rounds
                # Per-epoch attribution survives: one record per epoch,
                # and the live epoch still serves the last reported RF.
                assert sorted(rf_by_epoch) == list(range(2, 2 + rounds))
                last = rf_by_epoch[manager.epoch]
                assert manager.store.replication_factor() == pytest.approx(
                    last["rf_after"], abs=1e-6
                )
                # The DBH seed left headroom: refinement actually moved
                # edges somewhere along the way.
                total_applied = sum(
                    r["moves"] + r["swaps"] for r in rf_by_epoch.values()
                )
                assert total_applied > 0
                assert isinstance(ingestor.last_refine_stats, RefineStats)
            ingestor.close()

        asyncio.run(go())


class TestRebalancePipeline:
    """repartition -> save_partition -> hot reload, end to end.

    The offline pipeline (rebalance a skewed partition, save the bundle)
    feeds the online one (StoreManager.reload), and the new epoch's
    replication factor must agree with ``repro.partitioning.metrics``
    computed on the rebalanced partition itself.
    """

    def test_rebalanced_bundle_reload_reports_offline_rf(
        self, graph, tmp_path
    ):
        from repro.partitioning.metrics import replication_factor
        from repro.partitioning.rebalance import rebalance

        base = TLPPartitioner(seed=3).partition(graph, 4)
        balanced = rebalance(base, capacity=0, max_rounds=4)
        offline_rf = replication_factor(balanced, graph)

        base_dir = tmp_path / "base"
        balanced_dir = tmp_path / "balanced"
        save_partition(base, base_dir, metadata={"stage": "base"})
        save_partition(balanced, balanced_dir, metadata={"stage": "balanced"})

        async def go():
            manager = StoreManager(PartitionStore.open(base_dir))
            assert manager.epoch == 1
            info = await manager.reload(balanced_dir)
            assert info["epoch"] == 2
            # The swap ack and the live store agree with the offline metric.
            assert info["replication_factor"] == pytest.approx(
                offline_rf, abs=1e-6
            )
            assert manager.store.replication_factor() == pytest.approx(
                offline_rf, abs=1e-9
            )
            assert manager.store.metadata.get("stage") == "balanced"

        asyncio.run(go())

    def test_rebalanced_bundle_served_over_the_wire(self, graph, tmp_path):
        from repro.partitioning.metrics import replication_factor
        from repro.partitioning.rebalance import rebalance

        base = TLPPartitioner(seed=3).partition(graph, 4)
        balanced = rebalance(base, capacity=0, max_rounds=4)
        offline_rf = replication_factor(balanced, graph)

        base_dir = tmp_path / "base"
        balanced_dir = tmp_path / "balanced"
        save_partition(base, base_dir)
        save_partition(balanced, balanced_dir)

        async def go():
            async with PartitionServer(PartitionStore.open(base_dir)) as server:
                async with ServiceClient(*server.address) as client:
                    await client.reload(str(balanced_dir))
                    stats = await client.stats()
                    assert stats["epoch"] == 2
                    assert stats["replication_factor"] == pytest.approx(
                        offline_rf, abs=1e-6
                    )

        asyncio.run(go())
