"""Multi-process cluster serving: parity, failover, respawn, epoch swap.

The contract under test (see ``repro.service.cluster``):

* sharded serving is **bit-identical** to single-process serving —
  every success result and every error (code *and* message) matches;
* SIGKILLing a worker mid-load with a standby replica produces **zero
  wrong answers** — reads fail over inside the shard group, never
  degrade;
* the supervisor respawns a dead worker and the shard blocks-then-heals
  when it has no standby;
* ``reload`` is a coordinated two-phase epoch swap: zero dropped
  queries under load, per-connection epochs monotonic, and a corrupt
  bundle never changes the serving epoch.

Worker processes use the ``spawn`` start method, so each test keeps its
process count small.  No pytest-asyncio in the toolchain — each test
drives its own loop via ``asyncio.run``.
"""

import asyncio
import os
import random
import signal

import pytest

from repro.core.tlp import TLPPartitioner
from repro.partitioning.serialization import save_partition
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.cluster import ClusterServer, shard_bounds
from repro.service.server import PartitionServer
from repro.service.store import PartitionStore
from tests.service.oracle import DictStore


@pytest.fixture(scope="module")
def graph():
    from repro.graph.generators import holme_kim

    return holme_kim(150, 3, 0.5, seed=7)


@pytest.fixture(scope="module")
def bundles(graph, tmp_path_factory):
    """Two different partitionings of the same graph, saved as bundles."""
    root = tmp_path_factory.mktemp("cluster-bundles")
    directories = []
    for i, seed in enumerate((0, 5)):
        partition = TLPPartitioner(seed=seed).partition(graph, 4)
        directory = root / f"bundle_{i}"
        save_partition(partition, directory, metadata={"bundle": i})
        directories.append(directory)
    return directories


@pytest.fixture(scope="module")
def reference_stores(bundles):
    return [PartitionStore.open(d) for d in bundles]


@pytest.fixture
def corrupt_bundle(tmp_path):
    directory = tmp_path / "corrupt"
    directory.mkdir()
    (directory / "partition.json").write_text(
        '{"format_version": 1, "num_partitions": 4, "num_edges": 99,'
        ' "files": [{"file": "part_0000.edges", "edges": 99,'
        ' "checksum": "deadbeefdeadbeef"}], "metadata": {}}'
    )
    return directory


class TestShardBounds:
    def test_bounds_cover_partitions_contiguously_and_balanced(self):
        for p in (1, 4, 7, 16):
            for w in (1, 2, 3, p):
                bounds = shard_bounds(p, w)
                assert bounds[0][0] == 0
                assert bounds[-1][1] == p
                for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                    assert hi == lo  # contiguous, no gap, no overlap
                sizes = [hi - lo for lo, hi in bounds]
                assert max(sizes) - min(sizes) <= 1

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            shard_bounds(4, 0)


class TestGroupSweepParity:
    def test_group_methods_agree_between_dict_and_csr_backends(
        self, graph, bundles
    ):
        """The shard-worker read path answers exactly as the dict oracle."""
        dict_store = DictStore.open(bundles[0])
        csr_store = PartitionStore.open(bundles[0])
        vertices = sorted(graph.vertices())[:60] + [10**9]
        pairs = sorted(graph.edges())[:60] + [(0, 10**9)]
        p = dict_store.num_partitions
        for lo, hi in [(0, p), (0, p // 2), (p // 2, p), (1, 3)]:
            assert dict_store.group_neighbors_many(
                vertices, lo, hi
            ) == csr_store.group_neighbors_many(vertices, lo, hi)
            assert dict_store.group_owners_many(
                pairs, lo, hi
            ) == csr_store.group_owners_many(pairs, lo, hi)

    def test_group_union_is_full_neighbourhood(self, graph, bundles):
        """Partials over a partition split concatenate to the full answer."""
        store = PartitionStore.open(bundles[0])
        vertices = sorted(graph.vertices())
        p = store.num_partitions
        left = store.group_neighbors_many(vertices, 0, p // 2)
        right = store.group_neighbors_many(vertices, p // 2, p)
        for v, a, b in zip(vertices, left, right):
            merged = sorted((a or []) + (b or []))
            assert merged == sorted(graph.neighbors(v))


async def _both(op, args, single, cluster):
    """One op against both servers; answers (ok/err shape) must match."""

    async def one(client):
        try:
            return ("ok", await client.call(op, **args))
        except ServiceError as exc:
            return ("err", exc.code, str(exc))

    a = await one(single)
    b = await one(cluster)
    assert a == b, f"{op} {args}: single={a} cluster={b}"
    return a


class TestClusterParity:
    def test_cluster_answers_bit_identical_to_single_process(
        self, graph, bundles
    ):
        """Every op, every miss, every rejection: byte-for-byte parity."""
        vertices = sorted(graph.vertices())
        edges = sorted(graph.edges())
        # A vertex pair that exists but is not an edge (miss with both
        # endpoints routed — exercises the scatter-then-not-found path).
        non_edge = next(
            (u, v)
            for u in vertices[:10]
            for v in vertices[-10:]
            if u != v and v not in graph.neighbors(u)
        )

        async def go():
            single = PartitionServer(PartitionStore.open(bundles[0]))
            cluster = ClusterServer(bundles[0], workers=2)
            async with single, cluster:
                async with ServiceClient(
                    *single.address, max_retries=0
                ) as sc, ServiceClient(
                    *cluster.address, max_retries=0
                ) as cc:
                    for v in vertices:
                        await _both("neighbors", {"v": v}, sc, cc)
                        await _both("master", {"v": v}, sc, cc)
                    for u, v in edges[:80]:
                        await _both("edge", {"u": u, "v": v}, sc, cc)
                    for k in range(4):
                        await _both("partition_stats", {"k": k}, sc, cc)
                    # Misses and rejections must match too.
                    await _both("neighbors", {"v": 10**9}, sc, cc)
                    await _both("master", {"v": 10**9}, sc, cc)
                    await _both("edge", {"u": 0, "v": 10**9}, sc, cc)
                    await _both(
                        "edge", {"u": non_edge[0], "v": non_edge[1]}, sc, cc
                    )
                    await _both("edge", {"u": 3, "v": 3}, sc, cc)
                    await _both("partition_stats", {"k": 999}, sc, cc)
                    await _both("partition_stats", {"k": -1}, sc, cc)
                    await _both("frobnicate", {}, sc, cc)
                    await _both("insert_edge", {"u": 1, "v": 2}, sc, cc)
                    await _both("delete_edge", {"u": 1, "v": 2}, sc, cc)
                    await _both("ping", {}, sc, cc)
                    # stats diverges by design: the cluster adds topology.
                    stats = await cc.stats()
                    described = stats["cluster"]
                    assert described["workers"] == 2
                    assert described["replicas"] == 1
                    flat = [
                        w
                        for shard in described["shards"]
                        for w in shard["workers"]
                    ]
                    assert len(flat) == 2
                    assert all(w["up"] for w in flat)
                    assert all(isinstance(w["pid"], int) for w in flat)

        asyncio.run(go())


def _check_neighbors(result, v, graph, store):
    assert set(result["neighbors"]) == graph.neighbors(v)
    assert result["neighbors"] == sorted(result["neighbors"])
    assert result["partitions"] == list(store.replicas_of(v))


class TestFailover:
    def test_sigkill_worker_mid_load_zero_wrong_answers(
        self, graph, bundles, reference_stores
    ):
        """With a standby replica, a SIGKILL costs latency, never answers."""
        vertices = sorted(graph.vertices())
        reference = reference_stores[0]

        async def go():
            cluster = ClusterServer(
                bundles[0],
                workers=2,
                replicas=2,
                failover_timeout=30.0,
                request_timeout=60.0,
                # Keep the dead worker down for the whole test: this test
                # is about ring failover, respawn has its own test.
                respawn_backoff=120.0,
            )
            async with cluster:
                async with ServiceClient(
                    *cluster.address, max_retries=0, call_timeout=60.0
                ) as client:
                    answered = 0
                    victim = cluster.cluster.handle(0, 0).pid
                    for lap in range(3):
                        for i, v in enumerate(vertices):
                            if lap == 1 and i == 0:
                                os.kill(victim, signal.SIGKILL)
                            result = await client.neighbors(v)
                            _check_neighbors(result, v, graph, reference)
                            answered += 1
                    assert answered == 3 * len(vertices)
                    counters = cluster.metrics.counters
                    assert counters.get("failovers", 0) >= 1
                    assert counters.get("shard_unavailable_errors", 0) == 0
                    # The standby is now the preferred replica of shard 0.
                    stats = await client.stats()
                    shard0 = stats["cluster"]["shards"][0]["workers"]
                    assert any(w["up"] for w in shard0)

        asyncio.run(go())

    def test_supervisor_respawns_dead_worker(self, graph, bundles):
        """No standby: the shard blocks briefly, then heals via respawn."""
        vertices = sorted(graph.vertices())

        async def go():
            cluster = ClusterServer(
                bundles[0],
                workers=2,
                replicas=1,
                health_interval=0.1,
                respawn_backoff=0.1,
                failover_timeout=45.0,
                request_timeout=60.0,
            )
            async with cluster:
                supervisor = cluster.cluster
                old_pid = supervisor.handle(0, 0).pid
                async with ServiceClient(
                    *cluster.address, max_retries=0, call_timeout=60.0
                ) as client:
                    await client.neighbors(vertices[0])
                    os.kill(old_pid, signal.SIGKILL)
                    # Every vertex still answers: calls to the dead shard
                    # park inside the failover window until the supervisor
                    # brings a fresh worker up.
                    for v in vertices:
                        result = await client.neighbors(v)
                        assert result["neighbors"] == sorted(
                            graph.neighbors(v)
                        )
                new_pid = supervisor.handle(0, 0).pid
                assert new_pid is not None and new_pid != old_pid
                assert cluster.metrics.counters.get("worker_respawns", 0) >= 1

        asyncio.run(go())


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
    elif op == "edge":
        assert result["partition"] == store.owner_of_edge(
            result["u"], result["v"]
        )
    else:  # pragma: no cover - harness bug
        raise AssertionError(f"unexpected op {op}")


class TestCoordinatedSwap:
    def test_reload_under_load_zero_drops_and_corrupt_rollback(
        self, graph, bundles, reference_stores, corrupt_bundle
    ):
        """Two coordinated swaps under verified load + one refused bundle."""
        vertices = sorted(graph.vertices())
        edges = sorted(graph.edges())
        num_clients = 3

        async def go():
            cluster = ClusterServer(
                bundles[0],
                workers=2,
                failover_timeout=30.0,
                request_timeout=60.0,
            )
            manager = cluster.manager
            async with cluster:
                epoch_stores = {manager.epoch: reference_stores[0]}
                stop = asyncio.Event()
                issued = [0] * num_clients
                answered = [0] * num_clients
                epochs_seen = [[] for _ in range(num_clients)]

                async def load(idx):
                    rng = random.Random(2000 + idx)
                    async with ServiceClient(
                        *cluster.address, max_retries=0, call_timeout=60.0
                    ) as client:
                        while not stop.is_set():
                            op = rng.choice(("neighbors", "master", "edge"))
                            if op == "edge":
                                u, v = rng.choice(edges)
                                args = {"u": u, "v": v}
                            else:
                                args = {"v": rng.choice(vertices)}
                            issued[idx] += 1
                            result = await client.call(op, **args)
                            epoch = client.last_epoch
                            _verify(op, result, epoch, graph, epoch_stores)
                            answered[idx] += 1
                            epochs_seen[idx].append(epoch)

                async def controller():
                    async with ServiceClient(
                        *cluster.address, max_retries=0, call_timeout=120.0
                    ) as admin:
                        await asyncio.sleep(0.2)
                        for step, bundle_idx in enumerate((1, 0)):
                            before = manager.epoch
                            epoch_stores[before + 1] = reference_stores[
                                bundle_idx
                            ]
                            info = await admin.reload(str(bundles[bundle_idx]))
                            assert info["epoch"] == before + 1
                            assert info["workers_prepared"] == 2
                            assert info["workers_committed"] == 2
                            assert "drain_timed_out" not in info
                            if step == 0:
                                live = manager.epoch
                                with pytest.raises(ServiceError) as excinfo:
                                    await admin.reload(str(corrupt_bundle))
                                assert (
                                    excinfo.value.code
                                    == protocol.RELOAD_FAILED
                                )
                                assert manager.epoch == live
                            await asyncio.sleep(0.2)

                tasks = [
                    asyncio.create_task(load(i)) for i in range(num_clients)
                ]
                await controller()
                stop.set()
                await asyncio.gather(*tasks)

                # Zero dropped queries; per-connection epochs monotonic.
                assert issued == answered
                assert sum(issued) > 0
                for seen in epochs_seen:
                    assert seen == sorted(seen)
                distinct = set().union(*map(set, epochs_seen))
                assert len(distinct) >= 2
                assert manager.epoch == 3  # 1 + two successful swaps
                assert manager.active_leases() == 0
                assert manager.retired_epochs() == ()
                counters = cluster.metrics.counters
                assert counters.get("shard_commits", 0) == 0  # front-end only
                assert counters.get("reloads_failed", 0) >= 1

                # Workers converged on the new epoch and dropped retained
                # old-generation stores once the front-end leases drained.
                for shard in range(2):
                    info = await cluster.cluster.group(shard).call(
                        "worker_info"
                    )
                    assert info["epoch"] == 3
                    assert info["staged"] is False
                    assert info["retained"] == []

        asyncio.run(go())

    def test_refined_bundle_coordinated_swap_under_load_zero_drops(
        self, graph, tmp_path
    ):
        """A refined bundle publishes through the two-phase cluster swap.

        The offline pipeline (refine a DBH bundle to a measurably lower
        RF) feeds the coordinated swap under verified live load: zero
        dropped queries, per-connection epochs monotonic, and per-epoch
        RF attribution — the swap ack and each epoch's serving store
        carry exactly the RF the refinement stats reported.
        """
        from repro.partitioning.refine import refine_bundle
        from repro.partitioning.registry import make_partitioner

        base_dir = tmp_path / "base"
        refined_dir = tmp_path / "refined"
        save_partition(
            make_partitioner("DBH", seed=1).partition(graph, 4), base_dir
        )
        _, stats = refine_bundle(base_dir, output=refined_dir)
        assert stats.rf_delta > 0  # DBH leaves headroom: a real improvement
        epoch_rf = {1: stats.rf_before, 2: stats.rf_after}
        epoch_refs = {
            1: PartitionStore.open(base_dir),
            2: PartitionStore.open(refined_dir),
        }
        for epoch, store in epoch_refs.items():
            assert store.replication_factor() == pytest.approx(
                epoch_rf[epoch], abs=1e-6
            )
        vertices = sorted(graph.vertices())
        edges = sorted(graph.edges())
        num_clients = 3

        async def go():
            cluster = ClusterServer(
                base_dir,
                workers=2,
                failover_timeout=30.0,
                request_timeout=60.0,
            )
            manager = cluster.manager
            async with cluster:
                stop = asyncio.Event()
                issued = [0] * num_clients
                answered = [0] * num_clients
                epochs_seen = [[] for _ in range(num_clients)]

                async def load(idx):
                    rng = random.Random(4000 + idx)
                    async with ServiceClient(
                        *cluster.address, max_retries=0, call_timeout=60.0
                    ) as client:
                        while not stop.is_set():
                            op = rng.choice(("neighbors", "master", "edge"))
                            if op == "edge":
                                u, v = rng.choice(edges)
                                args = {"u": u, "v": v}
                            else:
                                args = {"v": rng.choice(vertices)}
                            issued[idx] += 1
                            result = await client.call(op, **args)
                            epoch = client.last_epoch
                            _verify(op, result, epoch, graph, epoch_refs)
                            answered[idx] += 1
                            epochs_seen[idx].append(epoch)

                async def controller():
                    async with ServiceClient(
                        *cluster.address, max_retries=0, call_timeout=120.0
                    ) as admin:
                        await asyncio.sleep(0.2)
                        info = await admin.reload(str(refined_dir))
                        assert info["epoch"] == 2
                        assert info["workers_prepared"] == 2
                        assert info["workers_committed"] == 2
                        # The swap ack attributes the refined RF to the
                        # epoch it just published.
                        assert info["replication_factor"] == pytest.approx(
                            stats.rf_after, abs=1e-6
                        )
                        await asyncio.sleep(0.2)

                tasks = [
                    asyncio.create_task(load(i)) for i in range(num_clients)
                ]
                await controller()
                stop.set()
                await asyncio.gather(*tasks)

                # Zero dropped queries; per-connection epochs monotonic.
                assert issued == answered
                assert sum(issued) > 0
                for seen in epochs_seen:
                    assert seen == sorted(seen)
                # The load spanned the flip; the refined epoch serves the
                # refined RF through the front-end store.
                distinct = set().union(*map(set, epochs_seen))
                assert distinct == {1, 2}
                assert manager.epoch == 2
                assert manager.store.replication_factor() == pytest.approx(
                    stats.rf_after, abs=1e-6
                )
                assert manager.store.metadata["refined"][
                    "rf_after"
                ] == pytest.approx(stats.rf_after, abs=1e-6)
                assert manager.active_leases() == 0
                assert manager.retired_epochs() == ()

                # Every worker converged on the refined epoch.
                for shard in range(2):
                    info = await cluster.cluster.group(shard).call(
                        "worker_info"
                    )
                    assert info["epoch"] == 2
                    assert info["retained"] == []

        asyncio.run(go())

    def test_corrupt_bundle_never_disturbs_workers(
        self, graph, bundles, corrupt_bundle
    ):
        """A bundle that fails the front-end build leaves epoch 1 serving."""

        async def go():
            cluster = ClusterServer(bundles[0], workers=2)
            async with cluster:
                async with ServiceClient(
                    *cluster.address, max_retries=0
                ) as client:
                    with pytest.raises(ServiceError) as excinfo:
                        await client.reload(str(corrupt_bundle))
                    assert excinfo.value.code == protocol.RELOAD_FAILED
                    assert cluster.manager.epoch == 1
                    v = sorted(graph.vertices())[0]
                    result = await client.neighbors(v)
                    assert set(result["neighbors"]) == graph.neighbors(v)
                for shard in range(2):
                    info = await cluster.cluster.group(shard).call(
                        "worker_info"
                    )
                    assert info["epoch"] == 1
                    assert info["staged"] is False

        asyncio.run(go())
