"""Ingest subsystem: overlay exactness, WAL replay, and live compaction.

Covers the PR's acceptance criteria directly:

* ≥1k random inserts/deletes over **both** base stores (the CSR store
  and the dict-of-sets oracle) leave the overlay's
  ``replication_factor()`` / ``partition_sizes()`` (and every other
  summary) bit-identical to the oracle rebuilt from the materialised
  ``EdgePartition``;
* a simulated crash (the process dies with the WAL on disk) replays to
  exactly the acknowledged state, including the idempotency cache and the
  post-compaction folded-sequence watermark;
* a compaction epoch swap under concurrent verified read load drops zero
  queries (the ``test_hot_swap`` harness pattern, plus a writer).

No pytest-asyncio in the toolchain — async tests drive their own loop
via ``asyncio.run``.
"""

import asyncio
import random

import pytest

from repro.core.tlp import TLPPartitioner
from repro.partitioning.serialization import load_partition, save_partition
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.handler import ServiceHandler
from repro.service.ingest import (
    CapacityError,
    ConflictError,
    WAL_NAME,
    DeltaOverlay,
    IngestError,
    IngestFrozen,
    Ingestor,
    place_greedy,
    place_hdrf,
)
from repro.service.server import PartitionServer
from repro.service.store import PartitionStore, StoreManager
from repro.service.wal import WriteAheadLog
from tests.service.oracle import DictStore

#: Base stores an overlay can wrap: the oracle and the CSR store.
BASES = {"dict": DictStore.open, "csr": PartitionStore.open}


@pytest.fixture(scope="module")
def graph():
    from repro.graph.generators import holme_kim

    return holme_kim(250, 4, 0.5, seed=7)


@pytest.fixture(scope="module")
def partition(graph):
    return TLPPartitioner(seed=0).partition(graph, 4)


@pytest.fixture()
def bundle(partition, tmp_path):
    directory = tmp_path / "bundle"
    save_partition(partition, directory)
    return directory


def _random_mutations(overlay, graph, count, seed):
    """Apply ``count`` random legal mutations; returns the op trace."""
    rng = random.Random(seed)
    fresh = max(graph.vertices()) + 1
    vertices = list(graph.vertices())
    alive = []  # overlay-inserted edges
    base_deleted = set()
    trace = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.45 or not (alive or True):
            # Insert: sometimes between existing vertices, sometimes fresh.
            while True:
                if rng.random() < 0.5:
                    u, v = rng.sample(vertices, 2)
                else:
                    u, v = rng.choice(vertices), fresh
                    fresh += 1
                if u != v and not overlay.edge_exists(u, v):
                    break
            k = (
                place_hdrf(overlay, u, v)
                if rng.random() < 0.5
                else place_greedy(overlay, u, v)
            )
            overlay.apply_insert(u, v, k)
            a, b = min(u, v), max(u, v)
            alive.append((a, b))
            base_deleted.discard((a, b))
            trace.append(("insert", a, b, k))
        elif roll < 0.75 and alive:
            a, b = alive.pop(rng.randrange(len(alive)))
            overlay.apply_delete(a, b)
            trace.append(("delete", a, b, None))
        else:
            # Delete a random still-present base edge.
            for _attempt in range(50):
                a, b = rng.choice(list(graph.edges()))
                if (a, b) not in base_deleted and overlay.edge_exists(a, b):
                    overlay.apply_delete(a, b)
                    base_deleted.add((a, b))
                    trace.append(("delete", a, b, None))
                    break
    return trace


def _assert_bit_identical(overlay, rebuilt):
    """Every summary the overlay serves == recomputing from scratch."""
    assert overlay.num_edges == rebuilt.num_edges
    assert overlay.num_vertices == rebuilt.num_vertices
    assert overlay.partition_sizes() == rebuilt.partition_sizes()
    assert overlay.total_replicas() == rebuilt.total_replicas()
    # Bitwise float equality, not approx — the acceptance criterion.
    assert overlay.replication_factor() == rebuilt.replication_factor()
    for k in range(overlay.num_partitions):
        assert overlay.partition_stats(k) == rebuilt.partition_stats(k)


class TestOverlayExactness:
    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_1k_random_mutations_stay_bit_identical(
        self, graph, bundle, backend
    ):
        overlay = DeltaOverlay(BASES[backend](bundle))
        _random_mutations(overlay, graph, 1000, seed=42)
        assert overlay.pending_mutations == 1000
        rebuilt = DictStore(overlay.to_partition())
        _assert_bit_identical(overlay, rebuilt)
        # Routing and adjacency agree everywhere the rebuild covers.
        for v in list(graph.vertices())[:120]:
            if rebuilt.has_vertex(v):
                assert overlay.master_of(v) == rebuilt.master_of(v)
                assert overlay.replicas_of(v) == rebuilt.replicas_of(v)
                assert overlay.neighbors(v) == rebuilt.neighbors(v)
            else:
                assert not overlay.has_vertex(v)

    def test_backends_agree_with_each_other(self, graph, bundle):
        overlays = [DeltaOverlay(BASES[b](bundle)) for b in ("dict", "csr")]
        for overlay in overlays:
            _random_mutations(overlay, graph, 300, seed=9)
        a, b = overlays
        assert a.partition_sizes() == b.partition_sizes()
        assert a.replication_factor() == b.replication_factor()
        assert a.to_partition().partition_sizes() == (
            b.to_partition().partition_sizes()
        )

    def test_insert_delete_round_trip_restores_base_stats(self, bundle):
        store = PartitionStore.open(bundle)
        overlay = DeltaOverlay(store)
        before = (
            store.partition_sizes(),
            store.replication_factor(),
            store.num_vertices,
        )
        overlay.apply_insert(0, 10_001, 2)
        overlay.apply_delete(0, 10_001)
        after = (
            overlay.partition_sizes(),
            overlay.replication_factor(),
            overlay.num_vertices,
        )
        assert after == before
        assert overlay.pending_mutations == 2  # history is not rewound

    def test_reinsert_after_base_delete_cancels(self, graph, bundle):
        overlay = DeltaOverlay(PartitionStore.open(bundle))
        u, v = next(iter(graph.edges()))
        k = overlay.owner_of_edge(u, v)
        overlay.apply_delete(u, v)
        assert not overlay.edge_exists(u, v)
        overlay.apply_insert(u, v, k)
        assert overlay.owner_of_edge(u, v) == k
        _assert_bit_identical(overlay, DictStore(overlay.to_partition()))

    def test_conflicting_mutations_rejected(self, graph, bundle):
        overlay = DeltaOverlay(PartitionStore.open(bundle))
        u, v = next(iter(graph.edges()))
        overlay.apply_delete(u, v)
        with pytest.raises(ConflictError):
            overlay.apply_delete(u, v)
        with pytest.raises(KeyError):
            overlay.owner_of_edge(u, v)


class TestPlacement:
    def test_capacity_exhaustion_raises(self, bundle):
        overlay = DeltaOverlay(PartitionStore.open(bundle))
        tiny = min(overlay.partition_sizes())  # every partition ≥ tiny
        with pytest.raises(CapacityError):
            place_hdrf(overlay, 10_001, 10_002, capacity=tiny)
        with pytest.raises(CapacityError):
            place_greedy(overlay, 10_001, 10_002, capacity=tiny)

    def test_deterministic_tie_break_to_lowest_id(self, bundle):
        overlay = DeltaOverlay(PartitionStore.open(bundle))
        # Fresh endpoints score identically everywhere except balance;
        # repeated placement must be reproducible (WAL replay depends on it).
        first = place_hdrf(overlay, 10_001, 10_002)
        assert first == place_hdrf(overlay, 10_001, 10_002)
        assert place_greedy(overlay, 10_003, 10_004) == place_greedy(
            overlay, 10_003, 10_004
        )

    def test_greedy_prefers_shared_replica_partition(self, graph, bundle):
        overlay = DeltaOverlay(PartitionStore.open(bundle))
        v = next(iter(graph.vertices()))
        replicas = set(overlay.replicas_of(v))
        k = place_greedy(overlay, v, 10_001)
        assert k in replicas  # one endpoint hosted → rule 3 pool


class TestIngestorWal:
    def _enable(self, bundle, **kwargs):
        manager = StoreManager(PartitionStore.open(bundle))
        kwargs.setdefault("fsync", "always")
        return manager, Ingestor.enable(manager, bundle, **kwargs)

    def test_mutations_survive_simulated_crash(self, graph, bundle):
        manager, ingestor = self._enable(bundle)
        rng = random.Random(3)
        fresh = max(graph.vertices()) + 1
        inserted = []
        for i in range(60):
            result = ingestor.insert_edge(
                rng.choice(list(graph.vertices())), fresh + i,
                client="c1", cseq=i,
            )
            inserted.append((result["u"], result["v"], result["partition"]))
        ingestor.delete_edge(*inserted[0][:2], client="c1", cseq=1000)
        state = (
            ingestor.overlay.partition_sizes(),
            ingestor.overlay.replication_factor(),
            ingestor.next_seq,
        )
        # Crash: the process dies, nothing is closed cleanly.
        del manager, ingestor

        manager2, revived = self._enable(bundle)
        assert revived.replayed_mutations == 61
        assert (
            revived.overlay.partition_sizes(),
            revived.overlay.replication_factor(),
            revived.next_seq,
        ) == state
        # Placements replayed identically, and the dedup cache survived:
        # a retried mutation is answered from the WAL, not re-applied.
        retry = revived.insert_edge(
            inserted[3][0], inserted[3][1], client="c1", cseq=3
        )
        assert retry["deduplicated"] is True
        assert retry["partition"] == inserted[3][2]
        assert revived.overlay.pending_mutations == 61

    def test_replay_tolerates_torn_tail(self, graph, bundle):
        manager, ingestor = self._enable(bundle)
        for i in range(10):
            ingestor.insert_edge(10_001 + i, 10_002 + i)
        sizes = ingestor.overlay.partition_sizes()
        ingestor.close()
        with open(bundle / "ingest.wal", "ab") as fh:
            fh.write(b"\x00\x00\x00\x0ftorn")  # header + partial body

        manager2, revived = self._enable(bundle)
        assert revived.replayed_mutations == 10
        assert revived.wal.torn_bytes_dropped > 0
        assert revived.overlay.partition_sizes() == sizes

    def test_idempotent_retry_and_conflict(self, graph, bundle):
        manager, ingestor = self._enable(bundle)
        first = ingestor.insert_edge(0, 10_001, client="t", cseq=0)
        again = ingestor.insert_edge(0, 10_001, client="t", cseq=0)
        assert again == dict(first, deduplicated=True)
        assert ingestor.overlay.pending_mutations == 1
        with pytest.raises(ConflictError):
            ingestor.insert_edge(0, 10_001, client="t", cseq=1)
        with pytest.raises(ValueError):
            ingestor.insert_edge(5, 5)
        with pytest.raises(KeyError):
            ingestor.delete_edge(10_005, 10_006)

    def test_insert_beyond_int64_rejected_before_the_wal(self, bundle):
        """An id the bundle cannot store never reaches the WAL, so later
        compactions and restarts are unaffected."""
        manager, ingestor = self._enable(bundle)
        ingestor.insert_edge(10_001, 10_002)
        wal_bytes, seq = ingestor.wal.size, ingestor.next_seq
        for u, v in ((3, 2**70), (-(2**63) - 1, 3), (2**63, 2**63 + 1)):
            with pytest.raises(ValueError, match="int64"):
                ingestor.insert_edge(u, v)
        assert (ingestor.wal.size, ingestor.next_seq) == (wal_bytes, seq)
        assert ingestor.overlay.pending_mutations == 1
        # The int64 extremes themselves are storable.
        ingestor.insert_edge(2**63 - 1, -(2**63))
        assert ingestor.compact_sync()["folded_mutations"] == 2
        load_partition(bundle, verify=True)
        ingestor.close()
        _, revived = self._enable(bundle)
        assert revived.replayed_mutations == 0
        assert revived.overlay.owner_of_edge(-(2**63), 2**63 - 1) >= 0

    def test_binary_insert_beyond_int64_is_bad_request(self, bundle):
        """Over the binary wire (which carries bigints) the handler answers
        ``bad_request`` and the next compaction still succeeds."""
        manager, ingestor = self._enable(bundle)
        handler = ServiceHandler(manager)
        handler.attach_ingestor(ingestor)

        def call(op, **args):
            frame = protocol.encode_frame(
                {"id": 1, "op": op, "args": args}, protocol.WIRE_BINARY
            )
            return handler.execute(protocol.decode_body(frame[4:]))

        response = call("insert_edge", u=3, v=2**70)
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.BAD_REQUEST
        assert "int64" in response["error"]["message"]
        assert ingestor.wal.size == 0
        assert call("neighbors", v=2**70)["error"]["code"] == protocol.NOT_FOUND
        assert call("insert_edge", u=3, v=10_001)["ok"] is True
        compacted = call("compact")
        assert compacted["ok"] is True, compacted
        assert compacted["result"]["folded_mutations"] == 1
        load_partition(bundle, verify=True)

    def test_replayed_insert_beyond_int64_fails_enable(self, bundle):
        """A WAL written before inserts were range-checked can hold an id
        no bundle can store: replay refuses it at enable, naming the
        record, instead of wedging every later compaction."""
        wal = WriteAheadLog(bundle / WAL_NAME, fsync="always")
        wal.open()
        wal.append({"op": "insert", "u": 10_001, "v": 10_002, "k": 0, "seq": 0})
        wal.append({"op": "insert", "u": 3, "v": 2**70, "k": 0, "seq": 1})
        wal.close()
        files = {f.name: f.read_bytes() for f in bundle.iterdir()}
        manager = StoreManager(PartitionStore.open(bundle))
        with pytest.raises(IngestError, match="int64") as info:
            Ingestor.enable(manager, bundle, fsync="always")
        assert str(2**70) in str(info.value)
        assert {f.name: f.read_bytes() for f in bundle.iterdir()} == files
        load_partition(bundle, verify=True)

    def test_ingest_stats_shape(self, bundle):
        manager, ingestor = self._enable(bundle, capacity=100_000)
        ingestor.insert_edge(10_001, 10_002)
        stats = ingestor.ingest_stats()
        assert stats["pending_mutations"] == 1
        assert stats["inserts"] == 1 and stats["deletes"] == 0
        assert stats["wal_bytes"] > 0
        assert stats["capacity"] == 100_000
        assert stats["wal_fsync_policy"] == "always"
        assert stats["overlay_rf_drift"] == round(
            ingestor.overlay.rf_drift(), 6
        )

    def test_bad_refine_slack_fails_at_enable(self, bundle):
        """An invalid refiner setting is refused up front, not by every
        later compaction, and leaves the manager and the WAL untouched."""
        manager = StoreManager(PartitionStore.open(bundle))
        live = manager.store
        with pytest.raises(ValueError, match="slack"):
            Ingestor.enable(
                manager, bundle, refine_on_compact=True, refine_slack=0.5
            )
        assert manager.store is live
        assert not (bundle / "ingest.wal").exists()


class TestCompaction:
    def _enable(self, bundle):
        manager = StoreManager(PartitionStore.open(bundle))
        return manager, Ingestor.enable(manager, bundle, fsync="always")

    def test_compact_folds_and_resets(self, graph, bundle):
        manager, ingestor = self._enable(bundle)
        for i in range(20):
            ingestor.insert_edge(10_001 + i, 10_002 + i)
        rf = ingestor.overlay.replication_factor()
        sizes = ingestor.overlay.partition_sizes()
        info = ingestor.compact_sync()
        assert info["folded_mutations"] == 20
        assert info["epoch"] == 2
        assert ingestor.wal.size == 0
        # The new epoch starts from a fresh overlay over the folded bundle.
        overlay = ingestor.overlay
        assert overlay.pending_mutations == 0
        assert overlay.replication_factor() == rf
        assert overlay.partition_sizes() == sizes
        assert overlay.metadata["compacted_mutations"] == 20
        # No-op compaction is cheap and explicit.
        assert ingestor.compact_sync()["skipped"] is True
        # And mutations keep flowing on the new epoch.
        ingestor.insert_edge(20_001, 20_002)
        assert ingestor.overlay.pending_mutations == 1

    def test_crash_between_save_and_wal_reset_replays_nothing_twice(
        self, graph, bundle
    ):
        """The folded-seq watermark closes the fold/reset crash window."""
        manager, ingestor = self._enable(bundle)
        for i in range(15):
            ingestor.insert_edge(10_001 + i, 10_002 + i)
        expected = ingestor.overlay.partition_sizes()
        # Simulate: fold + save landed, then the process died before
        # wal.reset() — the WAL still holds all 15 records.
        ingestor._fold_and_save()
        del manager, ingestor

        manager2 = StoreManager(PartitionStore.open(bundle))
        revived = Ingestor.enable(manager2, bundle, fsync="always")
        # Every WAL record is below the watermark: already in the bundle.
        assert revived.replayed_mutations == 0
        assert revived.next_seq == 15
        assert revived.overlay.pending_mutations == 0
        assert revived.overlay.partition_sizes() == expected

    def test_mutations_frozen_while_folding(self, bundle):
        manager, ingestor = self._enable(bundle)
        ingestor.insert_edge(10_001, 10_002)
        ingestor._frozen = True
        with pytest.raises(IngestFrozen):
            ingestor.insert_edge(10_003, 10_004)
        with pytest.raises(IngestFrozen):
            ingestor.compact_sync()
        ingestor._frozen = False

    def test_compaction_under_verified_read_load_drops_nothing(
        self, graph, bundle
    ):
        """Extend the hot-swap harness: compact while readers hammer."""
        vertices = list(graph.vertices())
        num_workers = 3

        async def go():
            manager = StoreManager(PartitionStore.open(bundle))
            ingestor = Ingestor.enable(manager, bundle, fsync="never")
            server = PartitionServer(
                manager, request_timeout=30.0, ingestor=ingestor
            )
            stop = asyncio.Event()
            issued = [0] * num_workers
            answered = [0] * num_workers

            async def worker(idx):
                rng = random.Random(500 + idx)
                async with ServiceClient(*server.address) as client:
                    while not stop.is_set():
                        v = rng.choice(vertices)
                        issued[idx] += 1
                        result = await client.call("neighbors", v=v)
                        assert set(result["neighbors"]) >= graph.neighbors(v)
                        answered[idx] += 1

            async def controller():
                async with ServiceClient(
                    *server.address, max_retries=0, call_timeout=60.0
                ) as admin:
                    for round_no in range(2):
                        for i in range(25):
                            await admin.insert_edge(
                                rng_base + round_no * 100 + i,
                                rng_base + round_no * 100 + i + 1,
                            )
                        await asyncio.sleep(0.05)
                        before = manager.epoch
                        info = await admin.call("compact")
                        assert info["folded_mutations"] == 25
                        assert manager.epoch == before + 1
                        await asyncio.sleep(0.05)

            rng_base = max(vertices) + 10
            async with server:
                workers = [
                    asyncio.create_task(worker(i)) for i in range(num_workers)
                ]
                await controller()
                stop.set()
                await asyncio.gather(*workers)
                assert issued == answered  # zero drops
                assert sum(issued) > 0
                assert manager.epoch == 3  # two compaction swaps landed
                assert manager.active_leases() == 0
                assert manager.retired_epochs() == ()
                assert server.metrics.counters["compactions_ok"] == 2
            ingestor.close()

        asyncio.run(go())

    def test_plain_reload_rejected_while_mutations_pending(self, bundle):
        async def go():
            manager = StoreManager(PartitionStore.open(bundle))
            ingestor = Ingestor.enable(manager, bundle, fsync="never")
            server = PartitionServer(
                manager, request_timeout=30.0, ingestor=ingestor
            )
            async with server:
                async with ServiceClient(*server.address) as client:
                    await client.insert_edge(10_001, 10_002)
                    with pytest.raises(ServiceError) as excinfo:
                        await client.call("reload", directory=str(bundle))
                    assert excinfo.value.code == "reload_failed"
                    assert "compact" in str(excinfo.value)
                    # Compaction is the sanctioned path, and unblocks reload.
                    await client.call("compact")
                    info = await client.call("reload", directory=str(bundle))
                    assert info["epoch"] == 3
            ingestor.close()

        asyncio.run(go())


class TestRefinedHints:
    """``metadata["refined"]["partition_sizes"]`` as HDRF balance priors."""

    def _enable(self, bundle, **kwargs):
        manager = StoreManager(PartitionStore.open(bundle))
        kwargs.setdefault("fsync", "always")
        return manager, Ingestor.enable(manager, bundle, **kwargs)

    def _hinted_bundle(self, partition, tmp_path, profile):
        directory = tmp_path / "hinted"
        save_partition(
            partition, directory,
            metadata={"refined": {"partition_sizes": profile}},
        )
        return directory

    def test_plain_bundle_keeps_legacy_placement(self, bundle):
        _, ingestor = self._enable(bundle)
        assert ingestor.balance_offsets is None
        assert ingestor.ingest_stats()["refined_hints"] is False

    def test_profile_adopted_and_steers_placement(self, partition, tmp_path):
        from repro.partitioning.scoring import balance_offsets

        profile = [0, 0, 10_000, 0]
        directory = self._hinted_bundle(partition, tmp_path, profile)
        _, ingestor = self._enable(directory)
        assert ingestor.balance_offsets == balance_offsets(profile)
        assert ingestor.ingest_stats()["refined_hints"] is True
        # Both endpoints fresh: replica terms are zero everywhere, so the
        # prior's balance term decides — partition 2 is the one the
        # profile leaves headroom for.
        assert ingestor.insert_edge(50_001, 50_002)["partition"] == 2

        _, opted_out = self._enable(directory, refined_hints=False)
        assert opted_out.balance_offsets is None

    def test_malformed_profile_ignored(self, partition, tmp_path):
        directory = self._hinted_bundle(partition, tmp_path, [1, 2])  # wrong p
        _, ingestor = self._enable(directory)
        assert ingestor.balance_offsets is None

    def test_refined_compaction_publishes_profile(self, bundle):
        from repro.partitioning.scoring import balance_offsets
        from repro.partitioning.serialization import partition_metadata

        manager, ingestor = self._enable(bundle, refine_on_compact=True)
        for i in range(12):
            ingestor.insert_edge(10_001 + i, 10_002 + i)
        ingestor.compact_sync()
        profile = partition_metadata(bundle)["refined"]["partition_sizes"]
        assert profile == manager.store.partition_sizes()
        assert ingestor.balance_offsets == balance_offsets(profile)
        # A process restarted onto the compacted bundle re-adopts them.
        _, revived = self._enable(bundle)
        assert revived.balance_offsets == balance_offsets(profile)
