"""Unit tests for the local-search refinement engine (repro.partitioning.refine).

The hypothesis suite in ``tests/property/test_refine_invariants.py``
pins the engine's invariants over random inputs; this file covers the
deterministic behaviours — gain arithmetic on hand-built partitions, the
swap phase escaping a balanced plateau, stopping rules, the bundle
entry point with its WAL guard, and the manifest round trip.
"""

import json
import math
import os
from pathlib import Path

import pytest

from repro.core.tlp import TLPPartitioner
from repro.graph.generators import holme_kim
from repro.graph.graph import Graph
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.metrics import (
    edge_balance,
    replication_factor,
    total_replicas,
)
from repro.partitioning.random_edge import RandomPartitioner
from repro.partitioning.refine import (
    INGEST_WAL_NAME,
    LocalSearchRefiner,
    PendingMutationsError,
    RefineError,
    refine_bundle,
    refine_partition,
)
from repro.partitioning.serialization import load_partition, save_partition


def _edge_set(partition):
    return sorted(
        e for k in range(partition.num_partitions) for e in partition.edges_of(k)
    )


class TestMoves:
    def test_fixes_obvious_misplacement(self):
        """An edge whose endpoints both live elsewhere gets pulled home."""
        part = EdgePartition([[(0, 1), (1, 2)], [(0, 2)], [(5, 6), (6, 7)]])
        refined, stats = refine_partition(part, capacity=3)
        assert refined.partition_of(0, 2) == 0
        assert stats.moves >= 1
        assert stats.replicas_saved == 2  # 0 and 2 each lose a replica

    def test_improves_random_partition(self):
        g = holme_kim(400, 4, 0.5, seed=3)
        before = RandomPartitioner(seed=0).partition(g, 8)
        refined, stats = refine_partition(before, slack=1.05)
        assert replication_factor(refined, g) < replication_factor(before, g) - 0.3
        assert stats.rf_delta > 0.3
        assert stats.converged in ("fixpoint", "max_passes")

    def test_tie_breaks_to_smaller_then_lower_partition(self):
        """Equal-gain targets resolve by size then id, not dict order."""
        # Edge (0, 1) is the last edge of both endpoints in partition 2;
        # moving to 0 or 1 frees two replicas either way (both host 0 and
        # 1), but partition 1 is smaller so it must win.
        part = EdgePartition(
            [
                [(0, 2), (1, 2), (2, 3), (3, 4)],
                [(0, 5), (1, 5)],
                [(0, 1)],
            ]
        )
        refined, stats = refine_partition(part, capacity=10)
        assert stats.moves >= 1
        assert refined.partition_of(0, 1) == 1


class TestSwaps:
    def _balanced_plateau(self):
        """Two full partitions each holding one of the other's edges."""
        return EdgePartition(
            [
                [(0, 1), (1, 2), (0, 2), (10, 11)],
                [(10, 12), (11, 12), (10, 13), (0, 3)],
            ]
        )

    def test_swap_escapes_balanced_plateau(self):
        part = self._balanced_plateau()
        refined, stats = refine_partition(part)  # slack 1.0: both at capacity
        assert stats.moves == 0  # every single move is capacity-blocked
        assert stats.swaps >= 1
        assert refined.partition_of(10, 11) == 1
        assert refined.partition_of(0, 3) == 0
        # The exchange frees 10 and 11 from partition 0, and 0 from 1...
        assert total_replicas(refined) < total_replicas(part)
        # ...without moving the partition sizes at all.
        assert refined.partition_sizes() == part.partition_sizes()

    def test_no_swaps_flag_stays_on_plateau(self):
        part = self._balanced_plateau()
        refined, stats = refine_partition(part, swaps=False)
        assert stats.moves == 0 and stats.swaps == 0
        assert refined.partition_sizes() == part.partition_sizes()
        assert total_replicas(refined) == total_replicas(part)

    def test_swap_never_accepts_a_net_loss(self, communities):
        """Replica total after any swap-heavy run is still monotone."""
        before = TLPPartitioner(seed=0).partition(communities, 6)
        refined, stats = refine_partition(before)  # slack 1.0 = swap-reliant
        assert total_replicas(refined) <= total_replicas(before)
        assert stats.replicas_saved == (
            total_replicas(before) - total_replicas(refined)
        )


class TestInvariants:
    def test_conserves_edges(self, communities):
        before = RandomPartitioner(seed=1).partition(communities, 6)
        refined, _ = refine_partition(before, slack=1.1)
        refined.validate_against(communities)
        assert _edge_set(refined) == _edge_set(before)

    def test_respects_capacity(self, communities):
        p = 6
        before = RandomPartitioner(seed=0).partition(communities, p)
        for slack in (1.0, 1.1):
            refined, stats = refine_partition(before, slack=slack)
            cap = max(
                math.ceil(slack * communities.num_edges / p),
                max(before.partition_sizes()),
            )
            assert stats.capacity == cap
            assert max(refined.partition_sizes()) <= cap
            assert edge_balance(refined) <= edge_balance(before) or (
                max(refined.partition_sizes()) <= cap
            )

    def test_explicit_capacity_wins_over_slack(self, communities):
        before = RandomPartitioner(seed=0).partition(communities, 6)
        cap = max(before.partition_sizes()) + 50
        refined, stats = refine_partition(before, capacity=cap, slack=1.0)
        assert stats.capacity == cap
        assert max(refined.partition_sizes()) <= cap

    def test_deterministic(self, communities):
        before = RandomPartitioner(seed=2).partition(communities, 6)
        first, stats1 = refine_partition(before, slack=1.05)
        second, stats2 = refine_partition(before, slack=1.05)
        assert [first.edges_of(k) for k in range(6)] == [
            second.edges_of(k) for k in range(6)
        ]
        assert stats1.moves == stats2.moves
        assert stats1.swaps == stats2.swaps
        assert stats1.passes == stats2.passes

    def test_fixpoint_is_idempotent(self, communities):
        before = RandomPartitioner(seed=0).partition(communities, 6)
        once, stats1 = refine_partition(before, slack=1.05, max_passes=32)
        assert stats1.converged == "fixpoint"
        again, stats2 = refine_partition(once, slack=1.05, max_passes=32)
        assert stats2.moves == 0 and stats2.swaps == 0
        assert [once.edges_of(k) for k in range(6)] == [
            again.edges_of(k) for k in range(6)
        ]

    def test_input_not_mutated(self, communities):
        before = RandomPartitioner(seed=0).partition(communities, 6)
        snapshot = [list(before.edges_of(k)) for k in range(6)]
        refine_partition(before, slack=1.1)
        assert [before.edges_of(k) for k in range(6)] == snapshot


class TestStopping:
    def test_epsilon_stops_after_one_pass(self, communities):
        before = RandomPartitioner(seed=0).partition(communities, 6)
        _, stats = refine_partition(before, slack=1.1, epsilon=10.0)
        assert stats.passes == 1
        assert stats.converged == "epsilon"

    def test_max_passes_bound(self, communities):
        before = RandomPartitioner(seed=0).partition(communities, 6)
        _, stats = refine_partition(before, slack=1.1, max_passes=1)
        assert stats.passes == 1

    def test_invalid_options(self):
        for kwargs in (
            {"slack": 0.9},
            {"epsilon": -0.1},
            {"max_passes": 0},
            {"capacity": -1},
        ):
            with pytest.raises(ValueError):
                LocalSearchRefiner(**kwargs)


class TestStats:
    def test_stats_consistent(self, communities):
        before = RandomPartitioner(seed=0).partition(communities, 6)
        refined, stats = refine_partition(before, slack=1.1)
        assert stats.replicas_before == total_replicas(before)
        assert stats.replicas_after == total_replicas(refined)
        assert stats.rf_before == replication_factor(before, communities)
        assert stats.rf_after == replication_factor(refined, communities)
        assert stats.rf_delta >= 0
        assert stats.seconds >= 0
        assert stats.moves_per_s >= 0
        entry = stats.manifest_entry()
        assert entry["rf_delta"] == round(stats.rf_delta, 6)
        assert entry["converged"] == stats.converged

    def test_single_partition_noop(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        part = EdgePartition([g.edge_list()])
        refined, stats = refine_partition(part)
        assert stats.applied == 0
        assert refined.partition_sizes() == part.partition_sizes()

    def test_empty_partition(self):
        refined, stats = refine_partition(EdgePartition([[], []]))
        assert stats.applied == 0
        assert stats.rf_before == stats.rf_after == 1.0
        assert refined.num_edges == 0


@pytest.fixture(scope="module")
def refine_graph():
    return holme_kim(300, 4, 0.6, seed=7)


@pytest.fixture()
def dbh_bundle(refine_graph, tmp_path):
    """A bundle with visible refinement headroom (DBH placement)."""
    from repro.partitioning.registry import make_partitioner

    part = make_partitioner("DBH", seed=0).partition(refine_graph, 4)
    directory = tmp_path / "bundle"
    save_partition(
        part,
        directory,
        metadata={
            "algorithm": "DBH",
            "replication_factor": replication_factor(part, refine_graph),
        },
    )
    return directory


class TestRefineBundle:
    def test_rewrites_in_place_with_manifest_stats(
        self, refine_graph, dbh_bundle
    ):
        before = load_partition(dbh_bundle)
        rf_before = replication_factor(before, refine_graph)
        manifest_path, stats = refine_bundle(dbh_bundle)
        assert manifest_path == dbh_bundle / "partition.json"
        assert stats.rf_delta > 0
        refined = load_partition(dbh_bundle)  # verify=True: checksums hold
        refined.validate_against(refine_graph)
        assert replication_factor(refined, refine_graph) == stats.rf_after
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        entry = manifest["metadata"]["refined"]
        assert entry["rf_before"] == round(rf_before, 6)
        assert entry["rf_after"] == round(stats.rf_after, 6)
        assert entry["rf_delta"] >= 0
        # The headline metadata RF tracks the refined bundle.
        assert manifest["metadata"]["replication_factor"] == round(
            stats.rf_after, 6
        )

    def test_output_leaves_source_untouched(
        self, refine_graph, dbh_bundle, tmp_path
    ):
        source_manifest = (dbh_bundle / "partition.json").read_bytes()
        out = tmp_path / "refined"
        _, stats = refine_bundle(dbh_bundle, output=out)
        assert (dbh_bundle / "partition.json").read_bytes() == source_manifest
        refined = load_partition(out)
        assert replication_factor(refined, refine_graph) == stats.rf_after

    def test_refuses_pending_wal_mutations(self, dbh_bundle):
        (dbh_bundle / INGEST_WAL_NAME).write_bytes(b"\x01" * 32)
        with pytest.raises(PendingMutationsError, match="compact"):
            refine_bundle(dbh_bundle)
        # The typed error is also a RefineError, mirroring the service's
        # ReloadError hierarchy for guard failures.
        with pytest.raises(RefineError):
            refine_bundle(dbh_bundle)

    def test_empty_wal_is_not_pending(self, dbh_bundle):
        (dbh_bundle / INGEST_WAL_NAME).write_bytes(b"")
        _, stats = refine_bundle(dbh_bundle)
        assert stats.rf_delta >= 0

    def test_wal_name_matches_service_layer(self):
        from repro.service.ingest import WAL_NAME

        assert INGEST_WAL_NAME == WAL_NAME

    def test_refined_bundle_resaves_bit_identically(
        self, refine_graph, dbh_bundle, tmp_path
    ):
        """refine_bundle's on-disk artefact == save_partition(refined).

        The refined bundle must be exactly what ``save_partition`` would
        write for the materialised refined partition — same per-partition
        edge checksums, same CSR sidecar checksum — so stores opened from
        either are interchangeable.
        """
        refine_bundle(dbh_bundle)
        refined = load_partition(dbh_bundle)
        resaved = tmp_path / "resaved"
        save_partition(refined, resaved)
        first = json.loads(
            (dbh_bundle / "partition.json").read_text(encoding="utf-8")
        )
        second = json.loads(
            (resaved / "partition.json").read_text(encoding="utf-8")
        )
        assert [p["checksum"] for p in first["partitions"]] == [
            p["checksum"] for p in second["partitions"]
        ]
        assert (
            first["csr_sidecar"]["checksum"]
            == second["csr_sidecar"]["checksum"]
        )

    def test_cli_refine_subcommand(self, refine_graph, dbh_bundle, capsys):
        from repro.__main__ import main

        assert main(["refine", str(dbh_bundle)]) == 0
        out = capsys.readouterr().out
        assert "RF" in out and "wrote refined bundle" in out
        # Refused bundle -> exit code 1 and the typed guard message.
        (dbh_bundle / INGEST_WAL_NAME).write_bytes(b"\x01" * 8)
        assert main(["refine", str(dbh_bundle)]) == 1
        assert "compact before refining" in capsys.readouterr().err


def _snapshot(directory):
    """name -> bytes for every regular file directly in ``directory``."""
    return {
        p.name: p.read_bytes()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


class TestAtomicPublish:
    """``refine_bundle`` must never leave a destination half-written."""

    def test_output_inside_source_does_not_corrupt_source(
        self, refine_graph, dbh_bundle
    ):
        before = _snapshot(dbh_bundle)
        out = dbh_bundle / "refined"
        _, stats = refine_bundle(dbh_bundle, output=out)
        assert _snapshot(dbh_bundle) == before  # source byte-untouched
        load_partition(dbh_bundle)  # verify=True: checksums still hold
        refined = load_partition(out)
        assert replication_factor(refined, refine_graph) == stats.rf_after

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="names fsynced fds via /proc/self/fd"
    )
    @pytest.mark.parametrize("fresh", [True, False])
    def test_publication_is_fsynced(self, dbh_bundle, monkeypatch, fresh):
        """The directory whose entries the publication changed is fsynced last."""
        output = dbh_bundle.parent / "refined"
        if not fresh:
            refine_bundle(dbh_bundle, output=output)  # an older bundle to overwrite
        events = []
        real_fsync, real_rename, real_replace = os.fsync, os.rename, os.replace

        def fsync(fd):
            events.append(("fsync", os.path.realpath(os.readlink(f"/proc/self/fd/{fd}"))))
            real_fsync(fd)

        def rename(src, dst):
            events.append(("rename", os.path.realpath(dst)))
            real_rename(src, dst)

        def replace(src, dst):
            events.append(("rename", os.path.realpath(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "rename", rename)
        monkeypatch.setattr(os, "replace", replace)
        refine_bundle(dbh_bundle, output=output)
        monkeypatch.undo()

        out = os.path.realpath(output)
        published = [
            i for i, e in enumerate(events)
            if e[0] == "rename" and (e[1] == out or os.path.dirname(e[1]) == out)
        ]
        synced = os.path.dirname(out) if fresh else out
        assert published
        assert ("fsync", synced) in events[published[-1] + 1 :]
        if fresh:  # one rename of the whole staged directory
            assert [events[i] for i in published] == [("rename", out)]
        else:  # per-file replaces, the manifest last
            assert events[published[-1]] == ("rename", os.path.join(out, "partition.json"))

    @pytest.mark.parametrize("in_place", [True, False])
    def test_crash_mid_save_leaves_destination_untouched(
        self, dbh_bundle, monkeypatch, in_place
    ):
        from repro.partitioning import serialization

        before = _snapshot(dbh_bundle)
        real_save = serialization.save_partition

        def exploding_save(partition, directory, **kwargs):
            # Write real (new) edge files, then die before the manifest —
            # the torn state that used to corrupt the destination.
            real_save(partition, directory, **kwargs)
            (Path(directory) / "partition.json").unlink()
            raise OSError("disk full")

        monkeypatch.setattr(serialization, "save_partition", exploding_save)
        output = None if in_place else dbh_bundle / "refined"
        with pytest.raises(OSError, match="disk full"):
            refine_bundle(dbh_bundle, output=output)
        assert _snapshot(dbh_bundle) == before
        load_partition(dbh_bundle)  # still a valid, verified bundle
        # No staging directories left behind, in the bundle or next to it.
        leftovers = [
            p
            for parent in (dbh_bundle, dbh_bundle.parent)
            for p in parent.iterdir()
            if ".refine-" in p.name
        ]
        assert leftovers == []
        if output is not None:
            assert not output.exists()
