"""Out-of-core two-pass streaming partitioner.

Pins the subsystem's three load-bearing contracts:

* **Parity** — with clustering off and gamma 0, the streaming placer is
  the same arithmetic as ``HDRFPartitioner(tie_break="lowest")`` with
  full graph degrees, edge for edge.
* **Bundle identity** — ``partition_stream`` leaves a bundle that is
  *byte-identical* to ``save_partition`` over the equivalent in-memory
  run: same edge files, same manifest, same mmap sidecar — so the
  serving stack cannot tell how a bundle was produced.
* **Bounded memory** — the budget plan derives every knob from bytes
  and refuses sub-MiB budgets; the pass-1/2 building blocks (degree
  sketch, streaming clustering, spill files with external sort) behave
  under their caps.  The end-to-end RSS ceiling lives in
  ``test_oocore_rss.py`` (subprocess-measured).
"""

import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import erdos_renyi_gnm, holme_kim
from repro.partitioning.hdrf import HDRFPartitioner
from repro.partitioning.metrics import replication_factor
from repro.partitioning.oocore import (
    BudgetPlan,
    TwoPhaseStreamingPartitioner,
    load_refined_offsets,
    partition_stream,
)
from repro.partitioning.oocore.cluster import StreamingClustering, map_clusters
from repro.partitioning.oocore.sketch import CountMinDegrees, DegreeSketch
from repro.partitioning.oocore.spill import SpillWriter, spill_path
from repro.partitioning.serialization import (
    load_partition,
    partition_metadata,
    save_partition,
)
from repro.service.store import PartitionStore

from tests.partitioning.bundle_oracle import external_sort_check, sorted_edges
from tests.partitioning.cluster_oracle import map_clusters_scan
from tests.partitioning.placer_oracle import OracleStreamingPlacer


@pytest.fixture(scope="module")
def graph():
    return holme_kim(400, 4, 0.5, seed=11)


@pytest.fixture(scope="module")
def edges(graph):
    return list(graph.edges())


def _write_edges(path, edges, compress=False):
    text = "".join(f"{u} {v}\n" for u, v in edges)
    if compress:
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write(text)
    else:
        path.write_text(text, encoding="ascii")
    return path


def _snapshot(directory):
    return {
        p.name: p.read_bytes()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


# -- building blocks ---------------------------------------------------------


class TestDegreeSketch:
    def test_exact_until_cap_then_count_min_overestimates_only(self):
        sketch = DegreeSketch(max_exact_vertices=8, cm_width=1 << 12)
        rng_edges = list(erdos_renyi_gnm(40, 200, seed=3).edges())
        truth = {}
        for u, v in rng_edges:
            for x in (u, v):
                sketch.add(x)
                truth[x] = truth.get(x, 0) + 1
        assert sketch.kind == "count-min"
        for vertex, degree in truth.items():
            assert sketch.get(vertex) >= degree  # CM never underestimates
        exact = DegreeSketch(max_exact_vertices=1 << 62, cm_width=1)
        for u, v in rng_edges:
            exact.add(u)
            exact.add(v)
        assert exact.kind == "exact"
        assert all(exact.get(v) == d for v, d in truth.items())

    def test_degrade_replays_existing_counts(self):
        sketch = DegreeSketch(max_exact_vertices=2, cm_width=1 << 10)
        for _ in range(5):
            sketch.add(1)
        sketch.add(2)
        sketch.add(3)  # third distinct vertex trips the cap
        assert sketch.kind == "count-min"
        assert sketch.get(1) >= 5
        assert sketch.get(2) >= 1

    def test_count_min_conservative_update(self):
        cm = CountMinDegrees(width=1 << 10, depth=4)
        for _ in range(7):
            cm.add(42)
        assert cm.get(42) >= 7
        assert cm.get(43) >= 0


class TestStreamingClustering:
    def test_volume_conserved_and_no_cluster_swallows_graph(self, edges):
        sketch = DegreeSketch(max_exact_vertices=1 << 62, cm_width=1)
        clustering = StreamingClustering(sketch, num_partitions=4)
        clustering.consume(edges)
        # Volume is conserved: every endpoint arrival adds exactly one
        # unit to its cluster, and moves only transfer volume.
        assert sum(clustering.volume.values()) == clustering.total_volume
        assert clustering.total_volume == 2 * len(edges)
        # The move cap kept any single cluster from absorbing the graph.
        assert max(clustering.volume.values()) < clustering.total_volume / 2
        assert clustering.num_clusters > 4
        assert set(clustering.cluster_of) == set(
            v for edge in edges for v in edge
        )

    def test_map_clusters_is_lpt_balanced(self):
        volume = {0: 100, 1: 60, 2: 50, 3: 40, 4: 10}
        mapping = map_clusters(volume, num_partitions=2)
        loads = [0, 0]
        for cluster, k in mapping.items():
            loads[k] += volume[cluster]
        # LPT: 100->p0; 60->p1; 50->p1? no — least-loaded at each step:
        # 100|60 -> 50 joins 60 (110) -> 40 joins 100 (140) -> 10 joins 110.
        assert loads == [140, 120]
        assert set(mapping) == set(volume)

    @pytest.mark.parametrize("num_partitions", [1, 2, 7, 64, 130])
    @settings(max_examples=40, deadline=None)
    @given(volume=st.dictionaries(st.integers(-50, 10**6), st.integers(0, 5), max_size=400))
    def test_map_clusters_matches_scan_oracle(self, num_partitions, volume):
        # Volumes in 0..5 tie often, and so do loads: ties must go to the
        # lower cluster id and the lower partition id as in the scan.
        assert map_clusters(volume, num_partitions) == map_clusters_scan(
            volume, num_partitions
        )


class TestSpill:
    def test_roundtrip_sorted_and_checked(self, tmp_path):
        writer = SpillWriter(tmp_path, num_partitions=2, buffer_bytes=64)
        pairs = [(5, 9), (1, 2), (3, 7), (1, 3), (0, 8)]
        parts = np.arange(len(pairs)) % 2
        writer.append_batch(parts[:3], np.array(pairs[:3]))
        writer.append_batch(parts[3:], np.array(pairs[3:]))
        paths = writer.close()
        assert writer.counts == [3, 2]
        got = list(
            external_sort_check(
                sorted_edges(paths[0], writer.counts[0], run_edges=2),
                paths[0],
            )
        )
        assert got == sorted([pairs[0], pairs[2], pairs[4]])

    def test_duplicate_edges_rejected(self, tmp_path):
        writer = SpillWriter(tmp_path, num_partitions=1)
        writer.append_batch(np.zeros(2, dtype=np.intp), np.array([(1, 2), (1, 2)]))
        (path,) = writer.close()
        with pytest.raises(ValueError, match="duplicate"):
            list(
                external_sort_check(
                    sorted_edges(path, writer.counts[0]), path
                )
            )

    def test_batch_bytes_equal_per_edge_records(self, tmp_path):
        writer = SpillWriter(tmp_path, num_partitions=3, buffer_bytes=48)
        rows = np.array([(4, -7), (0, 2**62), (-(2**63), 5), (8, 9), (1, 3), (2, 6)])
        parts = np.array([2, 0, 2, 2, 0, 1])
        writer.append_batch(parts[:4], rows[:4])
        writer.append_batch(parts[4:], rows[4:])
        paths = writer.close()
        for k, path in enumerate(paths):
            expected = b"".join(
                u.to_bytes(8, "little", signed=True) + v.to_bytes(8, "little", signed=True)
                for (u, v), part in zip(rows.tolist(), parts.tolist())
                if part == k
            )
            assert path.read_bytes() == expected
        assert writer.counts == [2, 1, 3]

    def test_spill_path_layout(self, tmp_path):
        assert spill_path(tmp_path, 3).name == "spill_0003.bin"


class TestBudgetPlan:
    def test_rejects_sub_mib_budgets(self):
        with pytest.raises(ValueError, match="1 MiB"):
            BudgetPlan.from_budget((1 << 20) - 1)

    def test_knobs_scale_with_budget(self):
        small = BudgetPlan.from_budget(1 << 20)
        large = BudgetPlan.from_budget(1 << 28)
        assert small.max_exact_vertices < large.max_exact_vertices
        assert small.spill_buffer_bytes <= large.spill_buffer_bytes
        assert small.run_edges <= large.run_edges
        assert 256 <= small.hash_batch_edges <= large.hash_batch_edges <= 4096
        unbounded = BudgetPlan.from_budget(None)
        assert unbounded.max_exact_vertices == 1 << 62


# -- parity with the in-memory scorer ---------------------------------------


class TestHDRFParity:
    def test_streaming_placements_match_in_memory_hdrf(self, graph, edges):
        """Clustering off + gamma 0 == HDRF with lowest-id ties, per edge."""
        streaming = TwoPhaseStreamingPartitioner(
            gamma=0.0, cluster=False
        ).assign_stream(edges, 5, graph=graph)
        in_memory = HDRFPartitioner(tie_break="lowest").assign_stream(
            edges, 5, graph=graph
        )
        for k in range(5):
            assert streaming.edges_of(k) == in_memory.edges_of(k)

    def test_clustered_run_stays_close_to_hdrf(self, graph, edges):
        clustered = TwoPhaseStreamingPartitioner().assign_stream(
            edges, 5, graph=graph
        )
        baseline = HDRFPartitioner(tie_break="lowest").assign_stream(
            edges, 5, graph=graph
        )
        rf = replication_factor(clustered, graph)
        assert rf <= 1.15 * replication_factor(baseline, graph)

    @pytest.mark.parametrize("num_partitions", [5, 64, 70])
    @pytest.mark.parametrize("policy,offsets", [
        ("hdrf", False), ("hdrf", True), ("greedy", False),
    ])
    def test_batch_placer_matches_all_partition_oracle(
        self, graph, edges, num_partitions, policy, offsets
    ):
        """The pruned batch placer == the per-edge all-p reference, edge for edge."""
        priors = [(7 * k) % 11 for k in range(num_partitions)] if offsets else None
        batched = TwoPhaseStreamingPartitioner(
            policy=policy, offsets=priors
        ).assign_stream(edges, num_partitions)
        sketch = DegreeSketch(max_exact_vertices=1 << 62, cm_width=1)
        clustering = StreamingClustering(sketch, num_partitions)
        clustering.consume(edges)
        oracle = OracleStreamingPlacer(
            num_partitions,
            sketch,
            policy=policy,
            cluster_of=clustering.cluster_of,
            cluster_partition=map_clusters(clustering.volume, num_partitions),
            offsets=priors,
        )
        expected = [oracle.place(u, v) for u, v in edges]
        assert [batched.partition_of(u, v) for u, v in edges] == expected

    def test_greedy_policy_runs(self, graph, edges):
        partition = TwoPhaseStreamingPartitioner(policy="greedy").assign_stream(
            edges, 4, graph=graph
        )
        assert sum(partition.partition_sizes()) == len(edges)


# -- end-to-end: bundle identity and serving parity ---------------------------


class TestPartitionStreamBundle:
    @pytest.mark.parametrize("compress", [False, True])
    def test_bundle_byte_identical_to_in_memory_save(
        self, graph, edges, tmp_path, compress
    ):
        source = _write_edges(tmp_path / "edges.txt", edges)
        streamed_dir = tmp_path / "streamed"
        result = partition_stream(
            source,
            streamed_dir,
            num_partitions=4,
            memory_budget=1 << 20,
            compress=compress,
        )
        rebuilt = TwoPhaseStreamingPartitioner().assign_stream(edges, 4)
        rebuilt_dir = tmp_path / "rebuilt"
        save_partition(rebuilt, rebuilt_dir, compress=compress)
        assert _snapshot(streamed_dir) == _snapshot(rebuilt_dir)
        assert result.num_edges == len(edges)
        assert abs(
            result.replication_factor - replication_factor(rebuilt, graph)
        ) < 1e-12

    def test_gzip_input_and_scratch_cleanup(self, edges, tmp_path):
        source = _write_edges(tmp_path / "edges.txt.gz", edges, compress=True)
        out = tmp_path / "bundle"
        partition_stream(source, out, num_partitions=3)
        assert not any(p.name.startswith(".oocore") for p in out.iterdir())
        load_partition(out)  # checksums verify

    def test_store_answers_match_rebuilt_bundle(self, graph, edges, tmp_path):
        source = _write_edges(tmp_path / "edges.txt", edges)
        streamed_dir = tmp_path / "streamed"
        partition_stream(source, streamed_dir, num_partitions=4)
        rebuilt_dir = tmp_path / "rebuilt"
        save_partition(
            TwoPhaseStreamingPartitioner().assign_stream(edges, 4),
            rebuilt_dir,
        )
        lhs = PartitionStore.open(streamed_dir)
        rhs = PartitionStore.open(rebuilt_dir)
        assert lhs.replication_factor() == rhs.replication_factor()
        assert lhs.partition_sizes() == rhs.partition_sizes()
        for v in graph.vertices():
            assert lhs.master_of(v) == rhs.master_of(v)
            assert lhs.replicas_of(v) == rhs.replicas_of(v)
            assert lhs.neighbors(v) == rhs.neighbors(v) == graph.neighbors(v)

    def test_self_loops_skipped_and_counted(self, tmp_path):
        source = tmp_path / "edges.txt"
        source.write_text("0 1\n2 2\n1 2\n", encoding="ascii")
        result = partition_stream(source, tmp_path / "b", num_partitions=2)
        assert result.num_edges == 2
        assert result.skipped_self_loops == 1

    def test_invalid_partition_count(self, tmp_path):
        source = _write_edges(tmp_path / "e.txt", [(0, 1)])
        with pytest.raises(ValueError, match="num_partitions"):
            partition_stream(source, tmp_path / "b", num_partitions=0)


class TestRefinedHintsPlumbing:
    def test_load_refined_offsets_contract(self, graph, edges, tmp_path):
        bundle = tmp_path / "hints"
        partition = TwoPhaseStreamingPartitioner().assign_stream(edges, 4)
        save_partition(
            partition,
            bundle,
            metadata={"refined": {"partition_sizes": [10, 20, 30, 40]}},
        )
        offsets = load_refined_offsets(bundle, 4)
        assert offsets == [30, 20, 10, 0]
        with pytest.raises(ValueError, match="covers 4 partitions"):
            load_refined_offsets(bundle, 8)
        plain = tmp_path / "plain"
        save_partition(partition, plain)
        with pytest.raises(ValueError, match="no refined"):
            load_refined_offsets(plain, 4)

    def test_hints_steer_streamed_placement(self, edges, tmp_path):
        hints = tmp_path / "hints"
        save_partition(
            TwoPhaseStreamingPartitioner().assign_stream(edges, 4),
            hints,
            metadata={
                "refined": {"partition_sizes": [0, 0, 100_000, 0]}
            },
        )
        source = _write_edges(tmp_path / "edges.txt", edges)
        hinted = partition_stream(
            source, tmp_path / "hinted", num_partitions=4, hints=hints
        )
        # The profile leaves all headroom on partition 2: with offsets
        # this large the balance prior dominates every placement.
        assert hinted.partition_sizes[2] == len(edges)


class TestPartitionStreamCLI:
    def test_cli_end_to_end(self, graph, edges, tmp_path, capsys):
        from repro.__main__ import main

        source = _write_edges(tmp_path / "edges.txt", edges)
        out = tmp_path / "bundle"
        code = main(
            [
                "partition-stream",
                str(source),
                str(out),
                "-p",
                "4",
                "--memory-budget",
                "4M",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "replication factor" in stdout
        assert "wrote partition bundle" in stdout
        metadata = partition_metadata(out)
        assert metadata["algorithm"] == "oocore-2ps"
        assert metadata["memory_budget_bytes"] == 4 << 20
        partition = load_partition(out)
        partition.validate_against(graph)

    def test_cli_rejects_bad_input(self, tmp_path, capsys):
        from repro.__main__ import main

        missing = tmp_path / "nope.txt"
        assert main(
            ["partition-stream", str(missing), str(tmp_path / "o"), "-p", "2"]
        ) == 2
        assert "cannot partition" in capsys.readouterr().err

    def test_registry_exposes_2ps(self):
        from repro.partitioning.registry import (
            available_partitioners,
            make_partitioner,
        )

        assert "2PS" in available_partitioners()
        assert isinstance(
            make_partitioner("2PS", seed=1), TwoPhaseStreamingPartitioner
        )
