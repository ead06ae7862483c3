"""Tests for partition save/load round-tripping."""

import hashlib
import json

import pytest

from repro.core.tlp import TLPPartitioner
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.serialization import (
    MANIFEST_NAME,
    load_partition,
    partition_metadata,
    save_partition,
)


@pytest.fixture
def sample_partition(small_social):
    return TLPPartitioner(seed=0).partition(small_social, 4)


def fixed_partition():
    """A small partition built from arithmetic alone (no partitioner).

    Four partitions, the last one empty; edges listed unsorted and partly
    as ``(v, u)``; a few ids beyond 32 bits.
    """
    parts = [[], [], [], []]
    for i in range(1, 90):
        u, v = (i * 7) % 23, 23 + (i * 11) % 31
        if i % 9 == 0:
            v += 2**40
        edge = (v, u) if i % 2 else (u, v)
        if all(edge not in part and edge[::-1] not in part for part in parts):
            parts[(u + v) % 3].append(edge)
    return EdgePartition([list(reversed(part)) for part in parts])


def bundle_digests(directory):
    """sha256 of every file of a bundle directory, keyed by name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


class TestRoundTrip:
    def test_round_trip_preserves_edges(self, sample_partition, tmp_path):
        save_partition(sample_partition, tmp_path / "out")
        loaded = load_partition(tmp_path / "out")
        assert loaded.num_partitions == sample_partition.num_partitions
        for k in range(loaded.num_partitions):
            assert sorted(loaded.edges_of(k)) == sorted(sample_partition.edges_of(k))

    def test_round_trip_validates_against_graph(
        self, sample_partition, small_social, tmp_path
    ):
        save_partition(sample_partition, tmp_path / "out")
        load_partition(tmp_path / "out").validate_against(small_social)

    def test_empty_partitions_survive(self, tmp_path):
        partition = EdgePartition([[(0, 1)], [], [(1, 2)]])
        save_partition(partition, tmp_path / "out")
        loaded = load_partition(tmp_path / "out")
        assert loaded.partition_sizes() == [1, 0, 1]

    def test_metadata_round_trip(self, sample_partition, tmp_path):
        save_partition(
            sample_partition,
            tmp_path / "out",
            metadata={"algorithm": "TLP", "p": 4},
        )
        meta = partition_metadata(tmp_path / "out")
        assert meta == {"algorithm": "TLP", "p": 4}

    def test_deterministic_files(self, sample_partition, tmp_path):
        m1 = save_partition(sample_partition, tmp_path / "a")
        m2 = save_partition(sample_partition, tmp_path / "b")
        assert m1.read_text() == m2.read_text()


class TestVerification:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_partition(tmp_path)

    def test_truncated_file_detected(self, sample_partition, tmp_path):
        save_partition(sample_partition, tmp_path / "out")
        target = next((tmp_path / "out").glob("part_*.edges"))
        lines = target.read_text().splitlines()
        target.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="expected"):
            load_partition(tmp_path / "out")

    def test_corrupted_edge_detected(self, sample_partition, tmp_path):
        save_partition(sample_partition, tmp_path / "out")
        target = next((tmp_path / "out").glob("part_*.edges"))
        lines = target.read_text().splitlines()
        u, v = lines[0].split()
        lines[0] = f"{int(u) + 1_000_000}\t{v}"
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="checksum"):
            load_partition(tmp_path / "out")

    def test_verification_can_be_skipped(self, sample_partition, tmp_path):
        save_partition(sample_partition, tmp_path / "out")
        target = next((tmp_path / "out").glob("part_*.edges"))
        lines = target.read_text().splitlines()
        u, v = lines[0].split()
        lines[0] = f"{int(u) + 1_000_000}\t{v}"
        target.write_text("\n".join(lines) + "\n")
        loaded = load_partition(tmp_path / "out", verify=False)
        assert loaded.num_partitions == sample_partition.num_partitions

    def test_unsupported_version(self, sample_partition, tmp_path):
        save_partition(sample_partition, tmp_path / "out")
        manifest_path = tmp_path / "out" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported"):
            load_partition(tmp_path / "out")


class TestGzipEdgeFiles:
    def test_compressed_round_trip(self, sample_partition, tmp_path):
        save_partition(sample_partition, tmp_path / "out", compress=True)
        files = sorted(p.name for p in (tmp_path / "out").glob("part_*"))
        assert all(name.endswith(".edges.gz") for name in files)
        loaded = load_partition(tmp_path / "out")
        for k in range(loaded.num_partitions):
            assert sorted(loaded.edges_of(k)) == sorted(sample_partition.edges_of(k))

    def test_files_really_are_gzip(self, sample_partition, tmp_path):
        save_partition(sample_partition, tmp_path / "out", compress=True)
        target = next((tmp_path / "out").glob("part_*.edges.gz"))
        assert target.read_bytes()[:2] == b"\x1f\x8b"  # gzip magic

    def test_checksums_identical_either_way(self, sample_partition, tmp_path):
        m_plain = json.loads(
            save_partition(sample_partition, tmp_path / "a").read_text()
        )
        m_gz = json.loads(
            save_partition(
                sample_partition, tmp_path / "b", compress=True
            ).read_text()
        )
        for plain, gz in zip(m_plain["partitions"], m_gz["partitions"]):
            assert plain["checksum"] == gz["checksum"]
            assert plain["edges"] == gz["edges"]

    def test_resave_with_other_compression_leaves_no_stale_files(
        self, sample_partition, tmp_path
    ):
        save_partition(sample_partition, tmp_path / "out", compress=True)
        save_partition(sample_partition, tmp_path / "out", compress=False)
        names = sorted(p.name for p in (tmp_path / "out").glob("part_*"))
        assert not any(name.endswith(".gz") for name in names)
        load_partition(tmp_path / "out")  # still a coherent bundle


class TestAtomicity:
    def test_no_temp_files_left_behind(self, sample_partition, tmp_path):
        save_partition(sample_partition, tmp_path / "out", compress=True)
        save_partition(sample_partition, tmp_path / "out")  # overwrite in place
        leftovers = [p.name for p in (tmp_path / "out").iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_interrupted_edge_write_leaves_no_manifest(
        self, sample_partition, tmp_path, monkeypatch
    ):
        # Kill the writer mid-way through the edge files: because the
        # manifest is written last, the directory must not parse as a
        # valid partition afterwards.
        import repro.partitioning.serialization as ser

        real_write = ser._write_atomic
        calls = {"n": 0}

        def dying_write(path, write):
            calls["n"] += 1
            if calls["n"] == 3:  # die on the third file
                raise KeyboardInterrupt("simulated kill")
            real_write(path, write)

        monkeypatch.setattr(ser, "_write_atomic", dying_write)
        with pytest.raises(KeyboardInterrupt):
            save_partition(sample_partition, tmp_path / "out")
        monkeypatch.setattr(ser, "_write_atomic", real_write)
        with pytest.raises(FileNotFoundError):
            load_partition(tmp_path / "out")

    def test_interrupted_overwrite_keeps_old_bundle_loadable(
        self, sample_partition, tmp_path, monkeypatch
    ):
        # A complete bundle being re-saved must stay valid if the second
        # writer dies: every file lands via os.replace, never truncation.
        import repro.partitioning.serialization as ser

        save_partition(sample_partition, tmp_path / "out")
        before = load_partition(tmp_path / "out")

        real_write = ser._write_atomic
        calls = {"n": 0}

        def dying_write(path, write):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt("simulated kill")
            real_write(path, write)

        monkeypatch.setattr(ser, "_write_atomic", dying_write)
        with pytest.raises(KeyboardInterrupt):
            save_partition(sample_partition, tmp_path / "out")
        monkeypatch.setattr(ser, "_write_atomic", real_write)
        after = load_partition(tmp_path / "out")  # verifies checksums
        for k in range(before.num_partitions):
            assert sorted(after.edges_of(k)) == sorted(before.edges_of(k))


class TestGoldenBytes:
    """The bytes ``save_partition`` writes for :func:`fixed_partition`.

    The digests pin edge text, checksums, sidecar and manifest layout, so
    any change to what a bundle holds on disk shows up here.
    """

    PLAIN = {
        "adjacency.csr": (
            "41529a7028fb37f28e0caa9f8f33bf0b"
            "8384694261c310f70a5225c78735e6d5"
        ),
        "part_0000.edges": (
            "a6f194ac353e8ccd3323ec23b346462c"
            "7024768823331f868f7189b841810867"
        ),
        "part_0001.edges": (
            "5812e75f67bebc00044309939563b6a6"
            "cada336a47bc6c3d10a2ae15056cdbec"
        ),
        "part_0002.edges": (
            "ed58ea1cc797fa47a9d9773c96d5ac57"
            "87310416801b00ccdf460f914b878647"
        ),
        "part_0003.edges": (
            "e3b0c44298fc1c149afbf4c8996fb924"
            "27ae41e4649b934ca495991b7852b855"
        ),
        "partition.json": (
            "e0111cfdb412d0e27f8b34ced9825f5b"
            "b52630b277bc5c6eca9735add08d771a"
        ),
    }
    COMPRESSED = {
        "adjacency.csr": (
            "41529a7028fb37f28e0caa9f8f33bf0b"
            "8384694261c310f70a5225c78735e6d5"
        ),
        "part_0000.edges.gz": (
            "d42a3f898e30283a10d9a908d84e813c"
            "de50cf3fbba8714233102355f073ce6f"
        ),
        "part_0001.edges.gz": (
            "5fc95a4419535e8e669b874b8af7478b"
            "e3affed26345d73139b8fba83d0e27ef"
        ),
        "part_0002.edges.gz": (
            "40db0f7bb891ff98d0a5ef61e2a53f96"
            "471ece2cb941459992da7feec40f0522"
        ),
        "part_0003.edges.gz": (
            "471bca732c742e1b5e345b262c55c05c"
            "700029e1bd52440c7c5a9aefc5d3d518"
        ),
        "partition.json": (
            "d9baf4888ceb607acbfccb59d87728c7"
            "0ea13c42473232e06e1765ba4d4af6eb"
        ),
    }

    def test_plain_bundle_bytes(self, tmp_path):
        save_partition(fixed_partition(), tmp_path / "b", metadata={"name": "fixed"})
        assert bundle_digests(tmp_path / "b") == self.PLAIN

    def test_compressed_bundle_bytes(self, tmp_path):
        save_partition(
            fixed_partition(), tmp_path / "b", metadata={"name": "fixed"},
            compress=True,
        )
        assert bundle_digests(tmp_path / "b") == self.COMPRESSED


class TestFailedSave:
    def test_unstorable_id_leaves_existing_bundle_untouched(
        self, sample_partition, tmp_path
    ):
        """An id beyond int64 fails the save before any file is replaced."""
        directory = tmp_path / "out"
        save_partition(sample_partition, directory)
        before = bundle_digests(directory)
        parts = [list(sample_partition.edges_of(k)) for k in range(4)]
        parts[1].append((3, 2**70))
        with pytest.raises(OverflowError):
            save_partition(EdgePartition(parts), directory)
        assert bundle_digests(directory) == before
        loaded = load_partition(directory, verify=True)
        assert loaded.partition_sizes() == sample_partition.partition_sizes()
