"""Array-native bundle text I/O against its per-edge oracles.

* **Loader** — :func:`load_partition` parses each part file in one
  vectorised pass.  Canonical text, and the looser text a per-line
  reader accepts (spaces, CRLF, no final newline), must load to exactly
  the oracle's edges; a malformed file must raise ``ValueError`` naming
  the file and the line, under either ``verify`` setting.
* **Fold** — ``partition_stream`` hands :func:`write_bundle` each
  spill's sorted chunks, which merge sorted runs as arrays.  The bundle
  must be byte-identical to the tuple-merge fold of
  :mod:`tests.partitioning.bundle_oracle` for one run, many interleaved
  runs, empty partitions and gzip, and a duplicate edge split across
  runs must still be rejected.
* **Save path imports** — saving and loading never pull in
  ``numpy.ma`` (tens of ms of import in every saving process).
"""

import gzip
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partitioning import csr_bundle
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.oocore import spill as spill_mod
from repro.partitioning.oocore.spill import SpillWriter
from repro.partitioning.serialization import (
    _parse_canonical,
    format_edges,
    load_partition,
    save_partition,
    write_bundle,
)

from tests.partitioning.bundle_oracle import (
    checksum,
    fold_bundle,
    load_partition_lines,
    replica_dicts,
)

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def _parts(partition):
    return [partition.edges_of(k) for k in range(partition.num_partitions)]


# -- formatter and canonical parser ------------------------------------------


class TestFormatEdges:
    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [(0, 1)],
            [(9, 10), (99, 100), (-1, 0)],
            [(INT64_MIN, INT64_MAX), (INT64_MIN + 1, -(10**18)), (10**18, 10**18 + 1)],
        ],
    )
    def test_matches_percent_formatting_and_per_edge_checksum(self, rows):
        digest = hashlib.sha256()
        data = format_edges(np.array(rows, dtype=np.int64).reshape(-1, 2), digest)
        assert data == "".join(f"{u}\t{v}\n" for u, v in rows).encode()
        assert digest.hexdigest()[:16] == checksum(rows)
        assert _parse_canonical(data).tolist() == [list(r) for r in rows]

    def test_chunks_feed_one_running_digest(self):
        rng = np.random.default_rng(3)
        edges = rng.integers(INT64_MIN, INT64_MAX, size=(500, 2))
        whole, chunked = hashlib.sha256(), hashlib.sha256()
        data = format_edges(edges, whole)
        pieces = b"".join(format_edges(edges[i : i + 77], chunked) for i in range(0, 500, 77))
        assert pieces == data
        assert chunked.hexdigest() == whole.hexdigest()
        assert (_parse_canonical(data) == edges).all()


# -- loader ------------------------------------------------------------------


def _bundle(tmp_path, parts, compress=False):
    directory = tmp_path / "bundle"
    save_partition(EdgePartition(parts), directory, compress=compress)
    return directory


def _edge_path(directory):
    return next(p for p in sorted(directory.iterdir()) if ".edges" in p.name)


def _rewrite(path, transform):
    if path.suffix == ".gz":
        text = gzip.decompress(path.read_bytes()).decode()
        path.write_bytes(gzip.compress(transform(text).encode()))
    else:
        path.write_bytes(transform(path.read_text()).encode())


class TestMalformedPartFile:
    CASES = {
        "one token": ("2\t7\n5\n", 2),
        "lone token": ("5", 1),
        "three tokens": ("2\t7\n5\t6\t8\n", 2),
        "blank line": ("2\t7\n\n5\t6\n", 2),
        "bad token": ("x0\t7\n", 1),
        "beyond int64": (f"2\t7\n3\t{2**63}\n", 2),
        "below int64": (f"{-(2**63) - 1}\t3\n", 1),
        "trailing blank": ("2\t7\n   ", 2),
        "self loop": ("2\t7\n4\t4\n", 2),
        "not utf-8": (b"2\t7\n\xff\t3\n", 2),
    }

    @pytest.mark.parametrize("verify", [True, False])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises_value_error_naming_file_and_line(self, tmp_path, case, verify):
        directory = _bundle(tmp_path, [[(2, 7), (5, 6)]])
        path = _edge_path(directory)
        text, line = self.CASES[case]
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(ValueError, match=rf"{path.name}: line {line}\b"):
            load_partition(directory, verify=verify)

    def test_gzip_file_named_too(self, tmp_path):
        directory = _bundle(tmp_path, [[(2, 7)]], compress=True)
        path = _edge_path(directory)
        _rewrite(path, lambda text: text + "9\n")
        with pytest.raises(ValueError, match=rf"{path.name}: line 2\b"):
            load_partition(directory)

    def test_count_and_checksum_still_verified(self, tmp_path):
        directory = _bundle(tmp_path, [[(2, 7), (5, 6)]])
        path = _edge_path(directory)
        path.write_text("2\t7\n")
        with pytest.raises(ValueError, match="expected 2 edges, found 1"):
            load_partition(directory)
        path.write_text("2\t7\n5\t9\n")
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_partition(directory)
        assert load_partition(directory, verify=False).edges_of(0) == [(2, 7), (5, 9)]


class TestLooseText:
    """Text the per-line reader accepts loads to the same edges."""

    REWRITES = {
        "spaces": lambda t: t.replace("\t", " "),
        "crlf": lambda t: t.replace("\n", "\r\n"),
        "cr": lambda t: t.replace("\n", "\r"),
        "no final newline": lambda t: t[:-1],
        "padding": lambda t: "".join(
            " " + line.replace("\t", " \t ") + "  \n" for line in t.splitlines()
        ),
        "signs and zeros": lambda t: t.replace("\t", "\t+00"),
        "underscores": lambda t: t.replace("1234", "1_234"),
    }

    @pytest.mark.parametrize("name", sorted(REWRITES))
    def test_loads_like_the_oracle(self, tmp_path, name):
        parts = [[(1, 1234), (5, 12345), (-3, 8)], []]
        directory = _bundle(tmp_path, parts)
        _rewrite(_edge_path(directory), self.REWRITES[name])
        expected = _parts(load_partition_lines(directory))
        assert _parts(load_partition(directory)) == expected
        assert _parts(load_partition(directory, verify=False)) == expected

    @pytest.mark.parametrize("separator", ["\t", " "])
    def test_swapped_endpoints_normalise_like_the_oracle(self, tmp_path, separator):
        directory = _bundle(tmp_path, [[(1, 1234), (-3, 8)]])
        _edge_path(directory).write_text(f"1234{separator}1\n8{separator}-3\n")
        expected = _parts(load_partition_lines(directory, verify=False))
        assert _parts(load_partition(directory, verify=False)) == expected
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_partition(directory)


_ids = st.one_of(
    st.integers(0, 60), st.integers(INT64_MIN, INT64_MAX), st.sampled_from([INT64_MIN, INT64_MAX])
)


@st.composite
def _partitions(draw):
    p = draw(st.integers(1, 6))
    pairs = draw(st.sets(st.tuples(_ids, _ids).filter(lambda e: e[0] != e[1]), max_size=40))
    seen, parts = set(), [[] for _ in range(p)]
    for u, v in pairs:
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            parts[draw(st.integers(0, p - 1))].append((u, v))
    return parts


@settings(max_examples=40, deadline=None)
@given(
    parts=_partitions(),
    compress=st.booleans(),
    rewrite=st.sampled_from(["canonical", "spaces", "crlf"]),
)
def test_loader_matches_per_line_oracle(tmp_path_factory, parts, compress, rewrite):
    directory = _bundle(tmp_path_factory.mktemp("bundle"), parts, compress=compress)
    if rewrite != "canonical":
        old, new = {"spaces": ("\t", " "), "crlf": ("\n", "\r\n")}[rewrite]
        for path in directory.glob("part_*"):
            _rewrite(path, lambda text: text.replace(old, new))
    expected = _parts(load_partition_lines(directory))
    loaded = load_partition(directory)
    assert _parts(loaded) == expected
    for k in range(loaded.num_partitions):
        assert loaded.edge_array(k).dtype == np.int64


# -- global replica tables ---------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(parts=_partitions())
def test_replica_tables_match_dict_oracle(parts):
    blocks = [
        csr_bundle._partition_adjacency(EdgePartition([part]).edge_array(0))
        for part in parts
    ]
    ids = [b[0] for b in blocks]
    degrees = [np.diff(b[1]) for b in blocks]
    got = csr_bundle.replica_tables(ids, degrees)
    for array, expected in zip(got, replica_dicts(ids, degrees)):
        assert array.dtype == np.int64
        assert array.tolist() == expected.tolist()


# -- fold --------------------------------------------------------------------


def _spills(directory, parts_edges, seed):
    rng = random.Random(seed)
    writer = SpillWriter(directory, num_partitions=len(parts_edges), buffer_bytes=256)
    stream = [(k, e) for k, edges in enumerate(parts_edges) for e in edges]
    rng.shuffle(stream)  # interleaved keys within every run
    for start in range(0, len(stream), 5):  # small batches, several flushes
        batch = stream[start : start + 5]
        writer.append_batch(
            np.array([k for k, _ in batch], dtype=np.intp),
            np.array([edge for _, edge in batch], dtype=np.int64),
        )
    return writer.close(), list(writer.counts)


def _random_parts(num_partitions, num_edges, seed, empty=()):
    rng = random.Random(seed)
    edges = set()
    while len(edges) < num_edges:
        u, v = rng.randrange(-50, 400), rng.randrange(-50, 400)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    parts = [[] for _ in range(num_partitions)]
    live = [k for k in range(num_partitions) if k not in empty]
    for edge in sorted(edges):
        parts[rng.choice(live)].append(edge)
    return parts


def _fold(spills, counts, directory, run_edges=spill_mod.DEFAULT_RUN_EDGES, **options):
    """What ``partition_stream`` folds its spills with."""
    sorted_spills = [
        spill_mod.sorted_chunks(path, count, run_edges) for path, count in zip(spills, counts)
    ]
    return write_bundle(directory, sorted_spills, **options)


class TestFoldParity:
    @pytest.mark.parametrize(
        "run_edges,chunk_edges",
        [(1 << 20, 1 << 14), (7, 1 << 14), (7, 2), (40, 3), (1, 1)],
        ids=["one-run", "many-runs", "many-runs-tiny-chunks", "runs-gt-chunk", "unit"],
    )
    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_byte_identical_to_tuple_merge(
        self, tmp_path, monkeypatch, run_edges, chunk_edges, compress
    ):
        monkeypatch.setattr(spill_mod, "_MERGE_CHUNK_EDGES", chunk_edges)
        parts = _random_parts(4, 300, seed=run_edges, empty=(2,))
        spills, counts = _spills(tmp_path / "spill", parts, seed=chunk_edges)
        metadata = {"name": "fold"}
        fold_bundle(
            spills, counts, tmp_path / "oracle",
            metadata=metadata, compress=compress, run_edges=run_edges,
        )
        _fold(
            spills, counts, tmp_path / "array",
            metadata=metadata, compress=compress, run_edges=run_edges,
        )
        # Equal snapshots also mean no temp file is left in the bundle
        # (the parked CSR region is anonymous), and the sort runs are gone.
        assert _snapshot(tmp_path / "array") == _snapshot(tmp_path / "oracle")
        assert all(p.suffix == ".bin" for p in (tmp_path / "spill").iterdir())
        save_partition(load_partition(tmp_path / "array"), tmp_path / "resave",
                       metadata=metadata, compress=compress)
        assert _snapshot(tmp_path / "resave") == _snapshot(tmp_path / "array")

    def test_parked_blocks_need_one_worker(self, tmp_path):
        # Blocks built by the writer park in partition order in one file.
        with pytest.raises(ValueError, match="workers=1"):
            write_bundle(tmp_path / "out", [[np.array([[1, 2]])]] * 2, workers=2)
        assert not (tmp_path / "out").exists()

    def test_all_partitions_empty(self, tmp_path):
        spills, counts = _spills(tmp_path / "spill", [[], []], seed=0)
        fold_bundle(spills, counts, tmp_path / "oracle")
        _fold(spills, counts, tmp_path / "array")
        assert _snapshot(tmp_path / "array") == _snapshot(tmp_path / "oracle")

    @pytest.mark.parametrize("chunk_edges", [1, 2, 1 << 14])
    @pytest.mark.parametrize("run_edges", [2, 1 << 20], ids=["two-runs", "one-run"])
    @pytest.mark.parametrize(
        "records",
        [
            [(1, 2), (3, 4), (0, 5), (1, 2)],  # one copy in each run
            [(1, 2), (1, 2), (0, 5), (3, 4)],  # both in the first run
            [(0, 5), (3, 4), (1, 2), (1, 2)],  # both in the second run
        ],
    )
    def test_duplicate_split_across_runs_rejected(
        self, tmp_path, monkeypatch, chunk_edges, run_edges, records
    ):
        monkeypatch.setattr(spill_mod, "_MERGE_CHUNK_EDGES", chunk_edges)
        spill_dir = tmp_path / "spill"
        writer = SpillWriter(spill_dir, num_partitions=1)
        writer.append_batch(np.zeros(len(records), dtype=np.intp), np.array(records))
        spills = writer.close()
        with pytest.raises(ValueError, match=r"duplicate edge \(1, 2\) in partition spill"):
            _fold(spills, writer.counts, tmp_path / "out", run_edges=run_edges)
        assert not list((tmp_path / "out").glob("part_*"))
        assert sorted(p.name for p in spill_dir.iterdir()) == ["spill_0000.bin"]


# -- save path imports -------------------------------------------------------

_CHILD = """
import sys, tempfile
import numpy
if "numpy.ma" in sys.modules:
    print("preloaded")
    raise SystemExit
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.serialization import load_partition, save_partition
with tempfile.TemporaryDirectory() as tmp:
    save_partition(EdgePartition([[(1, 2), (2, 3)], [(3, 4)], []]), tmp)
    load_partition(tmp)
print("loaded" if "numpy.ma" in sys.modules else "clean")
"""


def test_save_and_load_leave_numpy_ma_unimported():
    src_root = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_root, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD], capture_output=True, text=True, env=env, check=True
    ).stdout.strip()
    if out == "preloaded":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert out == "clean"
