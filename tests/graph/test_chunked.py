"""Chunked reader: line parity with file iteration, and the array reader's
parity with the line-by-line oracle (tests/graph/edge_list_oracle.py)."""

import gzip

import numpy as np
import pytest

from repro.graph import chunked
from repro.graph.chunked import ChunkedEdgeStream, ChunkedLineStream
from repro.graph.io import iter_edge_list
from tests.graph.edge_list_oracle import oracle_edges


EDGE_TEXT = "# comment\n0 1\n1 2\n\n% other comment\n2 3\n3 0\t9\n4 0\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    if name.endswith(".gz"):
        path.write_bytes(gzip.compress(text.encode("utf-8")))
    else:
        path.write_text(text, encoding="utf-8")
    return path


def _array_rows(stream, batch_edges):
    arrays = list(stream.edge_arrays(batch_edges))
    assert all(a.dtype == np.int64 and a.ndim == 2 and a.shape[1] == 2 for a in arrays)
    assert all(0 < len(a) <= batch_edges for a in arrays)
    return [tuple(row) for a in arrays for row in a.tolist()]


@pytest.mark.parametrize("name", ["g.txt", "g.txt.gz"])
def test_lines_match_file_iteration(tmp_path, name):
    path = write(tmp_path, name, EDGE_TEXT)
    expected = EDGE_TEXT.splitlines(keepends=True)
    got = list(ChunkedLineStream(path, chunk_bytes=3).lines())
    assert [line for _, line in got] == expected
    assert [lineno for lineno, _ in got] == list(range(1, len(expected) + 1))


def test_final_line_without_newline(tmp_path):
    path = write(tmp_path, "g.txt", "0 1\n1 2")
    assert [line for _, line in ChunkedLineStream(path).lines()] == [
        "0 1\n",
        "1 2",
    ]


@pytest.mark.parametrize("name", ["g.txt", "g.txt.gz"])
@pytest.mark.parametrize("chunk_bytes", [1, 4, 1 << 20])
def test_edges_match_iter_edge_list(tmp_path, name, chunk_bytes):
    path = write(tmp_path, name, EDGE_TEXT)
    stream = ChunkedEdgeStream(path, chunk_bytes=chunk_bytes)
    expected = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0)]
    assert list(oracle_edges(path)) == expected
    assert _array_rows(stream, 2) == expected
    assert list(iter_edge_list(path)) == expected


def test_stream_is_reiterable_for_two_passes(tmp_path):
    path = write(tmp_path, "g.txt", EDGE_TEXT)
    stream = ChunkedEdgeStream(path)
    first = _array_rows(stream, 1 << 16)
    second = _array_rows(stream, 1 << 16)
    assert first == second and first


def test_error_messages_match_iter_edge_list_contract(tmp_path):
    bad_tokens = write(tmp_path, "one.txt", "0 1\nlonely\n")
    with pytest.raises(ValueError, match=r"one\.txt:2: expected 'u v'"):
        list(ChunkedEdgeStream(bad_tokens).edge_arrays())
    with pytest.raises(ValueError, match=r"one\.txt:2: expected 'u v'"):
        list(iter_edge_list(bad_tokens))
    bad_int = write(tmp_path, "int.txt", "0 x\n")
    with pytest.raises(ValueError, match=r"int\.txt:1: non-integer endpoint"):
        list(ChunkedEdgeStream(bad_int).edge_arrays())


def test_invalid_parameters(tmp_path):
    path = write(tmp_path, "g.txt", EDGE_TEXT)
    with pytest.raises(ValueError, match="chunk_bytes"):
        ChunkedLineStream(path, chunk_bytes=0)


# -- array reader ------------------------------------------------------------

ARRAY_TEXT = (
    "# header comment\n"
    "0 1\n"
    "1\t2\n"
    "\n"
    "% mid-file comment\n"
    "  3   4  \n"
    "5 6\r\n"
    "-7\t8 extra columns 9\n"
    "# another\n"
    "-9223372036854775808 9223372036854775807\n"
    "\t\n"
    "10 11\n"
    "12 13"  # last line without a newline
)


@pytest.mark.parametrize("name", ["g.txt", "g.txt.gz"])
@pytest.mark.parametrize("chunk_bytes", [1, 3, 7, 1 << 20])
@pytest.mark.parametrize("batch_edges", [1, 2, 1 << 16])
def test_edge_arrays_match_edges(tmp_path, name, chunk_bytes, batch_edges):
    path = write(tmp_path, name, ARRAY_TEXT)
    stream = ChunkedEdgeStream(path, chunk_bytes=chunk_bytes)
    expected = list(oracle_edges(path))
    assert expected[-3:] == [(-(2**63), 2**63 - 1), (10, 11), (12, 13)]
    assert _array_rows(stream, batch_edges) == expected


@pytest.mark.parametrize("chunk_bytes", [1, 5, 1 << 20])
def test_edge_arrays_fast_blocks_span_chunks(tmp_path, monkeypatch, chunk_bytes):
    # Canonical lines only, over many small blocks: lines split across
    # chunk and block boundaries must come out whole.
    monkeypatch.setattr(chunked, "ARRAY_BLOCK_BYTES", 32)
    text = "".join(f"{i}{' ' if i % 3 else chr(9)}{-i * 7919}\n" for i in range(500))
    path = write(tmp_path, "g.txt", text)
    stream = ChunkedEdgeStream(path, chunk_bytes=chunk_bytes)
    expected = list(oracle_edges(path))

    def line_parser(*args):
        raise AssertionError("a canonical block fell back to the line parser")

    monkeypatch.setattr(ChunkedEdgeStream, "_parse", line_parser)
    assert _array_rows(stream, 64) == expected


@pytest.mark.parametrize("chunk_bytes", [2, 1 << 20])
@pytest.mark.parametrize("bad", ["lonely", "0 x", "1 2.5", "--3 4", "1 +"])
def test_edge_arrays_errors_match_edges(tmp_path, chunk_bytes, bad):
    path = write(tmp_path, "g.txt", "0 1\n# c\n1 2\n" + bad + "\n3 4\n")
    stream = ChunkedEdgeStream(path, chunk_bytes=chunk_bytes)
    with pytest.raises(ValueError) as from_oracle:
        list(oracle_edges(path))
    with pytest.raises(ValueError) as from_arrays:
        list(stream.edge_arrays(2))
    assert str(from_arrays.value) == str(from_oracle.value)
    assert f"{path}:4:" in str(from_arrays.value)


@pytest.mark.parametrize("big", [2**63, 2**64 + 1, -(2**63) - 1])
def test_edge_arrays_reject_ids_beyond_int64(tmp_path, big):
    path = write(tmp_path, "g.txt", f"0 1\n1 {big}\n")
    stream = ChunkedEdgeStream(path)
    assert list(oracle_edges(path)) == [(0, 1), (1, big)]  # the line parse keeps them
    with pytest.raises(OverflowError, match=rf"g\.txt:2: endpoint outside int64"):
        list(stream.edge_arrays())
    with pytest.raises(OverflowError, match=rf"g\.txt:2: endpoint outside int64"):
        list(iter_edge_list(path))


def test_edge_arrays_invalid_batch(tmp_path):
    path = write(tmp_path, "g.txt", EDGE_TEXT)
    with pytest.raises(ValueError, match="batch_edges"):
        list(ChunkedEdgeStream(path).edge_arrays(0))
