"""The partition command's one input path against a Graph-path oracle.

``python -m repro <edges>`` reads edge arrays
(:func:`~repro.graph.io.read_edge_array`) and makes one
:meth:`~repro.partitioning.base.EdgePartitioner.partition_edges` call:
the local (TLP-family) partitioners grow on the arrays, every other
algorithm on the :class:`~repro.graph.graph.Graph` built from them.  It
then checks and scores the result with
:meth:`~repro.partitioning.assignment.EdgePartition.validate_edges` and
:meth:`~repro.partitioning.metrics.PartitionReport.evaluate_edges`.  The
oracle is the Graph path it replaced: the line-by-line reader
(``tests/graph/edge_list_oracle.py``) -> ``partition(graph)`` ->
``validate_against`` -> ``PartitionReport.evaluate`` -> the writers, with
the same metadata.  Both must print the same lines and write
byte-identical assignments, partition files and bundles, on the compiled
kernel and under ``REPRO_NO_NATIVE=1``, from a file with every quirk the
reader skips or normalises.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.__main__ as cli
from repro.analysis.partition_stats import describe_partition
from repro.core.local import LocalEdgePartitioner
from repro.core.stages import ModularityStagePolicy
from repro.graph.generators import holme_kim
from repro.graph.io import read_edge_array, read_edge_list
from repro.graph.residual_csr import CSRResidual
from repro.partitioning.metrics import PartitionReport
from repro.partitioning.registry import available_partitioners, make_partitioner
from repro.partitioning.serialization import save_partition
from tests.core.tlp_oracle import OracleLocalPartitioner
from tests.graph.edge_list_oracle import iteration_order, oracle_graph

PARTITIONS = [1, 2, 8, 64]
ALGORITHMS = ["TLP", "TLP_R:0.3"]
STRATEGIES = list(LocalEdgePartitioner.SEED_STRATEGIES)
LONER = 987_654_321  # a vertex that appears only in a self loop


@pytest.fixture(scope="module")
def messy_file(tmp_path_factory):
    """A SNAP file with comments, blanks, CRLF, duplicates, loops, extra columns."""
    graph = holme_kim(220, 3, 0.5, seed=21)
    rng = random.Random(5)
    ids = {v: 7 * v - 300 for v in graph.vertices()}  # sparse, some negative
    edges = [(ids[u], ids[v]) for u, v in graph.edges()]
    rng.shuffle(edges)
    first = edges[0][1]
    lines = [
        "# Directed graph: messy.txt",
        "% a second comment style",
        f"{first} {first}",  # first seen in a self loop, then in edges
        "",
        f"{LONER}\t{LONER}",
    ]
    for i, (u, v) in enumerate(edges):
        if rng.random() < 0.5:
            u, v = v, u
        sep = "\t" if i % 3 else "  "
        tail = " 1.5 extra" if i % 11 == 0 else ""
        lines.append(f"{u}{sep}{v}{tail}")
        roll = rng.random()
        if roll < 0.08:
            lines.append(f"{v} {u}")  # reversed duplicate
        elif roll < 0.14:
            lines.append(f"{u} {v}")  # repeated duplicate
        elif roll < 0.17:
            lines.append(f"{u} {u}")  # self loop on a real vertex
        elif roll < 0.19:
            lines.append("   ")
        elif roll < 0.2:
            lines.append("# a comment mid-file")
    text = "".join(
        line + ("\r\n" if i % 4 == 1 else "\n") for i, line in enumerate(lines)
    )
    path = tmp_path_factory.mktemp("messy") / "messy.txt"
    path.write_bytes(text.encode("ascii"))
    return path


def _factory(strategy):
    def make(name, seed=0):
        partitioner = make_partitioner(name, seed=seed)
        partitioner.seed_strategy = strategy
        return partitioner

    return make


def _oracle_command(path, p, algorithm, seed, make, out, detail):
    """The command on the oracle's Graph: its stdout, and its outputs in ``out``."""
    graph = oracle_graph(path)
    partition = make(algorithm, seed=seed).partition(graph, p)
    partition.validate_against(graph)
    report = PartitionReport.evaluate(partition, graph)
    lines = [
        f"partitioning {graph.num_vertices} vertices / {graph.num_edges} edges "
        f"into p={p} with {algorithm} (seed {seed})",
        f"replication factor : {report.replication_factor:.4f}",
        f"edge balance       : {report.edge_balance:.4f}",
        f"spanned vertices   : {report.spanned_vertices}",
    ]
    if detail:
        lines += ["", describe_partition(partition, graph)]
    out.mkdir(parents=True)
    cli.write_assignments(partition, out / "assignments.tsv")
    lines.append(f"wrote assignments to {out / 'assignments.tsv'}")
    cli.write_partition_files(partition, out / "parts")
    lines.append(f"wrote {p} partition files to {out / 'parts'}/")
    manifest = save_partition(
        partition,
        out / "bundle",
        metadata={
            "algorithm": algorithm,
            "seed": seed,
            "num_partitions": p,
            "input": str(path),
            "replication_factor": report.replication_factor,
        },
    )
    lines.append(f"wrote partition bundle with manifest {manifest}")
    return "".join(line + "\n" for line in lines)


def _files(directory):
    """Every file under ``directory`` by relative path, with its bytes."""
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def _assert_cli_matches_oracle(path, p, algorithm, seed, make, tmp_path, capsys, detail):
    """The command's stdout and output bytes equal the oracle pipeline's."""
    ours, theirs = tmp_path / "cli", tmp_path / "oracle"
    argv = [
        str(path), "-p", str(p), "--algorithm", algorithm, "--seed", str(seed),
        "--assignments", str(ours / "assignments.tsv"),
        "--output-dir", str(ours / "parts"),
        "--save-dir", str(ours / "bundle"),
    ] + (["--detail"] if detail else [])
    ours.mkdir()
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out.replace(str(ours), str(theirs))
    assert printed == _oracle_command(path, p, algorithm, seed, make, theirs, detail)
    assert _files(ours) == _files(theirs)


class TestReader:
    def test_matches_read_edge_list(self, messy_file):
        graph = oracle_graph(messy_file)
        edges, vertices = read_edge_array(messy_file)
        assert edges.dtype == np.int64 and vertices.dtype == np.int64
        assert sorted(edges.tolist()) == sorted(map(list, graph.edges()))
        assert vertices.tolist() == graph.vertex_list()
        assert LONER in vertices.tolist() and graph.degree(LONER) == 0
        assert iteration_order(read_edge_list(messy_file)) == iteration_order(graph)

    def test_residual_from_arrays_equals_residual_of_graph(self, messy_file):
        direct = CSRResidual(oracle_graph(messy_file))
        built = CSRResidual.from_edges(*read_edge_array(messy_file))
        for name in ("indptr", "indices", "twin", "ids", "alive", "live_deg"):
            ours, theirs = getattr(built, name), getattr(direct, name)
            assert ours.dtype == theirs.dtype, name
            assert np.array_equal(ours, theirs), name
        assert built.index_of == direct.index_of
        assert built._seed_pool == direct._seed_pool
        assert built.num_edges == direct.num_edges


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("p", PARTITIONS)
class TestParity:
    def test_partition_edges_matches_partition(self, messy_file, p, algorithm, strategy):
        graph = oracle_graph(messy_file)
        edges, vertices = read_edge_array(messy_file)
        make = _factory(strategy)
        ours, theirs = make(algorithm, seed=3), make(algorithm, seed=3)
        got = ours.partition_edges(edges, vertices, p)
        want = theirs.partition(graph, p)
        assert [got.edges_of(k) for k in range(p)] == [
            want.edges_of(k) for k in range(p)
        ]
        assert ours.last_telemetry == theirs.last_telemetry

    def test_cli_matches_graph_path(
        self, messy_file, tmp_path, monkeypatch, capsys, p, algorithm, strategy
    ):
        make = _factory(strategy)
        monkeypatch.setattr(cli, "make_partitioner", make)
        _assert_cli_matches_oracle(
            messy_file, p, algorithm, 3, make, tmp_path, capsys, detail=False
        )


#: Every registered algorithm, the TLP_R ablation and a TLP-W window that
#: holds a whole partition of the messy file.
EVERY_ALGORITHM = available_partitioners() + ["TLP_R:0.3", "TLP-W:1000"]


@pytest.mark.parametrize("detail", [False, True], ids=["plain", "detail"])
@pytest.mark.parametrize("algorithm", EVERY_ALGORITHM)
def test_cli_matches_oracle_for_every_algorithm(
    messy_file, tmp_path, capsys, algorithm, detail
):
    if algorithm == "Spectral":
        pytest.importorskip("scipy")
    _assert_cli_matches_oracle(
        messy_file, 3, algorithm, 3, make_partitioner, tmp_path, capsys, detail
    )


@pytest.mark.parametrize("p", PARTITIONS)
def test_partition_edges_matches_dict_oracle(messy_file, p):
    """File order is not id order here, so this pins the seed-pool order too."""
    edges, vertices = read_edge_array(messy_file)
    ours = LocalEdgePartitioner(ModularityStagePolicy(), seed=3)
    oracle = OracleLocalPartitioner(ModularityStagePolicy(), seed=3)
    got = ours.partition_edges(edges, vertices, p)
    want = oracle.partition(oracle_graph(messy_file), p)
    assert [got.edges_of(k) for k in range(p)] == [want.edges_of(k) for k in range(p)]
    assert ours.last_telemetry == oracle.last_telemetry

