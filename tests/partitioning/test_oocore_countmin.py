"""Count-min degree path of the out-of-core partitioner.

Past its exact-vertex cap the pipeline hashes whole batches of edges
with vectorised NumPy instead of one vertex at a time.  These tests pin
that this is a pure speed change:

* **Hashing parity** — the vectorised ``positions``/``get_many`` agree
  with the scalar ``_positions``/``get`` for every id the parser can
  produce, including negative ids and ids outside ``int64``.
* **Pipeline oracle** — ``partition_stream`` writes the same bundle
  bytes as a plain loop over the scalar ``DegreeSketch.add``/``get``
  and the all-partition reference placer's ``place(u, v)``
  (``placer_oracle.py``), on the exact path and on streams that degrade
  to count-min part-way between batch boundaries.
* **Over-estimate regression** — a count-min estimate larger than a
  mover's true degree can drain its source cluster while members
  remain; clustering must carry on instead of raising ``KeyError``.
"""

import gzip
import random

import pytest

from repro.graph.generators import holme_kim
from repro.graph.graph import normalize_edge
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.oocore import BudgetPlan, partition_stream, pipeline
from repro.partitioning.oocore.cluster import StreamingClustering, map_clusters
from repro.partitioning.oocore.sketch import CountMinDegrees, DegreeSketch, _mix
from repro.partitioning.serialization import load_partition, save_partition

from tests.partitioning.placer_oracle import OracleStreamingPlacer

EDGE_IDS = [0, 1, 2**63 - 1, 2**63 + 5, 2**64 - 1, -3, -1, -(2**63), 2**64 + 7, -(2**70)]


def _write_edges(path, edges):
    text = "".join(f"{u} {v}\n" for u, v in edges)
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write(text)
    else:
        path.write_text(text, encoding="ascii")
    return path


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def _oracle(edges, num_partitions, plan, policy="hdrf", cluster=True):
    """The pipeline's two passes, one edge at a time on the scalar API."""
    stream = [(u, v) for u, v in edges if u != v]
    sketch = DegreeSketch(plan.max_exact_vertices, plan.cm_width)
    cluster_of, cluster_partition = {}, {}
    if cluster:
        clustering = StreamingClustering(sketch, num_partitions)
        for u, v in stream:
            clustering.add_edge(u, v)
        cluster_of = clustering.cluster_of
        cluster_partition = map_clusters(clustering.volume, num_partitions)
    else:
        for u, v in stream:
            sketch.add(u)
            sketch.add(v)
    placer = OracleStreamingPlacer(
        num_partitions,
        sketch,
        policy=policy,
        cluster_of=cluster_of,
        cluster_partition=cluster_partition,
    )
    placed = [normalize_edge(u, v) for u, v in stream]
    assignment = [placer.place(a, b) for a, b in placed]
    return EdgePartition.from_assignment(placed, assignment, num_partitions), sketch


def _shuffled_edges(graph, seed):
    """Graph edges in a random order and orientation, plus self loops."""
    rng = random.Random(seed)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges()]
    rng.shuffle(edges)
    for i in range(0, len(edges), 97):
        edges.insert(i, (i, i))
    return edges


class TestHashingParity:
    @pytest.mark.parametrize("width", [1, 7, 1 << 12])
    def test_vectorised_positions_equal_scalar(self, width):
        cm = CountMinDegrees(width)
        rng = random.Random(5)
        ids = EDGE_IDS + [rng.randrange(-(2**66), 2**66) for _ in range(200)]
        small = [v for v in ids if -(2**63) <= v < 2**63]  # the int64 fast path
        for batch in (ids, small, [2**64 - 1], [-3]):
            rows = cm.positions(batch).tolist()
            assert rows == [cm._positions(v) for v in batch]
        for v in ids:
            assert cm._positions(v) == [
                row * width + _mix(v ^ _mix(row + 1)) % width for row in range(cm.depth)
            ]

    def test_get_many_equals_get_after_conservative_updates(self):
        cm = CountMinDegrees(64)
        rng = random.Random(9)
        ids = EDGE_IDS + [rng.randrange(-1000, 1000) for _ in range(300)]
        for v in ids:
            cm.add(v, rng.randrange(1, 4))
        for v in ids[:50]:
            assert cm.add_at(cm._positions(v)) == cm.get(v)
        assert cm.get_many(ids).tolist() == [cm.get(v) for v in ids]
        assert cm.get_many(EDGE_IDS[:5]).tolist() == [cm.get(v) for v in EDGE_IDS[:5]]


class TestOverEstimateRegression:
    def test_drained_cluster_keeps_accepting_members(self):
        # Width 8 collides heavily: the first mover whose estimate exceeds
        # its source cluster's volume used to raise KeyError two edges on.
        edges = list(holme_kim(100, 3, 0.5, seed=1).edges())
        sketch = DegreeSketch(max_exact_vertices=0, cm_width=8)
        clustering = StreamingClustering(sketch, num_partitions=2)
        clustering.consume(edges)
        assert set(clustering.cluster_of) == {v for edge in edges for v in edge}
        assert all(volume > 0 for volume in clustering.volume.values())
        assert set(map_clusters(clustering.volume, 2)) == set(clustering.volume)


class TestPipelineOracle:
    @pytest.mark.parametrize("name", ["edges.txt", "edges.txt.gz"])
    def test_budget_forced_count_min_matches_scalar_oracle(self, tmp_path, name):
        graph = holme_kim(3000, 3, 0.5, seed=4)
        edges = _shuffled_edges(graph, seed=4)
        budget = 1 << 20
        plan = BudgetPlan.from_budget(budget)
        assert graph.num_vertices > plan.max_exact_vertices
        source = _write_edges(tmp_path / name, edges)
        compress = name.endswith(".gz")
        result = partition_stream(
            source, tmp_path / "streamed", num_partitions=3,
            memory_budget=budget, compress=compress,
        )
        assert result.sketch_kind == "count-min"
        oracle, _ = _oracle(edges, 3, plan)
        save_partition(oracle, tmp_path / "oracle", compress=compress)
        assert _snapshot(tmp_path / "streamed") == _snapshot(tmp_path / "oracle")
        load_partition(tmp_path / "streamed", verify=True)

    @pytest.mark.parametrize("num_partitions", [3, 64, 70])
    def test_exact_sketch_matches_scalar_oracle(self, tmp_path, num_partitions):
        graph = holme_kim(600, 3, 0.5, seed=6)
        edges = _shuffled_edges(graph, seed=6)
        plan = BudgetPlan.from_budget(None)
        source = _write_edges(tmp_path / "edges.txt", edges)
        result = partition_stream(source, tmp_path / "streamed", num_partitions=num_partitions)
        assert result.sketch_kind == "exact"
        oracle, _ = _oracle(edges, num_partitions, plan)
        save_partition(oracle, tmp_path / "oracle")
        assert _snapshot(tmp_path / "streamed") == _snapshot(tmp_path / "oracle")

    @pytest.mark.parametrize("policy,cluster", [
        ("hdrf", True), ("hdrf", False), ("greedy", True),
    ])
    @pytest.mark.parametrize("max_exact,width,batch", [
        (50, 1 << 10, 7),    # degrades mid-stream, off any batch boundary
        (0, 8, 5),           # count-min from the first edge, heavy collisions
        (37, 64, 1),
    ])
    def test_degrade_between_batches(
        self, tmp_path, monkeypatch, policy, cluster, max_exact, width, batch
    ):
        plan = BudgetPlan.from_budget(1 << 20)
        plan.max_exact_vertices, plan.cm_width, plan.hash_batch_edges = max_exact, width, batch
        monkeypatch.setattr(pipeline.BudgetPlan, "from_budget", classmethod(lambda cls, b: plan))
        graph = holme_kim(120, 3, 0.5, seed=2)
        edges = _shuffled_edges(graph, seed=2)
        source = _write_edges(tmp_path / "edges.txt", edges)
        result = partition_stream(
            source, tmp_path / "streamed", num_partitions=4, memory_budget=1 << 20,
            policy=policy, cluster=cluster,
        )
        oracle, sketch = _oracle(edges, 4, plan, policy=policy, cluster=cluster)
        assert sketch.kind == result.sketch_kind == "count-min"
        assert result.skipped_self_loops == len(edges) - graph.num_edges
        save_partition(oracle, tmp_path / "oracle")
        assert _snapshot(tmp_path / "streamed") == _snapshot(tmp_path / "oracle")
