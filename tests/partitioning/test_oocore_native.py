"""Compiled streaming passes: the kernel path equals the Python classes.

With a compiled kernel, :func:`partition_stream` runs both passes in C
over one dense vertex index; without one (``REPRO_NO_NATIVE=1``, no
compiler) it runs :class:`DegreeSketch`, :class:`StreamingClustering` and
:class:`StreamingPlacer`.  These tests run both paths on the same input
(the fallback by patching the pipeline's kernel loader) and require the
same :class:`OocoreResult` fields and byte-identical bundles, over:

* partition counts from 1 to 130, so replica masks of one, two and three
  64-bit words per vertex;
* an exact sketch, and a count-min sketch that degrades in the middle of
  a batch (small table, so estimates collide and over-count);
* HDRF, greedy, no clustering, ``lam = 0`` with ``gamma = 0``, and
  refined-profile offsets (``hints``);
* ids at both ends of ``int64`` and negative ids, in shuffled order and
  orientation, with self loops;
* a vertex index that starts at two rows and rehashes as it grows;
* inputs with no edge to place: an empty file and one of self loops only.

Skipped when no kernel loads.
"""

import gzip
import random

import pytest

from repro._native import load_kernel
from repro.graph.generators import holme_kim
from repro.partitioning.oocore import BudgetPlan, native, partition_stream, pipeline
from repro.partitioning.oocore.partitioner import TwoPhaseStreamingPartitioner
from repro.partitioning.serialization import save_partition

pytestmark = pytest.mark.skipif(
    load_kernel() is None,
    reason="kernel unavailable: no C toolchain, or REPRO_NO_NATIVE set",
)

PARTITION_COUNTS = [1, 2, 3, 8, 33, 64, 65, 130]

#: Exact-vertex cap and batch size of the count-min runs: the 90th
#: distinct vertex arrives inside a batch, not at its start.
MAX_EXACT = 89
BATCH = 37

VARIANTS = {
    "hdrf": {},
    "greedy": {"policy": "greedy"},
    "no-cluster": {"cluster": False},
    "lam0-gamma0": {"lam": 0.0, "gamma": 0.0},
    "hints": {},
}

FIELDS = (
    "num_partitions",
    "num_edges",
    "num_vertices",
    "replication_factor",
    "partition_sizes",
    "sketch_kind",
    "num_clusters",
    "skipped_self_loops",
)


def _edges(seed=5):
    """A heavy-tailed graph with extreme ids, shuffled, plus self loops."""
    graph = holme_kim(240, 3, 0.5, seed=seed)
    rng = random.Random(seed)
    extremes = [-(2**63), 2**63 - 1, -(2**63) + 1, 2**63 - 2, -1, 0]
    ids = extremes + [rng.randrange(-(2**62), 2**62) for _ in range(graph.num_vertices)]
    rename = dict(zip(sorted(graph.vertices()), ids))
    edges = [(rename[u], rename[v]) for u, v in graph.edges()]
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(edges)
    for at in (3, 100, len(edges) - 1):
        edges.insert(at, (edges[at][0], edges[at][0]))
    return edges


def _write(path, edges):
    text = "".join(f"{u} {v}\n" for u, v in edges)
    with gzip.open(path, "wt", encoding="ascii") as fh:
        fh.write(text)
    return path


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def _both_paths(monkeypatch, tmp_path, source, **options):
    """``partition_stream`` on the kernel and on the Python classes."""
    runs = {}
    for name, loader in (("native", load_kernel), ("python", lambda: None)):
        monkeypatch.setattr(pipeline, "load_kernel", loader)
        result = partition_stream(source, tmp_path / name, **options)
        runs[name] = (
            {field: getattr(result, field) for field in FIELDS},
            _snapshot(tmp_path / name),
        )
    return runs


def _hints(tmp_path, edges, p):
    """A bundle whose refined profile gives uneven offsets over ``p``."""
    bundle = tmp_path / "hints"
    loopless = [(u, v) for u, v in edges if u != v]
    sizes = [(7 * k) % 11 * 40 for k in range(p)]
    save_partition(
        TwoPhaseStreamingPartitioner().assign_stream(loopless, p),
        bundle,
        metadata={"refined": {"partition_sizes": sizes}},
    )
    return bundle


@pytest.fixture(scope="module")
def edges():
    return _edges()


@pytest.fixture(scope="module")
def source(edges, tmp_path_factory):
    return _write(tmp_path_factory.mktemp("native") / "edges.txt.gz", edges)


def test_count_min_runs_degrade_inside_a_batch(edges):
    seen, first_over = set(), None
    for at, (u, v) in enumerate((u, v) for u, v in edges if u != v):
        for x in (u, v):
            seen.add(x)
            if len(seen) > MAX_EXACT and first_over is None:
                first_over = at
    assert first_over is not None and first_over % BATCH != 0


@pytest.mark.parametrize("sketch_kind", ["exact", "count-min"])
@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("p", PARTITION_COUNTS)
def test_native_passes_equal_python_passes(
    monkeypatch, tmp_path, edges, source, p, variant, sketch_kind
):
    plan = BudgetPlan.from_budget(None)
    plan.hash_batch_edges = BATCH
    if sketch_kind == "count-min":
        plan.max_exact_vertices, plan.cm_width = MAX_EXACT, 61
    monkeypatch.setattr(
        pipeline.BudgetPlan, "from_budget", classmethod(lambda cls, budget: plan)
    )
    options = dict(VARIANTS[variant], num_partitions=p)
    if variant == "hints":
        options["hints"] = _hints(tmp_path, edges, p)
    runs = _both_paths(monkeypatch, tmp_path, source, **options)
    native, python = runs["native"], runs["python"]
    assert native[0]["sketch_kind"] == sketch_kind
    assert native[0] == python[0]
    assert native[1] == python[1]


@pytest.mark.parametrize("max_exact", [1 << 62, MAX_EXACT])
@pytest.mark.parametrize("p", [2, 65])
def test_vertex_index_rehash(monkeypatch, tmp_path, source, p, max_exact):
    plan = BudgetPlan.from_budget(None)
    plan.max_exact_vertices, plan.cm_width = max_exact, 61
    monkeypatch.setattr(
        pipeline.BudgetPlan, "from_budget", classmethod(lambda cls, budget: plan)
    )
    grows = []
    grow = native.VertexIndex._grow

    def counted(index):
        grows.append(index.state.vcap)
        grow(index)

    monkeypatch.setattr(native, "INITIAL_VERTEX_CAPACITY", 2)
    monkeypatch.setattr(native.VertexIndex, "_grow", counted)
    runs = _both_paths(monkeypatch, tmp_path, source, num_partitions=p)
    assert grows[:3] == [2, 4, 8] and len(grows) >= 7
    assert runs["native"] == runs["python"]


@pytest.mark.parametrize("cluster", [True, False])
@pytest.mark.parametrize("p", [2, 65])
@pytest.mark.parametrize("lines", [[], [(7, 7), (-3, -3), (7, 7)]], ids=["empty", "loops"])
def test_nothing_to_place(monkeypatch, tmp_path, lines, p, cluster):
    source = _write(tmp_path / "edges.txt.gz", lines)
    runs = _both_paths(monkeypatch, tmp_path, source, num_partitions=p, cluster=cluster)
    assert runs["native"] == runs["python"]
    fields = runs["native"][0]
    assert fields["num_vertices"] == 0 and fields["replication_factor"] == 1.0
    assert fields["skipped_self_loops"] == len(lines)
