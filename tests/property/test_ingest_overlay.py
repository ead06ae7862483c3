"""Property test: the overlay is indistinguishable from a rebuild.

Hypothesis drives arbitrary insert/delete sequences (with interleaved
re-inserts and base-edge deletes) against a ``DeltaOverlay`` and asserts
that every observable — replication factor (bitwise float equality),
partition sizes, per-partition stats, routing, adjacency — matches the
dict-of-sets oracle rebuilt from scratch out of the materialised
``EdgePartition``.  A second property replays the same mutation sequence
through the WAL record format and requires the revived overlay to land
in the identical state, which is exactly the crash-recovery contract.

Bundles are built once per module; each example opens fresh stores over
them (cheap — the CSR sidecar is mmapped).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tlp import TLPPartitioner
from repro.partitioning.serialization import save_partition
from repro.service.ingest import DeltaOverlay, place_greedy, place_hdrf
from repro.service.store import PartitionStore
from tests.service.oracle import DictStore


@pytest.fixture(scope="module")
def overlay_world(tmp_path_factory):
    from repro.graph.generators import holme_kim

    graph = holme_kim(120, 4, 0.5, seed=11)
    partition = TLPPartitioner(seed=0).partition(graph, 3)
    directory = tmp_path_factory.mktemp("overlay_world") / "bundle"
    save_partition(partition, directory)
    return {"graph": graph, "directory": directory}


# Abstract mutation programme: interpreted against live overlay state so
# every generated sequence is legal by construction.
STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert_fresh", "insert_known", "delete_new", "delete_base"]
        ),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=60,
)


def _interpret(overlay, graph, steps):
    """Run the abstract programme; returns the concrete op list applied."""
    vertices = sorted(graph.vertices())
    base_edges = sorted(graph.edges())
    fresh = vertices[-1] + 1
    alive = []  # overlay-inserted, still-present edges
    deleted_base = set()
    applied = []
    for op, pick in steps:
        if op == "insert_fresh":
            u, v = vertices[pick % len(vertices)], fresh
            fresh += 1
            k = place_hdrf(overlay, u, v)
        elif op == "insert_known":
            u = vertices[pick % len(vertices)]
            v = vertices[(pick * 7 + 1) % len(vertices)]
            if u == v or overlay.edge_exists(u, v):
                continue
            k = place_greedy(overlay, u, v)
        elif op == "delete_new":
            if not alive:
                continue
            u, v = alive.pop(pick % len(alive))
            overlay.apply_delete(u, v)
            applied.append(("delete", u, v, None))
            continue
        else:  # delete_base
            u, v = base_edges[pick % len(base_edges)]
            if (u, v) in deleted_base or not overlay.edge_exists(u, v):
                continue
            overlay.apply_delete(u, v)
            deleted_base.add((u, v))
            applied.append(("delete", u, v, None))
            continue
        overlay.apply_insert(u, v, k)
        a, b = min(u, v), max(u, v)
        alive.append((a, b))
        deleted_base.discard((a, b))
        applied.append(("insert", a, b, k))
    return applied


@given(steps=STEPS)
@settings(max_examples=30, deadline=None)
def test_overlay_matches_rebuilt_partition(overlay_world, steps):
    graph = overlay_world["graph"]
    overlay = DeltaOverlay(PartitionStore.open(overlay_world["directory"]))
    applied = _interpret(overlay, graph, steps)
    assert overlay.pending_mutations == len(applied)

    rebuilt = DictStore(overlay.to_partition())
    assert overlay.num_edges == rebuilt.num_edges
    assert overlay.num_vertices == rebuilt.num_vertices
    assert overlay.partition_sizes() == rebuilt.partition_sizes()
    assert overlay.total_replicas() == rebuilt.total_replicas()
    assert overlay.replication_factor() == rebuilt.replication_factor()
    for k in range(overlay.num_partitions):
        assert overlay.partition_stats(k) == rebuilt.partition_stats(k)

    touched = {v for _, u, w, _ in applied for v in (u, w)}
    for v in sorted(touched):
        if rebuilt.has_vertex(v):
            assert overlay.master_of(v) == rebuilt.master_of(v)
            assert overlay.replicas_of(v) == rebuilt.replicas_of(v)
            assert overlay.neighbors(v) == rebuilt.neighbors(v)
        else:
            assert not overlay.has_vertex(v)
    for op, u, v, k in applied:
        if overlay.edge_exists(u, v):
            assert overlay.owner_of_edge(u, v) == rebuilt.owner_of_edge(u, v)
        else:
            with pytest.raises(KeyError):
                rebuilt.owner_of_edge(u, v)


@given(steps=STEPS)
@settings(max_examples=15, deadline=None)
def test_replaying_the_op_trace_reproduces_the_state(overlay_world, steps):
    """WAL semantics: applying the recorded trace to a fresh overlay over
    the same base bundle lands bit-identically — placements included."""
    graph = overlay_world["graph"]
    directory = overlay_world["directory"]
    overlay = DeltaOverlay(PartitionStore.open(directory))
    applied = _interpret(overlay, graph, steps)

    revived = DeltaOverlay(PartitionStore.open(directory))
    for op, u, v, k in applied:
        if op == "insert":
            revived.apply_insert(u, v, k)
        else:
            revived.apply_delete(u, v)

    assert revived.partition_sizes() == overlay.partition_sizes()
    assert revived.replication_factor() == overlay.replication_factor()
    assert revived.pending_mutations == overlay.pending_mutations
    assert revived.to_partition().partition_sizes() == (
        overlay.to_partition().partition_sizes()
    )
