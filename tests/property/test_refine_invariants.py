"""Property tests pinning the local-search refinement invariants.

Hypothesis generates random graphs with random (arbitrarily bad, often
unbalanced) partition assignments and random engine options, and pins:

* (a) the refined partition never violates the capacity bound;
* (b) no edge is ever lost or duplicated (conservation);
* (c) the replica total — hence RF — is monotonically non-increasing;
* (d) the engine is deterministic: same input, same options, same output;
* (e) a refined bundle round-trips through ``PartitionStore.open`` —
  from its sidecar and, for a legacy copy without one, from its text —
  bit-identically to the dict-of-sets oracle rebuilt from the
  materialised partition.

A ``RuleBasedStateMachine`` then drives random mutation streams through
a live ``Ingestor`` with refine-on-compact enabled: every refined
compaction must publish a no-worse RF through the epoch swap with the
edge set exactly tracking the model, and ``refine_bundle`` against the
bundle must be refused with the typed :class:`PendingMutationsError`
whenever mutations are pending (the reload-guard mirror, satellite #2).
"""

import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.partitioning.assignment import EdgePartition
from repro.partitioning.metrics import total_replicas
from repro.partitioning.refine import (
    PendingMutationsError,
    refine_bundle,
    refine_partition,
)
from repro.partitioning.serialization import load_partition, save_partition
from repro.service.ingest import Ingestor
from repro.service.store import PartitionStore, StoreManager
from tests.service.oracle import DictStore, strip_sidecar


@st.composite
def partitioned_graphs(draw):
    """A random edge set with a random (possibly terrible) assignment."""
    n = draw(st.integers(min_value=6, max_value=40))
    edges = draw(
        st.sets(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).map(lambda t: (min(t), max(t))).filter(lambda t: t[0] != t[1]),
            min_size=3,
            max_size=120,
        )
    )
    edges = sorted(edges)
    p = draw(st.integers(min_value=2, max_value=5))
    assignment = draw(
        st.lists(
            st.integers(0, p - 1), min_size=len(edges), max_size=len(edges)
        )
    )
    return EdgePartition.from_assignment(edges, assignment, p)


REFINE_OPTIONS = st.fixed_dictionaries(
    {
        "slack": st.sampled_from([1.0, 1.1, 1.3]),
        "swaps": st.booleans(),
        "epsilon": st.sampled_from([0.0, 0.05]),
        "max_passes": st.integers(min_value=1, max_value=6),
    }
)


def _edge_multiset(partition):
    edges = [
        e
        for k in range(partition.num_partitions)
        for e in partition.edges_of(k)
    ]
    return sorted(edges), len(edges)


@given(partition=partitioned_graphs(), options=REFINE_OPTIONS)
@settings(max_examples=80, deadline=None)
def test_capacity_conservation_monotonicity_determinism(partition, options):
    refined, stats = refine_partition(partition, **options)

    # (a) capacity: never above the derived bound (floored at the input's
    # largest partition, so pathological inputs can't make it vacuous
    # retroactively — the bound is fixed up front).
    cap = max(
        math.ceil(
            options["slack"] * partition.num_edges / partition.num_partitions
        )
        if partition.num_partitions
        else 1,
        max(partition.partition_sizes() or [0]),
        1,
    )
    assert stats.capacity == cap
    assert max(refined.partition_sizes() or [0]) <= cap

    # (b) conservation: exact same edge multiset, no loss, no duplication
    # (from_assignment + edge_to_partition would both throw on dupes, but
    # pin it directly).
    before_edges, before_count = _edge_multiset(partition)
    after_edges, after_count = _edge_multiset(refined)
    assert after_edges == before_edges
    assert after_count == before_count
    assert len(set(after_edges)) == after_count

    # (c) monotone RF: replicas only ever go down.
    assert total_replicas(refined) <= total_replicas(partition)
    assert stats.replicas_after == total_replicas(refined)
    assert stats.replicas_before == total_replicas(partition)
    assert stats.rf_delta >= 0

    # (d) determinism: bit-identical second run.
    again, stats2 = refine_partition(partition, **options)
    assert [again.edges_of(k) for k in range(again.num_partitions)] == [
        refined.edges_of(k) for k in range(refined.num_partitions)
    ]
    assert (stats2.moves, stats2.swaps, stats2.passes) == (
        stats.moves,
        stats.swaps,
        stats.passes,
    )


def _assert_store_bit_identical(opened, rebuilt, vertices):
    """Every observable of ``opened`` == the from-scratch rebuild."""
    assert opened.num_edges == rebuilt.num_edges
    assert opened.num_vertices == rebuilt.num_vertices
    assert opened.num_partitions == rebuilt.num_partitions
    assert opened.partition_sizes() == rebuilt.partition_sizes()
    assert opened.total_replicas() == rebuilt.total_replicas()
    # Bitwise float equality, not approx.
    assert opened.replication_factor() == rebuilt.replication_factor()
    for k in range(opened.num_partitions):
        assert opened.partition_stats(k) == rebuilt.partition_stats(k)
    for v in vertices:
        assert opened.master_of(v) == rebuilt.master_of(v)
        assert opened.replicas_of(v) == rebuilt.replicas_of(v)
        assert opened.neighbors(v) == rebuilt.neighbors(v)


@given(partition=partitioned_graphs(), options=REFINE_OPTIONS)
@settings(max_examples=15, deadline=None)
def test_refined_bundle_round_trips_on_both_backends(partition, options):
    """(e): save -> refine_bundle -> open(sidecar|legacy) == oracle."""
    root = Path(tempfile.mkdtemp(prefix="refine-rt-"))
    try:
        bundle = root / "bundle"
        save_partition(partition, bundle)
        refine_bundle(bundle, **options)
        refined = load_partition(bundle)
        rebuilt = DictStore(refined)
        vertices = sorted(set().union(*refined.vertex_sets()))
        legacy = strip_sidecar(shutil.copytree(bundle, root / "legacy"))
        for directory in (bundle, legacy):
            opened = PartitionStore.open(directory)
            _assert_store_bit_identical(opened, rebuilt, vertices)
    finally:
        shutil.rmtree(root, ignore_errors=True)


# -- mutation-stream state machine ------------------------------------------

_WORLD = None


def _world():
    """Build the base graph + bundle once per test session."""
    global _WORLD
    if _WORLD is None:
        from repro.graph.generators import holme_kim
        from repro.partitioning.registry import make_partitioner

        graph = holme_kim(80, 3, 0.4, seed=9)
        partition = make_partitioner("DBH", seed=0).partition(graph, 3)
        root = Path(tempfile.mkdtemp(prefix="refine-sm-world-"))
        save_partition(partition, root / "bundle")
        _WORLD = {"graph": graph, "bundle": root / "bundle"}
    return _WORLD


class RefineCompactionMachine(RuleBasedStateMachine):
    """Random mutation streams against a refine-on-compact ingestor.

    The model is just the expected edge set; the system under test is
    the full stack — WAL, overlay, refined compaction fold, epoch swap
    through ``StoreManager``.  Rules interleave inserts (known and fresh
    vertices), deletes, offline-refine attempts (which must be refused
    exactly while mutations pend), and refined compactions (which must
    publish a no-worse RF and keep the edge set exact).
    """

    def __init__(self):
        super().__init__()
        world = _world()
        self.graph = world["graph"]
        self.root = Path(tempfile.mkdtemp(prefix="refine-sm-"))
        self.bundle = self.root / "bundle"
        shutil.copytree(world["bundle"], self.bundle)
        self.manager = StoreManager(PartitionStore.open(self.bundle))
        self.ingestor = Ingestor.enable(
            self.manager, self.bundle, fsync="never", refine_on_compact=True
        )
        self.edges = set(self.graph.edges())
        self.vertices = sorted(self.graph.vertices())
        self.fresh = self.vertices[-1] + 1

    @rule(a=st.integers(0, 10_000), b=st.integers(0, 10_000))
    def insert_known(self, a, b):
        u = self.vertices[a % len(self.vertices)]
        v = self.vertices[b % len(self.vertices)]
        if u == v:
            return
        key = (min(u, v), max(u, v))
        if key in self.edges:
            return
        self.ingestor.insert_edge(u, v)
        self.edges.add(key)

    @rule(pick=st.integers(0, 10_000))
    def insert_fresh(self, pick):
        u = self.vertices[pick % len(self.vertices)]
        v = self.fresh
        self.fresh += 1
        self.ingestor.insert_edge(u, v)
        self.edges.add((min(u, v), max(u, v)))
        self.vertices.append(v)

    @rule(pick=st.integers(0, 10_000))
    def delete(self, pick):
        if not self.edges:
            return
        u, v = sorted(self.edges)[pick % len(self.edges)]
        self.ingestor.delete_edge(u, v)
        self.edges.remove((u, v))

    @rule()
    def offline_refine_refused_while_pending(self):
        """The typed guard: exactly the reload-guard contract."""
        if self.ingestor.overlay.pending_mutations == 0:
            return
        with pytest.raises(PendingMutationsError):
            refine_bundle(self.bundle)

    @rule()
    def compact_with_refine(self):
        epoch_before = self.manager.epoch
        info = self.ingestor.compact_sync()
        if info.get("skipped"):
            assert self.manager.epoch == epoch_before
            return
        assert self.manager.epoch == epoch_before + 1
        refined = info["refined"]
        assert refined["rf_after"] <= refined["rf_before"] + 1e-9
        # Per-epoch RF attribution: the published epoch serves exactly
        # the refined RF, and the manifest agrees.
        live_rf = self.manager.store.replication_factor()
        assert abs(live_rf - refined["rf_after"]) < 1e-6
        # Post-swap the bundle is clean again: offline refine is allowed.
        assert self.ingestor.overlay.pending_mutations == 0
        refine_bundle(self.bundle)

    def check_edges_exact(self):
        store = self.manager.store
        assert store.num_edges == len(self.edges)
        for u, v in sorted(self.edges)[:10]:
            assert store.edge_exists(u, v)

    def teardown(self):
        self.check_edges_exact()
        self.ingestor.close()
        shutil.rmtree(self.root, ignore_errors=True)


TestRefineCompactionMachine = RefineCompactionMachine.TestCase
TestRefineCompactionMachine.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None
)
