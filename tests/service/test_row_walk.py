"""The store's row walk answers exactly as the dict-of-sets oracle.

``PartitionStore`` answers every read by bisecting int64 memoryviews of
its CSR arrays, one item at a time, whatever the batch size.  This suite
pins the three batch methods at batch sizes 1, 2 and 64, and the scalar
methods on every covered vertex, against
:class:`~tests.service.oracle.DictStore` — over a TLP and a DBH bundle,
a bundle with an empty partition, an empty store and a legacy bundle
whose arrays are rebuilt in memory, with misses, negative ids and ids
beyond int64 mixed in.
"""

import random

import numpy as np
import pytest

from repro.core.tlp import TLPPartitioner
from repro.graph.generators import holme_kim
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.registry import make_partitioner
from repro.partitioning.serialization import save_partition
from repro.service.store import PartitionStore
from tests.service.oracle import DictStore, strip_sidecar

P = 4
BATCH_SIZES = (1, 2, 64)
MISSES = [-1, -7, -(2**70), 2**63, 2**70]


@pytest.fixture(scope="module")
def graph():
    return holme_kim(150, 3, 0.5, seed=5)


def _tlp(graph):
    return TLPPartitioner(seed=0).partition(graph, P)


def _with_empty_part(graph):
    parts = [list(_tlp(graph).edges_of(k)) for k in range(P)]
    return EdgePartition(parts[:2] + [[]] + parts[2:])


BUNDLES = {
    "tlp": _tlp,
    "dbh": lambda graph: make_partitioner("DBH", seed=3).partition(graph, P),
    "empty-partition": _with_empty_part,
    "legacy": _tlp,
}


@pytest.fixture(scope="module", params=sorted(BUNDLES) + ["empty-store"])
def stores(request, graph, tmp_path_factory):
    """``(row-walk store, oracle)`` over one bundle."""
    if request.param == "empty-store":
        partition = EdgePartition([[], []])
        return PartitionStore.from_partition(partition), DictStore(partition)
    directory = tmp_path_factory.mktemp("row-walk") / request.param
    save_partition(BUNDLES[request.param](graph), directory)
    if request.param == "legacy":
        strip_sidecar(directory)
    store = PartitionStore.open(directory)
    memmapped = isinstance(store._csr.vertex_ids, np.memmap)
    assert memmapped == (request.param != "legacy")
    return store, DictStore.open(directory)


def _probes(store):
    covered = [int(v) for v in store._csr.vertex_ids]
    top = max(covered, default=0)
    misses = MISSES + [top + 1, top + 1000]
    gaps = sorted(set(range(top)) - set(covered))[:5]  # ids between rows
    probes = covered + misses + gaps
    random.Random(1).shuffle(probes)
    return covered, probes


def _pairs(store, oracle):
    edges = [e for k in range(oracle.num_partitions) for e in oracle.partition.edges_of(k)]
    covered, probes = _probes(store)
    rng = random.Random(2)
    pairs = edges + [(v, u) for u, v in edges]
    pairs += [(rng.choice(probes), rng.choice(probes)) for _ in range(300)]
    pairs += [(m, v) for m in MISSES for v in covered[:3]]
    pairs = [(u, v) for u, v in pairs if u != v]
    rng.shuffle(pairs)
    return pairs


def _batched(method, items, size):
    out = []
    for first in range(0, len(items), size):
        out.extend(method(items[first : first + size]))
    return out


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_batch_methods_match_oracle(stores, size):
    store, oracle = stores
    _, probes = _probes(store)
    pairs = _pairs(store, oracle)
    routes = _batched(store.route_many, probes, size)
    assert routes == oracle.route_many(probes)
    assert _batched(store.neighbors_many, probes, size) == oracle.neighbors_many(probes)
    owners = _batched(store.owners_many, pairs, size)
    assert owners == oracle.owners_many(pairs)
    for route in routes:
        if route is not None:
            assert type(route[0]) is int
            assert all(type(k) is int for k in route[1])
    assert all(owner is None or type(owner) is int for owner in owners)


def test_scalar_methods_match_oracle(stores):
    store, oracle = stores
    covered, probes = _probes(store)
    assert store.num_vertices == oracle.num_vertices == len(covered)
    for v in probes:
        assert store.has_vertex(v) == oracle.has_vertex(v)
        assert store.replicas_of(v) == oracle.replicas_of(v)
        for k in range(store.num_partitions):
            assert store.local_neighbors(v, k) == oracle.local_neighbors(v, k)
            assert store.local_degree(v, k) == oracle.local_degree(v, k)
        if not oracle.has_vertex(v):
            for method in (store.master_of, store.mirrors_of, store.neighbors):
                with pytest.raises(KeyError):
                    method(v)
            continue
        assert store.master_of(v) == oracle.master_of(v)
        assert store.mirrors_of(v) == oracle.mirrors_of(v)
        assert store.neighbors(v) == oracle.neighbors(v)
    for u, v in _pairs(store, oracle):
        try:
            expected = oracle.owner_of_edge(u, v)
        except KeyError:
            with pytest.raises(KeyError):
                store.owner_of_edge(u, v)
            continue
        assert store.owner_of_edge(u, v) == expected
