"""Batch answering parity: vectorised ``*_many`` == scalar, everywhere.

The acceptance property of the batch path is that it is invisible: for
every op, every base store (the dict-of-sets oracle / the CSR store),
every overlay state (clean store / live ``DeltaOverlay`` mid-mutation),
and every bundle provenance (as-partitioned / post-refinement), the
vectorised batch methods and the handler's ``execute_batch`` answer
bit-identically to the scalar path, down to Python int types in the
payloads — and the CSR store's batches equal the oracle's.

The refined variants pin that local-search refinement is invisible to
the serving layer too: a refined partition routes differently (that is
the point) but answers every query self-consistently, and — unlike the
overlay variants — still verifies against the input graph, because
refinement conserves the edge set exactly.
"""

import pytest

from repro.core.tlp import TLPPartitioner
from repro.graph.graph import normalize_edge
from repro.partitioning.refine import refine_partition
from repro.service import protocol
from repro.service.handler import ServiceHandler
from repro.service.ingest import DeltaOverlay
from repro.service.store import PartitionStore
from tests.service.oracle import DictStore

P = 4


@pytest.fixture(scope="module")
def graph():
    from repro.graph.generators import holme_kim

    return holme_kim(300, 4, 0.6, seed=7)


@pytest.fixture(scope="module")
def partition(graph):
    return TLPPartitioner(seed=0).partition(graph, P)


@pytest.fixture(scope="module")
def refined_partition(partition):
    refined, stats = refine_partition(partition, slack=1.05)
    assert stats.rf_delta >= 0
    return refined


def _mutate(overlay, graph, partition):
    """A deterministic mid-mutation state touching every delta table."""
    edges = sorted(partition.edges_of(0))[:6] + sorted(partition.edges_of(1))[:6]
    moved, dropped = edges[::2], edges[1::2]
    for u, v in dropped:
        overlay.apply_delete(u, v)
    for u, v in moved:
        was = overlay.apply_delete(u, v)
        overlay.apply_insert(u, v, (was + 1) % P)
    fresh = max(graph.vertices()) + 1
    anchor = min(graph.vertices())
    overlay.apply_insert(anchor, fresh, 2)  # brand-new vertex
    return overlay


def _variants(graph, partition, refined_partition):
    return {
        "dict-clean": DictStore(partition),
        "csr-clean": PartitionStore.from_partition(partition),
        "dict-overlay": _mutate(DeltaOverlay(DictStore(partition)), graph, partition),
        "csr-overlay": _mutate(
            DeltaOverlay(PartitionStore.from_partition(partition)),
            graph,
            partition,
        ),
        "dict-refined": DictStore(refined_partition),
        "csr-refined": PartitionStore.from_partition(refined_partition),
    }


@pytest.fixture(
    scope="module",
    params=[
        "dict-clean",
        "csr-clean",
        "dict-overlay",
        "csr-overlay",
        "dict-refined",
        "csr-refined",
    ],
)
def store(request, graph, partition, refined_partition):
    return _variants(graph, partition, refined_partition)[request.param]


def _probe_vertices(graph, store):
    vs = sorted(graph.vertices())
    probes = vs + [-1, max(vs) + 1, max(vs) + 7]  # misses interleaved
    if isinstance(store, DeltaOverlay):
        probes.append(max(vs) + 1)  # the overlay-inserted fresh vertex
    return probes


def _probe_edges(graph, store, partition):
    pairs = []
    for u, v in list(graph.edges())[:200]:
        pairs.append((u, v))
        pairs.append((v, u))  # reversed orientation
    pairs += [(-1, 0), (0, 10**9)]  # misses
    pairs += [tuple(e) for e in sorted(partition.edges_of(0))[:12]]  # incl. deleted
    return pairs


class TestStoreBatchParity:
    def test_route_many_matches_scalar(self, store, graph, partition):
        probes = _probe_vertices(graph, store)
        batched = store.route_many(probes)
        assert len(batched) == len(probes)
        for v, route in zip(probes, batched):
            try:
                master = store.master_of(v)
            except KeyError:
                assert route is None
                continue
            assert route is not None
            assert route[0] == master and type(route[0]) is int
            assert tuple(route[1]) == tuple(store.replicas_of(v))
            assert all(type(k) is int for k in route[1])

    def test_neighbors_many_matches_scalar(self, store, graph, partition):
        probes = _probe_vertices(graph, store)
        batched = store.neighbors_many(probes)
        assert len(batched) == len(probes)
        for v, row in zip(probes, batched):
            try:
                neighbours = sorted(store.neighbors(v))
            except KeyError:
                assert row is None
                continue
            assert row is not None
            assert row[0] == neighbours
            assert all(type(n) is int for n in row[0])
            assert tuple(row[1]) == tuple(store.replicas_of(v))

    def test_owners_many_matches_scalar(self, store, graph, partition):
        pairs = _probe_edges(graph, store, partition)
        batched = store.owners_many(pairs)
        assert len(batched) == len(pairs)
        for (u, v), owner in zip(pairs, batched):
            try:
                expected = store.owner_of_edge(u, v)
            except KeyError:
                assert owner is None
                continue
            assert owner == expected and type(owner) is int


@pytest.mark.parametrize("state", ["clean", "overlay", "refined"])
def test_csr_batches_match_oracle(state, graph, partition, refined_partition):
    """Every ``*_many`` answer of the CSR store equals the oracle's."""
    variants = _variants(graph, partition, refined_partition)
    csr, oracle = variants[f"csr-{state}"], variants[f"dict-{state}"]
    probes = _probe_vertices(graph, csr)
    pairs = _probe_edges(graph, csr, partition)
    assert csr.route_many(probes) == oracle.route_many(probes)
    assert csr.neighbors_many(probes) == oracle.neighbors_many(probes)
    assert csr.owners_many(pairs) == oracle.owners_many(pairs)
    assert csr.stats() == oracle.stats()


def _scalar_read(store, request, epoch):
    """The response to a routing read with int args, from scalar store calls.

    An independent reference for the handler's bulk read pass; ``None``
    for any other request.
    """
    op, args, rid = request["op"], request["args"], request["id"]
    if op not in ("master", "neighbors", "edge") or not all(
        type(a) is int for a in args.values()
    ):
        return None
    if op == "edge" and args["u"] == args["v"]:
        return None  # a self loop is bad_request, not a read
    try:
        if op == "master":
            v = args["v"]
            result = {
                "v": v,
                "master": store.master_of(v),
                "mirrors": list(store.mirrors_of(v)),
                "replicas": list(store.replicas_of(v)),
            }
        elif op == "neighbors":
            v = args["v"]
            partitions = list(store.replicas_of(v))
            if not partitions:
                raise KeyError(v)
            result = {
                "v": v,
                "neighbors": sorted(store.neighbors(v)),
                "partitions": partitions,
            }
        else:
            u, v = args["u"], args["v"]
            try:
                owner = store.owner_of_edge(u, v)
            except KeyError:
                raise KeyError(normalize_edge(u, v)) from None
            result = {"u": u, "v": v, "partition": owner}
    except KeyError as exc:
        return protocol.error_response(
            rid, protocol.NOT_FOUND, f"not in store: {exc.args[0]!r}", epoch=epoch
        )
    return protocol.ok_response(rid, result, epoch=epoch)


class TestHandlerBatchParity:
    def _requests(self, graph, partition):
        vs = sorted(graph.vertices())
        requests = []
        i = 0

        def add(op, **args):
            nonlocal i
            requests.append({"id": i, "op": op, "args": args})
            i += 1

        for v in vs[:40]:
            add("master", v=v)
            add("neighbors", v=v)
        for u, v in list(graph.edges())[:40]:
            add("edge", u=u, v=v)
        add("master", v=vs[0])  # duplicate — coalesced, same answer
        add("neighbors", v=-5)  # miss
        add("edge", u=3, v=3)  # self-loop -> scalar fallback
        add("master", v="zz")  # bad args -> scalar fallback
        add("partition_stats", k=0)  # non-vector op
        add("stats")
        return requests

    def test_execute_batch_equals_execute(self, store, graph, partition):
        requests = self._requests(graph, partition)
        batch_handler = ServiceHandler(store)
        batched = batch_handler.execute_batch(requests)
        scalar_handler = ServiceHandler(store)
        epoch = scalar_handler.manager.epoch
        # Routing reads are checked against responses built from the
        # store's scalar methods, every other request against execute().
        scalar = [
            _scalar_read(store, r, epoch) or scalar_handler.execute(r)
            for r in requests
        ]
        for request, b, s in zip(requests, batched, scalar):
            if request["op"] == "stats":
                # The stats payload embeds the answering handler's own
                # live metrics, which differ between instances by design.
                b = dict(b, result=dict(b["result"]))
                s = dict(s, result=dict(s["result"]))
                b["result"].pop("metrics"), s["result"].pop("metrics")
            assert b == s, f"divergence on {request}"

    def test_batch_answers_verify_against_graph(self, store, graph, partition):
        handler = ServiceHandler(store)
        if isinstance(store, DeltaOverlay):
            pytest.skip("overlay answers diverge from the input graph by design")
        vs = sorted(graph.vertices())[:60]
        responses = handler.execute_batch(
            [{"id": v, "op": "neighbors", "args": {"v": v}} for v in vs]
        )
        for v, response in zip(vs, responses):
            assert response["ok"], response
            assert set(response["result"]["neighbors"]) == graph.neighbors(v)

    def test_vectorised_counter_advances(self, graph, partition):
        store = PartitionStore.from_partition(partition)
        handler = ServiceHandler(store)
        vs = sorted(graph.vertices())[:10]
        handler.execute_batch(
            [{"id": v, "op": "master", "args": {"v": v}} for v in vs]
        )
        counters = handler.metrics.snapshot()["counters"]
        assert counters["requests_vectorised"] == len(vs)
        assert counters["batch_requests_total"] == len(vs)

    def test_mutation_mid_batch_flushes_reads(self, graph, partition):
        """Reads admitted before a mutation answer from the old snapshot."""
        overlay = DeltaOverlay(PartitionStore.from_partition(partition))
        handler = ServiceHandler(overlay)
        u, v = sorted(partition.edges_of(0))[0]
        requests = [
            {"id": 0, "op": "edge", "args": {"u": u, "v": v}},
            {
                "id": 1,
                "op": "delete_edge",
                "args": {"u": u, "v": v},
            },
            {"id": 2, "op": "edge", "args": {"u": u, "v": v}},
        ]
        # Without an ingestor the mutation fails, but it still must act as
        # a batch barrier; wire a real ingestor for the full behaviour.
        responses = handler.execute_batch(requests)
        assert responses[0]["ok"]
        assert responses[0]["result"]["partition"] == overlay.owner_of_edge(u, v)


BEYOND_INT64 = [2**70, -(2**70), 2**63]


@pytest.mark.parametrize("big", BEYOND_INT64)
def test_beyond_int64_ids_are_batched_misses(big, graph, partition):
    """An id no int64 array can hold is a plain miss inside the bulk pass.

    Its ``not_found`` response is byte-identical on the wire to the one
    the scalar path gives, and it no longer pushes the valid requests of
    its batch off the bulk pass.
    """
    from repro.service import protocol

    store = PartitionStore.from_partition(partition)
    u, v = sorted(partition.edges_of(0))[0]
    requests = [
        {"id": 0, "op": "neighbors", "args": {"v": big}},
        {"id": 1, "op": "master", "args": {"v": big}},
        {"id": 2, "op": "edge", "args": {"u": big, "v": v}},
        {"id": 3, "op": "edge", "args": {"u": u, "v": big}},
        {"id": 4, "op": "neighbors", "args": {"v": u}},
        {"id": 5, "op": "master", "args": {"v": u}},
        {"id": 6, "op": "edge", "args": {"u": u, "v": v}},
    ]
    handler = ServiceHandler(store)
    batched = handler.execute_batch(requests)
    scalar = [ServiceHandler(store).execute(r) for r in requests]
    missing = [big, big, normalize_edge(big, v), normalize_edge(u, big)]
    for i, what in enumerate(missing):
        expected = protocol.error_response(
            i, protocol.NOT_FOUND, f"not in store: {what!r}", epoch=store.epoch
        )
        frame = protocol.encode_frame(batched[i])
        assert frame == protocol.encode_frame(expected)
        assert frame == protocol.encode_frame(scalar[i])
    assert batched[4:] == scalar[4:]
    assert all(r["ok"] for r in batched[4:])
    counters = handler.metrics.snapshot()["counters"]
    assert counters["requests_vectorised"] == len(requests)
    assert counters["requests_not_found"] == len(missing)
