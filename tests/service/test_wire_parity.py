"""Binary/JSON wire parity: the acceptance suite for the frame codec.

The contract: a binary-wire client receives **the same answer** as a
JSON-wire client for every operation — success results and errors,
code *and* message — across every store (the CSR store, the dict-of-sets
oracle, the ingest overlay).

"Same answer" is checked at the byte level: both decoded responses are
re-encoded through the canonical JSON body encoder and compared as
bytes, so a codec that silently coerced a type (bool -> int, bigint ->
float) would fail even when ``==`` passes.

No pytest-asyncio in the toolchain — each test drives its own loop via
``asyncio.run``.
"""

import asyncio

import pytest

from repro.core.tlp import TLPPartitioner
from repro.partitioning.serialization import save_partition
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.ingest import Ingestor
from repro.service.server import PartitionServer
from repro.service.store import PartitionStore, StoreManager
from tests.service.oracle import DictStore


@pytest.fixture(scope="module")
def graph():
    from repro.graph.generators import holme_kim

    return holme_kim(120, 3, 0.4, seed=11)


@pytest.fixture(scope="module")
def bundle(graph, tmp_path_factory):
    directory = tmp_path_factory.mktemp("wire-parity") / "bundle"
    partition = TLPPartitioner(seed=3).partition(graph, 4)
    save_partition(partition, directory, metadata={"suite": "wire-parity"})
    return directory


def _probe_requests(graph):
    """One request per op shape: hits, misses, and argument errors."""
    vertices = sorted(graph.vertices())
    u, w = next(iter(graph.edges()))
    probes = [("ping", {})]
    for v in vertices[:25] + [10**9]:
        probes.append(("master", {"v": v}))
        probes.append(("neighbors", {"v": v}))
    probes += [
        ("edge", {"u": u, "v": w}),
        ("edge", {"u": u, "v": 10**9}),
        ("neighbors", {"v": "five"}),
        ("edge", {"u": u}),
        ("partition_stats", {"p": 0}),
        ("partition_stats", {"p": 99}),
        ("explode", {}),
    ]
    return probes


async def _collect(address, wire, probes):
    """Answer every probe on one connection; return normalised response
    records — success results verbatim, errors as (code, message)."""
    from repro.service.client import ServiceError

    client = ServiceClient(*address, max_retries=0, wire=wire)
    bodies = []
    async with client:
        for op, args in probes:
            try:
                result, epoch = await client.call_with_epoch(op, **args)
                bodies.append({"ok": True, "result": result, "epoch": epoch})
            except ServiceError as exc:
                bodies.append(
                    {"ok": False, "code": exc.code, "message": str(exc)}
                )
    return bodies


def _assert_byte_identical(json_bodies, binary_bodies, probes):
    assert len(json_bodies) == len(binary_bodies) == len(probes)
    for probe, a, b in zip(probes, json_bodies, binary_bodies):
        ja = protocol.encode_json_body(a)
        jb = protocol.encode_json_body(b)
        assert ja == jb, f"codec divergence on {probe}: {a!r} != {b!r}"


def _run_parity(server_cm, graph):
    probes = _probe_requests(graph)

    async def go():
        async with server_cm as server:
            json_bodies = await _collect(server.address, "json", probes)
            binary_bodies = await _collect(server.address, "binary", probes)
        return json_bodies, binary_bodies

    json_bodies, binary_bodies = asyncio.run(go())
    _assert_byte_identical(json_bodies, binary_bodies, probes)
    return json_bodies


class TestSingleProcessParity:
    def test_dict_backend(self, graph, bundle):
        _run_parity(PartitionServer(DictStore.open(bundle)), graph)

    def test_csr_backend(self, graph, bundle):
        """The CSR store serves byte-identical answers to the dict oracle."""
        served = _run_parity(PartitionServer(PartitionStore.open(bundle)), graph)
        oracle = _run_parity(PartitionServer(DictStore.open(bundle)), graph)
        _assert_byte_identical(served, oracle, _probe_requests(graph))

    def test_ingest_overlay(self, graph, bundle, tmp_path):
        """Mutate first so reads are answered by the delta overlay."""
        manager = StoreManager(PartitionStore.open(bundle))
        ingestor = Ingestor.enable(
            manager, tmp_path / "overlay-bundle", wal_path=tmp_path / "wal"
        )
        fresh = 10_000
        for i in range(8):
            ingestor.insert_edge(fresh + i, fresh + i + 1)
        probes = _probe_requests(graph)
        probes += [
            ("neighbors", {"v": fresh}),
            ("master", {"v": fresh + 3}),
            ("edge", {"u": fresh, "v": fresh + 1}),
            ("ingest_stats", {}),
        ]

        async def go():
            async with PartitionServer(manager, ingestor=ingestor) as server:
                json_bodies = await _collect(server.address, "json", probes)
                binary_bodies = await _collect(server.address, "binary", probes)
            return json_bodies, binary_bodies

        json_bodies, binary_bodies = asyncio.run(go())
        # ingest_stats reports wal fsync timings — drop the volatile
        # fields but keep the structural ones.
        for bodies in (json_bodies, binary_bodies):
            result = bodies[-1].get("result") or {}
            for key in list(result):
                if "seconds" in key or "bytes" in key:
                    result.pop(key)
        _assert_byte_identical(json_bodies, binary_bodies, probes)
