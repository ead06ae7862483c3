"""Wire parity: every store serves the same answers over the binary wire.

The contract: the CSR store, the dict-of-sets oracle
(``tests/service/oracle.py``) and the ingest overlay over either give
**the same answer** for every operation — success results and errors,
code *and* message — and the oracle's served answers equal its
in-process ones.

"Same answer" is checked at the byte level: decoded responses are
re-encoded through the canonical binary value encoder
(``protocol.encode_value``) and compared as bytes, so a silent type
coercion (bool -> int, bigint -> float) would fail even when ``==``
passes.

No pytest-asyncio in the toolchain — each test drives its own loop via
``asyncio.run``.
"""

import asyncio

import pytest

from repro.core.tlp import TLPPartitioner
from repro.partitioning.serialization import save_partition
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.handler import ServiceHandler
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


def _record(ok, result=None, epoch=None, code=None, message=None):
    """One answer, normalised: results verbatim, errors as (code, message)."""
    if ok:
        return {"ok": True, "result": result, "epoch": epoch}
    return {"ok": False, "code": code, "message": message}


async def _collect(address, probes):
    """Answer every probe on one binary connection."""
    client = ServiceClient(*address, max_retries=0)
    bodies = []
    async with client:
        for op, args in probes:
            try:
                result, epoch = await client.call_with_epoch(op, **args)
                bodies.append(_record(True, result, epoch))
            except ServiceError as exc:
                bodies.append(_record(False, code=exc.code, message=str(exc)))
    return bodies


def _in_process(store, probes):
    """The same probes answered by a handler in this process."""
    handler = ServiceHandler(store)
    bodies = []
    for i, (op, args) in enumerate(probes):
        response = handler.execute(protocol.request(i, op, args))
        if response["ok"]:
            bodies.append(_record(True, response["result"], response.get("epoch")))
        else:
            error = response["error"]
            message = str(ServiceError(error["code"], error["message"]))
            bodies.append(_record(False, code=error["code"], message=message))
    return bodies


def _assert_byte_identical(left, right, probes):
    assert len(left) == len(right) == len(probes)
    for probe, a, b in zip(probes, left, right):
        ea = protocol.encode_value(a)
        eb = protocol.encode_value(b)
        assert ea == eb, f"divergence on {probe}: {a!r} != {b!r}"


def _serve(server_cm, probes):
    async def go():
        async with server_cm as server:
            return await _collect(server.address, probes)

    return asyncio.run(go())


class TestSingleProcessParity:
    def test_dict_backend(self, graph, bundle):
        """The oracle answers the same over the wire as in process."""
        probes = _probe_requests(graph)
        served = _serve(PartitionServer(DictStore.open(bundle)), probes)
        oracle = _in_process(DictStore.open(bundle), probes)
        _assert_byte_identical(served, oracle, probes)

    def test_csr_backend(self, graph, bundle):
        """The CSR store serves byte-identical answers to the dict oracle."""
        probes = _probe_requests(graph)
        served = _serve(PartitionServer(PartitionStore.open(bundle)), probes)
        oracle = _serve(PartitionServer(DictStore.open(bundle)), probes)
        _assert_byte_identical(served, oracle, probes)

    def test_ingest_overlay(self, graph, bundle, tmp_path):
        """Mutate first so reads are answered by the delta overlay, over
        the CSR store and over the dict oracle alike."""
        fresh = 10_000
        probes = _probe_requests(graph)
        probes += [
            ("neighbors", {"v": fresh}),
            ("master", {"v": fresh + 3}),
            ("edge", {"u": fresh, "v": fresh + 1}),
            ("ingest_stats", {}),
        ]
        answers = []
        for name, store in (
            ("csr", PartitionStore.open(bundle)),
            ("dict", DictStore.open(bundle)),
        ):
            manager = StoreManager(store)
            ingestor = Ingestor.enable(
                manager, tmp_path / f"{name}-overlay", wal_path=tmp_path / f"{name}-wal"
            )
            for i in range(8):
                ingestor.insert_edge(fresh + i, fresh + i + 1)
            bodies = _serve(PartitionServer(manager, ingestor=ingestor), probes)
            # ingest_stats reports wal fsync timings — drop the volatile
            # fields but keep the structural ones.
            result = bodies[-1].get("result") or {}
            for key in list(result):
                if "seconds" in key or "bytes" in key:
                    result.pop(key)
            answers.append(bodies)
        _assert_byte_identical(*answers, probes)
