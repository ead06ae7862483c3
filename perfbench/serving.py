"""Serving stages: ``python -m repro serve`` in its own process, load from this one.

Stage R serves the TLP bundle read-only and drives it with binary-wire
clients, first as a closed loop (a fixed number of pipelined in-flight
calls per connection, like engine workers that each wait for a reply),
then as an open loop at one fixed rate (independent users; every request
is timed from when it was due).  Stage W serves a copy of the refined
bundle with ``--wal --fsync always --refine-on-compact``: one closed-loop
writer inserts and deletes edges among a reserved set of vertices and
issues a ``compact`` every fixed number of mutations, while open-loop
readers query the other vertices.  The writer sends on a fixed schedule
(and catches up after a compaction), so a run's mix of writes, reads and
compactions does not depend on how fast the host runs.

Load comes from at most two connections (``ServiceClient(max_retries=0)``,
so every error or timeout is counted, never retried).  Answers are
recorded and checked after the timed window.  The ``replay_*`` functions
give the per-layer numbers: they replay the recorded traffic in-process
with a span around every call into a layer's public functions.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from util import (NullTracer, Tracer, gc_paused, median, patched, proc_cpu_s, quantile,
                  spawn)

#: Read mix (op, weight): neighbour fan-out dominates, like a gather step.
READ_MIX: Sequence[Tuple[str, float]] = (
    ("neighbors", 0.45),
    ("master", 0.25),
    ("edge", 0.20),
    ("partition_stats", 0.05),
    ("stats", 0.05),
)
CONNECTIONS = 2
#: Closed-loop sampling period: the server's CPU seconds are read every
#: slice, so each slice is normalised with the host's speed at the time.
SLICE_S = 0.5
CALL_TIMEOUT_S = 10.0
COMPACT_TIMEOUT_S = 120.0


def _failures():
    from repro.service.client import ServiceError

    return (ServiceError, asyncio.TimeoutError, ConnectionError, OSError,
            asyncio.IncompleteReadError)


class Server:
    """One ``python -m repro serve`` child, logging to a file."""

    def __init__(self, bundle: Path, log: Path, extra: Sequence[str] = ()) -> None:
        self.argv = [sys.executable, "-u", "-m", "repro", "serve", str(bundle),
                     "--port", "0", *extra]
        self.log = log
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> Tuple[float, float, float]:
        """Start and wait until it answers ``ping``.

        Returns ``(cpu_s, start, end)``: the server's CPU seconds up to
        its answer, and the monotonic interval they were spent in.
        """
        from repro.service.client import SyncServiceClient

        started = time.monotonic()
        with open(self.log, "wb") as log:
            self.proc = spawn(self.argv, stdout=log, stderr=subprocess.STDOUT)
        deadline = started + 60.0
        while True:
            match = re.search(r"serving on [^:\s]+:(\d+)", self.log.read_text())
            if match:
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start:\n{self.log.read_text()}")
            time.sleep(0.002)
        self.port = int(match.group(1))
        with SyncServiceClient("127.0.0.1", self.port, max_retries=0) as client:
            client.call("ping")
        return self.cpu_s(), started, time.monotonic()

    def cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (drain, flush the WAL) and wait; kill if it hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


def _client(port: int, **kwargs):
    from repro.service.client import ServiceClient

    kwargs.setdefault("call_timeout", CALL_TIMEOUT_S)
    return ServiceClient("127.0.0.1", port, max_retries=0, wire="binary", **kwargs)


async def _server_stats(port: int) -> Dict:
    async with _client(port) as client:
        return await client.stats()


# -- read traffic ---------------------------------------------------------------


def read_requests(graph, num_partitions: int, count: int, seed: int) -> List[Tuple[str, Dict]]:
    """``count`` requests drawn from :data:`READ_MIX`.

    Vertices are edge endpoints drawn uniformly, so a vertex is picked in
    proportion to its degree, as a gather step over edges would pick it.
    """
    rng = np.random.default_rng(seed)
    edges = np.asarray(graph.edge_list(), dtype=np.int64)
    ops = [op for op, _w in READ_MIX]
    codes = rng.choice(len(ops), size=count, p=[w for _op, w in READ_MIX]).tolist()
    vertices = edges.ravel()[rng.integers(0, edges.size, count)].tolist()
    picks = edges[rng.integers(0, len(edges), count)].tolist()
    ks = rng.integers(0, num_partitions, count).tolist()
    out: List[Tuple[str, Dict]] = []
    for code, v, (a, b), k in zip(codes, vertices, picks, ks):
        op = ops[code]
        if op in ("neighbors", "master"):
            out.append((op, {"v": v}))
        elif op == "edge":
            out.append((op, {"u": a, "v": b}))
        elif op == "partition_stats":
            out.append((op, {"k": k}))
        else:
            out.append((op, {}))
    return out


async def closed_loop(port: int, requests, offset: int, seconds: float, depth: int,
                      results: Optional[list], server: Optional["Server"] = None,
                      slice_s: float = SLICE_S) -> Dict[str, object]:
    """``depth`` pipelined callers per connection, for ``seconds``.

    Every ``slice_s`` the server's CPU seconds (with ``server``) are
    sampled; ``"slices"`` holds ``(start, end, server_cpu_s)`` per slice.
    Throughput is completed calls over the whole window.
    """
    failures = _failures()
    counter = itertools.count(offset)
    n = len(requests)
    done = [0, 0]
    stop = False

    async def caller(client) -> None:
        while not stop:
            i = next(counter)
            op, args = requests[i % n]
            try:
                result = await client.call(op, **args)
            except failures:
                done[1] += 1
                continue
            done[0] += 1
            if results is not None:
                results.append((i % n, result))

    def sample() -> Tuple[float, int, float, float]:
        cpu = server.cpu_s() if server is not None else 0.0
        return time.monotonic(), done[0], cpu, time.process_time()

    clients = [_client(port) for _ in range(CONNECTIONS)]
    for client in clients:
        await client.connect()
    try:
        samples = [sample()]
        tasks = [asyncio.create_task(caller(c)) for c in clients for _ in range(depth)]
        while samples[-1][0] - samples[0][0] < seconds - 1e-3:
            await asyncio.sleep(min(slice_s, seconds - (samples[-1][0] - samples[0][0])))
            samples.append(sample())
        stop = True
        await asyncio.gather(*tasks)
    finally:
        for client in clients:
            await client.close()
    elapsed = samples[-1][0] - samples[0][0]
    completed = samples[-1][1] - samples[0][1]
    return {
        "ok": done[0], "failed": done[1], "next": next(counter), "completed": completed,
        "slices": [(a[0], b[0], b[2] - a[2]) for a, b in zip(samples, samples[1:])],
        "rps": completed / elapsed,
        "server_util": (samples[-1][2] - samples[0][2]) / elapsed,
        "client_util": (samples[-1][3] - samples[0][3]) / elapsed,
    }


async def open_loop(clients, requests, offset: int, rate: float, seconds: float,
                    results: list) -> Dict[str, object]:
    """Send at ``rate`` per second regardless of replies.

    Latency runs from each request's due time, so a stall also delays
    the requests queued behind it; a failed request counts as a miss
    (a latency of the call timeout).  Samples are ``(due, latency)`` on
    the event loop's clock.
    """
    failures = _failures()
    loop = asyncio.get_running_loop()
    n = len(requests)
    latencies: List[Tuple[float, float]] = []
    late: List[float] = []
    failed = [0]

    async def one(i: int, due: float, client) -> None:
        op, args = requests[i % n]
        try:
            result = await client.call(op, **args)
        except failures:
            failed[0] += 1
            latencies.append((due, CALL_TIMEOUT_S))
            return
        latencies.append((due, loop.time() - due))
        results.append((i % n, result))

    count = int(rate * seconds)
    tasks = []
    t0 = loop.time() + 0.01
    for j in range(count):
        due = t0 + j / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(max(0.0, loop.time() - due))
        tasks.append(asyncio.create_task(one(offset + j, due, clients[j % len(clients)])))
    await asyncio.gather(*tasks)
    return {"latencies": latencies, "late": late, "failed": failed[0], "sent": count}


def check_reads(requests, results, graph, owner: Dict) -> int:
    """Every ``neighbors`` answer equals the adjacency, every ``edge`` the owner."""
    checked = 0
    for i, result in results:
        op, args = requests[i]
        if op == "neighbors":
            if set(result["neighbors"]) != graph.neighbors(args["v"]):
                raise AssertionError(f"neighbors({args['v']}) differs from the graph")
            checked += 1
        elif op == "edge":
            key = (min(args["u"], args["v"]), max(args["u"], args["v"]))
            if result["partition"] != owner[key]:
                raise AssertionError(
                    f"edge {key} answered {result['partition']}, owner {owner[key]}")
            checked += 1
    return checked


def _batch_counters(stats: Dict) -> Dict[str, float]:
    counters = stats["metrics"]["counters"]
    return {name: float(counters.get(name, 0)) for name in
            ("batches", "batch_requests_total", "batch_dedup_hits", "requests_vectorised")}


class ReadStage:
    """Stage R: the read-only server over ``bundle``."""

    def __init__(self, workdir: Path, bundle: Path, graph, cfg: Dict, seed: int) -> None:
        self.workdir = workdir
        self.bundle = bundle
        self.graph = graph
        self.cfg = cfg
        self.requests = read_requests(graph, cfg["p"], cfg["read_requests"], seed)
        #: ``Server.start`` records of the set-up repeats.
        self.starts: List[Tuple[float, float, float]] = []
        #: Closed loop: ``(start, end, server_cpu_s)`` slices, completed calls.
        self.cpu_slices: List[Tuple[float, float, float]] = []
        self.completed = 0
        self.out: Dict[str, float] = {}
        self.latencies: List[Tuple[float, float]] = []
        self.results: list = []
        self.sent: List[Tuple[str, Dict]] = []
        self.attempted = 0
        self.failed = 0

    def run(self, closed_s: float, open_s: float) -> None:
        server = Server(self.bundle, self.workdir / "read-server.log")
        try:
            for _ in range(2):
                self.starts.append(server.start())
                server.stop()
            self.starts.append(server.start())
            with gc_paused():
                asyncio.run(self._drive(server, closed_s, open_s))
        finally:
            server.stop()

    async def _drive(self, server: Server, closed_s: float, open_s: float) -> None:
        cfg = self.cfg
        port = server.port
        warm = await closed_loop(port, self.requests, 0, 0.5, cfg["depth"], None)
        before = _batch_counters(await _server_stats(port))
        results: list = []
        start = warm["next"]
        closed = await closed_loop(port, self.requests, start, closed_s, cfg["depth"],
                                   results, server)
        stats = await _server_stats(port)
        after = _batch_counters(stats)
        served = max(1.0, after["batch_requests_total"] - before["batch_requests_total"])
        self.sent = [self.requests[i % len(self.requests)]
                     for i in range(start, closed["next"])]
        clients = [_client(port) for _ in range(CONNECTIONS)]
        for client in clients:
            await client.connect()
        try:
            opened = await open_loop(clients, self.requests, closed["next"],
                                     cfg["read_rate"], open_s, results)
        finally:
            for client in clients:
                await client.close()
        self.results = results
        self.latencies = opened["latencies"]
        self.attempted = closed["ok"] + closed["failed"] + opened["sent"]
        self.failed = closed["failed"] + opened["failed"]
        self.cpu_slices = closed["slices"]
        self.completed = closed["completed"]
        self.out = {
            "read_rps": closed["rps"],
            "raw.cpu_us_per_op": sum(c for _a, _b, c in self.cpu_slices) / self.completed * 1e6,
            "server.cpu_util": closed["server_util"],
            "client.cpu_util": closed["client_util"],
            "client.late_p99_ms": quantile(sorted(opened["late"]), 0.99) * 1e3,
            "server.mean_batch": served / max(1.0, after["batches"] - before["batches"]),
            "server.dedup_share": (after["batch_dedup_hits"] - before["batch_dedup_hits"]) / served,
            "server.vectorised_share":
                (after["requests_vectorised"] - before["requests_vectorised"]) / served,
            "server.p50_ms": float(stats["metrics"]["latency"]["neighbors"]["p50_ms"]),
        }

    def cpu_us_per_op(self, speed) -> float:
        """The closed loop's normalised server CPU over its completed calls."""
        cpu = sum(speed.normalise(c, a, b) for a, b, c in self.cpu_slices)
        return cpu / self.completed * 1e6

    def check(self) -> int:
        from repro.partitioning.serialization import load_partition

        owner = load_partition(self.bundle, verify=True).edge_to_partition()
        return check_reads(self.requests, self.results, self.graph, owner)


# -- write traffic --------------------------------------------------------------


class WriteStream:
    """Inserts and deletes among a reserved vertex set, valid by construction.

    Only acknowledged mutations change the expected state; a failed one
    leaves its edge unknown, so the check skips it.
    """

    def __init__(self, graph, vertices: List[int], seed: int, delete_share: float) -> None:
        self.rng = random.Random(seed)
        self.vertices = vertices
        reserved = set(vertices)
        self.delete_share = delete_share
        self.edges: List[Tuple[int, int]] = [
            (u, v) for u, v in graph.edges() if u in reserved and v in reserved
        ]
        #: Edges from a reserved vertex to the rest of the graph never change.
        self.outside = {v: {x for x in graph.neighbors(v) if x not in reserved}
                        for v in vertices}
        self.index = {e: i for i, e in enumerate(self.edges)}
        self.unknown: set = set()

    def next(self) -> Tuple[str, int, int]:
        rng = self.rng
        if self.edges and rng.random() < self.delete_share:
            u, v = self.edges[rng.randrange(len(self.edges))]
            return "delete_edge", u, v
        while True:
            a, b = rng.sample(self.vertices, 2)
            edge = (min(a, b), max(a, b))
            if edge not in self.index and edge not in self.unknown:
                return "insert_edge", edge[0], edge[1]

    def settle(self, op: str, u: int, v: int, ok: bool) -> None:
        edge = (u, v)
        if not ok:
            self._remove(edge)
            self.unknown.add(edge)
        elif op == "insert_edge":
            self.index[edge] = len(self.edges)
            self.edges.append(edge)
        else:
            self._remove(edge)

    def _remove(self, edge) -> None:
        i = self.index.pop(edge, None)
        if i is None:
            return
        last = self.edges.pop()
        if last != edge:
            self.edges[i] = last
            self.index[last] = i

    def expected(self) -> Dict[int, set]:
        adjacency = {v: set(outside) for v, outside in self.outside.items()}
        for u, v in self.edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        return adjacency


WRITE_SERVER_ARGS = ("--wal", "--fsync", "always", "--refine-on-compact")


class WriteStage:
    """Stage W: writer + readers + periodic compaction on a WAL server."""

    def __init__(self, workdir: Path, refined: Path, graph, cfg: Dict, seed: int) -> None:
        self.workdir = workdir
        self.graph = graph
        self.cfg = cfg
        self.pristine = refined
        self.bundle = workdir / "write-bundle"
        shutil.rmtree(self.bundle, ignore_errors=True)
        shutil.copytree(refined, self.bundle)
        rng = random.Random(seed ^ 0x5EED)
        vertices = graph.vertex_list()
        reserved = sorted(rng.sample(vertices, max(8, int(cfg["write_share"] * len(vertices)))))
        reserved_set = set(reserved)
        self.stream = WriteStream(graph, reserved, seed, cfg["delete_share"])
        readable = [v for v in vertices if v not in reserved_set]
        self.reads = [("neighbors", {"v": rng.choice(readable)})
                      for _ in range(cfg["write_read_requests"])]
        self.events: List[Tuple] = []
        self.read_results: list = []
        self.read_latencies: List[Tuple[float, float]] = []
        self.write_latencies: List[Tuple[float, float]] = []
        #: Per compaction: ``(server_cpu_s, start, end)``, and its wall seconds.
        self.compactions: List[Tuple[float, float, float]] = []
        self.compact_s: List[float] = []
        #: ``(time, server_cpu_s, completed operations)`` at every compaction.
        self.marks: List[Tuple[float, float, int]] = []
        self.folded: List[int] = []
        self.out: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float) -> None:
        server = Server(self.bundle, self.workdir / "write-server.log", WRITE_SERVER_ARGS)
        try:
            server.start()
            with gc_paused():
                asyncio.run(self._drive(server, seconds))
        finally:
            server.stop()

    async def _drive(self, server: Server, seconds: float) -> None:
        cfg = self.cfg
        port = server.port
        failures = _failures()
        writer = _client(port, client_tag="perfbench-writer")
        writer.call_timeout = COMPACT_TIMEOUT_S
        readers = [_client(port) for _ in range(CONNECTIONS - 1)]
        for client in (writer, *readers):
            await client.connect()
        stats0 = _batch_counters(await _server_stats(port))
        loop = asyncio.get_running_loop()
        deadline = time.monotonic() + seconds
        write_failed = 0
        compact_attempts = 0

        def mark() -> Tuple[float, float, int]:
            done = len(self.write_latencies) + len(self.compact_s) + len(self.read_results)
            return time.monotonic(), server.cpu_s(), done

        marks = [mark()]

        async def compact() -> None:
            nonlocal write_failed, compact_attempts
            compact_attempts += 1
            began, cpu = time.monotonic(), server.cpu_s()
            try:
                info = await writer.compact()
            except failures:
                write_failed += 1
                return
            ended = time.monotonic()
            self.compactions.append((server.cpu_s() - cpu, began, ended))
            self.compact_s.append(ended - began)
            self.folded.append(int(info["folded_mutations"]))
            self.events.append(("compact",))
            marks.append(mark())

        async def write_loop() -> None:
            nonlocal write_failed
            mutations = 0
            started = time.monotonic()
            while True:
                due = started + mutations / cfg["write_rate"]
                if due >= deadline:
                    break
                if due > time.monotonic():
                    await asyncio.sleep(due - time.monotonic())
                op, u, v = self.stream.next()
                began = loop.time()
                try:
                    await writer.call(op, u=u, v=v)
                    ok = True
                except failures:
                    ok = False
                    write_failed += 1
                latency = loop.time() - began if ok else CALL_TIMEOUT_S
                self.write_latencies.append((began, latency))
                self.stream.settle(op, u, v, ok)
                if ok:
                    self.events.append((op, u, v))
                mutations += 1
                if mutations % cfg["compact_every"] == 0:
                    await compact()
            if not self.compact_s:
                await compact()

        reads = asyncio.create_task(open_loop(
            readers, self.reads, 0, cfg["write_read_rate"], seconds, self.read_results))
        await write_loop()
        opened = await reads
        marks.append(mark())
        stats = await _server_stats(port)
        stats1 = _batch_counters(stats)
        for client in (writer, *readers):
            await client.close()
        self.read_latencies = opened["latencies"]
        self.attempted = len(self.write_latencies) + compact_attempts + opened["sent"]
        self.failed = write_failed + opened["failed"]
        self.marks = marks
        served = max(1.0, stats1["batch_requests_total"] - stats0["batch_requests_total"])
        fsync = stats["metrics"]["latency"].get("wal_fsync", {})
        self.out = {
            "raw.write_cpu_us_per_op":
                (marks[-1][1] - marks[0][1]) / (marks[-1][2] - marks[0][2]) * 1e6,
            "server.write_mean_batch": served / max(1.0, stats1["batches"] - stats0["batches"]),
            "server.fsync_p99_ms": float(fsync.get("p99_ms", 0.0)),
            "ingest.overlay_edges": median(self.folded),
            "ingest.compactions": float(len(self.compact_s)),
        }

    def cpu_us_per_op(self, speed) -> float:
        """Normalised server CPU over completed writes, reads and compactions.

        Each compaction cycle (its writes, reads and the compaction) is
        normalised with the host's speed during that cycle.
        """
        marks = self.marks
        cpu = sum(speed.normalise(b[1] - a[1], a[0], b[0]) for a, b in zip(marks, marks[1:]))
        return cpu / (marks[-1][2] - marks[0][2]) * 1e6

    def compact_cpu_s(self, speed) -> List[float]:
        """Normalised server CPU seconds of each compaction."""
        return [speed.normalise(cpu, a, b) for cpu, a, b in self.compactions]

    def check(self) -> int:
        """Acknowledged mutations are visible now and after a restart."""
        checked = check_reads(self.reads, self.read_results, self.graph, {})
        server = Server(self.bundle, self.workdir / "write-check.log", WRITE_SERVER_ARGS)
        try:
            server.start()
            checked += asyncio.run(self._check_visible(server.port))
            server.stop()
            server.start()
            checked += asyncio.run(self._check_visible(server.port))
        finally:
            server.stop()
        return checked

    async def _check_visible(self, port: int) -> int:
        from repro.service.client import ServiceError

        expected = self.stream.expected()
        unknown = {v for edge in self.stream.unknown for v in edge}
        checked = 0
        async with _client(port) as client:
            for v, want in expected.items():
                if v in unknown:
                    continue
                try:
                    got = set((await client.neighbors(v))["neighbors"])
                except ServiceError as exc:
                    if exc.code != "not_found" or want:
                        raise
                    got = set()
                if got != want:
                    raise AssertionError(f"vertex {v}: served {sorted(got - want)[:5]} extra, "
                                         f"{sorted(want - got)[:5]} missing after writes")
                checked += 1
        return checked


# -- traced replays ---------------------------------------------------------------


def _replay_reads(bundle: Path, sent, batch: int, tracer) -> Tuple[float, int, int]:
    """Decode, execute and encode ``sent`` in batches; ``(wall_s, ops, bytes)``."""
    from repro.service import protocol
    from repro.service.handler import ServiceHandler
    from repro.service.store import PartitionStore

    with tracer.span("store.open"):
        store = PartitionStore.open(bundle)
    for name in ("route_many", "neighbors_many", "owners_many"):
        setattr(store, name, tracer.wrap(f"store.{name}", getattr(store, name)))
    handler = ServiceHandler(store)
    bodies = [protocol.encode_frame(protocol.request(i, op, args), protocol.WIRE_BINARY)[4:]
              for i, (op, args) in enumerate(sent)]
    span = tracer.span
    nbytes = 0
    started = time.perf_counter()
    for first in range(0, len(bodies), batch):
        with span("protocol.decode"):
            requests = [protocol.decode_body(body) for body in bodies[first:first + batch]]
        with span("handler.execute_batch"):
            responses = handler.execute_batch(requests)
        with span("protocol.encode"):
            frames = [protocol.encode_frame(r, protocol.WIRE_BINARY) for r in responses]
        nbytes += sum(len(f) for f in frames)
    return time.perf_counter() - started, len(bodies), nbytes


def replay_read(stage: ReadStage, trace_path: Path) -> Dict[str, float]:
    """Per-layer numbers of the read path from the recorded closed loop.

    The traced replay runs between two untraced ones, whose mean wall
    time is the reference for the tracing overhead.
    """
    sent = stage.sent[: stage.cfg["replay_reads"]]
    batch = max(1, round(stage.out["server.mean_batch"]))
    before, _, _ = _replay_reads(stage.bundle, sent, batch, NullTracer())
    tracer = Tracer()
    wall, ops, nbytes = _replay_reads(stage.bundle, sent, batch, tracer)
    plain_s = (before + _replay_reads(stage.bundle, sent, batch, NullTracer())[0]) / 2
    tracer.write(trace_path)
    total, own, _calls = tracer.totals()
    per_op = 1e6 / ops
    layers = {
        "protocol.decode_us": total["protocol.decode"] * per_op,
        "protocol.encode_us": total["protocol.encode"] * per_op,
        "handler.batch_self_us": own["handler.execute_batch"] * per_op,
        "store.neighbors_many_us": total.get("store.neighbors_many", 0.0) * per_op,
        "store.route_many_us": total.get("store.route_many", 0.0) * per_op,
        "store.owners_many_us": total.get("store.owners_many", 0.0) * per_op,
    }
    out = dict(layers)
    out.update({
        "protocol.resp_bytes": nbytes / ops,
        "store.open_s": total["store.open"],
        "server.unattributed_us": stage.out["raw.cpu_us_per_op"] - sum(layers.values()),
        "trace.read_unattributed_share":
            1.0 - tracer.covered_s(("protocol.decode", "handler.execute_batch",
                                    "protocol.encode")) / wall,
        "trace.read_overhead": wall / plain_s - 1.0,
    })
    return out


def _replay_writes(stage: WriteStage, directory: Path, tracer) -> Tuple[float, Dict]:
    """Replay the recorded mutations, reads and compactions in-process."""
    from repro.partitioning import csr_bundle, serialization
    from repro.partitioning.refine import LocalSearchRefiner
    from repro.service.ingest import Ingestor
    from repro.service.store import PartitionStore, StoreManager

    shutil.rmtree(directory, ignore_errors=True)
    shutil.copytree(stage.pristine, directory)
    manager = StoreManager(PartitionStore.open(directory))
    # fsync="batch" with an unreachable interval never syncs inside
    # append, so the explicit sync() after each append times the fsync
    # that "always" would have made there.
    ingestor = Ingestor.enable(manager, directory, fsync="batch", batch_interval=1e9,
                               refine_on_compact=True)
    wal = ingestor.wal
    wal.append = tracer.wrap("wal.append", wal.append)
    span = tracer.span
    cycles = stage.cfg["replay_cycles"]
    batch = max(1, round(stage.out["server.write_mean_batch"]))
    reads_per_write = len(stage.read_results) / max(1, len(stage.write_latencies))
    reads = [args["v"] for _op, args in stage.reads]
    read_at = 0.0
    cursor = 0
    wal_bytes = 0
    mutations = 0
    traced_open = tracer.wrap("store.compact_open", PartitionStore.open)
    started = time.perf_counter()
    with patched(PartitionStore, "open", classmethod(lambda cls, *a, **k: traced_open(*a, **k))), \
            patched(serialization, "save_partition",
                    tracer.wrap("serialization.compact_save", serialization.save_partition)), \
            patched(csr_bundle, "build_partition_csr",
                    tracer.wrap("csr_bundle.build", csr_bundle.build_partition_csr)), \
            patched(LocalSearchRefiner, "refine",
                    tracer.wrap("refine.compact_search", LocalSearchRefiner.refine)):
        for event in stage.events:
            if event[0] == "compact":
                overlay = ingestor.overlay
                overlay.to_partition = tracer.wrap("ingest.fold", overlay.to_partition)
                with span("ingest.compact"):
                    ingestor.compact_sync()
                cycles -= 1
                if cycles == 0:
                    break
                continue
            op, u, v = event
            size = wal.size
            if op == "insert_edge":
                with span("ingest.insert"):
                    ingestor.insert_edge(u, v)
            else:
                with span("ingest.delete"):
                    ingestor.delete_edge(u, v)
            with span("wal.sync"):
                wal.sync()
            wal_bytes += wal.size - size
            mutations += 1
            read_at += reads_per_write
            while read_at >= batch:
                chunk = [reads[(cursor + j) % len(reads)] for j in range(batch)]
                cursor += batch
                overlay = ingestor.overlay
                with span("store.overlay_neighbors_many"):
                    overlay.neighbors_many(chunk)
                read_at -= batch
    wall = time.perf_counter() - started
    ingestor.close()
    shutil.rmtree(directory, ignore_errors=True)
    return wall, {"wal_bytes": wal_bytes, "mutations": mutations}


def replay_write(stage: WriteStage, trace_path: Path) -> Dict[str, float]:
    """Per-layer numbers of the write path from the recorded stage W.

    Bracketed by two untraced replays, like :func:`replay_read`.
    """
    directory = stage.workdir / "replay-write"
    before, _ = _replay_writes(stage, directory, NullTracer())
    tracer = Tracer()
    wall, info = _replay_writes(stage, directory, tracer)
    plain_s = (before + _replay_writes(stage, directory, NullTracer())[0]) / 2
    tracer.write(trace_path)
    total, own, calls = tracer.totals()

    def mean(name: str, scale: float = 1.0) -> float:
        return total.get(name, 0.0) / max(1, calls.get(name, 0)) * scale

    def mean_self(name: str, scale: float = 1.0) -> float:
        return own.get(name, 0.0) / max(1, calls.get(name, 0)) * scale

    overlay_reads = calls.get("store.overlay_neighbors_many", 0) * max(
        1, round(stage.out["server.write_mean_batch"]))
    top = ("ingest.insert", "ingest.delete", "wal.sync", "ingest.compact",
           "store.overlay_neighbors_many")
    return {
        "wal.append_us": mean("wal.append", 1e6),
        "wal.sync_us": mean("wal.sync", 1e6),
        "wal.bytes_per_op": info["wal_bytes"] / max(1, info["mutations"]),
        "ingest.insert_self_us": mean_self("ingest.insert", 1e6),
        "ingest.delete_self_us": mean_self("ingest.delete", 1e6),
        "store.overlay_neighbors_many_us":
            total.get("store.overlay_neighbors_many", 0.0) / max(1, overlay_reads) * 1e6,
        "ingest.fold_s": mean("ingest.fold"),
        "refine.compact_search_s": mean("refine.compact_search"),
        "serialization.compact_save_s": mean_self("serialization.compact_save"),
        "store.compact_open_s": mean("store.compact_open"),
        "trace.write_unattributed_share": 1.0 - tracer.covered_s(top) / wall,
        "trace.write_overhead": wall / plain_s - 1.0,
    }
