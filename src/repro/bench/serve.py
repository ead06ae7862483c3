"""Tracked load test for the partition service: ``python -m repro.bench serve``.

Starts an in-process :class:`~repro.service.server.PartitionServer` over a
TLP partitioning of a dataset stand-in (persisted through
``save_partition`` and reopened through ``PartitionStore.open``, so the
whole serving path — disk format included — is what gets measured), then
drives a mixed query workload through concurrent pipelined clients:

* every ``neighbors`` response is checked **set-equal to the direct
  ``Graph`` adjacency** — the routed fan-out must lose nothing;
* every ``edge`` response is checked against the partition's own
  edge → partition map;
* client-side latency is recorded per operation and reported as exact
  p50/p95/p99 over all samples, alongside the server's own histogram
  snapshot;
* the bundle open is timed — ``store_open_seconds`` records the
  memory-mapped CSR sidecar open next to the legacy rebuild of the same
  arrays from the edge-list text (what a pre-sidecar bundle costs; the
  gap is the hot-reload window under load), and ``rss_max_kib`` records
  the process's peak resident set;
* ``--mutate`` adds the WAL write path: a dedicated writer streams
  insert/delete ops (fresh vertex ids only, so read verification stays
  exact) through the :mod:`repro.service.ingest` subsystem while the
  readers run, and the report's ``ingest`` section records mutation
  throughput, WAL bytes, fsync latency, and RF drift.

Results land in ``BENCH_serve.json`` so serving-path regressions show up
in review diffs, like ``BENCH_perf.json`` does for the partitioner.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.graph.graph import Graph

#: Bump when the schema of ``BENCH_serve.json`` changes.
#: v2: ``store_backend``, ``store_open_seconds`` and ``rss_max_kib``.
#: v3: additive ``ingest`` section (mutate workload: insert/delete
#: throughput and WAL fsync latency); every v2 field is unchanged, so
#: v2 readers keep working.
#: v4: additive ``batch`` section (server-side batching + vectorised
#: answering counters) — what the CI perf smoke job asserts on.
#: v5: additive ``cluster`` section (``--cluster-workers``: the same
#: verified workload replayed against the multi-process sharded server,
#: with throughput vs the single-process run); every v4 field unchanged.
#: v6: wire codec selection (``--wire json|binary|both``) — top-level
#: ``wire`` names the headline codec, ``wire_modes`` records per-codec
#: single-process throughput, the ``cluster`` section gains ``wire`` and
#: (with ``both``) per-codec ratios, and the verify pass asserts
#: server-vs-client per-op counter parity; every v5 field unchanged.
#: v7: ``store_open_seconds`` is ``{"sidecar", "text", "speedup"}`` (the
#: sidecar open vs a legacy rebuild from text) and ``store_backend`` is
#: gone — there is one store layout.
#: v8: the ``cluster`` section is removed, with the multi-process
#: server it measured; every other v7 field is unchanged.
SCHEMA_VERSION = 8

DEFAULT_REPORT = "BENCH_serve.json"
DEFAULT_DATASET = "G1"
QUICK_SCALE = 0.2
FULL_SCALE = 1.0
QUICK_REQUESTS = 1_500
FULL_REQUESTS = 10_000
DEFAULT_P = 8
DEFAULT_CONCURRENCY = 8

#: Workload mix (op, weight) — neighbour fan-out dominates, like a
#: gather step; stats ride along as the cheap control-plane op.
QUERY_MIX: Sequence[Tuple[str, float]] = (
    ("neighbors", 0.45),
    ("master", 0.25),
    ("edge", 0.20),
    ("partition_stats", 0.05),
    ("stats", 0.05),
)


def _build_workload(
    graph: Graph, partition, num_requests: int, seed: int
) -> List[Tuple[str, Dict[str, int]]]:
    """A deterministic shuffled list of (op, args) drawn from QUERY_MIX."""
    rng = random.Random(seed)
    vertices = graph.vertex_list()
    edges = graph.edge_list()
    ops: List[Tuple[str, Dict[str, int]]] = []
    for op, weight in QUERY_MIX:
        count = max(1, round(weight * num_requests))
        for _ in range(count):
            if op in ("neighbors", "master"):
                ops.append((op, {"v": rng.choice(vertices)}))
            elif op == "edge":
                u, v = rng.choice(edges)
                ops.append((op, {"u": u, "v": v}))
            elif op == "partition_stats":
                ops.append((op, {"k": rng.randrange(partition.num_partitions)}))
            else:
                ops.append((op, {}))
    rng.shuffle(ops)
    return ops[:num_requests] if len(ops) > num_requests else ops


def _build_mutations(
    graph: Graph, count: int, delete_ratio: float, seed: int
) -> List[Tuple[str, Dict[str, int]]]:
    """A deterministic insert/delete sequence over *fresh* vertex ids.

    Every inserted edge joins two vertices above the base graph's id
    range, and deletes only target still-alive own inserts — so the read
    workload's neighbour/edge verification against the base graph stays
    exact while mutations run.
    """
    rng = random.Random(seed + 0x5EED)
    next_id = max(graph.vertices()) + 1
    anchor = next_id
    next_id += 1
    alive: List[Tuple[int, int]] = []
    ops: List[Tuple[str, Dict[str, int]]] = []
    for _ in range(count):
        if alive and rng.random() < delete_ratio:
            u, v = alive.pop(rng.randrange(len(alive)))
            ops.append(("delete_edge", {"u": u, "v": v}))
        else:
            # Chain off a random alive endpoint (or the anchor) so the
            # overlay grows a connected fresh component, like a stream.
            tail = rng.choice(alive)[1] if alive else anchor
            edge = (tail, next_id)
            next_id += 1
            alive.append(edge)
            ops.append(("insert_edge", {"u": edge[0], "v": edge[1]}))
    return ops


def _rss_max_kib() -> Optional[int]:
    """Peak resident set size of this process in KiB (None if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return int(usage // 1024) if usage > 1 << 30 else int(usage)


def _time_store_open(directory: str) -> Tuple[Dict[str, float], object]:
    """Time the sidecar open against a legacy rebuild from the edge text.

    The rebuild is the branch :meth:`PartitionStore.open` takes for a
    bundle whose manifest records no sidecar.  Returns
    ``({"sidecar", "text", "speedup"}, store)``.
    """
    from repro.partitioning.csr_bundle import build_partition_csr
    from repro.partitioning.serialization import load_partition
    from repro.service.store import PartitionStore

    start = time.perf_counter()
    PartitionStore(build_partition_csr(load_partition(directory)))
    text = time.perf_counter() - start
    start = time.perf_counter()
    store = PartitionStore.open(directory)
    sidecar = time.perf_counter() - start
    timings = {
        "sidecar": round(sidecar, 6),
        "text": round(text, 6),
        "speedup": round(text / sidecar, 2) if sidecar else 0.0,
    }
    return timings, store


def _quantile(sorted_samples: List[float], q: float) -> float:
    """Exact empirical quantile of an already-sorted sample list."""
    if not sorted_samples:
        return 0.0
    index = min(len(sorted_samples) - 1, max(0, int(q * len(sorted_samples))))
    return sorted_samples[index]


async def _drive(
    host: str,
    port: int,
    workload: List[Tuple[str, Dict[str, int]]],
    concurrency: int,
    graph: Graph,
    edge_owner: Dict[Tuple[int, int], int],
    mutations: Optional[List[Tuple[str, Dict[str, int]]]] = None,
    wire: str = "json",
) -> Tuple[Dict[str, List[float]], int, int, float]:
    """Run the workload through ``concurrency`` clients; verify responses.

    ``mutations`` adds one dedicated writer driving insert/delete ops
    (idempotently stamped by the client wrappers) concurrently with the
    readers; the returned float is the writer's wall-clock seconds
    (0.0 without mutations).  ``wire`` selects the client codec
    (binary-preferring clients negotiate on connect).
    """
    from repro.service.client import ServiceClient

    latencies: Dict[str, List[float]] = {op: [] for op, _ in QUERY_MIX}
    verified_neighbors = 0
    verified_edges = 0
    lock = asyncio.Lock()

    async def mutator() -> float:
        assert mutations is not None
        client = ServiceClient(
            host,
            port,
            max_retries=5,
            backoff_base=0.02,
            client_tag="bench-writer",
            wire=wire,
        )
        samples: Dict[str, List[float]] = {"insert_edge": [], "delete_edge": []}
        start = time.perf_counter()
        async with client:
            for op, args in mutations:
                began = time.perf_counter()
                if op == "insert_edge":
                    result = await client.insert_edge(args["u"], args["v"])
                else:
                    result = await client.delete_edge(args["u"], args["v"])
                samples[op].append(time.perf_counter() - began)
                if "partition" not in result:
                    raise AssertionError(f"{op} response without placement: {result}")
        elapsed = time.perf_counter() - start
        async with lock:
            for op, values in samples.items():
                latencies.setdefault(op, []).extend(values)
        return elapsed

    async def worker(chunk: List[Tuple[str, Dict[str, int]]]) -> Tuple[int, int]:
        nonlocal_ok = [0, 0]
        # Latencies accumulate locally and merge once at the end: an async
        # lock acquisition per request would be measurable driver overhead.
        local: Dict[str, List[float]] = {}
        client = ServiceClient(
            host, port, max_retries=5, backoff_base=0.02, wire=wire
        )
        async with client:
            for op, args in chunk:
                start = time.perf_counter()
                result = await client.call(op, **args)
                local.setdefault(op, []).append(time.perf_counter() - start)
                if op == "neighbors":
                    routed = set(result["neighbors"])
                    direct = graph.neighbors(args["v"])
                    if routed != direct:
                        raise AssertionError(
                            f"routed neighbours of {args['v']} != direct adjacency: "
                            f"missing={sorted(direct - routed)[:5]} "
                            f"extra={sorted(routed - direct)[:5]}"
                        )
                    nonlocal_ok[0] += 1
                elif op == "edge":
                    expected = edge_owner[(args["u"], args["v"])]
                    if result["partition"] != expected:
                        raise AssertionError(
                            f"edge ({args['u']}, {args['v']}) routed to "
                            f"{result['partition']}, owner is {expected}"
                        )
                    nonlocal_ok[1] += 1
        async with lock:
            for op, values in local.items():
                latencies.setdefault(op, []).extend(values)
        return nonlocal_ok[0], nonlocal_ok[1]

    chunks = [workload[i::concurrency] for i in range(concurrency)]
    tasks = [worker(chunk) for chunk in chunks if chunk]
    mutate_task = asyncio.ensure_future(mutator()) if mutations else None
    counts = await asyncio.gather(*tasks)
    mutate_seconds = await mutate_task if mutate_task is not None else 0.0
    for n_ok, e_ok in counts:
        verified_neighbors += n_ok
        verified_edges += e_ok
    return latencies, verified_neighbors, verified_edges, mutate_seconds


def run_serve(
    graph: Graph,
    dataset: str = DEFAULT_DATASET,
    p: int = DEFAULT_P,
    num_requests: int = QUICK_REQUESTS,
    concurrency: int = DEFAULT_CONCURRENCY,
    seed: int = 0,
    quick: bool = False,
    mutate_ratio: float = 0.0,
    delete_ratio: float = 0.3,
    fsync: str = "always",
    profile_path: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    wire: str = "binary",
) -> Dict:
    """Partition, persist, serve, and load-test ``graph``; returns the report.

    ``mutate_ratio > 0`` enables the WAL write path: the server runs with
    an :class:`~repro.service.ingest.Ingestor` and a dedicated writer
    drives ``round(mutate_ratio * num_requests)`` insert/delete ops
    (``delete_ratio`` of them deletes) concurrently with the readers.
    Mutations only touch fresh vertex ids above the base graph, so the
    read-side verification stays exact.  The report gains an ``ingest``
    section: mutation throughput, WAL bytes, fsync-policy latency
    (``fsync`` — always/batch/never), and RF drift.

    ``profile_path`` runs the whole load phase under ``cProfile`` and
    writes the top-20 cumulative hotspots there (plain text), so future
    perf work starts from data instead of guesses.  Profiling slows the
    run; the throughput figures of a profiled run are not comparable.

    ``wire`` selects the client codec: ``"json"``, ``"binary"`` (the
    default — clients negotiate on connect), or ``"both"``, which drives
    the workload once per codec against the same server (JSON first,
    binary as the headline) and records per-codec throughput under
    ``wire_modes``.  The verify pass also asserts per-op counter parity:
    the server's ``op_*`` counters must equal the client-side op counts
    (dedup-answered requests included), unless a retryable disturbance
    (timeout/overload) made double-counting legitimate.

    Raises ``AssertionError`` if any routed response disagrees with the
    graph or the partition — correctness is part of what this benchmark
    tracks.
    """
    from repro.core.tlp import TLPPartitioner
    from repro.partitioning.serialization import save_partition
    from repro.service.server import PartitionServer
    from repro.service.store import StoreManager

    if wire not in ("json", "binary", "both"):
        raise ValueError(f"wire must be json, binary or both, got {wire!r}")
    #: Codecs to drive, headline last — JSON first so the binary numbers
    #: land in the top-level fields when measuring both.
    wire_list = ["json", "binary"] if wire == "both" else [wire]
    headline_wire = wire_list[-1]

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    note(f"partitioning {graph!r} into p={p} with TLP(seed={seed})")
    partition = TLPPartitioner(seed=seed).partition(graph, p)
    edge_owner = dict(partition.edge_to_partition())

    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        note("persisting partition bundle (gzip + CSR sidecar)")
        save_partition(
            partition,
            tmp,
            metadata={"algorithm": "TLP", "seed": seed, "dataset": dataset},
            compress=True,
        )
        note("opening the store (sidecar vs legacy rebuild from text)")
        store_open, store = _time_store_open(tmp)
        note(
            f"store open: sidecar {store_open['sidecar']}s, text "
            f"{store_open['text']}s ({store_open['speedup']}x)"
        )

        workload = _build_workload(graph, partition, num_requests, seed)
        mutations: Optional[List[Tuple[str, Dict[str, int]]]] = None
        ingestor = None
        if mutate_ratio > 0.0:
            from repro.service.ingest import Ingestor

            count = max(1, round(mutate_ratio * num_requests))
            mutations = _build_mutations(graph, count, delete_ratio, seed)
            note(
                f"ingest on: {count} mutations "
                f"({sum(1 for op, _ in mutations if op == 'delete_edge')} deletes), "
                f"WAL fsync={fsync}"
            )
            manager = StoreManager(store)
            ingestor = Ingestor.enable(manager, tmp, fsync=fsync)
            served: object = manager
        else:
            served = store
        note(f"driving {len(workload)} queries through {concurrency} clients")

        async def bench() -> Tuple[
            Dict[str, List[float]], int, int, Dict, Optional[Dict], float, float,
            Dict[str, Dict[str, float]],
        ]:
            server = PartitionServer(served, ingestor=ingestor)
            async with server:
                host, port = server.address
                per_wire: Dict[str, Dict[str, float]] = {}
                for mode in wire_list:
                    # Mutations ride only on the headline drive, so the
                    # ingest section measures one writer pass either way.
                    muts = mutations if mode == headline_wire else None
                    start = time.perf_counter()
                    latencies, n_ok, e_ok, mutate_seconds = await _drive(
                        host, port, workload, concurrency, graph, edge_owner,
                        muts, wire=mode,
                    )
                    elapsed = time.perf_counter() - start
                    total = sum(len(s) for s in latencies.values())
                    per_wire[mode] = {
                        "num_requests": total,
                        "elapsed_s": round(elapsed, 4),
                        "requests_per_s": round(total / elapsed) if elapsed else 0,
                    }
                    note(
                        f"wire={mode}: {per_wire[mode]['requests_per_s']} req/s "
                        f"over {total} requests"
                    )
                from repro.service.client import ServiceClient

                async with ServiceClient(host, port) as client:
                    stats = await client.stats()
                    ingest = (
                        await client.ingest_stats() if ingestor is not None else None
                    )
            return (
                latencies, n_ok, e_ok, stats, ingest, elapsed, mutate_seconds,
                per_wire,
            )

        try:
            if profile_path is not None:
                import cProfile

                note(f"profiling the load phase (cProfile -> {profile_path})")
                profiler = cProfile.Profile()
                outcome = profiler.runcall(asyncio.run, bench())
                _write_profile(profiler, profile_path)
            else:
                outcome = asyncio.run(bench())
            (
                latencies,
                verified_neighbors,
                verified_edges,
                stats,
                ingest_stats,
                elapsed,
                mutate_seconds,
                wire_modes,
            ) = outcome
        finally:
            if ingestor is not None:
                ingestor.close()

        # Verify pass: server-side per-op counters must agree with the
        # client-side op counts — dedup-answered requests included.
        parity = _assert_counter_parity(
            stats["metrics"]["counters"], workload, len(wire_list), mutations
        )
        note(f"counter parity: {parity}")

    if verified_neighbors == 0:
        raise AssertionError("workload exercised no neighbours queries")

    ops_report = {}
    for op, samples in latencies.items():
        if not samples:
            continue
        ordered = sorted(samples)
        ops_report[op] = {
            "count": len(ordered),
            "mean_ms": round(sum(ordered) / len(ordered) * 1e3, 4),
            "p50_ms": round(_quantile(ordered, 0.50) * 1e3, 4),
            "p95_ms": round(_quantile(ordered, 0.95) * 1e3, 4),
            "p99_ms": round(_quantile(ordered, 0.99) * 1e3, 4),
        }

    ingest_report: Optional[Dict] = None
    if ingest_stats is not None:
        mutation_count = len(latencies.get("insert_edge", ())) + len(
            latencies.get("delete_edge", ())
        )
        ingest_report = {
            "mutate_ratio": mutate_ratio,
            "delete_ratio": delete_ratio,
            "fsync": fsync,
            "mutations": mutation_count,
            "inserts": ingest_stats["inserts"],
            "deletes": ingest_stats["deletes"],
            "mutate_seconds": round(mutate_seconds, 4),
            "mutations_per_s": round(mutation_count / mutate_seconds)
            if mutate_seconds
            else 0,
            "wal_bytes": ingest_stats["wal_bytes"],
            "pending_mutations": ingest_stats["pending_mutations"],
            "overlay_rf_drift": ingest_stats["overlay_rf_drift"],
            # Server-side fsync histogram (ms quantiles); None when the
            # policy never fsynced during the run.
            "wal_fsync_ms": stats["metrics"]["latency"].get("wal_fsync"),
        }

    counters = stats["metrics"]["counters"]
    batches = counters.get("batches", 0)
    batch_report = {
        # Server-side batching: how many dispatcher batches formed, how
        # many requests rode in multi-request batches, and how much work
        # the vectorised store path / coalescing absorbed.
        "batches": batches,
        "requests_in_batches": counters.get("batch_requests_total", 0),
        "batched_requests": counters.get("batched_requests", 0),
        "mean_batch_size": round(
            counters.get("batch_requests_total", 0) / batches, 2
        )
        if batches
        else 0.0,
        "dedup_hits": counters.get("batch_dedup_hits", 0),
        "vectorised_requests": counters.get("requests_vectorised", 0),
    }

    total = sum(len(s) for s in latencies.values())
    single_rps = round(total / elapsed) if elapsed else 0
    return {
        "version": SCHEMA_VERSION,
        "quick": quick,
        "dataset": dataset,
        "algorithm": "TLP",
        "p": p,
        "seed": seed,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "store_open_seconds": store_open,
        "rss_max_kib": _rss_max_kib(),
        "replication_factor": stats["replication_factor"],
        "wire": headline_wire,
        "wire_modes": wire_modes,
        "counter_parity": parity,
        "num_requests": total,
        "concurrency": concurrency,
        "elapsed_s": round(elapsed, 4),
        "requests_per_s": single_rps,
        "verified_neighbors": verified_neighbors,
        "verified_edges": verified_edges,
        "batch": batch_report,
        "ingest": ingest_report,
        "ops": ops_report,
        "server_metrics": stats["metrics"],
    }


#: Counters that, when nonzero, mean a request may legitimately have
#: been answered (and counted) more times than the client sent it —
#: retries after timeouts or overload — so strict per-op parity cannot
#: be asserted for that run.
_DISTURBANCE_COUNTERS = (
    "requests_timeout",
    "requests_overload",
    "responses_dropped",
    "responses_unencodable",
)


def _assert_counter_parity(
    counters: Dict[str, int],
    workload: List[Tuple[str, Dict[str, int]]],
    passes: int,
    mutations: Optional[List[Tuple[str, Dict[str, int]]]],
) -> str:
    """Assert server ``op_*`` counters equal client-side op counts.

    Every workload op ran ``passes`` times (once per wire mode) and every
    one succeeded (the drive raises otherwise), so the server must have
    counted exactly that many — dedup-answered requests included.
    Negotiation pings (``op_ping`` from binary probes) and the final
    ``stats``/``ingest_stats`` snapshot calls are excluded: ping is not in
    the workload mix, and a snapshot's own increment lands after the
    snapshot it returns.  Returns a short description of what was
    checked, or why the check was skipped.
    """
    disturbed = [
        name for name in _DISTURBANCE_COUNTERS if counters.get(name, 0)
    ]
    if disturbed:
        return f"skipped (retries possible: {', '.join(disturbed)})"
    expected: Dict[str, int] = {}
    for op, _ in workload:
        expected[op] = expected.get(op, 0) + passes
    if mutations:
        for op, _ in mutations:
            expected[op] = expected.get(op, 0) + 1
    drift = {
        op: (counters.get(f"op_{op}", 0), want)
        for op, want in sorted(expected.items())
        if counters.get(f"op_{op}", 0) != want
    }
    if drift:
        raise AssertionError(
            "server/client op counter drift: "
            + ", ".join(
                f"op_{op}={got} (clients sent {want})"
                for op, (got, want) in drift.items()
            )
        )
    return f"ok ({len(expected)} ops x {passes} pass(es))"


def _write_profile(profiler, path: str, top: int = 20) -> str:
    """Dump the top-``top`` cumulative-time hotspots to ``path``."""
    import io
    import pstats

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(buffer.getvalue())
    os.replace(tmp, path)
    return path


def write_report(report: Dict, path: str = DEFAULT_REPORT) -> str:
    """Write the report atomically; returns the path written."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)
    return path
