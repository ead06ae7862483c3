"""Command-line partitioner: ``python -m repro <edge-list> -p 10``.

Reads a SNAP-format edge list (optionally gzipped), partitions its edges
with any registered algorithm (default TLP), prints a quality report, and
optionally writes the result:

* ``--assignments out.tsv`` — one ``u <TAB> v <TAB> partition`` line per edge;
* ``--output-dir parts/``  — one ``part_<k>.edges`` file per partition.

There is also a ``serve`` subcommand that answers routing queries against
a saved partition bundle over TCP (see ``docs/SERVING.md``)::

    python -m repro serve parts/ --port 7531

A running server hot-swaps a new bundle in without dropping connections
(epoch-based atomic flip): send it SIGHUP, start it with ``--watch`` so
it polls the bundle's manifest for changes, or use the admin command::

    python -m repro reload parts_v2/ --port 7531

``serve --wal`` turns on the write path (``insert_edge`` /
``delete_edge`` protocol ops backed by a write-ahead log in the bundle
directory), and ``compact`` folds the accumulated mutations back into
the bundle on a live server::

    python -m repro serve parts/ --port 7531 --wal
    python -m repro compact --port 7531

``partition-stream`` partitions an edge list **without materialising the
graph** — two streaming passes under a byte budget, writing the same
bundle format ``--save-dir`` does (see ``docs/STREAMING_PARTITIONING.md``)::

    python -m repro partition-stream graph.txt.gz parts/ -p 16 --memory-budget 256M

``refine`` runs the local-search RF refinement post-pass over a saved
bundle (boundary-edge moves and pair swaps under the capacity bound) and
rewrites it in place — a running ``--watch`` server picks the refined
bundle up automatically, or ``reload`` swaps it in by hand::

    python -m repro refine parts/
    python -m repro serve parts/ --wal --refine-on-compact   # refine online

Examples
--------
::

    python -m repro graph.txt -p 10
    python -m repro graph.txt.gz -p 16 --algorithm METIS --seed 7 \
        --assignments parts.tsv --detail
    python -m repro graph.txt -p 8 --algorithm TLP-W:100000   # bounded memory
    python -m repro graph.txt -p 8 --save-dir parts/ && python -m repro serve parts/
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.graph.graph import Graph
from repro.graph.io import read_edge_array
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.metrics import PartitionReport
from repro.partitioning.registry import available_partitioners, make_partitioner


def _parse_bytes(text: str) -> int:
    """Parse a byte size: plain bytes or a K/M/G-suffixed count (binary)."""
    text = text.strip()
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    suffix = text[-1:].upper()
    if suffix in units:
        return int(float(text[:-1]) * units[suffix])
    return int(text)


def _build_partition_stream_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro partition-stream",
        description="Partition an edge list into a serving bundle without "
        "ever materialising the graph: two streaming passes (clustering + "
        "degree sketch, then cluster-aware HDRF/greedy placement into "
        "per-partition spills) and an external-sort fold into the same "
        "bundle format --save-dir writes.",
    )
    parser.add_argument("input", help="edge-list file (SNAP format, .gz ok)")
    parser.add_argument("output", type=Path, help="bundle directory to write")
    parser.add_argument(
        "-p", "--partitions", type=int, required=True, help="number of partitions"
    )
    parser.add_argument(
        "--memory-budget",
        type=_parse_bytes,
        default=None,
        metavar="BYTES",
        help="byte budget for in-memory state (suffixes K/M/G; e.g. 256M). "
        "Sizes the exact-degree cap, spill buffers, and sort runs; "
        "omitted = generous defaults",
    )
    parser.add_argument(
        "--policy",
        choices=("hdrf", "greedy"),
        default="hdrf",
        help="pass-2 placement heuristic (default hdrf)",
    )
    parser.add_argument(
        "--lam", type=float, default=1.1, help="HDRF balance weight (default 1.1)"
    )
    parser.add_argument(
        "--gamma",
        type=float,
        default=None,
        metavar="G",
        help="cluster-affinity bonus (default 0.5; only with clustering)",
    )
    parser.add_argument(
        "--no-cluster",
        action="store_true",
        help="skip the pass-1 clustering (degree sketch only; plain "
        "streaming HDRF placement)",
    )
    parser.add_argument(
        "--hints",
        type=Path,
        default=None,
        metavar="BUNDLE",
        help="prior bundle whose refined partition-size profile "
        "(metadata['refined']['partition_sizes']) becomes HDRF balance "
        "priors for placement",
    )
    parser.add_argument(
        "--compress", action="store_true", help="write gzip edge files"
    )
    return parser


def partition_stream_main(argv: List[str]) -> int:
    """The ``partition-stream`` subcommand: out-of-core partitioning."""
    from repro.partitioning.oocore import partition_stream
    from repro.partitioning.oocore.place import DEFAULT_GAMMA

    args = _build_partition_stream_parser().parse_args(argv)
    if args.partitions < 1:
        print("error: --partitions must be >= 1", file=sys.stderr)
        return 2
    budget = (
        f"{args.memory_budget} bytes" if args.memory_budget else "unbounded"
    )
    print(
        f"streaming {args.input} into p={args.partitions} "
        f"[{args.policy} placement, memory budget {budget}]"
    )
    try:
        result = partition_stream(
            args.input,
            args.output,
            num_partitions=args.partitions,
            memory_budget=args.memory_budget,
            policy=args.policy,
            lam=args.lam,
            gamma=args.gamma if args.gamma is not None else DEFAULT_GAMMA,
            cluster=not args.no_cluster,
            hints=args.hints,
            compress=args.compress,
            metadata={
                "algorithm": "oocore-2ps",
                "policy": args.policy,
                "input": str(args.input),
                "num_partitions": args.partitions,
                "memory_budget_bytes": args.memory_budget,
            },
        )
    except OverflowError as exc:  # an id outside int64, named by its line
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: cannot partition {args.input}: {exc}", file=sys.stderr)
        return 2
    print(
        f"pass 1 (cluster+sketch) : {result.pass1_seconds:.3f}s "
        f"[{result.sketch_kind} degrees, {result.num_clusters} clusters]"
    )
    print(
        f"pass 2 (placement)      : {result.pass2_seconds:.3f}s "
        f"[{result.num_edges} edges, {result.num_vertices} vertices]"
    )
    print(f"bundle (sort+csr)       : {result.bundle_seconds:.3f}s")
    print(
        f"replication factor      : {result.replication_factor:.4f} "
        f"({result.edges_per_s:.0f} edges/s end-to-end)"
    )
    print(f"wrote partition bundle with manifest {result.manifest_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("input", help="edge-list file (SNAP format, .gz ok)")
    parser.add_argument(
        "-p", "--partitions", type=int, required=True, help="number of partitions"
    )
    parser.add_argument(
        "--algorithm",
        default="TLP",
        help=f"one of {available_partitioners()} (or TLP_R:<r> / TLP-W:<window>)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--assignments", type=Path, default=None, help="write 'u v k' TSV here"
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="write one part_<k>.edges file per partition here",
    )
    parser.add_argument(
        "--save-dir",
        type=Path,
        default=None,
        help="write a verified partition bundle (edge files + JSON manifest)",
    )
    parser.add_argument(
        "--detail", action="store_true", help="print per-partition diagnostics"
    )
    return parser


def write_assignments(partition: EdgePartition, path: Path) -> None:
    """Write the edge -> partition mapping as a TSV."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# u\tv\tpartition\n")
        for k in range(partition.num_partitions):
            for u, v in partition.edges_of(k):
                fh.write(f"{u}\t{v}\t{k}\n")


def write_partition_files(partition: EdgePartition, directory: Path) -> List[Path]:
    """Write each partition as its own edge-list file; returns the paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths: List[Path] = []
    for k in range(partition.num_partitions):
        path = directory / f"part_{k}.edges"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# partition {k}: {len(partition.edges_of(k))} edges\n")
            for u, v in partition.edges_of(k):
                fh.write(f"{u}\t{v}\n")
        paths.append(path)
    return paths


def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve routing queries against a saved partition bundle.",
    )
    parser.add_argument("directory", type=Path, help="a --save-dir bundle")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = pick a free port")
    parser.add_argument(
        "--max-queue", type=int, default=1024, help="bounded request queue size"
    )
    parser.add_argument(
        "--no-verify", action="store_true", help="skip manifest checksum checks"
    )
    parser.add_argument(
        "--no-hot-reload",
        action="store_true",
        help="disable the reload admin op, SIGHUP, and --watch",
    )
    parser.add_argument(
        "--watch",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="poll the bundle manifest this often and hot-reload on change",
    )
    parser.add_argument(
        "--wal",
        action="store_true",
        help="enable edge mutations backed by a write-ahead log in the bundle "
        "directory (replayed on start)",
    )
    parser.add_argument(
        "--fsync",
        choices=("always", "batch", "never"),
        default="batch",
        help="WAL durability: fsync every append, at most every 50ms (default), "
        "or never",
    )
    parser.add_argument(
        "--placement",
        choices=("hdrf", "greedy"),
        default="hdrf",
        help="streaming heuristic routing inserted edges to a partition",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=None,
        metavar="EDGES",
        help="per-partition edge capacity bound C for inserts "
        "(default: unbounded)",
    )
    parser.add_argument(
        "--refine-on-compact",
        action="store_true",
        help="with --wal: run local-search RF refinement on every "
        "compaction, folding out mutation-induced RF drift before the "
        "epoch swap",
    )
    parser.add_argument(
        "--refine-slack",
        type=float,
        default=1.0,
        metavar="S",
        help="with --refine-on-compact: capacity headroom multiplier "
        "ceil(S*m/p) for the refinement pass (default 1.0)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="expose Prometheus metrics on http://HOST:PORT/metrics",
    )
    return parser


def _install_stop_signals(stop: "asyncio.Event") -> None:  # noqa: F821
    """SIGTERM and SIGINT both trigger a graceful drain-and-stop."""
    import asyncio
    import signal

    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, AttributeError, OSError, RuntimeError):
            # No POSIX signals on this platform, or the loop is not on
            # the main thread (embedded / tests); Ctrl-C still works via
            # KeyboardInterrupt.
            pass


def serve_main(argv: List[str]) -> int:
    """The ``serve`` subcommand: run a server until interrupted."""
    import asyncio

    from repro.service.server import PartitionServer
    from repro.service.store import PartitionStore, ReloadError, StoreManager

    args = _build_serve_parser().parse_args(argv)
    ingest_only = [
        flag
        for flag, given in (
            ("--capacity", args.capacity is not None),
            ("--refine-on-compact", args.refine_on_compact),
        )
        if given
    ]
    if ingest_only and not args.wal:
        print(
            f"error: {', '.join(ingest_only)} only applies with --wal",
            file=sys.stderr,
        )
        return 2
    try:
        store = PartitionStore.open(args.directory, verify=not args.no_verify)
    except (OSError, ValueError) as exc:
        print(f"error: cannot open {args.directory}: {exc}", file=sys.stderr)
        return 2
    print(
        f"opened {args.directory}: "
        f"p={store.num_partitions}, "
        f"{store.num_edges} edges, {store.num_vertices} vertices, "
        f"RF={store.replication_factor():.4f}"
    )

    from repro.partitioning.serialization import MANIFEST_NAME

    manifest = Path(args.directory) / MANIFEST_NAME

    manager = StoreManager(store)
    ingestor = None
    if args.wal:
        from repro.service.ingest import Ingestor

        try:
            ingestor = Ingestor.enable(
                manager,
                args.directory,
                fsync=args.fsync,
                policy=args.placement,
                capacity=args.capacity,
                refine_on_compact=args.refine_on_compact,
                refine_slack=args.refine_slack,
            )
        except Exception as exc:  # noqa: BLE001 — bad WAL = refuse to start
            print(f"error: cannot enable ingest: {exc}", file=sys.stderr)
            return 2
        capacity = args.capacity if args.capacity is not None else "unbounded"
        refine = (
            f", refine-on-compact slack {args.refine_slack:g}"
            if args.refine_on_compact
            else ""
        )
        print(
            f"ingest enabled [{args.placement} placement, capacity {capacity}, "
            f"fsync {args.fsync}{refine}]: replayed "
            f"{ingestor.replayed_mutations} WAL mutations "
            f"({ingestor.wal.size} bytes)"
        )

    try:
        server = PartitionServer(
            manager,
            host=args.host,
            port=args.port,
            max_queue=args.max_queue,
            allow_reload=not args.no_hot_reload,
            ingestor=ingestor,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if ingestor is not None:
            ingestor.close()
        return 2

    async def run() -> None:
        async def hot_reload(origin: str) -> None:
            try:
                info = await manager.reload(
                    args.directory, verify=not args.no_verify
                )
            except ReloadError as exc:
                print(f"{origin}: reload failed, old epoch keeps serving: {exc}")
            else:
                print(
                    f"{origin}: hot reload -> epoch {info['epoch']} "
                    f"(RF={info['replication_factor']}, "
                    f"drained {info['drained']} in-flight)"
                )

        async def watch_manifest(interval: float) -> None:
            last_mtime = manifest.stat().st_mtime if manifest.exists() else 0.0
            while True:
                await asyncio.sleep(interval)
                try:
                    mtime = manifest.stat().st_mtime
                except OSError:
                    continue
                if mtime != last_mtime:
                    last_mtime = mtime
                    await hot_reload("watch")

        host, port = await server.start()
        print(f"serving on {host}:{port} — SIGTERM or Ctrl-C drains and stops")
        metrics_server = None
        if args.metrics_port is not None:
            from repro.service.promhttp import MetricsServer

            metrics_server = MetricsServer(
                server.metrics, host=args.host, port=args.metrics_port
            )
            mhost, mport = await metrics_server.start()
            print(f"metrics on http://{mhost}:{mport}/metrics")
        watcher = None
        if args.watch > 0 and not args.no_hot_reload:
            watcher = asyncio.create_task(watch_manifest(args.watch))
            print(f"watching {manifest} every {args.watch:g}s")
        if not args.no_hot_reload:
            try:
                import signal

                asyncio.get_running_loop().add_signal_handler(
                    signal.SIGHUP,
                    lambda: asyncio.ensure_future(hot_reload("SIGHUP")),
                )
                print("SIGHUP triggers a hot reload of the bundle")
            except (NotImplementedError, AttributeError, OSError, RuntimeError):
                # No POSIX signals on this platform, or the loop is not
                # on the main thread (embedded / tests).
                pass
        stop_event = asyncio.Event()
        _install_stop_signals(stop_event)
        try:
            await stop_event.wait()
        finally:
            if watcher is not None:
                watcher.cancel()
            print("draining in-flight requests ...")
            if metrics_server is not None:
                await metrics_server.stop()
            await server.stop()
            if ingestor is not None:
                ingestor.close()  # flush + fsync the WAL tail

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("stopped")
    return 0


def _build_reload_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro reload",
        description="Hot-swap a running server onto a new partition bundle.",
    )
    parser.add_argument(
        "directory", type=Path, help="the --save-dir bundle to swap in"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--no-verify", action="store_true", help="skip manifest checksum checks"
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0, help="admin call timeout in seconds"
    )
    return parser


def reload_main(argv: List[str]) -> int:
    """The ``reload`` subcommand: one admin call against a live server."""
    from repro.service.client import ServiceError, SyncServiceClient

    args = _build_reload_parser().parse_args(argv)
    client = SyncServiceClient(
        args.host, args.port, timeout=args.timeout, max_retries=0
    )
    try:
        with client:
            info = client.reload(str(args.directory), verify=not args.no_verify)
    except ServiceError as exc:
        print(f"error: server refused the reload: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(
            f"error: cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr
        )
        return 2
    print(
        f"epoch {info['previous_epoch']} -> {info['epoch']}: "
        f"p={info['num_partitions']}, {info['num_edges']} edges, "
        f"RF={info['replication_factor']}, drained {info['drained']} in-flight "
        f"(build {info['build_seconds']}s)"
    )
    return 0


def _build_compact_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro compact",
        description="Fold a live server's pending mutations into its bundle "
        "(WAL resets, new epoch swaps in, no queries dropped).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--no-verify", action="store_true", help="skip manifest checksum checks"
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0, help="admin call timeout in seconds"
    )
    return parser


def compact_main(argv: List[str]) -> int:
    """The ``compact`` subcommand: one admin call against a live server."""
    from repro.service.client import ServiceError, SyncServiceClient

    args = _build_compact_parser().parse_args(argv)
    client = SyncServiceClient(
        args.host, args.port, timeout=args.timeout, max_retries=0
    )
    try:
        with client:
            info = client.compact(verify=not args.no_verify)
    except ServiceError as exc:
        print(f"error: server refused the compaction: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(
            f"error: cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr
        )
        return 2
    if info.get("skipped"):
        print(f"nothing to compact (epoch {info['epoch']} unchanged)")
        return 0
    print(
        f"folded {info['folded_mutations']} mutations: "
        f"epoch {info['previous_epoch']} -> {info['epoch']}, "
        f"{info['num_edges']} edges, RF={info['replication_factor']}, "
        f"drained {info['drained']} in-flight "
        f"({info['compaction_seconds']}s, WAL reset to {info['wal_bytes']} bytes)"
    )
    return 0


def _build_refine_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro refine",
        description="Lower a saved bundle's replication factor with "
        "local-search refinement (boundary-edge moves and pair swaps under "
        "the capacity bound), rewriting the bundle with before/after RF "
        "recorded in its manifest.",
    )
    parser.add_argument("directory", type=Path, help="a --save-dir bundle")
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="DIR",
        help="write the refined bundle here instead of rewriting in place",
    )
    parser.add_argument(
        "--slack",
        type=float,
        default=1.0,
        metavar="S",
        help="capacity headroom multiplier: bound is ceil(S*m/p), floored "
        "at the input's largest partition (default 1.0)",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=0,
        metavar="EDGES",
        help="explicit per-partition edge bound (overrides --slack)",
    )
    parser.add_argument(
        "--epsilon",
        type=float,
        default=0.0,
        metavar="RF",
        help="stop when a pass improves RF by less than this "
        "(default 0 = run to the fixpoint)",
    )
    parser.add_argument(
        "--max-passes", type=int, default=8, help="pass bound (default 8)"
    )
    parser.add_argument(
        "--no-swaps",
        action="store_true",
        help="disable the capacity-neutral pair-swap phase (moves only)",
    )
    parser.add_argument(
        "--no-verify", action="store_true", help="skip manifest checksum checks"
    )
    return parser


def refine_main(argv: List[str]) -> int:
    """The ``refine`` subcommand: refine a saved bundle offline."""
    from repro.partitioning.refine import RefineError, refine_bundle

    args = _build_refine_parser().parse_args(argv)
    try:
        manifest, stats = refine_bundle(
            args.directory,
            output=args.output,
            verify=not args.no_verify,
            capacity=args.capacity,
            slack=args.slack,
            epsilon=args.epsilon,
            max_passes=args.max_passes,
            swaps=not args.no_swaps,
        )
    except RefineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: cannot refine {args.directory}: {exc}", file=sys.stderr)
        return 2
    print(
        f"RF {stats.rf_before:.4f} -> {stats.rf_after:.4f} "
        f"(-{stats.rf_delta:.4f}): {stats.moves} moves + {stats.swaps} swaps "
        f"over {stats.passes} passes in {stats.seconds:.3f}s "
        f"[{stats.converged}, capacity {stats.capacity}]"
    )
    print(f"wrote refined bundle with manifest {manifest}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "reload":
        return reload_main(argv[1:])
    if argv and argv[0] == "compact":
        return compact_main(argv[1:])
    if argv and argv[0] == "refine":
        return refine_main(argv[1:])
    if argv and argv[0] == "partition-stream":
        return partition_stream_main(argv[1:])
    args = _build_parser().parse_args(argv)
    if args.partitions < 1:
        print("error: --partitions must be >= 1", file=sys.stderr)
        return 2
    try:
        partitioner = make_partitioner(args.algorithm, seed=args.seed)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        edges, vertices = read_edge_array(args.input)
    except (OSError, ValueError, OverflowError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2

    print(
        f"partitioning {len(vertices)} vertices / {len(edges)} edges "
        f"into p={args.partitions} with {args.algorithm} (seed {args.seed})"
    )
    try:
        partition = partitioner.partition_edges(edges, vertices, args.partitions)
    except ValueError as exc:  # e.g. a TLP-W window below the capacity
        print(f"error: cannot partition {args.input}: {exc}", file=sys.stderr)
        return 2
    partition.validate_edges(edges)
    report = PartitionReport.evaluate_edges(partition, edges)
    print(f"replication factor : {report.replication_factor:.4f}")
    print(f"edge balance       : {report.edge_balance:.4f}")
    print(f"spanned vertices   : {report.spanned_vertices}")
    if args.detail:
        from repro.analysis.partition_stats import describe_partition

        print()
        print(describe_partition(partition, Graph.from_edge_array(edges, vertices)))

    if args.assignments is not None:
        write_assignments(partition, args.assignments)
        print(f"wrote assignments to {args.assignments}")
    if args.output_dir is not None:
        paths = write_partition_files(partition, args.output_dir)
        print(f"wrote {len(paths)} partition files to {args.output_dir}/")
    if args.save_dir is not None:
        from repro.partitioning.serialization import save_partition

        manifest = save_partition(
            partition,
            args.save_dir,
            metadata={
                "algorithm": args.algorithm,
                "seed": args.seed,
                "num_partitions": args.partitions,
                "input": str(args.input),
                "replication_factor": report.replication_factor,
            },
        )
        print(f"wrote partition bundle with manifest {manifest}")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        raise SystemExit(0)
