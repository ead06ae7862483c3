"""Command-line reproduction driver: ``python -m repro.bench <experiment>``.

Experiments (paper artefact in parentheses):

* ``table3`` — dataset statistics (Table III)
* ``fig8``   — RF of TLP/METIS/LDG/DBH/Random, p = 10/15/20 (Fig. 8)
* ``table4`` — dRF = RF(METIS) - RF(TLP) (Table IV)
* ``fig9`` / ``fig10`` / ``fig11`` — TLP vs TLP_R sweeps at p = 10/15/20
* ``table6`` — mean selected-vertex degree per stage (Table VI)
* ``comm``   — PageRank communication vs RF (the paper's motivation)
* ``scaling`` — time/space scaling of TLP (§III-E)
* ``validate`` — measured structure of every dataset stand-in (Table III ext.)
* ``extended`` — every implemented algorithm ranked on one dataset
* ``window``  — TLP-W window-size sweep (the §V future-work feature)
* ``seeds``   — RF stability across random seeds, per algorithm
* ``slack``   — TLP's balance-slack vs RF trade-off
* ``perf``    — TLP hot-path throughput benchmark; writes ``BENCH_perf.json``
* ``refine``  — local-search RF refinement benchmark (rf-delta, moves/s,
  time-to-convergence per bundle); merges a ``refine`` section into
  ``BENCH_perf.json``
* ``oocore``  — out-of-core streaming partitioner vs in-memory HDRF
  (RF ratio, edges/s, peak RSS vs byte budget, each in its own
  subprocess); merges an ``oocore`` section into ``BENCH_perf.json``
* ``serve``   — partition-service load test; writes ``BENCH_serve.json``
* ``all``    — everything above (except ``perf``/``refine``/``oocore``/
  ``serve``, run explicitly)

``--scale`` overrides each dataset's default scale (see DESIGN.md §5);
``--quick`` uses the small bench scales the pytest suite uses.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.bench.communication import communication_experiment, render_communication
from repro.bench.figures import DEFAULT_P_VALUES, fig8, fig9_to_11
from repro.bench.harness import load_paper_graphs
from repro.bench.report import render_banner, render_table
from repro.bench.scaling import empirical_exponent, time_scaling_sweep
from repro.bench.tables import render_table3, table4, table6

FIG_P = {"fig9": 10, "fig10": 15, "fig11": 20}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table3",
            "fig8",
            "table4",
            "fig9",
            "fig10",
            "fig11",
            "table6",
            "comm",
            "scaling",
            "validate",
            "extended",
            "window",
            "seeds",
            "slack",
            "perf",
            "refine",
            "oocore",
            "serve",
            "all",
        ],
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="uniform dataset scale (default: per-dataset defaults)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use the tiny bench scales (seconds instead of minutes)",
    )
    parser.add_argument(
        "--datasets",
        nargs="*",
        default=None,
        metavar="GK",
        help="restrict to these dataset keys (e.g. G1 G2)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the report to FILE",
    )
    parser.add_argument(
        "--memory-budget",
        default=None,
        metavar="BYTES",
        help="oocore only: byte budget for the streaming contender "
        "(suffixes K/M/G; default 8M quick, 64M full)",
    )
    parser.add_argument(
        "--mutate",
        type=float,
        default=0.0,
        metavar="RATIO",
        help="serve only: drive RATIO*requests insert/delete mutations "
        "through the WAL write path alongside the readers",
    )
    parser.add_argument(
        "--delete-ratio",
        type=float,
        default=0.3,
        metavar="R",
        help="serve only: fraction of mutations that are deletes",
    )
    parser.add_argument(
        "--fsync",
        choices=["always", "batch", "never"],
        default="always",
        help="serve only: WAL fsync policy for the mutate workload",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="serve only: run the load phase under cProfile and dump the "
        "top-20 cumulative hotspots next to BENCH_serve.json",
    )
    parser.add_argument(
        "--wire",
        choices=["json", "binary", "both"],
        default="binary",
        help="serve only: client wire codec; 'both' drives the workload "
        "once per codec (binary as the headline numbers)",
    )
    return parser


def _graphs(args):
    return load_paper_graphs(
        scale=args.scale, seed=args.seed, keys=args.datasets, bench=args.quick
    )


def _run_fig8(args, graphs) -> None:
    print(render_banner("Fig. 8 — replication factor per algorithm"))
    data = fig8(
        graphs=graphs,
        seed=args.seed,
        progress=lambda r: print(
            f"  done {r.dataset} {r.algorithm} p={r.num_partitions} "
            f"RF={r.replication_factor:.3f} ({r.seconds:.1f}s)",
            file=sys.stderr,
        ),
    )
    for p in DEFAULT_P_VALUES:
        print(f"\nFig. 8 ({'abc'[DEFAULT_P_VALUES.index(p)]}) p={p}:")
        print(data.render(p))
    print()
    print(render_banner("Table IV — dRF = RF(METIS) - RF(TLP)"))
    print(table4(fig8_data=data).render())


def _run_tlp_r(args, graphs, name: str) -> None:
    p = FIG_P[name]
    print(render_banner(f"Fig. {name[3:]} — TLP vs TLP_R sweep, p={p}"))
    for sweep in fig9_to_11(p, graphs=graphs, seed=args.seed):
        print()
        print(sweep.render())


def _run_table6(args, graphs) -> None:
    print(render_banner("Table VI — mean degree of selected vertices per stage"))
    print(table6(graphs=graphs, seed=args.seed).render())


def _run_comm(args, graphs) -> None:
    print(render_banner("Communication experiment — PageRank messages vs RF"))
    key = sorted(graphs)[0]
    print(f"graph: {key} ({graphs[key]!r}), p=10\n")
    rows = communication_experiment(graphs[key], num_partitions=10, seed=args.seed)
    print(render_communication(rows))


def _run_validate(args) -> None:
    from repro.datasets.validation import render_validation, validate_all

    print(render_banner("Table III extended — stand-in structure validation"))
    print(render_validation(validate_all(scale_override=args.scale, seed=args.seed)))


def _run_extended(args, graphs) -> None:
    from repro.partitioning.metrics import edge_balance, replication_factor
    from repro.partitioning.registry import (
        EXTENDED_ALGORITHMS,
        PAPER_ALGORITHMS,
        make_partitioner,
    )

    key = sorted(graphs)[0]
    graph = graphs[key]
    print(render_banner("Extended comparison — all implemented algorithms"))
    print(f"graph: {key} ({graph!r}), p=10\n")
    rows = []
    for name in tuple(PAPER_ALGORITHMS) + tuple(EXTENDED_ALGORITHMS):
        partition = make_partitioner(name, seed=args.seed).partition(graph, 10)
        rows.append(
            [name, replication_factor(partition, graph), edge_balance(partition)]
        )
    rows.sort(key=lambda row: row[1])
    print(render_table(["algorithm", "RF", "balance"], rows))


def _run_window(args, graphs) -> None:
    import math

    from repro.core.windowed import WindowedLocalPartitioner
    from repro.partitioning.metrics import replication_factor
    from repro.partitioning.registry import make_partitioner

    key = sorted(graphs)[0]
    graph = graphs[key]
    p = 10
    capacity = math.ceil(graph.num_edges / p)
    print(render_banner("TLP-W window sweep — §V future work"))
    print(f"graph: {key} ({graph!r}), p={p}, C={capacity}\n")
    rows = []
    window = capacity
    while window < graph.num_edges:
        part = WindowedLocalPartitioner(window_size=window, seed=args.seed).partition(
            graph, p
        )
        rows.append([window, replication_factor(part, graph)])
        window *= 2
    tlp = make_partitioner("TLP", seed=args.seed).partition(graph, p)
    rows.append(["full graph (TLP)", replication_factor(tlp, graph)])
    print(render_table(["window", "RF"], rows))


def _run_seeds(args, graphs) -> None:
    from repro.bench.sweeps import seed_sensitivity
    from repro.partitioning.registry import PAPER_ALGORITHMS

    key = sorted(graphs)[0]
    graph = graphs[key]
    print(render_banner("Seed sensitivity — RF across 5 seeds"))
    print(f"graph: {key} ({graph!r}), p=10\n")
    rows = seed_sensitivity(graph, PAPER_ALGORITHMS, 10)
    print(
        render_table(
            ["algorithm", "mean RF", "min", "max", "std"],
            [[r.algorithm, r.mean_rf, r.min_rf, r.max_rf, r.std_rf] for r in rows],
        )
    )


def _run_slack(args, graphs) -> None:
    from repro.bench.sweeps import slack_tradeoff

    key = sorted(graphs)[0]
    graph = graphs[key]
    print(render_banner("Slack trade-off — TLP RF vs capacity slack"))
    print(f"graph: {key} ({graph!r}), p=10\n")
    rows = slack_tradeoff(graph, 10, seed=args.seed)
    print(
        render_table(
            ["slack", "RF", "realised balance"],
            [[r.slack, r.replication_factor, r.edge_balance] for r in rows],
        )
    )


def _run_perf(args) -> None:
    from repro.bench.perf import (
        FULL_SCALE,
        PROBE_DATASET,
        QUICK_SCALE,
        run_perf,
        write_report,
    )
    from repro.datasets.cache import load_cached

    scale = args.scale if args.scale is not None else (
        QUICK_SCALE if args.quick else FULL_SCALE
    )
    dataset = (args.datasets or [PROBE_DATASET])[0]
    print(render_banner("Throughput — TLP hot-path benchmark"))
    print(f"graph: {dataset} scale={scale:g}, p=8\n")
    graph = load_cached(dataset, scale=scale, seed=args.seed)
    report = run_perf(
        graph,
        dataset=dataset,
        seeds=(args.seed, args.seed + 1),
        quick=args.quick,
        progress=lambda r: print(
            f"  done {r.algorithm:14s} seed={r.seed} "
            f"{r.edges_per_s:>9.0f} edges/s RF={r.rf:.3f}",
            file=sys.stderr,
        ),
    )
    print(
        render_table(
            ["algorithm", "seed", "seconds", "edges/s", "RF"],
            [
                [r["algorithm"], r["seed"], r["seconds"], r["edges_per_s"],
                 r["rf"]]
                for r in report["results"]
            ],
        )
    )
    # The refine and oocore experiments own their sections; carry them
    # over so a perf rerun never silently drops tracked numbers.
    import json

    from repro.bench.perf import DEFAULT_REPORT

    try:
        with open(DEFAULT_REPORT, "r", encoding="utf-8") as fh:
            existing = json.load(fh)
        if isinstance(existing, dict):
            for section in ("refine", "oocore"):
                if section in existing:
                    report[section] = existing[section]
    except (OSError, ValueError):
        pass
    path = write_report(report)
    print(f"wrote {path}")


def _run_refine(args) -> None:
    from repro.bench.harness import load_paper_graphs
    from repro.bench.refine import (
        DEFAULT_DATASETS,
        DEFAULT_P,
        merge_refine_section,
        run_refine,
    )

    datasets = args.datasets or list(DEFAULT_DATASETS)
    print(render_banner("Refinement — local-search RF post-pass benchmark"))
    print(f"datasets: {' '.join(datasets)}, p={DEFAULT_P}\n")
    graphs = load_paper_graphs(
        scale=args.scale, seed=args.seed, keys=datasets, bench=args.quick
    )
    section = run_refine(
        graphs,
        seed=args.seed,
        quick=args.quick,
        progress=lambda row: print(
            f"  done {row['dataset']} {row['source']:4s} "
            f"RF {row['rf_before']:.4f} -> {row['rf_after']:.4f} "
            f"(-{row['rf_delta']:.4f}) {row['moves']}mv+{row['swaps']}sw "
            f"in {row['seconds']:g}s [{row['converged']}]",
            file=sys.stderr,
        ),
    )
    print(
        render_table(
            ["dataset", "source", "RF before", "RF after", "delta",
             "moves", "swaps", "seconds", "moves/s", "converged"],
            [
                [r["dataset"], r["source"], r["rf_before"], r["rf_after"],
                 r["rf_delta"], r["moves"], r["swaps"], r["seconds"],
                 r["moves_per_s"], r["converged"]]
                for r in section["rows"]
            ],
        )
    )
    path = merge_refine_section(section)
    print(f"\nmerged refine section into {path}")


def _run_oocore(args) -> None:
    from repro.__main__ import _parse_bytes
    from repro.bench.oocore import (
        PROBE_DATASET,
        merge_oocore_section,
        run_oocore,
    )
    from repro.bench.perf import FULL_SCALE, QUICK_SCALE
    from repro.datasets.cache import load_cached

    scale = args.scale if args.scale is not None else (
        QUICK_SCALE if args.quick else FULL_SCALE
    )
    dataset = (args.datasets or [PROBE_DATASET])[0]
    budget = (
        _parse_bytes(args.memory_budget)
        if args.memory_budget is not None
        else None
    )
    print(render_banner("Out-of-core — streaming partitioner vs in-memory"))
    print(f"graph: {dataset} scale={scale:g}, p=8\n")
    graph = load_cached(dataset, scale=scale, seed=args.seed)
    section = run_oocore(
        graph,
        dataset=dataset,
        seed=args.seed,
        quick=args.quick,
        memory_budget=budget,
        progress=lambda message: print(f"  {message}", file=sys.stderr),
    )
    streaming, in_memory = section["streaming"], section["in_memory"]
    print(
        render_table(
            ["contender", "RF", "edges/s", "rss KiB"],
            [
                ["streaming", streaming["replication_factor"],
                 streaming["edges_per_s"], streaming["rss_max_kib"]],
                ["in-memory HDRF", in_memory["replication_factor"],
                 in_memory["edges_per_s"], in_memory["rss_max_kib"]],
            ],
        )
    )
    print(
        f"\nRF ratio (streaming / in-memory): {section['rf_ratio']:g}; "
        f"budget {section['memory_budget_bytes']} B, streaming RSS = "
        f"{section['rss_budget_ratio']:g}x budget"
    )
    path = merge_oocore_section(section)
    print(f"merged oocore section into {path}")


def _run_serve(args) -> None:
    from repro.bench.serve import (
        DEFAULT_DATASET,
        FULL_REQUESTS,
        FULL_SCALE,
        QUICK_REQUESTS,
        QUICK_SCALE,
        run_serve,
        write_report,
    )
    from repro.datasets.cache import load_cached

    scale = args.scale if args.scale is not None else (
        QUICK_SCALE if args.quick else FULL_SCALE
    )
    dataset = (args.datasets or [DEFAULT_DATASET])[0]
    requests = QUICK_REQUESTS if args.quick else FULL_REQUESTS
    print(render_banner("Serving — partition-service load test"))
    print(f"graph: {dataset} scale={scale:g}, p=8, {requests} mixed queries\n")
    graph = load_cached(dataset, scale=scale, seed=args.seed)
    profile_path = None
    if args.profile:
        from repro.bench.serve import DEFAULT_REPORT

        base = args.output if args.output else DEFAULT_REPORT
        root, _ = os.path.splitext(base)
        profile_path = f"{root}_profile.txt"
    report = run_serve(
        graph,
        dataset=dataset,
        num_requests=requests,
        seed=args.seed,
        quick=args.quick,
        mutate_ratio=args.mutate,
        delete_ratio=args.delete_ratio,
        fsync=args.fsync,
        profile_path=profile_path,
        progress=lambda message: print(f"  {message}", file=sys.stderr),
        wire=args.wire,
    )
    print(
        render_table(
            ["op", "count", "mean ms", "p50 ms", "p95 ms", "p99 ms"],
            [
                [op, row["count"], row["mean_ms"], row["p50_ms"],
                 row["p95_ms"], row["p99_ms"]]
                for op, row in sorted(report["ops"].items())
            ],
        )
    )
    open_times = report["store_open_seconds"]
    print(
        f"\nstore open: sidecar {open_times['sidecar']:g}s vs text rebuild "
        f"{open_times['text']:g}s ({open_times['speedup']:g}x); "
        f"peak RSS {report['rss_max_kib']} KiB"
    )
    print(
        f"{report['num_requests']} requests in {report['elapsed_s']:g}s "
        f"= {report['requests_per_s']} req/s [wire={report['wire']}]; "
        f"verified {report['verified_neighbors']} neighbour fan-outs "
        f"and {report['verified_edges']} edge routes"
    )
    modes = report.get("wire_modes") or {}
    if len(modes) > 1:
        per_codec = ", ".join(
            f"{mode} {summary['requests_per_s']} req/s"
            for mode, summary in sorted(modes.items())
        )
        print(f"wire modes: {per_codec}")
    print(f"counter parity: {report['counter_parity']}")
    batch = report["batch"]
    print(
        f"batching: {batch['batches']} batches, mean size "
        f"{batch['mean_batch_size']:g}, {batch['vectorised_requests']} "
        f"vectorised answers, {batch['dedup_hits']} dedup hits"
    )
    if profile_path:
        print(f"profile: top-20 cumulative hotspots in {profile_path}")
    ingest = report.get("ingest")
    if ingest:
        fsync_ms = ingest.get("wal_fsync_ms") or {}
        fsync_note = (
            f"fsync p99 {fsync_ms['p99_ms']:g}ms" if fsync_ms else "no fsyncs"
        )
        print(
            f"ingest [{ingest['fsync']}]: {ingest['mutations']} mutations "
            f"({ingest['deletes']} deletes) in {ingest['mutate_seconds']:g}s "
            f"= {ingest['mutations_per_s']} mut/s; {fsync_note}; "
            f"WAL {ingest['wal_bytes']} B; RF drift {ingest['overlay_rf_drift']:+g}"
        )
    path = write_report(report)
    print(f"wrote {path}")


def _run_scaling(args) -> None:
    print(render_banner("Scaling — TLP time/space vs graph size (§III-E)"))
    points = time_scaling_sweep(seed=args.seed)
    print(
        render_table(
            ["|V|", "|E|", "p", "seconds", "peak KiB"],
            [
                [pt.num_vertices, pt.num_edges, pt.num_partitions, pt.seconds, pt.peak_kib]
                for pt in points
            ],
        )
    )
    print(f"\nempirical log-log exponent (time vs |E|): {empirical_exponent(points):.2f}")


class _Tee:
    """Duplicate writes to stdout and a file."""

    def __init__(self, primary, secondary):
        self._streams = (primary, secondary)

    def write(self, text):
        for stream in self._streams:
            stream.write(text)

    def flush(self):
        for stream in self._streams:
            stream.flush()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    if args.output:
        out_file = open(args.output, "w", encoding="utf-8")
        original_stdout = sys.stdout
        sys.stdout = _Tee(original_stdout, out_file)
        try:
            return _dispatch(args)
        finally:
            sys.stdout = original_stdout
            out_file.close()
    return _dispatch(args)


def _dispatch(args) -> int:
    wants = (
        [
            "table3",
            "validate",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "table6",
            "comm",
            "extended",
            "window",
            "seeds",
            "slack",
            "scaling",
        ]
        if args.experiment == "all"
        else [args.experiment]
    )
    graphs = None
    needs_graphs = set(wants) & (
        {"fig8", "table4", "table6", "comm", "extended", "window", "seeds", "slack"}
        | set(FIG_P)
    )
    if needs_graphs:
        graphs = _graphs(args)
    for want in wants:
        if want == "table3":
            print(render_banner("Table III — datasets"))
            print(render_table3())
        elif want in ("fig8", "table4"):
            _run_fig8(args, graphs)
        elif want in FIG_P:
            _run_tlp_r(args, graphs, want)
        elif want == "table6":
            _run_table6(args, graphs)
        elif want == "comm":
            _run_comm(args, graphs)
        elif want == "validate":
            _run_validate(args)
        elif want == "extended":
            _run_extended(args, graphs)
        elif want == "window":
            _run_window(args, graphs)
        elif want == "seeds":
            _run_seeds(args, graphs)
        elif want == "slack":
            _run_slack(args, graphs)
        elif want == "perf":
            _run_perf(args)
        elif want == "refine":
            _run_refine(args)
        elif want == "oocore":
            _run_oocore(args)
        elif want == "serve":
            _run_serve(args)
        elif want == "scaling":
            _run_scaling(args)
        print()
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        raise SystemExit(0)
