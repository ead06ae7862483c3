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
* ``all``    — everything above

System performance (offline commands, read and write serving) is measured
by ``perfbench/run.py`` at the repository root, not here.

``--scale`` overrides each dataset's default scale (see DESIGN.md §5);
``--quick`` uses the small bench scales the pytest suite uses.
"""

from __future__ import annotations

import argparse
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
        elif want == "scaling":
            _run_scaling(args)
        print()
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        raise SystemExit(0)
