#!/usr/bin/env python
"""Compare every implemented partitioner on one of the paper's datasets.

Run:  python examples/compare_partitioners.py [--dataset G4] [--scale 0.03]
      python examples/compare_partitioners.py --extended   # related-work too
"""

import argparse
import time

from repro.bench.report import render_table
from repro.datasets.cache import load_cached
from repro.partitioning.metrics import PartitionReport
from repro.partitioning.registry import EXTENDED_ALGORITHMS, PAPER_ALGORITHMS, make_partitioner


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="G4", help="G1..G9 (default G4)")
    parser.add_argument("--scale", type=float, default=0.03)
    parser.add_argument("--partitions", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--extended",
        action="store_true",
        help="also run HDRF/Greedy/Grid/FENNEL/NE and the one-stage ablations",
    )
    args = parser.parse_args()

    graph = load_cached(args.dataset, scale=args.scale, seed=args.seed)
    print(
        f"{args.dataset} stand-in @ scale {args.scale:g}: "
        f"{graph.num_vertices} vertices, {graph.num_edges} edges, p={args.partitions}\n"
    )

    algorithms = list(PAPER_ALGORITHMS)
    if args.extended:
        algorithms += list(EXTENDED_ALGORITHMS)

    rows = []
    for name in algorithms:
        start = time.perf_counter()
        partition = make_partitioner(name, seed=args.seed).partition(graph, args.partitions)
        seconds = time.perf_counter() - start
        partition.validate_against(graph)
        report = PartitionReport.evaluate(partition, graph)
        rows.append(
            [name, report.replication_factor, report.edge_balance, report.spanned_vertices, seconds]
        )
    rows.sort(key=lambda row: row[1])
    print(render_table(["algorithm", "RF", "balance", "spanned", "seconds"], rows))
    print("\n(lower RF is better; the paper's Fig. 8 ordering should hold)")


if __name__ == "__main__":
    main()
