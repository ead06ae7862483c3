#!/usr/bin/env python
"""Streaming vs. local partitioning: quality AND memory (paper §II).

The paper's argument for local partitioning:

* offline methods (METIS) need the whole graph in memory;
* streaming methods must retain everything received so far;
* local partitioning holds only one partition plus its frontier.

This example partitions the same graph three ways and reports RF next to
the peak retained state: ``m`` for the offline and streaming rows, and for
TLP the measured peak of partition edges plus frontier entries.  It also
demonstrates the paper's future-work sliding window improving a streaming
baseline on a shuffled stream.

Run:  python examples/streaming_vs_local.py
"""

from repro.bench.report import render_table
from repro.core.tlp import TLPPartitioner
from repro.graph.generators import community_graph
from repro.partitioning.greedy import GreedyPartitioner
from repro.partitioning.metrics import replication_factor
from repro.partitioning.registry import make_partitioner
from repro.streaming.orders import edge_stream
from repro.streaming.window import windowed_stream


def main() -> None:
    p = 10
    graph = community_graph(3_000, 18_000, 12, intra_fraction=0.9, seed=1)
    m = graph.num_edges
    print(f"graph: {graph.num_vertices} vertices, {m} edges, p={p}\n")

    rows = []

    # Offline: the whole graph is the working set.
    metis = make_partitioner("METIS", seed=0).partition(graph, p)
    rows.append(["METIS (offline)", replication_factor(metis, graph), m])

    # Streaming: every received edge is retained (paper §II-B).
    shuffled = edge_stream(graph, "random", seed=0)
    greedy = GreedyPartitioner(seed=0).assign_stream(shuffled, p)
    rows.append(["Greedy (streaming)", replication_factor(greedy, graph), m])

    # Streaming + the paper's future-work sliding window.
    window = 4096
    windowed = GreedyPartitioner(seed=0).assign_stream(
        windowed_stream(shuffled, window), p
    )
    rows.append([f"Greedy + window {window}", replication_factor(windowed, graph), m])

    # Local: one partition + frontier.
    tlp_partitioner = TLPPartitioner(seed=0)
    tlp = tlp_partitioner.partition(graph, p)
    rows.append(
        [
            "TLP (local)",
            replication_factor(tlp, graph),
            tlp_partitioner.last_telemetry.peak_local_state,
        ]
    )

    print(render_table(["method", "RF", "peak retained state"], rows))
    print(
        "\nLocal partitioning matches offline quality while holding an order"
        " of magnitude less state than either alternative."
    )


if __name__ == "__main__":
    main()
