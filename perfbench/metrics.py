"""The benchmark's workloads and metrics, and the layer map behind them.

``python3 perfbench/metrics.py`` prints ``BENCHMARK.json`` from these
tables, so the file and the program cannot drift apart.  ``LAYERS`` also
records, for every per-layer metric, the workload whose stage it times
and the end-to-end metrics it should move; the runner prints it with
every traced report.

Every bounded end-to-end time is CPU seconds of the process doing the
work, normalised to the nominal speed of ``speed.py``'s probe: the
command's ``main()`` for the offline commands, the server process for
requests, compactions and start-up, and the generator for the graph.  On
a shared two-vCPU virtual machine the host's other tenants moved the CPU
time of the same work by up to 2.5x within minutes, and wall-clock
throughput and latency by as much, and a spread like that cannot be held
under any bound a change is judged by.  The probe, sampled on the
program's CPU through the whole run, takes most of that out.  The raw CPU
seconds are printed next to each normalised figure (``raw.*`` rows), and
the clients' wall-clock view (throughput, p50 and p99 latency) is
measured in every run and reported as ``client.*`` per-layer metrics,
without a bound.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

RUN_SECONDS = 20

WORKLOADS: List[Tuple[str, str]] = [
    ("offline", "offline commands dominate: TLP, refine and a multi-run external-sort "
                "stream on a G5 stand-in; serving stages are short"),
    ("serve-read", "closed- and open-loop binary reads on a single-process CSR server, "
                   "degree-weighted picks so hub rows and batch repeats dominate"),
    ("serve-write", "fsync-always writes, uniform open-loop reads and refine-on-compact "
                    "cycles; the overlay, ingest and WAL paths dominate"),
]

#: (name, unit, better, bound).  Times are normalised CPU seconds (see above).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("ok_share", "share", "higher", 0.01),
    ("partition_s", "s", "lower", 0.25),
    ("refine_s", "s", "lower", 0.25),
    ("stream_s", "s", "lower", 0.25),
    ("rf", "ratio", "lower", 0.05),
    ("rf_refined", "ratio", "lower", 0.05),
    ("rf_stream", "ratio", "lower", 0.05),
    ("stream_rss_mib", "MiB", "lower", 0.1),
    ("cpu_us_per_op", "us", "lower", 0.25),
    ("compact_s", "s", "lower", 0.25),
]

#: (name, unit, better, stage workload, end-to-end metrics it should move)
# Long rows are kept on one line so the table reads as a table.
LAYERS: List[Tuple[str, str, str, str, str]] = [
    ("graph.read_s", "s", "lower", "offline", "partition_s"),
    ("core.grow_s", "s", "lower", "offline", "partition_s"),
    ("core.selections", "count", "lower", "offline", "partition_s rf"),
    ("core.stage2_share", "share", "lower", "offline", "partition_s rf"),
    ("core.reseeds", "count", "lower", "offline", "partition_s rf"),
    ("core.peak_local_state", "count", "lower", "offline", "partition_s rf"),
    ("csr_bundle.build_s", "s", "lower", "offline", "partition_s refine_s"),
    ("serialization.save_s", "s", "lower", "offline", "partition_s refine_s"),
    ("serialization.load_s", "s", "lower", "offline", "refine_s"),
    ("serialization.bytes_per_edge", "B", "lower", "offline", "partition_s"),
    ("refine.search_s", "s", "lower", "offline", "refine_s"),
    ("refine.moves", "count", "higher", "offline", "refine_s rf_refined"),
    ("refine.swaps", "count", "higher", "offline", "refine_s rf_refined"),
    ("refine.passes", "count", "lower", "offline", "refine_s rf_refined"),
    ("oocore.pass1_s", "s", "lower", "offline", "stream_s stream_rss_mib"),
    ("oocore.pass2_s", "s", "lower", "offline", "stream_s rf_stream"),
    ("oocore.sort_merge_s", "s", "lower", "offline", "stream_s stream_rss_mib"),
    ("oocore.clusters", "count", "higher", "offline", "rf_stream"),
    ("oocore.sketch_exact", "flag", "higher", "offline", "stream_s rf_stream"),
    ("trace.offline_unattributed_share", "share", "lower", "offline", "partition_s refine_s stream_s"),
    ("trace.offline_overhead", "share", "lower", "offline", "partition_s refine_s stream_s"),
    ("protocol.decode_us", "us", "lower", "serve-read", "cpu_us_per_op"),
    ("protocol.encode_us", "us", "lower", "serve-read", "cpu_us_per_op"),
    ("protocol.resp_bytes", "B", "lower", "serve-read", "cpu_us_per_op"),
    ("handler.batch_self_us", "us", "lower", "serve-read", "cpu_us_per_op"),
    ("store.neighbors_many_us", "us", "lower", "serve-read", "cpu_us_per_op"),
    ("store.route_many_us", "us", "lower", "serve-read", "cpu_us_per_op"),
    ("store.owners_many_us", "us", "lower", "serve-read", "cpu_us_per_op"),
    ("store.open_s", "s", "lower", "serve-read", "setup_s compact_s"),
    ("server.mean_batch", "count", "higher", "serve-read", "cpu_us_per_op client.read_p50_ms"),
    ("server.dedup_share", "share", "higher", "serve-read", "cpu_us_per_op client.read_p50_ms"),
    ("server.vectorised_share", "share", "higher", "serve-read", "cpu_us_per_op client.read_p50_ms"),
    ("server.p50_ms", "ms", "lower", "serve-read", "cpu_us_per_op client.read_p50_ms"),
    ("server.cpu_util", "share", "higher", "serve-read", "client.read_rps"),
    ("server.unattributed_us", "us", "lower", "serve-read", "cpu_us_per_op"),
    ("client.cpu_util", "share", "lower", "serve-read", "client.read_rps"),
    ("client.late_p99_ms", "ms", "lower", "serve-read", "client.read_p99_ms"),
    ("client.generator_bound", "flag", "lower", "serve-read", "client.read_rps"),
    ("client.read_rps", "1/s", "higher", "serve-read", "cpu_us_per_op"),
    ("client.read_p50_ms", "ms", "lower", "serve-read", "cpu_us_per_op"),
    ("client.read_p99_ms", "ms", "lower", "serve-read", "cpu_us_per_op"),
    ("client.write_p50_ms", "ms", "lower", "serve-write", "cpu_us_per_op compact_s"),
    ("client.write_p99_ms", "ms", "lower", "serve-write", "cpu_us_per_op compact_s"),
    ("trace.read_unattributed_share", "share", "lower", "serve-read", "cpu_us_per_op"),
    ("trace.read_overhead", "share", "lower", "serve-read", "cpu_us_per_op"),
    ("wal.append_us", "us", "lower", "serve-write", "cpu_us_per_op client.write_p50_ms client.write_p99_ms"),
    ("wal.sync_us", "us", "lower", "serve-write", "cpu_us_per_op client.write_p50_ms client.write_p99_ms"),
    ("wal.bytes_per_op", "B", "lower", "serve-write", "cpu_us_per_op client.write_p50_ms"),
    ("ingest.insert_self_us", "us", "lower", "serve-write", "cpu_us_per_op client.write_p50_ms"),
    ("ingest.delete_self_us", "us", "lower", "serve-write", "cpu_us_per_op client.write_p50_ms"),
    ("server.fsync_p99_ms", "ms", "lower", "serve-write", "client.write_p99_ms"),
    ("store.overlay_neighbors_many_us", "us", "lower", "serve-write", "cpu_us_per_op client.read_p50_ms"),
    ("ingest.fold_s", "s", "lower", "serve-write", "compact_s"),
    ("refine.compact_search_s", "s", "lower", "serve-write", "compact_s client.read_p99_ms"),
    ("serialization.compact_save_s", "s", "lower", "serve-write", "compact_s client.read_p99_ms"),
    ("store.compact_open_s", "s", "lower", "serve-write", "compact_s client.read_p99_ms"),
    ("ingest.overlay_edges", "count", "lower", "serve-write", "compact_s"),
    ("ingest.compactions", "count", "higher", "serve-write", "compact_s"),
    ("trace.write_unattributed_share", "share", "lower", "serve-write", "cpu_us_per_op compact_s"),
    ("trace.write_overhead", "share", "lower", "serve-write", "cpu_us_per_op compact_s"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + LAYERS}


def benchmark_json() -> Dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _w, _m in LAYERS],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
