"""One benchmark for the whole system: offline partitioning, read serving, write serving.

Usage::

    python3 perfbench/run.py --workload offline --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program under test is the
checkout's ``src`` tree.  Every run goes through the same three stages on
a G5 stand-in generated from ``--seed`` (``repro.datasets.synthetic``):

* **O** — the offline commands in child processes: ``repro <edges>
  --save-dir`` (TLP), ``repro refine`` and ``repro partition-stream``;
* **R** — a read-only ``repro serve`` process on the TLP bundle, driven
  by a closed loop and then an open loop;
* **W** — a ``repro serve --wal --fsync always --refine-on-compact``
  process on the refined bundle: one writer, open-loop readers, and a
  ``compact`` every fixed number of mutations.

The workload sets the graph size, the number of offline passes and how
``--seconds`` is split between the serving stages, so each workload is
dominated by a different set of layers (see ``metrics.WORKLOADS``).  Set-up (graph generation and edge file,
server start up to its first answer) is repeated three times and its
median CPU seconds reported as ``setup_s``.

Every time gated by ``BENCHMARK.json`` is CPU seconds of the process
doing the work, normalised with the speed probe of ``speed.py``, which
samples the program's CPU through the whole run.  The raw CPU seconds
are printed next to them (``raw.*``).

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` the same stages run, then the
recorded work is replayed in-process with a span around every call into
a layer's public functions, and the JSON carries every per-layer metric.
The lines before it are flat tab-separated rows, one per
``(workload, name)``: the environment, every end-to-end metric, the
clients' wall-clock view (``client.*``: throughput, p50 and p99 latency,
each latency also as its whole-stage median, highest percentile with ten
samples beyond it, and sample count), the host's steal share, and in a
traced run every per-layer metric and the layer map of ``metrics.LAYERS``.
All correctness checks run after the timed windows; a failed check prints
``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import END_TO_END, LAYERS, UNITS  # noqa: E402
from speed import SpeedLog  # noqa: E402
from util import (BENCH_CPU, BUILD, PROGRAM_CPU, SRC, TRACES, host_steal,  # noqa: E402
                  latency_rows, median, pin, prepare_process, spawn, steal_share,
                  windowed_quantile)

SPEED = Path(__file__).resolve().parent / "speed.py"

#: Per workload: graph scale, passes of the offline commands, and the
#: share of ``--seconds`` each serving stage gets.  The offline passes
#: come on top: about 13 s in ``offline`` (G5@0.08), 14 s in the two
#: serving workloads (G5@0.05).
WORKLOADS: Dict[str, Dict] = {
    "offline": dict(scale=0.08, offline_passes=2, closed=0.08, open=0.06, write=0.22),
    "serve-read": dict(scale=0.05, offline_passes=5, closed=0.25, open=0.1, write=0.25),
    "serve-write": dict(scale=0.05, offline_passes=5, closed=0.1, open=0.1, write=0.4),
}
COMMON = dict(
    p=8,
    # Two stream partitions of a G5@0.08 file hold ~20k edges each, above
    # the external sort's 16,384-edge run floor, so each sorts in two runs.
    # 2 MiB keeps 5,242 vertices exact: the G5@0.05 graphs of the
    # serving workloads (3,868 vertices) stream with an exact sketch,
    # while G5@0.08 (6,189) takes the slower count-min path.
    stream_p=2,
    budget=2 << 20,
    # TLP output sits on a plateau that refine leaves after 4 to 7
    # passes depending on the graph; a fixed pass count keeps the work
    # per seed comparable.
    refine_passes=2,
    # Two connections of 128 in-flight calls keep full batches (the
    # server's cap is 64) queued behind the one executing, so the batch
    # make-up, and with it CPU per request, depends little on how fast
    # the load generator runs.
    depth=128,
    read_rate=1000.0,
    read_requests=120_000,
    # Latency windows: each holds at least 1000 samples, so its p99 has
    # ten beyond it.
    read_window=2.0,
    write_share=0.1,
    delete_share=0.3,
    # The writer waits for each reply, but sends no earlier than a fixed
    # schedule, so every run makes the same number of writes, reads and
    # compactions, and the server keeps about half of its time idle.
    write_rate=20.0,
    compact_every=25,
    write_read_rate=500.0,
    write_read_requests=20_000,
    write_window=3.0,
    replay_reads=20_000,
    replay_cycles=2,
)
SETUP_REPEATS = 3
#: Stage R's load-generator and batching figures, printed in every run.
SANITY = ("client.cpu_util", "client.late_p99_ms", "server.cpu_util", "server.mean_batch",
          "server.dedup_share")


def _rows(workload: str, items) -> List[str]:
    return [f"{workload}\t{name}\t{value!r}\t{unit}" for name, value, unit in items]


def _generate(scale: float, seed: int, edges: Path):
    """Generate the graph and its edge file on the program's CPU.

    Returns ``(graph, (cpu_s, start, end))``.
    """
    from repro.datasets.synthetic import load_dataset
    from repro.graph.io import write_edge_list

    pin(0, PROGRAM_CPU)
    try:
        started, cpu = time.monotonic(), time.process_time()
        graph = load_dataset("G5", scale=scale, seed=seed)
        write_edge_list(graph, edges)
        return graph, (time.process_time() - cpu, started, time.monotonic())
    finally:
        pin(0, BENCH_CPU)


def run(workload: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict, List[str]]:
    import offline
    import serving
    from repro._native import load_kernel

    cfg = dict(COMMON, **WORKLOADS[workload])
    cfg["multi_run"] = workload == "offline"
    kernel = load_kernel() is not None
    if not kernel:
        raise SystemExit("error: the compiled TLP kernel did not load; refusing to "
                         "time TLP on the numpy fallback")
    workdir = BUILD / f"run-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rows: List[str] = []
    steal0 = host_steal()
    speed_log = workdir / "speed.log"
    probe = spawn([sys.executable, str(SPEED), str(speed_log)])
    try:
        edges = workdir / "edges.txt"
        generated = []
        for _ in range(SETUP_REPEATS):
            graph, record = _generate(cfg["scale"], seed, edges)
            generated.append(record)
        env = [
            ("env.nproc", os.cpu_count(), "count"),
            ("env.python", platform.python_version(), "version"),
            ("env.seed", seed, "seed"),
            ("env.dataset", f"G5@{cfg['scale']:g}", "name"),
            ("env.vertices", graph.num_vertices, "count"),
            ("env.edges", graph.num_edges, "count"),
            ("env.partitions", cfg["p"], "count"),
            ("env.stream_partitions", cfg["stream_p"], "count"),
            ("env.stream_budget", cfg["budget"], "B"),
            ("env.fsync", "always", "policy"),
            ("env.native_kernel", kernel, "flag"),
            ("env.seconds", seconds, "s"),
        ]
        rows += _rows(workload, env)

        stage_o = offline.OfflineStage(workdir, edges, cfg, seed)
        stage_o.run(cfg["offline_passes"])
        stage_r = serving.ReadStage(workdir, stage_o.tlp, graph, cfg, seed)
        stage_r.run(cfg["closed"] * seconds, cfg["open"] * seconds)
        stage_w = serving.WriteStage(workdir, stage_o.refined, graph, cfg, seed)
        stage_w.run(cfg["write"] * seconds)
        probe.kill()
        probe.wait()
        speed = SpeedLog(speed_log)

        correct = True
        try:
            rfs = offline.check(stage_o, graph)
            checked = stage_r.check() + stage_w.check()
        except Exception:  # noqa: BLE001 — any failed check fails the run, reported
            traceback.print_exc()
            correct, rfs, checked = False, {"rf": 0.0, "rf_refined": 0.0, "rf_stream": 0.0}, 0
        rows += _rows(workload, [("checks.answers", checked, "count")])

        attempted = stage_o.attempted + stage_r.attempted + stage_w.attempted
        failed = stage_r.failed + stage_w.failed
        serve_write = workload == "serve-write"
        reads = stage_w.read_latencies if serve_write else stage_r.latencies
        writes = stage_w.write_latencies
        e2e = dict(stage_o.metrics(speed), **rfs)
        e2e.update({
            "setup_s": median([speed.normalise(*r) for r in generated])
            + median([speed.normalise(*r) for r in stage_r.starts]),
            "ok_share": (attempted - failed) / attempted,
            "cpu_us_per_op": (stage_w.cpu_us_per_op(speed) if serve_write
                              else stage_r.cpu_us_per_op(speed)),
            "compact_s": median(stage_w.compact_cpu_s(speed)),
        })
        raw = [
            ("raw.setup_cpu_s", median([r[0] for r in generated])
             + median([r[0] for r in stage_r.starts]), "s"),
            ("raw.cpu_us_per_op", (stage_w.out["raw.write_cpu_us_per_op"] if serve_write
                                   else stage_r.out["raw.cpu_us_per_op"]), "us"),
            ("raw.compact_cpu_s", median([c for c, _a, _b in stage_w.compactions]), "s"),
            ("probe.speed_factor", speed.overall(), "ratio"),
        ]
        client = {
            "client.read_rps": stage_r.out["read_rps"],
            "client.read_p50_ms": windowed_quantile(reads, 0.5, cfg["read_window"]) * 1e3,
            "client.read_p99_ms": windowed_quantile(reads, 0.99, cfg["read_window"]) * 1e3,
            "client.write_p50_ms": windowed_quantile(writes, 0.5, cfg["write_window"]) * 1e3,
            "client.write_p99_ms": windowed_quantile(writes, 0.99, cfg["write_window"]) * 1e3,
        }
        generator_bound = (stage_r.out["client.cpu_util"] > 0.9
                           and stage_r.out["server.cpu_util"] < 0.9)
        rows += _rows(workload, [(name, e2e[name], unit) for name, unit, *_ in END_TO_END])
        rows += _rows(workload, stage_o.rows() + raw)
        rows += _rows(workload, [(name, value, UNITS[name]) for name, value in client.items()])
        rows += _rows(workload, [
            ("failed_share", failed / attempted, "share"),
            ("client.generator_bound", generator_bound, "flag"),
            ("host.steal_share", steal_share(steal0, host_steal()), "share"),
        ] + [(name, stage_r.out[name], UNITS[name]) for name in SANITY])
        rows += _rows(workload, latency_rows("read", reads))
        rows += _rows(workload, latency_rows("write", writes))
        rows += _rows(workload, latency_rows("compact", list(enumerate(stage_w.compact_s))))

        if trace:
            TRACES.mkdir(parents=True, exist_ok=True)
            stem = f"{workload}-seed{seed}"
            layers: Dict[str, float] = {}
            layers.update(offline.traced(stage_o, workdir / "replay-offline",
                                         TRACES / f"{stem}-offline.jsonl"))
            layers.update(serving.replay_read(stage_r, TRACES / f"{stem}-read.jsonl"))
            layers.update(serving.replay_write(stage_w, TRACES / f"{stem}-write.jsonl"))
            for name in ("server.mean_batch", "server.dedup_share", "server.vectorised_share",
                         "server.p50_ms", "server.cpu_util", "client.cpu_util",
                         "client.late_p99_ms"):
                layers[name] = stage_r.out[name]
            for name in ("server.fsync_p99_ms", "ingest.overlay_edges", "ingest.compactions"):
                layers[name] = stage_w.out[name]
            layers["client.generator_bound"] = float(generator_bound)
            layers.update(client)
            printed = set(client) | set(SANITY) | {"client.generator_bound"}
            rows += _rows(workload, [(name, layers[name], UNITS[name])
                                     for name, *_ in LAYERS if name not in printed])
            rows += _rows(workload, [(f"map.{name}", f"{stage}: {moves}", "layer")
                                     for name, _u, _b, stage, moves in LAYERS])
            chosen = {name: layers[name] for name, *_ in LAYERS}
        else:
            chosen = {name: e2e[name] for name, *_ in END_TO_END}
    finally:
        if probe.poll() is None:
            probe.kill()
        probe.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": UNITS[name]}
                    for name, value in chosen.items()},
    }
    return result, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    prepare_process()
    pin(0, BENCH_CPU)
    try:
        result, rows = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 — a fault of the program fails the run, reported
        traceback.print_exc()
        names = LAYERS if args.trace else END_TO_END
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {name: {"value": 0.0, "unit": UNITS[name]} for name, *_ in names}}
        rows = []
    for row in rows:
        print(row)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
