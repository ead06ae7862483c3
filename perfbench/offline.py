"""Offline stage: partition, refine and stream-partition one edge file.

Each command runs as a user would run it, ``python -m repro ...`` in its
own child process, so every peak RSS belongs to one command.  A command's
time is the CPU seconds of its ``main()``, normalised to the speed
probe's nominal speed (see ``speed.py``), so neither interpreter start-up
nor the host's other tenants decide it:

1. ``repro <edges> -p P --seed S --save-dir tlp``  (read, TLP, save)
2. ``repro refine tlp --output refined --max-passes N`` (load, refine, save)
3. ``repro partition-stream <edges> stream -p Q --memory-budget B``

:func:`check` verifies the bundles from disk after the timed window, and
:func:`traced` replays the same steps in-process with a span around every
call into a layer's public functions.
"""

from __future__ import annotations

import math
import re
import shutil
import time
from pathlib import Path
from typing import Dict, List, Tuple

from speed import SpeedLog
from util import NullTracer, Tracer, median, patched, run_command


class OfflineStage:
    """The three offline commands over ``edges``, outputs under ``workdir``."""

    def __init__(self, workdir: Path, edges: Path, cfg: Dict, seed: int) -> None:
        self.workdir = workdir
        self.edges = edges
        self.cfg = cfg
        self.seed = seed
        self.tlp = workdir / "tlp"
        self.refined = workdir / "refined"
        self.stream = workdir / "stream"
        #: Per timed command, one ``cmd.py`` record per pass.
        self.records: Dict[str, List[Dict]] = {"partition_s": [], "refine_s": [], "stream_s": []}
        self.stream_rf_reported = 0.0
        self.attempted = 0

    def iterate(self) -> None:
        """One pass of the three commands (outputs replaced each pass)."""
        for directory in (self.tlp, self.refined, self.stream):
            shutil.rmtree(directory, ignore_errors=True)
        cfg = self.cfg
        self.attempted += 3
        self.records["partition_s"].append(run_command(
            [str(self.edges), "-p", str(cfg["p"]), "--seed", str(self.seed),
             "--save-dir", str(self.tlp)]
        ))
        self.records["refine_s"].append(run_command(
            ["refine", str(self.tlp), "--output", str(self.refined),
             "--max-passes", str(cfg["refine_passes"])]
        ))
        record = run_command(
            ["partition-stream", str(self.edges), str(self.stream),
             "-p", str(cfg["stream_p"]), "--memory-budget", str(cfg["budget"])]
        )
        self.records["stream_s"].append(record)
        match = re.search(r"replication factor\s*:\s*([0-9.]+)", record["output"])
        if match is None:
            raise RuntimeError("partition-stream printed no replication factor")
        self.stream_rf_reported = float(match.group(1))

    def run(self, passes: int) -> None:
        for _ in range(passes):
            self.iterate()

    def metrics(self, speed: SpeedLog) -> Dict[str, float]:
        """Medians over the passes: normalised CPU seconds, and the stream's RSS."""
        out = {
            name: median([speed.normalise(r["cpu_s"], r["start"], r["end"]) for r in records])
            for name, records in self.records.items()
        }
        out["stream_rss_mib"] = median([r["rss_kib"] / 1024.0 for r in self.records["stream_s"]])
        return out

    def rows(self) -> List[Tuple[str, float, str]]:
        """The same commands' raw CPU seconds and start-up, for the report."""
        out = [("offline.passes", float(len(self.records["partition_s"])), "count")]
        for name, records in self.records.items():
            stem = name[:-2]
            out.append((f"raw.{stem}_cpu_s", median([r["cpu_s"] for r in records]), "s"))
            out.append((f"raw.{stem}_wall_s", median([r["wall_s"] for r in records]), "s"))
        startup = [r["startup_cpu_s"] for records in self.records.values() for r in records]
        out.append(("cmd.startup_cpu_s", median(startup), "s"))
        return out


def _edge_multiset_ok(partition, graph) -> bool:
    placed = [e for k in range(partition.num_partitions) for e in partition.edges_of(k)]
    return len(placed) == graph.num_edges and set(placed) == set(graph.edges())


def check(stage: OfflineStage, graph) -> Dict[str, float]:
    """Verify the last pass's bundles; returns the three RFs from disk.

    Raises ``AssertionError`` on any failed check.
    """
    from repro.partitioning.metrics import replication_factor
    from repro.partitioning.oocore.pipeline import BudgetPlan
    from repro.partitioning.serialization import load_partition, partition_metadata

    cfg = stage.cfg
    tlp = load_partition(stage.tlp, verify=True)
    refined = load_partition(stage.refined, verify=True)
    streamed = load_partition(stage.stream, verify=True)
    for name, part in (("tlp", tlp), ("refined", refined), ("stream", streamed)):
        if not _edge_multiset_ok(part, graph):
            raise AssertionError(f"{name} bundle does not place every input edge once")
    rf = replication_factor(tlp, graph)
    rf_refined = replication_factor(refined, graph)
    rf_stream = replication_factor(streamed, graph)
    reported = float(partition_metadata(stage.tlp)["replication_factor"])
    if abs(rf - reported) > 1e-9:
        raise AssertionError(f"tlp RF on disk {rf} != reported {reported}")
    meta = partition_metadata(stage.refined)
    if abs(rf_refined - float(meta["replication_factor"])) > 1e-6:
        raise AssertionError(
            f"refined RF on disk {rf_refined} != reported {meta['replication_factor']}"
        )
    if abs(rf_stream - stage.stream_rf_reported) > 5e-5:
        raise AssertionError(
            f"stream RF on disk {rf_stream} != reported {stage.stream_rf_reported}"
        )
    if rf_refined > rf + 1e-12:
        raise AssertionError(f"refine raised RF {rf} -> {rf_refined}")
    capacity = max(math.ceil(graph.num_edges / cfg["p"]), max(tlp.partition_sizes()))
    if int(meta["refined"]["capacity"]) != capacity:
        raise AssertionError(f"refine capacity {meta['refined']['capacity']} != {capacity}")
    if max(refined.partition_sizes()) > capacity:
        raise AssertionError("refined partition exceeds its capacity")
    if cfg.get("multi_run"):
        run_edges = BudgetPlan.from_budget(cfg["budget"]).run_edges
        runs = max(math.ceil(s / run_edges) for s in streamed.partition_sizes())
        if runs < 2:
            raise AssertionError(f"external sort made {runs} run per partition, expected more")
    return {"rf": rf, "rf_refined": rf_refined, "rf_stream": rf_stream}


def _pipeline(stage: OfflineStage, out: Path, tracer: Tracer) -> Dict[str, float]:
    """The three commands' library calls, in-process, each in a span."""
    from repro.core.tlp import TLPPartitioner
    from repro.graph.io import read_edge_list
    from repro.partitioning import csr_bundle, serialization
    from repro.partitioning.oocore import partition_stream
    from repro.partitioning.refine import LocalSearchRefiner

    cfg = stage.cfg
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    span = tracer.span
    build = tracer.wrap("csr_bundle.build", csr_bundle.build_partition_csr)
    with patched(csr_bundle, "build_partition_csr", build):
        with span("graph.read"):
            graph = read_edge_list(stage.edges)
        partitioner = TLPPartitioner(seed=stage.seed)
        with span("core.grow"):
            partition = partitioner.partition(graph, cfg["p"])
        with span("serialization.save"):
            serialization.save_partition(partition, out / "tlp")
        with span("serialization.load"):
            loaded = serialization.load_partition(out / "tlp")
        with span("refine.search"):
            refiner = LocalSearchRefiner(max_passes=cfg["refine_passes"])
            refined, stats = refiner.refine(loaded)
        with span("serialization.save"):
            serialization.save_partition(refined, out / "refined")
        with span("oocore.stream"):
            result = partition_stream(
                stage.edges, out / "stream",
                num_partitions=cfg["stream_p"], memory_budget=cfg["budget"],
            )
    telemetry = partitioner.last_telemetry
    bundle_bytes = sum(f.stat().st_size for f in (out / "tlp").iterdir())
    return {
        "core.selections": float(len(telemetry.records)),
        "core.stage2_share": telemetry.stage_fraction(2),
        "core.reseeds": float(telemetry.reseeds),
        "core.peak_local_state": float(telemetry.peak_local_state),
        "serialization.bytes_per_edge": bundle_bytes / graph.num_edges,
        "refine.moves": float(stats.moves),
        "refine.swaps": float(stats.swaps),
        "refine.passes": float(stats.passes),
        "oocore.pass1_s": result.pass1_seconds,
        "oocore.pass2_s": result.pass2_seconds,
        "oocore.sort_merge_s": result.bundle_seconds,
        "oocore.clusters": float(result.num_clusters),
        "oocore.sketch_exact": 1.0 if result.sketch_kind == "exact" else 0.0,
    }


def traced(stage: OfflineStage, out: Path, trace_path: Path) -> Dict[str, float]:
    """Per-layer metrics of one in-process pass, plus tracing overhead.

    The traced pass runs between two untraced ones, whose mean wall time
    is the reference for the overhead.
    """
    def plain() -> float:
        started = time.perf_counter()
        _pipeline(stage, out, NullTracer())
        return time.perf_counter() - started

    before = plain()
    tracer = Tracer()
    started = time.perf_counter()
    metrics = _pipeline(stage, out, tracer)
    wall = time.perf_counter() - started
    plain_s = (before + plain()) / 2
    shutil.rmtree(out, ignore_errors=True)
    tracer.write(trace_path)
    total, own, _calls = tracer.totals()
    metrics.update({
        "graph.read_s": total["graph.read"],
        "core.grow_s": total["core.grow"],
        "csr_bundle.build_s": total["csr_bundle.build"],
        "serialization.save_s": own["serialization.save"],
        "serialization.load_s": total["serialization.load"],
        "refine.search_s": total["refine.search"],
        "trace.offline_unattributed_share": 1.0 - tracer.covered_s() / wall,
        "trace.offline_overhead": wall / plain_s - 1.0,
    })
    return metrics
