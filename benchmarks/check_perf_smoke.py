"""CI gate for the perf smoke job.

Run after ``python -m repro.bench serve --quick`` and ``python -m
repro.bench perf --quick`` have written their reports into the current
directory.  Checks, in order:

1. ``BENCH_serve.json`` is schema v4+ and carries the ``batch`` section
   (batches actually formed, requests actually vectorised) — the batch
   path silently falling back to scalar would pass every correctness
   test while losing the throughput the batch path buys.  A schema v6 run
   (``--wire both``) must additionally show the binary codec at least
   matching JSON single-process throughput (small noise tolerance) and
   a passing counter-parity verify.  The report must be schema v7 or
   later and its ``store_open_seconds`` section must show the
   memory-mapped sidecar open beating the legacy rebuild from text
   (``speedup > 1``).
2. Quick-config throughput has not regressed more than
   ``MAX_REGRESSION`` vs the committed quick baseline
   (``benchmarks/BENCH_serve.quick.json``).  Refresh that baseline in
   the same PR whenever a deliberate change moves it.
3. ``BENCH_perf.json`` is schema v2+ and its ``parallel`` section proves
   the thread-pool paths stayed bit-identical (``grow_identical`` /
   ``fold_identical``) and recorded ``grow_threads`` / ``fold_seconds``.
4. When ``python -m repro.bench refine --quick`` contributed a
   ``refine`` section (schema v3), every row must have ``rf_delta >= 0``
   — a refinement pass that *raises* RF violates the engine's
   monotonicity invariant and must fail the job, not ship.
5. When ``python -m repro.bench oocore --quick`` contributed an
   ``oocore`` section (schema v4), the streaming partitioner's RF must
   stay within ``MAX_OOCORE_RF_RATIO`` of the in-memory HDRF baseline
   on the same edge file, the pipeline must not have dropped edges, and
   the streamed bundle must have re-verified from disk.

Exits non-zero with a one-line reason on the first failure.
"""

from __future__ import annotations

import json
import pathlib
import sys

#: Fraction of baseline throughput below which the job fails (>30%
#: regression per the issue; CI runners are noisy, anything tighter
#: false-alarms on shared hardware).
MAX_REGRESSION = 0.30

#: Binary single-process throughput must be at least this fraction of
#: the JSON run in the same report (``--wire both``).  The codec wins on
#: encode/decode microbenchmarks; end-to-end the asyncio framing
#: dominates, so the gate only guards against binary *regressing* the
#: serving path, with headroom for runner noise.
MIN_BINARY_VS_JSON = 0.95

#: Ceiling on streaming-vs-in-memory RF (``oocore`` section).  The
#: two-pass streaming heuristic usually *beats* plain HDRF (clustering
#: affinity), so >1.15x means the budget plumbing or the shared scorer
#: regressed quality.
MAX_OOCORE_RF_RATIO = 1.15

HERE = pathlib.Path(__file__).resolve().parent
SERVE_BASELINE = HERE / "BENCH_serve.quick.json"


def fail(reason: str) -> None:
    print(f"perf smoke FAILED: {reason}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    serve_path = pathlib.Path("BENCH_serve.json")
    perf_path = pathlib.Path("BENCH_perf.json")
    for path in (serve_path, perf_path):
        if not path.exists():
            fail(f"{path} not found — run the quick benches first")

    serve = json.loads(serve_path.read_text(encoding="utf-8"))
    if int(serve.get("version", 0)) < 4:
        fail(f"BENCH_serve.json schema {serve.get('version')!r} < 4")
    batch = serve.get("batch")
    if not isinstance(batch, dict):
        fail("BENCH_serve.json has no 'batch' section")
    if int(batch.get("batches", 0)) <= 0:
        fail("no batches formed — dispatcher batching is off")
    if int(batch.get("vectorised_requests", 0)) <= 0:
        fail("no requests vectorised — batch path fell back to scalar")
    if not serve.get("quick"):
        fail("BENCH_serve.json is not a --quick run; gate compares quick-to-quick")
    if int(serve.get("version", 0)) < 7:
        fail(f"BENCH_serve.json schema {serve.get('version')!r} < 7")
    store_open = serve.get("store_open_seconds")
    if not isinstance(store_open, dict) or not {"sidecar", "text", "speedup"} <= set(
        store_open
    ):
        fail(f"BENCH_serve.json store_open_seconds is not v7-shaped: {store_open!r}")
    if not float(store_open["speedup"]) > 1.0:
        fail(
            f"sidecar open {store_open['sidecar']}s is no faster than the "
            f"legacy text rebuild {store_open['text']}s"
        )

    wire_note = ""
    if int(serve.get("version", 0)) >= 6:
        parity = serve.get("counter_parity", "")
        if not str(parity).startswith(("ok", "skipped")):
            fail(f"counter parity verify did not run cleanly: {parity!r}")
        modes = serve.get("wire_modes") or {}
        json_rps = int((modes.get("json") or {}).get("requests_per_s", 0))
        binary_rps = int((modes.get("binary") or {}).get("requests_per_s", 0))
        if json_rps and binary_rps:
            floor = json_rps * MIN_BINARY_VS_JSON
            if binary_rps < floor:
                fail(
                    f"binary wire {binary_rps} req/s is below "
                    f"{floor:.0f} ({MIN_BINARY_VS_JSON:.0%} of JSON's "
                    f"{json_rps} req/s) — the binary codec regressed "
                    "single-process serving"
                )
            wire_note = f"; wire binary {binary_rps} vs json {json_rps} req/s"

    baseline = json.loads(SERVE_BASELINE.read_text(encoding="utf-8"))
    floor = baseline["requests_per_s"] * (1.0 - MAX_REGRESSION)
    fresh = serve["requests_per_s"]
    if fresh < floor:
        fail(
            f"throughput {fresh} req/s is below {floor:.0f} "
            f"(baseline {baseline['requests_per_s']} minus {MAX_REGRESSION:.0%})"
        )

    perf = json.loads(perf_path.read_text(encoding="utf-8"))
    if int(perf.get("version", 0)) < 2:
        fail(f"BENCH_perf.json schema {perf.get('version')!r} < 2")
    parallel = perf.get("parallel")
    if not isinstance(parallel, dict):
        fail("BENCH_perf.json has no 'parallel' section")
    if not parallel.get("grow_identical"):
        fail("threaded growth diverged from sequential output")
    if not parallel.get("fold_identical"):
        fail("parallel compaction fold produced a different bundle")
    for field in ("grow_threads", "fold_seconds"):
        if field not in parallel:
            fail(f"BENCH_perf.json parallel section missing {field!r}")

    refine = perf.get("refine")
    refine_note = ""
    if int(perf.get("version", 0)) >= 3 or refine is not None:
        if not isinstance(refine, dict):
            fail("BENCH_perf.json has no 'refine' section — run the refine bench")
        rows = refine.get("rows")
        if not isinstance(rows, list) or not rows:
            fail("BENCH_perf.json refine section recorded no rows")
        for row in rows:
            delta = float(row.get("rf_delta", -1.0))
            if delta < 0:
                fail(
                    f"refinement RAISED RF on {row.get('dataset')}/"
                    f"{row.get('source')}: rf_delta={delta} — "
                    "monotonicity invariant broken"
                )
            if row.get("rf_after", 0) > row.get("rf_before", 0) + 1e-9:
                fail(
                    f"refine row {row.get('dataset')}/{row.get('source')} "
                    "has rf_after > rf_before"
                )
        best = max(float(r.get("rf_delta", 0.0)) for r in rows)
        refine_note = f"; refine rows={len(rows)} best_rf_delta={best}"

    oocore = perf.get("oocore")
    oocore_note = ""
    if int(perf.get("version", 0)) >= 4 or oocore is not None:
        if not isinstance(oocore, dict):
            fail("BENCH_perf.json has no 'oocore' section — run the oocore bench")
        ratio = float(oocore.get("rf_ratio", 0.0) or 0.0)
        if ratio <= 0:
            fail("oocore section recorded no rf_ratio")
        if ratio > MAX_OOCORE_RF_RATIO:
            fail(
                f"streaming RF is {ratio}x in-memory HDRF "
                f"(ceiling {MAX_OOCORE_RF_RATIO}x) — the out-of-core "
                "pipeline regressed partition quality"
            )
        if not oocore.get("bundle_rf_verified"):
            fail("streamed bundle was not re-verified from disk")
        streaming = oocore.get("streaming") or {}
        if int(streaming.get("num_edges", -1)) != int(oocore.get("edges", 0)):
            fail(
                f"streaming pipeline placed {streaming.get('num_edges')} "
                f"edges of {oocore.get('edges')} in the input file"
            )
        oocore_note = (
            f"; oocore rf_ratio={ratio} "
            f"rss={streaming.get('rss_max_kib')} KiB "
            f"({oocore.get('rss_budget_ratio')}x budget)"
        )

    print(
        "perf smoke OK: "
        f"{fresh} req/s (baseline {baseline['requests_per_s']}), "
        f"{batch['batches']} batches (mean {batch['mean_batch_size']}), "
        f"{batch['vectorised_requests']} vectorised; "
        f"grow_threads={parallel['grow_threads']} "
        f"fold_seconds={parallel['fold_seconds']}"
        f"{wire_note}{refine_note}{oocore_note}"
    )


if __name__ == "__main__":
    main()
