"""Paired perfbench gate: fail when this checkout is slower than its base.

Usage::

    python benchmarks/paired_gate.py [BASE]     # BASE defaults to origin/main

Checks out the merge base of ``HEAD`` and ``BASE`` and ``HEAD`` itself
into two sibling ``git worktree``\ s of a temporary directory, then runs
the unchanged ``perfbench/run.py --trace 0`` of each side on the
``serve-read`` and ``offline`` workloads: ``PAIRS`` pairs of
``SECONDS``-second runs, the two sides with the same seed within a pair
and alternating which side goes first.  Both sides start from fresh trees
at paths of the same length: in this checkout's own tree, head's offline
``partition_s`` ran about 5 % below an identical base's.  Uncommitted
changes are not measured.

It fails when a run exits non-zero or prints ``"correct": false``, when
head's median of a gated CPU time (``GATED``) is worse than base's by
more than the noise bound ``noise_bound`` derives from base's own runs,
or when a ``rf*`` metric's median is worse than base's by more than its
``BENCHMARK.json`` bound.  Server CPU (``cpu_us_per_op``) is gated, not
the clients' throughput: the closed loop can be bound by its own load
generator.  The last line of output is a JSON object with every run and
every verdict.  Sizing on a 2-vCPU VM: one pair of both workloads takes
about a minute.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 5
SECONDS = 4
FIRST_SEED = 1
#: Per workload, the CPU-time metrics whose medians are gated on noise.
GATED = {
    "serve-read": ("cpu_us_per_op",),
    "offline": ("partition_s", "refine_s", "stream_s"),
}
#: Base spread multiplier: head's median may exceed base's by this many
#: scaled MADs (1.4826 * MAD estimates a standard deviation).
NOISE_SIGMAS = 4.0
#: Smallest bound, as a share of base's median: five runs can show a
#: MAD near zero, while the median of five offline CPU times still moves
#: by about 2 % (one sigma) between identical trees.
MIN_SHARE = 0.10
#: Allowed run time of one perfbench run before it counts as failed.
RUN_TIMEOUT_S = 600


def noise_bound(base: List[float]) -> float:
    """How far above base's median head's median may land, in the metric's unit."""
    centre = statistics.median(base)
    mad = statistics.median(abs(x - centre) for x in base)
    return max(NOISE_SIGMAS * 1.4826 * mad, MIN_SHARE * abs(centre))


def perfbench(checkout: Path, workload: str, seed: int) -> Dict[str, float]:
    """One perfbench run of ``checkout``; its end-to-end metrics, or exit on failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if proc.returncode != 0 or result.get("correct") is not True:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"paired gate FAILED: {workload} seed {seed} in {checkout} "
                         f"exited {proc.returncode}, correct={result.get('correct')}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(better: str, head: float, base: float) -> float:
    """How much worse head is than base (positive = worse), in the metric's unit."""
    return head - base if better == "lower" else base - head


def main(argv: List[str]) -> int:
    ref = argv[0] if argv else "origin/main"
    merge_base = subprocess.run(["git", "merge-base", "HEAD", ref], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.strip()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    spec = {m["name"]: m for m in declared}
    runs: Dict[str, Dict[str, List[Dict[str, float]]]] = {
        w: {"base": [], "head": []} for w in GATED}
    with tempfile.TemporaryDirectory(prefix="paired-gate-") as tmp:
        trees = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        try:
            for side, commit in (("base", merge_base), ("head", "HEAD")):
                subprocess.run(["git", "worktree", "add", "--detach", str(trees[side]), commit],
                               cwd=ROOT, check=True, capture_output=True)
            for pair in range(PAIRS):
                seed = FIRST_SEED + pair
                order = list(trees.items())
                for workload in GATED:
                    for side, checkout in (order if pair % 2 == 0 else order[::-1]):
                        runs[workload][side].append(perfbench(checkout, workload, seed))
                        print(f"pair {pair} {workload} {side}: "
                              + json.dumps(runs[workload][side][-1]), flush=True)
        finally:
            for tree in trees.values():
                subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                               cwd=ROOT, capture_output=True)

    verdicts = []
    for workload, sides in runs.items():
        names = list(GATED[workload]) + sorted(n for n in sides["base"][0] if n.startswith("rf"))
        for name in names:
            base = [r[name] for r in sides["base"]]
            head = [r[name] for r in sides["head"]]
            base_median, head_median = statistics.median(base), statistics.median(head)
            if name in GATED[workload]:
                bound = noise_bound(base)
            else:
                bound = spec[name]["bound"] * abs(base_median)
            worse = worse_by(spec[name]["better"], head_median, base_median)
            verdicts.append({"workload": workload, "metric": name, "base": base_median,
                             "head": head_median, "worse_by": worse, "bound": bound,
                             "ok": worse <= bound})
            print(f"{'ok  ' if worse <= bound else 'FAIL'} {workload:10s} {name:14s} "
                  f"base {base_median:.4g} head {head_median:.4g} "
                  f"worse by {worse:+.4g} (bound {bound:.4g})")
    failed = [v for v in verdicts if not v["ok"]]
    print(json.dumps({"merge_base": merge_base, "pairs": PAIRS, "seconds": SECONDS,
                      "ok": not failed, "verdicts": verdicts, "runs": runs}))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
