"""Server CPU per lone read: paced single requests against ``repro serve``.

Usage::

    python benchmarks/lone_read_cpu.py
    python benchmarks/lone_read_cpu.py --pairs 4 --against ../parent

Builds a TLP bundle of the G5 stand-in (``--scale``, ``-p``) once, then
for each run starts ``python -m repro serve`` on it (with the server's
``src`` taken from the checkout under test), opens one ``TCP_NODELAY``
socket and sends binary ``neighbors`` requests for uniformly drawn vertices at
``--rate`` per second, one at a time: each is written when it is due and
its answer read before the next, so every request reaches the server
alone.  After ``--warmup`` untimed requests it reads the server's CPU
seconds from ``/proc/<pid>/stat`` (utime + stime, clock-tick resolution)
around ``--requests`` timed ones and reports server CPU microseconds per
read.

``--pairs N --against DIR`` runs N pairs of this checkout and the
checkout at ``DIR``, alternating which one runs first, on the same
bundle and request sequence.  The last line of output is a JSON object
with every run and the medians.  Linux only (``/proc``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.service import protocol  # noqa: E402

CLK_TCK = os.sysconf("SC_CLK_TCK")


def server_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (fields 14 and 15 of its stat)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def build_bundle(directory: Path, scale: float, p: int, seed: int) -> List[int]:
    """Partition the G5 stand-in with TLP into ``directory``; its vertices."""
    from repro.core.tlp import TLPPartitioner
    from repro.datasets.synthetic import load_dataset
    from repro.partitioning.serialization import save_partition

    graph = load_dataset("G5", scale=scale, seed=seed)
    save_partition(TLPPartitioner(seed=seed).partition(graph, p), directory)
    return sorted(graph.vertices())


def _paced(sock: socket.socket, frames: Sequence[bytes], rate: float) -> None:
    """Send each frame when due and read its answer before the next."""
    period = 1.0 / rate
    splitter = protocol.FrameSplitter()
    due = time.monotonic()
    for frame in frames:
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sock.sendall(frame)
        response = protocol.recv_frame_sync(sock, splitter)
        if response is None:
            raise ConnectionError("server closed the connection")
        if not response.get("ok"):
            raise RuntimeError(f"request failed: {response}")
        due += period


def run_once(checkout: Path, bundle: Path, frames: Sequence[bytes], warmup: int,
             rate: float) -> float:
    """Server CPU microseconds per timed read on the server of ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", str(bundle), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True,
    )
    try:
        assert proc.stdout is not None
        port = None
        for line in proc.stdout:
            match = re.search(r"serving on [^:\s]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            raise RuntimeError(f"server in {checkout} did not start")
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            _paced(sock, frames[:warmup], rate)
            before = server_cpu_s(proc.pid)
            _paced(sock, frames[warmup:], rate)
            after = server_cpu_s(proc.pid)
        return (after - before) * 1e6 / (len(frames) - warmup)
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rate", type=float, default=500.0, help="requests per second")
    parser.add_argument("--warmup", type=int, default=200)
    parser.add_argument("--requests", type=int, default=3000)
    parser.add_argument("--scale", type=float, default=0.05, help="G5 stand-in scale")
    parser.add_argument("-p", type=int, default=8, help="partitions")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=0,
                        help="runs of this checkout and --against, alternating order")
    parser.add_argument("--against", type=Path, help="a second checkout to compare")
    args = parser.parse_args(list(argv) or None)
    if args.pairs and args.against is None:
        parser.error("--pairs needs --against")

    with tempfile.TemporaryDirectory(prefix="lone-read-") as tmp:
        bundle = Path(tmp) / "bundle"
        vertices = build_bundle(bundle, args.scale, args.p, args.seed)
        rng = random.Random(args.seed)
        frames = [
            protocol.encode_frame(
                protocol.request(i, "neighbors", {"v": rng.choice(vertices)})
            )
            for i in range(args.warmup + args.requests)
        ]
        sides: Dict[str, Path] = {"this": ROOT}
        if args.pairs:
            sides["against"] = args.against.resolve()
        runs: Dict[str, List[float]] = {name: [] for name in sides}
        for i in range(max(1, args.pairs)):
            order = list(sides) if i % 2 == 0 else list(reversed(list(sides)))
            for name in order:
                us = run_once(sides[name], bundle, frames, args.warmup, args.rate)
                runs[name].append(us)
                print(f"run {i}\t{name}\t{us:.1f} us/read", flush=True)
    report = {
        "rate": args.rate,
        "requests": args.requests,
        "runs": runs,
        "median_us": {name: statistics.median(v) for name, v in runs.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
