"""Compaction smoke for the perf-smoke CI job: wire writes, then a verified fold.

Run against a server started on ``BUNDLE`` with ``--wal --refine-on-compact``::

    python benchmarks/compaction_smoke.py mutate BUNDLE --port PORT
    python -m repro compact --port PORT
    python benchmarks/compaction_smoke.py check BUNDLE

``mutate`` waits for the server, then applies ``INSERTS`` inserts of
fresh edges between existing vertices and ``DELETES`` deletes of base
edges through :class:`~repro.service.client.SyncServiceClient`, and
records what it did in ``--state`` (a JSON file).  ``check`` re-opens the
compacted bundle with every checksum verified, both as text
(``load_partition``) and as the served store (``PartitionStore.open``),
and requires the recorded edge count and edge set, an empty WAL, and a
refinement that did not raise RF.

Exits non-zero with a one-line reason on the first failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

INSERTS = 100
DELETES = 50
SEED = 0
#: Seconds ``mutate`` waits for the server to answer.
WAIT_S = 30.0


def fail(reason: str) -> None:
    print(f"compaction smoke FAILED: {reason}", file=sys.stderr)
    sys.exit(1)


def _connect(port: int):
    from repro.service.client import SyncServiceClient

    deadline = time.monotonic() + WAIT_S
    while True:
        client = SyncServiceClient("127.0.0.1", port, max_retries=0)
        try:
            client.connect()
            client.call("ping")
            return client
        except OSError:
            client.close()
            if time.monotonic() > deadline:
                fail(f"no server answered on port {port} within {WAIT_S:g}s")
            time.sleep(0.2)


def mutate(args: argparse.Namespace) -> None:
    from repro.partitioning.serialization import load_partition

    partition = load_partition(args.bundle, verify=True)
    edges = set(partition.edge_to_partition())
    vertices = sorted({w for edge in edges for w in edge})
    rng = random.Random(SEED)
    inserts = []
    while len(inserts) < INSERTS:
        u, v = sorted(rng.sample(vertices, 2))
        if (u, v) not in edges:
            edges.add((u, v))
            inserts.append((u, v))
    deletes = rng.sample(sorted(set(partition.edge_to_partition())), DELETES)
    client = _connect(args.port)
    with client:
        for u, v in inserts:
            client.insert_edge(u, v)
        for u, v in deletes:
            client.delete_edge(u, v)
        pending = client.ingest_stats()["pending_mutations"]
    if pending != len(inserts) + len(deletes):
        fail(f"server holds {pending} pending mutations, sent {len(inserts) + len(deletes)}")
    state = {
        "edges_before": partition.num_edges,
        "inserts": inserts,
        "deletes": deletes,
    }
    Path(args.state).write_text(json.dumps(state), encoding="utf-8")
    print(f"applied {len(inserts)} inserts and {len(deletes)} deletes on port {args.port}")


def check(args: argparse.Namespace) -> None:
    from repro.partitioning.serialization import load_partition, partition_metadata
    from repro.service.store import PartitionStore

    state = json.loads(Path(args.state).read_text(encoding="utf-8"))
    expected = state["edges_before"] + len(state["inserts"]) - len(state["deletes"])
    partition = load_partition(args.bundle, verify=True)
    store = PartitionStore.open(args.bundle, verify=True)
    if not partition.num_edges == store.num_edges == expected:
        fail(
            f"compacted bundle holds {partition.num_edges} edges "
            f"(store {store.num_edges}), expected {expected}"
        )
    owners = partition.edge_to_partition()
    missing = [edge for edge in state["inserts"] if tuple(edge) not in owners]
    kept = [edge for edge in state["deletes"] if tuple(edge) in owners]
    if missing or kept:
        fail(f"inserts missing: {missing[:3]}, deletes still present: {kept[:3]}")
    wal = Path(args.bundle) / "ingest.wal"
    if wal.exists() and wal.stat().st_size:
        fail(f"WAL still holds {wal.stat().st_size} bytes after the compaction")
    refined = partition_metadata(args.bundle).get("refined")
    if not isinstance(refined, dict):
        fail("compacted bundle carries no refine summary (--refine-on-compact off?)")
    if refined["rf_after"] > refined["rf_before"]:
        fail(f"refine-on-compact raised RF: {refined}")
    print(
        f"compaction smoke OK: {expected} edges, "
        f"RF {refined['rf_before']} -> {refined['rf_after']}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("mutate", "check"))
    parser.add_argument("bundle", help="the served bundle directory")
    parser.add_argument("--port", type=int, help="server port (mutate)")
    parser.add_argument("--state", default="compaction-smoke.json")
    args = parser.parse_args()
    if args.mode == "mutate":
        if args.port is None:
            parser.error("mutate needs --port")
        mutate(args)
    else:
        check(args)


if __name__ == "__main__":
    main()
