"""The ``store_open_seconds`` section of ``python -m repro.bench serve``."""

from __future__ import annotations

from repro.bench.serve import _time_store_open
from repro.core.tlp import TLPPartitioner
from repro.graph.generators import holme_kim
from repro.partitioning.serialization import save_partition
from repro.service.store import PartitionStore


def test_times_sidecar_open_against_text_rebuild(tmp_path):
    graph = holme_kim(200, 3, 0.4, seed=2)
    save_partition(TLPPartitioner(seed=0).partition(graph, 4), tmp_path, compress=True)
    timings, store = _time_store_open(str(tmp_path))
    assert set(timings) == {"sidecar", "text", "speedup"}
    assert timings["sidecar"] > 0 and timings["text"] > 0
    assert isinstance(store, PartitionStore)
    assert store.num_edges == graph.num_edges
