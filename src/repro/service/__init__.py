"""Online partition serving — the layer between reproduction and system.

A partitioning only earns its replication factor when it is *deployed*:
a distributed engine routes every vertex and edge access through the
master/mirror placement, and the communication bill is ``(RF - 1)·|V|``.
:mod:`repro.runtime` simulates that offline; this package serves it online:

* :class:`~repro.service.store.PartitionStore` — opens a
  :func:`~repro.partitioning.serialization.save_partition` directory by
  memory-mapping its CSR routing tables (vertex → master + mirrors,
  edge → owner, per-partition adjacency);
* :class:`~repro.service.server.PartitionServer` — an asyncio TCP server
  speaking length-prefixed binary frames, answering each event
  loop iteration's requests in one batch, with bounded admission
  (explicit ``overload``), TCP backpressure, and graceful drain on
  shutdown;
* :class:`~repro.service.client.ServiceClient` — pipelined asyncio client
  with retry/backoff (plus a blocking :class:`SyncServiceClient`);
* :class:`~repro.service.metrics.ServiceMetrics` — counters, gauges, and
  latency histograms (p50/p95/p99) exported through the ``stats`` query;
* :class:`~repro.service.store.StoreManager` — hot re-partitioning:
  builds a replacement store off the event loop, validates it, flips it
  in atomically as a new **epoch**, and drains requests pinned to the
  old epoch before the old store is released;
* :class:`~repro.service.ingest.Ingestor` +
  :class:`~repro.service.ingest.DeltaOverlay` +
  :class:`~repro.service.wal.WriteAheadLog` — the write path: WAL-backed
  edge inserts/deletes placed by the streaming heuristics, live exact RF
  over a base+delta overlay, and compaction back into a fresh bundle
  through the epoch-swap machinery.

See ``docs/SERVING.md`` for the architecture and wire protocol.
"""

from repro.service.client import ServiceClient, ServiceError, SyncServiceClient
from repro.service.handler import ServiceHandler
from repro.service.ingest import (
    CapacityError,
    ConflictError,
    DeltaOverlay,
    IngestError,
    IngestFrozen,
    Ingestor,
)
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.server import PartitionServer
from repro.service.store import (
    BundleValidationError,
    PartitionStore,
    ReloadError,
    ReloadInProgress,
    StoreManager,
)
from repro.service.wal import WriteAheadLog

__all__ = [
    "BundleValidationError",
    "CapacityError",
    "ConflictError",
    "DeltaOverlay",
    "IngestError",
    "IngestFrozen",
    "Ingestor",
    "LatencyHistogram",
    "PartitionServer",
    "PartitionStore",
    "ReloadError",
    "ReloadInProgress",
    "ServiceClient",
    "ServiceError",
    "ServiceHandler",
    "ServiceMetrics",
    "StoreManager",
    "SyncServiceClient",
    "WriteAheadLog",
]
