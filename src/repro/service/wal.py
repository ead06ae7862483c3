"""Append-only write-ahead log for the ingest subsystem.

Every mutation accepted by :class:`repro.service.ingest.Ingestor` is
framed and appended here *before* it is applied to the in-memory
overlay, so a crash loses at most the tail record that was mid-write.
The on-disk format is deliberately trivial — one frame per record:

    [4-byte big-endian body length][4-byte big-endian CRC-32][JSON body]

Records are JSON objects (UTF-8, compact separators, sorted keys) so the
log is greppable with ``xxd`` + ``python -m json.tool`` when debugging a
bad bundle.  :meth:`WriteAheadLog.open` scans the file frame by frame,
verifies each CRC, and **truncates** the file at the first torn or
corrupt frame — a partial append (power loss mid-``write``) silently
recovers to the last complete record instead of poisoning replay.

Durability is a policy choice (the classic group-commit trade-off):

* ``"always"`` — ``fsync`` after every append.  Slowest, loses nothing.
* ``"batch"``  — ``flush`` every append, ``fsync`` at most once per
  ``batch_interval`` seconds (default 50 ms).  Loses at most one
  interval of acknowledged mutations on power loss; nothing on a mere
  process crash (the page cache survives).  The default.
* ``"never"``  — ``flush`` only.  For benchmarks and tests.

``fsync`` wall-time is recorded in the ``wal_fsync`` latency histogram
when a :class:`~repro.service.metrics.ServiceMetrics` is attached, which
is how the ``stats`` query reports it (``perfbench/`` reads its p99 as
``server.fsync_p99_ms``).
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.service.metrics import ServiceMetrics

PathLike = Union[str, Path]

#: Accepted values for the ``fsync=`` policy.
FSYNC_POLICIES = ("always", "batch", "never")

#: Frame header: (body length, CRC-32 of body), both unsigned big-endian.
_HEADER = struct.Struct(">II")

#: Refuse to read frames claiming bodies beyond this (corrupt length field).
_MAX_BODY = 1 << 24


class WriteAheadLog:
    """One append-only log file with CRC-framed JSON records."""

    def __init__(
        self,
        path: PathLike,
        *,
        fsync: str = "batch",
        batch_interval: float = 0.05,
        metrics: "ServiceMetrics" = None,  # type: ignore[assignment]
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.path = Path(path)
        self.fsync_policy = fsync
        self.batch_interval = batch_interval
        self.metrics = metrics
        self._fh = None  # type: ignore[var-annotated]
        self._dirty = False
        # -inf, not 0.0: time.monotonic() starts near zero on a freshly
        # booted host, so a 0.0 sentinel would silently skip the first
        # batch-policy fsync until one full interval of uptime passed.
        self._last_fsync = float("-inf")
        #: Bytes dropped from a torn tail by the last :meth:`open`.
        self.torn_bytes_dropped = 0
        #: Complete records recovered by the last :meth:`open`.
        self.records_replayed = 0
        #: Records appended since open (excludes replayed ones).
        self.records_appended = 0

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> List[Dict[str, object]]:
        """Scan + repair the log, open it for append, return its records.

        Safe on a missing file (starts empty) and on a torn tail (the
        incomplete frame is truncated away).  A *complete but corrupt*
        frame — CRC mismatch, non-JSON, non-object body — also truncates
        there: everything after a bad frame is unordered garbage.
        """
        if self._fh is not None:
            raise RuntimeError(f"WAL {self.path} is already open")
        records, valid_bytes = self._scan()
        actual = self.path.stat().st_size if self.path.exists() else 0
        if valid_bytes < actual:
            with open(self.path, "r+b") as fh:
                fh.truncate(valid_bytes)
                fh.flush()
                os.fsync(fh.fileno())
            self.torn_bytes_dropped = actual - valid_bytes
        else:
            self.torn_bytes_dropped = 0
        self._fh = open(self.path, "ab")
        self.records_replayed = len(records)
        self.records_appended = 0
        return records

    def close(self) -> None:
        """Flush, fsync (per policy), and close the file handle."""
        if self._fh is None:
            return
        self.sync()
        self._fh.close()
        self._fh = None

    @property
    def is_open(self) -> bool:
        return self._fh is not None

    # -- appends -----------------------------------------------------------

    def append(self, record: Dict[str, object]) -> int:
        """Frame + append one record; returns the new byte size of the log.

        The write is flushed to the OS before returning; whether it is
        *durable* (fsynced) depends on the policy — see the module doc.
        """
        fh = self._require_open()
        body = json.dumps(
            record, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
        fh.write(_HEADER.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF))
        fh.write(body)
        fh.flush()
        self._dirty = True
        self.records_appended += 1
        if self.fsync_policy == "always":
            self._fsync()
        elif self.fsync_policy == "batch":
            if time.monotonic() - self._last_fsync >= self.batch_interval:
                self._fsync()
        return self.size

    def sync(self) -> None:
        """Force pending appends to disk (no-op under ``"never"``)."""
        if self._dirty and self.fsync_policy != "never":
            self._fsync()

    def reset(self) -> None:
        """Truncate the log to empty (after compaction folded it in).

        The truncate is fsynced regardless of policy: compaction
        correctness depends on the reset being durable before the epoch
        swap acknowledges.
        """
        fh = self._require_open()
        fh.flush()
        fh.truncate(0)
        fh.flush()
        os.fsync(fh.fileno())
        self._dirty = False
        self._last_fsync = time.monotonic()

    @property
    def size(self) -> int:
        """Current byte size of the log file."""
        if self._fh is not None:
            self._fh.flush()
            return os.fstat(self._fh.fileno()).st_size
        return self.path.stat().st_size if self.path.exists() else 0

    # -- internals ---------------------------------------------------------

    def _require_open(self):
        if self._fh is None:
            raise RuntimeError(f"WAL {self.path} is not open")
        return self._fh

    def _fsync(self) -> None:
        fh = self._require_open()
        started = time.perf_counter()
        os.fsync(fh.fileno())
        elapsed = time.perf_counter() - started
        self._last_fsync = time.monotonic()
        self._dirty = False
        if self.metrics is not None:
            self.metrics.observe("wal_fsync", elapsed)

    def _scan(self) -> Tuple[List[Dict[str, object]], int]:
        """Parse frames from the start; stop at the first invalid one.

        Returns ``(records, byte offset of the first invalid frame)`` —
        the offset doubles as the valid prefix length for truncation.
        """
        records: List[Dict[str, object]] = []
        if not self.path.exists():
            return records, 0
        data = self.path.read_bytes()
        n = len(data)
        offset = 0
        while offset + _HEADER.size <= n:
            length, crc = _HEADER.unpack_from(data, offset)
            if length > _MAX_BODY:
                break
            end = offset + _HEADER.size + length
            if end > n:
                break  # torn tail: header landed, body didn't
            body = data[offset + _HEADER.size : end]
            if zlib.crc32(body) & 0xFFFFFFFF != crc:
                break
            try:
                record = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                break
            if not isinstance(record, dict):
                break
            records.append(record)
            offset = end
        return records, offset

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "open" if self.is_open else "closed"
        return (
            f"WriteAheadLog({str(self.path)!r}, {state}, "
            f"fsync={self.fsync_policy!r}, bytes={self.size})"
        )
