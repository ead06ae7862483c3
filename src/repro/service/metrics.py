"""Service metrics: counters and log-bucketed latency histograms.

The server records one latency sample per request (enqueue → response
ready) into a per-operation :class:`LatencyHistogram`.  Histograms use
geometric buckets (factor ~1.58, 10 buckets per decade) from 1 µs to
~100 s, so memory is O(1) regardless of traffic while quantile error is
bounded by one bucket width (< 26 %).  ``snapshot()`` renders everything
as plain JSON for the ``stats`` query, which is where ``perfbench/``
reads the server's batch counters and latencies.

Everything here is synchronous and allocation-light: the hot path is one
``bisect`` plus two integer adds.  Single-threaded use only (the asyncio
server runs one loop); no locks.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Optional, Union

#: Bucket upper bounds in seconds: 10 per decade, 1 µs .. ~100 s.
_BUCKET_BOUNDS: List[float] = [
    1e-6 * (10 ** (i / 10)) for i in range(0, 81)
]

_QUANTILES = (0.5, 0.95, 0.99)


class LatencyHistogram:
    """Fixed-bucket latency histogram with streaming quantile estimates."""

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * (len(_BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, seconds: float) -> None:
        """Record one latency sample (negative values clamp to zero)."""
        seconds = max(0.0, seconds)
        self.counts[bisect_left(_BUCKET_BOUNDS, seconds)] += 1
        self.count += 1
        self.total += seconds
        self.min = seconds if self.min is None else min(self.min, seconds)
        self.max = seconds if self.max is None else max(self.max, seconds)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile in seconds (0.0 when empty).

        Uses the **nearest-rank** definition: the value at rank
        ``ceil(q * count)`` (1-based) of the sorted samples, which for a
        bucketed histogram is the upper bound of the bucket holding that
        rank, clamped to the observed max so outliers do not inflate the
        tail.  ``q = 0.0`` returns the observed minimum (rank 0 names no
        sample; the floor of the distribution is the honest answer).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min or 0.0
        rank = math.ceil(q * self.count)  # 1-based, in [1, count]
        seen = 0
        for i, bucket in enumerate(self.counts):
            seen += bucket
            if seen >= rank and bucket:
                bound = (
                    _BUCKET_BOUNDS[i]
                    if i < len(_BUCKET_BOUNDS)
                    else self.max or 0.0
                )
                return min(bound, self.max or bound)
        return self.max or 0.0

    def mean(self) -> float:
        """Mean latency in seconds (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Union[int, float]]:
        """Summary dict (times in milliseconds, as served by ``stats``).

        ``count`` is an exact integer; every other value is a float in
        milliseconds.
        """
        to_ms = 1e3
        return {
            "count": self.count,
            "mean_ms": round(self.mean() * to_ms, 4),
            "min_ms": round((self.min or 0.0) * to_ms, 4),
            "max_ms": round((self.max or 0.0) * to_ms, 4),
            **{
                f"p{int(q * 100)}_ms": round(self.quantile(q) * to_ms, 4)
                for q in _QUANTILES
            },
        }


class ServiceMetrics:
    """Named counters and gauges plus one latency histogram per operation.

    Hot re-partitioning adds its own instruments: the ``epoch`` gauge
    tracks the live serving generation, the ``reload_build`` /
    ``reload_swap`` histograms time bundle builds and full swaps, and the
    ``reloads_ok`` / ``reloads_failed`` / ``reloads_rejected`` /
    ``queries_drained`` / ``epochs_retired`` counters account for every
    swap outcome (see :class:`repro.service.store.StoreManager`).
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.latency: Dict[str, LatencyHistogram] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its current value (last write wins).

        Stored as ``float`` — integer-valued gauges like ``epoch`` are
        widened on write so the ``gauges`` map stays uniformly typed.
        """
        self.gauges[name] = float(value)

    def observe(self, op: str, seconds: float) -> None:
        """Record a latency sample for operation ``op``."""
        hist = self.latency.get(op)
        if hist is None:
            hist = self.latency[op] = LatencyHistogram()
        hist.observe(seconds)

    def snapshot(self) -> Dict[str, object]:
        """Everything as plain JSON-serialisable data."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "latency": {
                op: hist.snapshot() for op, hist in sorted(self.latency.items())
            },
        }
