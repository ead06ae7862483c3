"""Deterministic thread-pool helpers for per-partition work.

``build_partition_csr`` and the in-memory saves of ``write_bundle``
fan work out over the partitions of a bundle (one CSR block, or one
edge file, per partition): N pure, index-addressed jobs whose results
merge by ascending index.  This module is that shape, once.

Determinism contract: :func:`parallel_map` returns *exactly*
``[fn(item) for item in items]`` whenever each ``fn(item)`` is pure in
its item — results are collected positionally, never in completion
order, so the merged output is bit-identical to the sequential path no
matter how the scheduler interleaves the workers.  The parity tests pin
this with sha256 digests over saved bundles.

Threads, not processes: numpy releases the GIL inside large array ops
(the ``lexsort``/``searchsorted`` passes of CSR block construction), so
a thread per partition overlaps real work on multi-core hosts without
pickling arrays across process boundaries.  Pure-Python parts of a job
still interleave under the GIL; they stay correct, just not faster,
which is exactly what a 1-core CI box sees too.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Hard cap on the pool size; per-partition jobs are coarse, so more
#: threads than cores only adds contention on the shared arrays.
MAX_WORKERS = 32


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` argument to an effective pool size.

    ``None`` (the default everywhere) means "one per core"; any explicit
    value is clamped to ``[1, MAX_WORKERS]``.  ``1`` selects the plain
    sequential loop — no pool, no threads, no behaviour change.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, min(int(workers), MAX_WORKERS))


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = None,
) -> List[R]:
    """``[fn(x) for x in items]``, fanned over a thread pool.

    Results are ordered by input position regardless of completion
    order.  A worker exception propagates to the caller (the remaining
    jobs still run to completion, as with ``Executor.map``).  With an
    effective worker count of 1 — or fewer than two items — this *is*
    the list comprehension: no executor is created at all.
    """
    items = list(items)
    n = min(resolve_workers(workers), len(items))
    if n <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=n, thread_name_prefix="repro-part") as pool:
        return list(pool.map(fn, items))

