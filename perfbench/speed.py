"""Speed probe: how fast the program's CPU runs, sampled through a run.

Usage (started by the runner, not by hand)::

    python perfbench/speed.py <log file>

On a shared virtual machine the same work costs up to 2.5x more CPU time
in one minute than in the next, as other tenants of the host come and go.
The probe measures that: pinned to the program's CPU, every ``PERIOD_S``
it times two fixed loops of its own and logs ``<monotonic time> <speed
factor>``.  One loop stores into a small dict, as request handling runs
tight interpreter code over cached data; the other builds, sorts and
indexes a list of tuples, as the offline commands allocate and walk
object graphs.  Each responds to a different kind of contention, so the
factor of a sample is the geometric mean of the two loops' CPU times over
their nominal times.  :class:`SpeedLog` gives the median factor over any
time interval.  A CPU time divided by that factor is the CPU time the
work would have taken at the nominal speed: the benchmark's "normalised
CPU seconds".  The loops are the benchmark's own code, so a change to the
program under test moves the work and leaves the probe alone.
"""

from __future__ import annotations

import bisect
import statistics
import sys
import time
from pathlib import Path
from typing import List

#: One sample every PERIOD_S, about 3.5 ms of CPU (9% of a CPU).
PERIOD_S = 0.04
STORES = 12_000
ITEMS = 2_000
#: The loops' CPU seconds at the speed all normalised figures refer to
#: (the middle of their ranges on a shared 2.0 GHz Xeon vCPU).
NOMINAL_STORES_S = 1.5e-3
NOMINAL_ITEMS_S = 2.0e-3


def sample() -> float:
    """Time both loops once; returns the speed factor (1 = nominal)."""
    started = time.process_time()
    table = {}
    for j in range(STORES):
        table[j & 511] = j
    stores_s = time.process_time() - started
    started = time.process_time()
    items = [((j * 2654435761) & 0xFFFF, j) for j in range(ITEMS)]
    items.sort()
    index = {key: value for key, value in items}
    items_s = time.process_time() - started
    del index
    return (stores_s / NOMINAL_STORES_S * items_s / NOMINAL_ITEMS_S) ** 0.5


def probe(log: Path) -> None:
    """Sample until killed."""
    due = time.monotonic()
    with open(log, "w", encoding="ascii") as out:
        while True:
            factor = sample()
            out.write(f"{time.monotonic()!r} {factor!r}\n")
            out.flush()
            due += PERIOD_S
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            else:
                due = time.monotonic()


class SpeedLog:
    """The probe's samples, read back once the measured work has ended."""

    def __init__(self, log: Path) -> None:
        self.times: List[float] = []
        self.factors: List[float] = []
        for line in log.read_text(encoding="ascii").splitlines():
            fields = line.split()
            if len(fields) == 2:
                self.times.append(float(fields[0]))
                self.factors.append(float(fields[1]))
        if len(self.factors) < 3:
            raise RuntimeError(f"the speed probe logged {len(self.factors)} samples")

    def factor(self, start: float, end: float) -> float:
        """Median factor in ``[start, end]`` (monotonic).

        The samples just outside the interval are included, so an
        interval shorter than the sampling period still has two.
        """
        lo = max(0, bisect.bisect_left(self.times, start) - 1)
        hi = bisect.bisect_right(self.times, end) + 1
        return statistics.median(self.factors[lo:hi])

    def normalise(self, cpu_s: float, start: float, end: float) -> float:
        """``cpu_s`` spent in ``[start, end]``, at the nominal speed."""
        return cpu_s / self.factor(start, end)

    def overall(self) -> float:
        """The median factor over the whole log."""
        return statistics.median(self.factors)


if __name__ == "__main__":
    probe(Path(sys.argv[1]))
