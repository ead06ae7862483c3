"""Shared helpers: paths, child processes, /proc readers, statistics, spans.

Everything the benchmark writes goes under ``.bench_build/`` in the
checkout (the native-kernel cache, scratch bundles and the span files of
traced runs), so a run reads and writes nothing outside its checkout.
"""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
NATIVE_CACHE = BUILD / "native"
TRACES = BUILD / "traces"
CMD = Path(__file__).resolve().parent / "cmd.py"
CLK_TCK = os.sysconf("SC_CLK_TCK")


def child_env() -> Dict[str, str]:
    """Environment for every child: the checkout's ``src``, caches inside it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env["REPRO_NATIVE_CACHE"] = str(NATIVE_CACHE)
    env["REPRO_CACHE_DIR"] = str(BUILD / "repro-cache")
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def prepare_process() -> None:
    """Point this process at the checkout's ``src`` and build directory."""
    for key, value in child_env().items():
        if key.startswith("REPRO_") or key == "TMPDIR":
            os.environ[key] = value
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


#: With two CPUs the load generator (this process) runs on CPU 0 and the
#: program under test on CPU 1, so the scheduler's placement of the two
#: cannot change from run to run.
BENCH_CPU, PROGRAM_CPU = 0, 1


def pin(pid: int, cpu: int) -> None:
    """Restrict ``pid`` (0 = this process) to ``cpu`` if this machine has it."""
    try:
        os.sched_setaffinity(pid, {cpu})
    except OSError:  # a one-CPU machine: everything shares CPU 0
        pass


def spawn(argv: Sequence[str], **kwargs) -> subprocess.Popen:
    """Start a child of the program under test, pinned to its CPU."""
    proc = subprocess.Popen(list(argv), env=child_env(), **kwargs)
    pin(proc.pid, PROGRAM_CPU)
    return proc


def run_command(argv: Sequence[str], timeout: float = 150.0) -> Dict:
    """Run one ``python -m repro`` command in a child; returns its record.

    The child is ``cmd.py``: the repro CLI plus its peak RSS and CPU
    seconds.  The record adds the wall time (``"wall_s"``) and the CLI's
    own output (``"output"``).
    """
    started = time.perf_counter()
    proc = spawn([sys.executable, str(CMD), *argv], stdout=subprocess.PIPE,
                 stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(
            f"`repro {' '.join(argv)}` exited {proc.returncode}:\n{out[-2000:]}\n{err[-2000:]}"
        )
    record = json.loads(out.splitlines()[-1])
    record["output"] = err
    record["wall_s"] = wall
    return record


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` from ``/proc/<pid>/stat``.

    Unlike per-thread counters, this keeps the time of threads that have
    already exited (the compaction's worker pool), at 10 ms resolution.
    """
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # After the command name: state is field 3, utime 14 and stime 15.
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


@contextmanager
def gc_paused() -> Iterator[None]:
    """No cyclic GC in the load generator while it times requests.

    A full collection over the recorded answers stalls the event loop
    for tens of milliseconds, which would read as server latency.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return float(sorted_values[min(rank, len(sorted_values)) - 1])


def tail_percentile(n: int) -> float:
    """Highest of p90/p99/p99.9/p99.99 with at least ten samples beyond it."""
    best = 0.5
    for q in (0.9, 0.99, 0.999, 0.9999):
        if n * (1.0 - q) >= 10:
            best = q
    return best


def host_steal() -> Tuple[int, int]:
    """``(steal, total)`` jiffies over all CPUs, from ``/proc/stat``.

    Steal is time the hypervisor ran something else while this machine
    wanted a CPU; the runner reports its share over the run so that a
    reader can tell a run the host disturbed.
    """
    with open("/proc/stat", "r", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def windowed_quantile(samples: Sequence[Tuple[float, float]], q: float,
                      window_s: float) -> float:
    """Median over ``window_s`` windows of each window's ``q``-quantile.

    ``samples`` are ``(time, value)``.  Only windows with at least ten
    samples beyond the quantile count; with none, the quantile of all
    samples is returned.
    """
    if not samples:
        return 0.0
    t0 = min(t for t, _v in samples)
    windows: Dict[int, List[float]] = {}
    for t, value in samples:
        windows.setdefault(int((t - t0) // window_s), []).append(value)
    need = round(10 / (1.0 - q)) if q > 0.5 else 1
    per_window = [quantile(sorted(w), q) for w in windows.values() if len(w) >= need]
    if not per_window:
        return quantile(sorted(v for _t, v in samples), q)
    return median(per_window)


def latency_rows(name: str, samples: Sequence[Tuple[float, float]]) -> List[Tuple[str, float, str]]:
    """Median, the highest percentile with ten samples beyond it, the count."""
    ordered = sorted(v for _t, v in samples)
    q = tail_percentile(len(ordered))
    label = f"p{q * 100:g}"
    rows = [(f"{name}.p50_ms", quantile(ordered, 0.5) * 1e3, "ms")]
    if q > 0.5:
        rows.append((f"{name}.{label}_ms", quantile(ordered, q) * 1e3, "ms"))
    rows.append((f"{name}.samples", float(len(ordered)), "count"))
    return rows


# -- spans --------------------------------------------------------------------


class Tracer:
    """In-memory spans: ``(id, parent, name, start, end)``, written at the end.

    Spans nest through a stack, so a span opened while another is open
    becomes its child.  Self time is a span's duration minus its
    children's; :meth:`totals` sums both per name.
    """

    def __init__(self) -> None:
        self.spans: List[List] = []
        self._stack: List[int] = []
        self._clock = time.perf_counter

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [index, parent, name, self._clock(), 0.0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[4] = self._clock()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
        """``(total_s, self_s, calls)`` per span name."""
        total: Dict[str, float] = {}
        own: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        child_time = [0.0] * len(self.spans)
        for index, parent, _name, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, parent, name, start, end in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start) - child_time[index]
            calls[name] = calls.get(name, 0) + 1
        return total, own, calls

    def covered_s(self, names: Optional[Sequence[str]] = None) -> float:
        """Wall time inside top-level spans (optionally only ``names``)."""
        return sum(
            end - start
            for _i, parent, name, start, end in self.spans
            if parent < 0 and (names is None or name in names)
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": index, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


class NullTracer:
    """The untraced reference: same call sites, nothing recorded."""

    def span(self, name: str):
        return nullcontext()

    def wrap(self, name: str, fn: Callable) -> Callable:
        return fn


@contextmanager
def patched(owner, attribute: str, replacement) -> Iterator[None]:
    """Temporarily set ``owner.attribute`` to ``replacement``.

    ``owner`` is a module, a class or an instance; the attribute is
    restored (or removed again, for an instance) on exit.
    """
    own = vars(owner)
    had_own = attribute in own
    saved = own.get(attribute)
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        if had_own:
            setattr(owner, attribute, saved)
        else:
            delattr(owner, attribute)
