"""Run one ``python -m repro`` command, then report its CPU time and peak RSS.

Usage: ``python perfbench/cmd.py <repro CLI arguments>``.  The CLI's own
output goes to standard error; standard output gets one line::

    {"exit": <code>, "rss_kib": <VmHWM>, "cpu_s": <CPU seconds of main()>,
     "startup_cpu_s": <CPU seconds before main()>, "start": <t>, "end": <t>}

``cpu_s`` (user + system, all threads) covers the CLI's ``main()`` only;
interpreter start-up and the import of ``repro.__main__`` are
``startup_cpu_s``, so a small command is not mostly start-up.  ``start``
and ``end`` are ``time.monotonic()`` around ``main()``, the interval the
speed probe normalises ``cpu_s`` over.  ``VmHWM`` is reset by
``execve``, so it is this command's own high-water mark, not its
parent's.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time


def peak_rss_kib() -> int:
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(argv) -> int:
    from repro.__main__ import main as repro_main

    startup = time.process_time()
    start = time.monotonic()
    with contextlib.redirect_stdout(sys.stderr):
        code = repro_main(list(argv))
    cpu = time.process_time() - startup
    end = time.monotonic()
    print(json.dumps({"exit": code, "rss_kib": peak_rss_kib(), "cpu_s": cpu,
                      "startup_cpu_s": startup, "start": start, "end": end}))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
