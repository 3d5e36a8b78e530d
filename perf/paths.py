"""Where the benchmark and the program under test live in a checkout,
and where the kernel keeps a process's peak memory."""

from __future__ import annotations

import os
import sys

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(PERF, "out")


def add_src() -> None:
    """Put the checkout's ``src`` first on ``sys.path``.

    Exits non-zero when the program is not there (a directory holding
    only the benchmark): there is nothing to measure.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perf: no program under test at {SRC}/repro")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def peak_rss_mb(pid: object = "self") -> float:
    """``VmHWM`` of a live process, in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
