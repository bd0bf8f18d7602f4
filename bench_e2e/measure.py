"""Clock, CPU, memory and environment readings shared by the harness."""

from __future__ import annotations

import multiprocessing
import os
import platform
import statistics
import sys
from typing import Dict, Iterable, List, Sequence

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def worker_pids() -> List[int]:
    """Live worker processes this process spawned."""
    return [p.pid for p in multiprocessing.active_children() if p.pid is not None]


def _proc_cpu_s(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            # Fields after the parenthesised command name; utime and stime
            # are fields 14 and 15 of the whole line.
            fields = fh.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def workers_cpu_seconds(pids: Iterable[int]) -> float:
    """User+system CPU the given worker processes have used so far."""
    return sum(_proc_cpu_s(pid) for pid in pids)


def _peak_rss_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Peak RSS of this process plus the sum of the workers' peaks."""
    return (_peak_rss_kb("self") + sum(_peak_rss_kb(pid) for pid in pids)) / 1024.0


def pid_alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            # A zombie has exited; it holds no CPU, memory or files.
            return fh.read().rsplit(b")", 1)[1].split()[0] != b"Z"
    except (OSError, IndexError):
        return False


def latency_stats(latencies_s: Sequence[float]) -> Dict[str, float]:
    """Median and mean of the slowest tenth, in milliseconds.

    The tail is a mean over the slowest tenth, not a percentile: on the
    ingest workload the tail is a handful of flush stalls that a p95/p99
    steps over or lands on depending on one or two samples.
    """
    ordered = sorted(latencies_s)
    tenth = max(1, len(ordered) // 10)
    return {
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": statistics.fmean(ordered[-tenth:]) * 1e3,
        "samples": len(ordered),
        "tail_samples": tenth,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: str) -> str:
    """HEAD of the checkout's own ``.git``, without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), "r", encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), "r", encoding="ascii") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def environment(root: str, seed: int, sizes: dict) -> dict:
    import numpy

    return {
        "commit": _commit(root),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
        "sizes": sizes,
    }
