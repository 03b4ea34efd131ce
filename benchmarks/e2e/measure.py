"""Measurement helpers: percentiles, CPU and memory readings, spreads.

Everything here is the benchmark's own arithmetic — no ``repro`` import.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

__all__ = [
    "cpu_seconds",
    "machine_fingerprint",
    "peak_rss_mb",
    "percentile",
    "quartile_spread",
    "samples_beyond",
    "tail_supported",
]

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def _rank(n: int, fraction: float) -> int:
    """1-based nearest rank of the ``fraction`` percentile among ``n``."""
    return min(max(math.ceil(fraction * n), 1), n)


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    return float(sorted_values[_rank(len(sorted_values), fraction) - 1])


def samples_beyond(n: int, fraction: float) -> int:
    """How many of ``n`` samples lie strictly beyond the percentile."""
    return n - _rank(n, fraction) if n else 0


def tail_supported(n: int, fraction: float) -> bool:
    """The "≥10 samples beyond" rule: may this percentile be reported?"""
    return samples_beyond(n, fraction) >= MIN_BEYOND


def quartile_spread(values: list[float]) -> float:
    """(Q3 − Q1) ÷ median, as ``statistics.quantiles(values, n=4)`` cuts."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def _proc_cpu_seconds(pid: int) -> float:
    """user+sys CPU of a live process from ``/proc`` (0 if unreadable)."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = raw.rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def cpu_seconds(child_pids: list[int]) -> float:
    """user+sys CPU of this process, its reaped children and ``child_pids``.

    ``RUSAGE_CHILDREN`` only covers children that have been waited for;
    live shard workers are read from ``/proc`` by pid instead.
    """
    own = time.process_time()
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    live = sum(_proc_cpu_seconds(pid) for pid in child_pids)
    return own + reaped.ru_utime + reaped.ru_stime + live


def _proc_peak_rss_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(child_pids: list[int]) -> float:
    """Peak resident set of this process plus its live children, in MB.

    Read while the shard workers are still alive.  Children already
    reaped are left out on purpose: the only one is the C compiler of a
    first run in a fresh checkout.  Pages of the memory-mapped store that
    several processes touch are counted once per process.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    live = sum(_proc_peak_rss_kb(pid) for pid in child_pids)
    return (own + live) / 1024.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"  # an exported checkout: do not look further up
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_fingerprint(root: Path) -> dict:
    """Git sha, core count, CPU model and interpreter/library versions."""
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro_no_jit": os.environ.get("REPRO_NO_JIT", ""),
    }
