"""Process counters, percentile discipline and the result stamp."""

from __future__ import annotations

import math
import os
import platform
import socket
import subprocess

_TICK_MS = 1000.0 / os.sysconf("SC_CLK_TCK")


def proc_cpu_ms(pid: int) -> float:
    """User + system CPU time of a process so far (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as stream:
        fields = stream.read().rsplit(")", 1)[1].split()
    # fields[0] is field 3 (state): utime and stime are fields 14 and 15
    return (int(fields[11]) + int(fields[12])) * _TICK_MS


def proc_threads_cpu_ms(pid: int) -> float:
    """Time the threads of a process have run on a CPU so far, summed
    over ``/proc/<pid>/task/*/schedstat`` (nanosecond resolution; a
    thread that has exited no longer counts)."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as stream:
                total += int(stream.read().split()[0])
        except FileNotFoundError:  # the thread exited meanwhile
            pass
    return total / 1e6


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the *p*-th percentile of *n* samples."""
    return max(1, math.ceil(p / 100.0 * n))


def percentile(samples, p: float) -> float:
    """The *p*-th percentile (nearest rank on the sorted samples)."""
    return sorted(samples)[_rank(len(samples), p) - 1]


def beyond(n: int, p: float) -> int:
    """How many of *n* samples lie beyond the *p*-th percentile."""
    return n - _rank(n, p)


def supported(n: int, p: float) -> bool:
    """A percentile is reported only with at least ten samples beyond it."""
    return beyond(n, p) >= 10


def describe(name: str, samples) -> list[str]:
    """Report lines ``<name>_p50_ms`` / ``_p90_ms`` / ``_p99_ms`` with n
    and the count beyond each; a percentile with fewer than ten samples
    beyond it is named as omitted rather than printed."""
    n = len(samples)
    lines = []
    for p in (50, 90, 99):
        label = f"{name}_p{p}_ms"
        if n and supported(n, p):
            lines.append(
                f"{label:<36} {percentile(samples, p):12.4f} ms  "
                f"(n={n}, {beyond(n, p)} beyond)"
            )
        else:
            lines.append(
                f"{label:<36} {'omitted':>12}     (n={n}, "
                f"{beyond(n, p) if n else 0} beyond < 10)"
            )
    return lines


def _git(root, *args) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def stamp(root, seed: int, workload: str, spec: dict, seconds: float) -> dict:
    """Where and on what a result was measured."""
    commit = _git(root, "rev-parse", "HEAD")
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit or "unknown",
        "dirty": bool(_git(root, "status", "--porcelain")) if commit else None,
        "seed": seed,
        "seconds": seconds,
        "workload": workload,
        "spec": spec,
    }
