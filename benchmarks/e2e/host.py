"""Host-noise stamp: a fixed spin timed around the repetitions.

The spin does the same pure-Python and numpy work every time, so its wall
time moves only with the box (a neighbour on the core, a frequency
change), never with the program under test.  It tells a loud box from a
slow change; no metric is ever rescaled by it.
"""

from __future__ import annotations

import os
import subprocess
import time

from benchmarks.e2e.metrics import summarize

__all__ = ["spin_ms", "nproc", "host_block", "env_block"]

_SPIN_PY_ITERS = 400_000
_SPIN_NP_SIZE = 200_000
_SPIN_NP_ITERS = 80


def spin_ms() -> float:
    """Wall milliseconds of the fixed spin (>= 50 ms on the baseline box)."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(_SPIN_PY_ITERS):
        acc += (i * i) % 7
    values = np.arange(_SPIN_NP_SIZE, dtype=np.float64)
    for _ in range(_SPIN_NP_ITERS):
        values = np.sqrt(values * values + 1.0)
    return (time.perf_counter() - start) * 1e3


def nproc() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


def host_block(spins) -> dict:
    """The per-run host stamp: spin summary, load average, cores."""
    return {
        "spin_ms": summarize(spins),
        "loadavg": list(os.getloadavg()),
        "nproc": nproc(),
    }


def env_block(root: str) -> dict:
    """``benchmarks/_env.py``'s machine fingerprint plus nproc and git SHA."""
    from benchmarks._env import bench_env

    env = bench_env()
    env["nproc"] = nproc()
    env["loadavg"] = list(os.getloadavg())
    try:
        env["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        env["git_sha"] = None  # not a git checkout
    return env
