"""What every workload shares: the environment record, memory, set-up timing."""

from __future__ import annotations

import os

import numpy as np

from repro.utils.timer import now

# Each run builds its workload this many times and reports the median, so a
# one-off stall in set-up does not read as a regression.
SETUP_REPEATS = 3


def environment() -> dict:
    """Cores, BLAS build and every thread-related environment variable.

    Recorded as the run saw it: ``train`` runs with one BLAS thread
    (set in ``run.py``), the serving workloads with the environment as
    shipped, so BLAS thread oversubscription shows in their numbers.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy without the dict form
        blas = {"name": "unknown"}
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {
            key: value for key, value in sorted(os.environ.items()) if "THREAD" in key.upper()
        },
    }


def child_peak_rss_mb(pid: int) -> float:
    """High-water resident set of a live child process, in MB (Linux /proc)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def timed_setups(build, close):
    """Run ``build()`` SETUP_REPEATS times; keep the last, close the others.

    Returns ``(state, median set-up seconds)``.
    """
    durations = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            close(state)
        begin = now()
        state = build()
        durations.append(now() - begin)
    return state, float(np.median(durations))
