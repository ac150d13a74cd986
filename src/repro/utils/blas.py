"""Resize the loaded OpenBLAS thread pool from inside a running process.

``OPENBLAS_NUM_THREADS`` is read once, when OpenBLAS loads.  A process
forked after numpy is imported inherits the parent's pool size, so a shard
worker sizes its own pool by calling the library's setter directly.  The
library is found through ``/proc/self/maps`` (numpy's wheel ships it as
``numpy.libs/libscipy_openblas64_-*.so``); where no OpenBLAS is mapped the
helpers do nothing and return ``None``.
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["blas_threads", "set_blas_threads", "shard_blas_threads"]

# (setter, getter) symbol spellings: numpy's scipy-openblas64 build, then plain.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _mapped_libraries() -> list[str]:
    """Paths of the shared libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            return sorted({line.split()[-1] for line in maps if ".so" in line})
    except OSError:
        return []


def _openblas():
    """The loaded OpenBLAS's ``(setter, getter)``, or ``None``."""
    for path in _mapped_libraries():
        if "openblas" in os.path.basename(path).lower():
            library = ctypes.CDLL(path)
            for setter, getter in _SYMBOLS:
                if hasattr(library, setter) and hasattr(library, getter):
                    return getattr(library, setter), getattr(library, getter)
    return None


def blas_threads() -> int | None:
    """This process's OpenBLAS thread count, or ``None`` without OpenBLAS."""
    functions = _openblas()
    return None if functions is None else int(functions[1]())


def set_blas_threads(n: int) -> int | None:
    """Set this process's OpenBLAS pool to ``n`` threads; return the new count."""
    functions = _openblas()
    if functions is None:
        return None
    functions[0](int(n))
    return int(functions[1]())


def shard_blas_threads(num_shards: int) -> int:
    """Threads per shard worker: this process's cores split ``num_shards`` ways."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, (cpus or 1) // num_shards)
