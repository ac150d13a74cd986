"""Order statistics shared by every workload.

One percentile definition (numpy's linear interpolation) and one rule for
how far into the tail a sample may be read: the highest percentile that
still leaves at least ``MIN_BEYOND`` samples beyond it.
"""

from __future__ import annotations

import numpy as np

# Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def tail_percentile(count: int) -> float | None:
    """The highest reportable percentile for ``count`` samples, or None.

    A percentile ``p`` is reportable when ``count * (1 - p/100)`` samples,
    at least ``MIN_BEYOND``, lie beyond it.
    """
    best = None
    for p in TAIL_PERCENTILES:
        # Rounded so that 1000 samples support p99 despite float error.
        if round(count * (100.0 - p) / 100.0, 9) >= MIN_BEYOND:
            best = p
    return best


def median_or_zero(values) -> float:
    """Median of a per-layer sample; 0.0 when the layer did no work."""
    return float(np.median(values)) if len(values) else 0.0


def latency_note(seconds, tail: float) -> dict:
    """Median and tail of a latency sample in ms, printed beside the result."""
    return {
        "p50_ms": 1e3 * float(np.median(seconds)),
        "tail_percentile": tail,
        "tail_ms": 1e3 * float(np.percentile(seconds, tail)),
        "samples": len(seconds),
    }
