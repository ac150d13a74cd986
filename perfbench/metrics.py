"""The metric vocabulary: every name the benchmark reports, with its unit.

Every workload reports every end-to-end metric (untraced runs) and every
per-layer metric (traced runs).  A layer a workload never enters reports 0:
serving code is idle while training runs, and the other way round.
``BENCHMARK.json`` lists the same names and units; a test keeps them equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# name -> unit.  What each one means on each workload: README.md.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "slo_met_share": "share",
}

PER_LAYER = {
    # repro.data
    "data.gather_ms": "ms",
    # repro.core / repro.nn
    "core.forward_ms": "ms",
    # repro.training
    "training.loss_ms": "ms",
    "training.validate_s": "s",
    "training.unaccounted_ms": "ms",
    # repro.tensor
    "tensor.backward_ms": "ms",
    "tensor.ops_per_step": "count",
    "tensor.bytes_per_step": "bytes",
    # repro.optim
    "optim.clip_ms": "ms",
    "optim.step_ms": "ms",
    # repro.serve.window_store / cache
    "serve.observe_ms": "ms",
    "serve.window_ms": "ms",
    "serve.cache_ms": "ms",
    "serve.cache.hit_ratio": "share",
    # repro.serve.microbatch
    "serve.queue_wait_ms": "ms",
    "serve.run_batch_ms": "ms",
    "serve.batch_size_mean": "count",
    # repro.serve.engine
    "serve.inverse_ms": "ms",
    "serve.unaccounted_ms": "ms",
    # repro.serve.router / shard
    "router.observe_ms": "ms",
    "router.stitch_ms": "ms",
    "router.admission_ms": "ms",
    "router.busy_share": "share",
    # repro.serve.transport
    "transport.post_ms": "ms",
    "transport.wait_hit_ms.shard0": "ms",
    "transport.wait_hit_ms.shard1": "ms",
    "transport.wait_miss_ms.shard0": "ms",
    "transport.wait_miss_ms.shard1": "ms",
    "transport.bytes_per_forecast": "bytes",
    "transport.failures": "count",
    # repro.serve.supervise
    "supervise.restarts": "count",
    # load generator and tracer: validity of the run, not performance
    "loadgen.queue_ms": "ms",
    "loadgen.late_ms_p99": "ms",
    "trace.overhead_share": "share",
    "trace.coverage_share": "share",
}


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs were right."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    problems: list[str] = field(default_factory=list)  # failed output checks
    notes: dict = field(default_factory=dict)  # context printed beside the result

    @property
    def correct(self) -> bool:
        return not self.problems

    def result(self, trace: bool) -> dict:
        """The result object: every metric of the run's kind, with its unit."""
        table = PER_LAYER if trace else END_TO_END
        unknown = sorted(set(self.metrics) - set(table))
        if unknown:
            raise KeyError(f"metrics outside the vocabulary: {unknown}")
        missing = sorted(set(table) - set(self.metrics))
        if missing and not trace:  # only per-layer metrics may be idle
            raise KeyError(f"end-to-end metrics not measured: {missing}")
        values = {name: float(self.metrics.get(name, 0.0)) for name in table}
        for name, value in values.items():
            if not math.isfinite(value):  # JSON has no NaN; the run is wrong
                self.problems.append(f"{name} is {value}")
                values[name] = 0.0
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table.items()},
        }
