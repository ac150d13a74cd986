"""Train-step throughput measurement: samples/sec and backward time.

The harness behind ``benchmarks/bench_train_step.py`` and
``repro profile --train-step``.  It times *full* optimisation steps —
batch gather, forward, loss, backward, gradient clipping, optimizer
update — because a training-speed claim is judged end to end; the
backward slice is timed separately since the engine's fast paths
concentrate there.

``compare_fast_reference`` times the same model with the engine's fast
backward closures and under ``reference_backward(fused_matmul=True)``,
alternating the two arms over several rounds and pooling min-of-N, giving
every run a self-contained before/after (see docs/performance.md for how
the two relate to the pre-fast-path baseline).
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..optim import Adam, clip_grad_norm
from ..tensor import Tensor, reference_backward
from ..tensor import functional as F
from ..utils.timer import now

__all__ = ["compare_fast_reference", "time_train_steps"]


def time_train_steps(
    model,
    data,
    *,
    batch_size: int = 32,
    steps: int = 8,
    warmup: int = 2,
    split: str = "train",
    lr: float = 1e-3,
    grad_clip: float = 5.0,
) -> dict:
    """Time ``steps`` full optimisation steps; return throughput statistics.

    Each step gathers its own batch (round-robin over ``split``), so the
    vectorized batching path is part of what is measured.  Minima are the
    headline numbers — on a noisy machine the minimum is the least-biased
    estimate of the achievable step time — with medians recorded alongside.
    """
    if steps < 1 or warmup < 0:
        raise ValueError("steps must be >= 1 and warmup >= 0")
    optimizer = Adam(model.parameters(), lr=lr)
    scaler = data.scaler
    subset = {"train": data.train, "val": data.val, "test": data.test}[split]
    batch_size = min(batch_size, len(subset))
    span = max(1, len(subset) - batch_size)
    order = np.arange(len(subset))

    def step(i: int) -> float:
        batch = subset.gather(order[(i * batch_size) % span :][:batch_size])
        optimizer.zero_grad()
        prediction = model(batch.x, batch.tod, batch.dow) * scaler.std + scaler.mean
        loss = F.masked_mae_loss(prediction, Tensor(batch.y))
        begin = now()
        loss.backward()
        backward = now() - begin
        clip_grad_norm(model.parameters(), grad_clip)
        optimizer.step()
        return backward

    for i in range(warmup):
        step(i)
    totals, backwards = [], []
    for i in range(steps):
        begin = now()
        backward = step(warmup + i)
        totals.append(now() - begin)
        backwards.append(backward)
    totals.sort()
    backwards.sort()
    mid = len(totals) // 2
    return {
        "batch_size": batch_size,
        "steps": steps,
        "step_ms_min": totals[0] * 1e3,
        "step_ms_median": totals[mid] * 1e3,
        "backward_us_min": backwards[0] * 1e6,
        "backward_us_median": backwards[mid] * 1e6,
        "samples_per_sec": batch_size / totals[0],
    }


ROUNDS = 3  # alternated rounds per arm


def compare_fast_reference(model, data, **kwargs) -> dict:
    """Time the model under the reference and fast backward closures.

    The reference leg runs under ``reference_backward(fused_matmul=True)``:
    the fused matmul gradient is allclose-only, so it stays on in both legs
    and the two differ in code path, not numerics.  The arms alternate for
    :data:`ROUNDS` rounds, each round starting with the arm the previous one
    ended on, so host drift hits both alike; each arm reports its minimum
    over all rounds (min-of-N), the median of its round medians, and the
    spread of its round minima (``(max - min) / min``, the noise band a
    speedup must clear).  Returns ``{"reference": ..., "fast": ...}`` plus
    end-to-end and backward speedups of the pooled minima.
    """
    arms = {
        "reference": lambda: reference_backward(fused_matmul=True),
        "fast": contextlib.nullcontext,
    }
    runs: dict[str, list[dict]] = {arm: [] for arm in arms}
    order = list(arms)
    for _ in range(ROUNDS):
        for arm in order:
            with arms[arm]():
                runs[arm].append(time_train_steps(model, data, **kwargs))
        order.reverse()
    reference, fast = _pool(runs["reference"]), _pool(runs["fast"])
    return {
        "reference": reference,
        "fast": fast,
        "rounds": ROUNDS,
        "speedup_end_to_end": reference["step_ms_min"] / fast["step_ms_min"],
        "speedup_backward": reference["backward_us_min"] / fast["backward_us_min"],
    }


def _pool(results: list[dict]) -> dict:
    """One arm's :func:`time_train_steps` rounds as min-of-N with spread."""
    minima = [r["step_ms_min"] for r in results]
    pooled = dict(results[0])
    pooled.update(
        steps=sum(r["steps"] for r in results),
        step_ms_min=min(minima),
        step_ms_median=float(np.median([r["step_ms_median"] for r in results])),
        backward_us_min=min(r["backward_us_min"] for r in results),
        backward_us_median=float(np.median([r["backward_us_median"] for r in results])),
        samples_per_sec=pooled["batch_size"] / (min(minima) / 1e3),
        step_ms_round_minima=minima,
        step_ms_spread=(max(minima) - min(minima)) / min(minima),
    )
    return pooled
