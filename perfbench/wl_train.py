"""Workload ``train``: ``Trainer.fit`` on D2STGNN, closed loop, one thread.

The bench profile's shape (metr-la-sim, N=12, hidden 16, 2 layers, batch
32, curriculum on).  The run repeats one-epoch fits from the same initial
parameters until the time is up.  Each fit is the same computation, so
every fit's final validation MAE must agree bit for bit.

A traced run alternates untraced and traced fits; the gap between their
median step times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass

import numpy as np

import repro.training.trainer as trainer_module
from repro.data import build_forecasting_data, load_dataset
from repro.models import build_model_from_parts
from repro.obs import Profiler, memory_high_water_mark_bytes
from repro.tensor import Tensor, is_inference_mode
from repro.training import Trainer, TrainerConfig
from repro.utils.seed import set_seed
from repro.utils.timer import now

from .common import timed_setups
from .metrics import Outcome
from .stats import latency_note, median_or_zero, tail_percentile
from .tracing import Tracer, coverage_share, op_breakdown, self_times_by_name

DATASET = "metr-la-sim"
NUM_NODES = 12
NUM_STEPS = 1400
HIDDEN = 16
LAYERS = 2
BATCH_SIZE = 32
EPOCHS_PER_FIT = 1
WARMUP_STEPS = 3
# p90 needs 100 samples (10 beyond it); the run extends past --seconds
# until it has them, up to MAX_EXTENSION times --seconds.
MIN_STEP_INTERVALS = 100
TAIL = 90.0
MAX_EXTENSION = 3.0
# About twice the median step on a 2-core x86 host: only stalls miss it.
STEP_LIMIT_S = 0.15

LAYERS_TIMED = (
    "data.gather", "core.forward", "training.loss", "tensor.backward",
    "optim.clip", "optim.step",
)


@dataclass
class _State:
    data: object
    model: object
    initial: dict


def _config(data, seed: int) -> TrainerConfig:
    return TrainerConfig(
        epochs=EPOCHS_PER_FIT,
        batch_size=BATCH_SIZE,
        curriculum=True,
        curriculum_step=max(4, len(data.train) // BATCH_SIZE // 3),
        seed=seed,
    )


def _build(seed: int) -> _State:
    set_seed(seed)
    data = build_forecasting_data(
        load_dataset(DATASET, num_nodes=NUM_NODES, num_steps=NUM_STEPS)
    )
    model, _ = build_model_from_parts(
        "D2STGNN", num_nodes=NUM_NODES, steps_per_day=data.steps_per_day,
        adjacency=data.adjacency, hidden=HIDDEN, layers=LAYERS,
    )
    initial = model.state_dict()
    # Untimed by the run, timed as set-up: the same step code as fit, so
    # lazy allocations and engine caches are filled before measuring.
    trainer = Trainer(model, data, _config(data, seed))
    horizon = data.windows.horizon
    for batch in itertools.islice(data.loader("train", BATCH_SIZE, shuffle=False), WARMUP_STEPS):
        trainer.optimizer.zero_grad()
        trainer._loss(batch, horizon).backward()
        trainer_module.clip_grad_norm(model.parameters(), trainer.config.clip_norm)
        trainer.optimizer.step()
    trainer.validate()
    model.load_state_dict(initial)
    return _State(data, model, initial)


@dataclass
class _Fit:
    traced: bool
    root: int | None
    seconds: float
    windows: int
    epochs: list  # per epoch: optimizer.step return times
    losses: list
    val_mae: float


def _run_fit(state: _State, seed: int, tracer: Tracer | None, traced: bool) -> _Fit:
    state.model.load_state_dict(state.initial)
    set_seed(seed)
    trainer = Trainer(state.model, state.data, _config(state.data, seed))
    epochs: list[list[float]] = [[]]
    step, validate = trainer.optimizer.step, trainer.validate
    if tracer is not None:
        step = tracer.wrap("optim.step", step)
        validate = tracer.wrap("training.validate", validate)
        trainer._loss = tracer.wrap("training.loss", trainer._loss)

    def timed_step():
        step()
        epochs[-1].append(now())

    def epoch_end():
        epochs.append([])
        return validate()

    trainer.optimizer.step = timed_step
    trainer.validate = epoch_end
    root_cm = tracer.span("train.fit") if traced else contextlib.nullcontext()
    begin = now()
    with root_cm as root:
        history = trainer.fit()
    seconds = now() - begin
    return _Fit(
        traced=traced, root=root, seconds=seconds,
        windows=EPOCHS_PER_FIT * len(state.data.train),
        epochs=[times for times in epochs if times],
        losses=list(history.train_loss), val_mae=float(history.val_mae[-1]),
    )


@contextlib.contextmanager
def _instrument(state: _State, tracer: Tracer):
    """Wrap the layers fit calls into; undo the global patches on exit."""
    model = state.model
    forward = model.forward
    traced_forward = tracer.wrap("core.forward", forward)

    def grad_forward(*args, **kwargs):
        # Validation forwards belong to training.validate, not core.forward.
        if is_inference_mode():
            return forward(*args, **kwargs)
        return traced_forward(*args, **kwargs)

    object.__setattr__(model, "forward", grad_forward)
    state.data.train.gather = tracer.wrap("data.gather", state.data.train.gather)
    backward, clip = Tensor.backward, trainer_module.clip_grad_norm
    Tensor.backward = tracer.wrap("tensor.backward", backward)
    trainer_module.clip_grad_norm = tracer.wrap("optim.clip", clip)
    try:
        yield
    finally:
        Tensor.backward = backward
        trainer_module.clip_grad_norm = clip
        object.__delattr__(model, "forward")
        del state.data.train.gather


def _intervals(fit: _Fit) -> list[tuple[float, float]]:
    return [pair for times in fit.epochs for pair in zip(times, times[1:])]


def _count_ops(state: _State, seed: int) -> tuple[int, int]:
    """Tensor ops and bytes of one train step, counted by repro.obs.Profiler."""
    trainer = Trainer(state.model, state.data, _config(state.data, seed))
    batch = state.data.train.gather(np.arange(BATCH_SIZE))
    with Profiler() as profiler:
        trainer.optimizer.zero_grad()
        trainer._loss(batch, state.data.windows.horizon).backward()
    stats = profiler.ops.values()
    return sum(s.count for s in stats), sum(s.bytes for s in stats)


def _layer_metrics(tracer: Tracer, fits: list[_Fit], state: _State, seed: int) -> dict:
    spans = tracer.spans
    by_name = self_times_by_name(spans)
    # Each step interval (between optimizer.step returns) becomes a root
    # over the top-level spans of its fit that fall inside it.
    step_roots, durations = [], []
    for fit in fits:
        if not fit.traced:
            continue
        top = [s for s in spans if s.parents == (fit.root,)]
        for begin, end in _intervals(fit):
            root = tracer.record("train.step", begin, end)
            for span in top:
                if span.start >= begin and span.end <= end:
                    span.parents += (root,)
            step_roots.append(root)
            durations.append(end - begin)
    breakdown = op_breakdown(tracer.spans, step_roots)
    ms = lambda name: 1e3 * median_or_zero(by_name[name])  # noqa: E731
    untraced = [b - a for fit in fits if not fit.traced for a, b in _intervals(fit)]
    ops, nbytes = _count_ops(state, seed)
    return {
        "data.gather_ms": ms("data.gather"),
        "core.forward_ms": ms("core.forward"),
        "training.loss_ms": ms("training.loss"),
        "training.validate_s": median_or_zero(by_name["training.validate"]),
        "training.unaccounted_ms": 1e3 * float(np.median([op["train.step"] for op in breakdown])),
        "tensor.backward_ms": ms("tensor.backward"),
        "tensor.ops_per_step": ops,
        "tensor.bytes_per_step": nbytes,
        "optim.clip_ms": ms("optim.clip"),
        "optim.step_ms": ms("optim.step"),
        "trace.overhead_share": float(np.median(durations) / np.median(untraced)) - 1.0,
        "trace.coverage_share": coverage_share(breakdown, LAYERS_TIMED, durations),
    }


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    state, setup_s = timed_setups(lambda: _build(seed), lambda state: None)
    tracer = Tracer(now) if trace else None
    fits: list[_Fit] = []
    problems: list[str] = []
    failed = 0
    instrument = _instrument(state, tracer) if trace else contextlib.nullcontext()
    begin = now()
    with instrument:
        while True:
            try:
                fits.append(_run_fit(state, seed, tracer, traced=trace and len(fits) % 2 == 1))
            except Exception as error:  # a failed step ends the run, and fails it
                failed = 1
                problems.append(f"fit raised {type(error).__name__}: {error}")
                break
            elapsed = now() - begin
            if trace:  # per-layer numbers need one traced and one untraced fit
                enough = len(fits) >= 2
            else:
                enough = sum(len(_intervals(f)) for f in fits) >= MIN_STEP_INTERVALS
            if (elapsed >= seconds and enough) or elapsed >= MAX_EXTENSION * seconds:
                break
    steps = sum(len(times) for fit in fits for times in fit.epochs)
    timed = [f for f in fits if not f.traced]
    intervals = [b - a for fit in timed for a, b in _intervals(fit)]
    losses = [loss for fit in fits for loss in fit.losses]
    maes = {fit.val_mae for fit in fits}
    if not all(np.isfinite(losses)):
        problems.append(f"non-finite epoch loss in {losses}")
    if len(maes) != 1 or not all(np.isfinite(list(maes))):
        problems.append(f"repeated fits disagree on final validation MAE: {sorted(maes)}")
    if not trace and (tail_percentile(len(intervals)) or 0.0) < TAIL:
        problems.append(f"{len(intervals)} step intervals cannot support p{TAIL:g}")
    if problems and not intervals:
        intervals = [float("nan")]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": memory_high_water_mark_bytes() / 2**20,
        "throughput_per_s": float(np.median([f.windows / f.seconds for f in timed])) if timed else 0.0,
        "slo_met_share": sum(i <= STEP_LIMIT_S for i in intervals) / (len(intervals) + failed),
    }
    if trace:
        metrics = _layer_metrics(tracer, fits, state, seed) if not failed else {}
    return Outcome(
        attempted=steps + failed,
        failed=failed,
        metrics=metrics,
        problems=problems,
        notes={
            "fits": len(fits),
            "step_intervals": len(intervals),
            "final_val_mae": sorted(maes),
            "latency": latency_note(intervals, TAIL),
        },
    )
