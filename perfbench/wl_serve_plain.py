"""Workload ``serve-plain``: ``ServingEngine`` in one process, closed loop.

D2STGNN at the bench profile's width (hidden 16, 2 layers) on metr-la-sim
with N=48, default ``ServeConfig``.  Each round the main thread ingests one
row, then two client threads each ask for a different horizon.  Different
horizons are different cache keys, so both requests miss the cache and take
the model path; arriving together, the micro-batcher can coalesce them.

A traced run traces every other round; the gap between traced and untraced
rounds' median forecast latency is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass

import numpy as np

from repro.data import build_forecasting_data, load_dataset
from repro.models import build_model_from_parts
from repro.obs import memory_high_water_mark_bytes
from repro.serve import ModelRegistry, ServeConfig, ServingEngine, SlidingWindowStore, make_servable
from repro.utils.seed import set_seed
from repro.utils.timer import now

from .common import timed_setups
from .drive import is_failed
from .metrics import Outcome
from .stats import latency_note, median_or_zero, tail_percentile
from .tracing import Tracer, coverage_share, op_breakdown, self_times_by_name

DATASET = "metr-la-sim"
NUM_NODES = 48
NUM_STEPS = 1400
HIDDEN = 16
LAYERS = 2
CLIENTS = 2
WARMUP_ROUNDS = 4
# p99 needs 1000 forecasts; the run extends past --seconds until it has
# them, up to MAX_EXTENSION times --seconds.
MIN_FORECASTS = 1000
TAIL = 99.0
MAX_EXTENSION = 3.0
# About twice the median forecast on a 2-core x86 host.
FORECAST_LIMIT_S = 0.05
# Every SAMPLE_EVERY-th round's window is kept and its answers re-computed.
SAMPLE_EVERY = 50
BARRIER_TIMEOUT_S = 60.0

LAYERS_TIMED = ("serve.window", "serve.cache", "serve.queue_wait", "serve.run_batch", "serve.inverse")


@dataclass
class _State:
    series: object
    registry: ModelRegistry
    engine: ServingEngine
    next_row: int


def _row(state: _State):
    series = state.series
    history = state.engine.store.history
    row = history + (state.next_row - history) % (series.values.shape[0] - history)
    state.next_row += 1
    return series.values[row], int(series.time_of_day[row]), int(series.day_of_week[row])


def _build(seed: int) -> _State:
    set_seed(seed)
    data = build_forecasting_data(
        load_dataset(DATASET, num_nodes=NUM_NODES, num_steps=NUM_STEPS)
    )
    model, _ = build_model_from_parts(
        "D2STGNN", num_nodes=NUM_NODES, steps_per_day=data.steps_per_day,
        adjacency=data.adjacency, hidden=HIDDEN, layers=LAYERS,
    )
    registry = ModelRegistry()
    registry.publish(make_servable("D2STGNN", model, data, hidden=HIDDEN, layers=LAYERS))
    engine = ServingEngine(registry, SlidingWindowStore.for_bundle(registry.active_bundle()), ServeConfig())
    series = data.dataset.series
    history = engine.store.history
    engine.store.warm_from(
        series.values[:history], series.time_of_day[:history], series.day_of_week[:history]
    )
    state = _State(series, registry, engine, history)
    for _ in range(WARMUP_ROUNDS):
        engine.observe(*_row(state))
        engine.forecast()
    return state


@dataclass
class _Answer:
    round: int
    horizon: int
    traced: bool
    root: int | None
    latency: float
    outcome: object


def _instrument(engine: ServingEngine, tracer: Tracer) -> list[int]:
    """Wrap the store, cache, batcher and scaler; returns the batch sizes."""
    store, cache, batcher = engine.store, engine.cache, engine.batcher
    store.window = tracer.wrap("serve.window", store.window)
    cache.get = tracer.wrap("serve.cache", cache.get)
    cache.put = tracer.wrap("serve.cache", cache.put)
    store.scaler.inverse_transform = tracer.wrap("serve.inverse", store.scaler.inverse_transform)
    submitted: dict[int, tuple[float, int]] = {}
    sizes: list[int] = []
    submit, run_batch = batcher.submit, batcher.run_batch

    def traced_submit(request):
        if tracer.active():
            submitted[id(request)] = (now(), tracer.current())
        return submit(request)

    def traced_run_batch(requests):
        # Runs on the batcher thread: its parents are the traced forecasts
        # whose requests it serves, found through submit.
        begin = now()
        try:
            return run_batch(requests)
        finally:
            end = now()
            entries = [submitted.pop(id(request), None) for request in requests]
            parents = [entry[1] for entry in entries if entry is not None]
            for entry in entries:
                if entry is not None:
                    tracer.record("serve.queue_wait", entry[0], begin, (entry[1],))
            if parents:
                tracer.record("serve.run_batch", begin, end, parents)
                sizes.append(len(requests))

    batcher.submit = traced_submit
    batcher.run_batch = traced_run_batch
    return sizes


def _check(state: _State, samples: dict, answers: list[_Answer]) -> tuple[list[str], int]:
    """Sampled model-tier answers against a direct forward plus inverse scaling."""
    problems = []
    sources = {}
    for answer in answers:
        source = getattr(answer.outcome, "source", type(answer.outcome).__name__)
        sources[source] = sources.get(source, 0) + 1
    if set(sources) - {"model"}:
        problems.append(f"expected every forecast to miss the cache, got sources {sources}")
    _version, model, _bundle = state.registry.resolve()
    scaler = state.engine.store.scaler
    compared = 0
    for answer in answers:
        if answer.round not in samples or getattr(answer.outcome, "source", None) != "model":
            continue
        x, tod, dow = samples[answer.round]
        with model.inference():
            out = model(x, tod, dow).numpy()
        expected = scaler.inverse_transform(out[0, : answer.horizon, :, 0])
        compared += 1
        if expected.tobytes() != answer.outcome.values.tobytes():
            problems.append(
                f"round {answer.round} horizon {answer.horizon}: served forecast differs from "
                f"a direct forward by {np.abs(expected - answer.outcome.values).max()}"
            )
    if not compared:
        problems.append("no model-tier forecast was sampled for the output check")
    return problems, compared


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    state, setup_s = timed_setups(lambda: _build(seed), lambda state: state.engine.close())
    engine = state.engine
    tracer = Tracer(now) if trace else None
    batch_sizes = _instrument(engine, tracer) if trace else []
    rng = np.random.default_rng(seed)
    horizon_max = state.registry.active_bundle().spec.horizon
    plan: list[tuple[int, ...]] = []
    answers: list[_Answer] = []
    lock = threading.Lock()
    start, done = threading.Barrier(CLIENTS + 1), threading.Barrier(CLIENTS + 1)
    stop = threading.Event()
    hits_before = engine.cache.stats()

    def client(index: int) -> None:
        while True:
            start.wait(BARRIER_TIMEOUT_S)
            if stop.is_set():
                return
            round_index = len(plan) - 1
            horizon = plan[round_index][index]
            traced = trace and round_index % 2 == 1
            root_cm = tracer.span("serve.forecast") if traced else contextlib.nullcontext()
            with root_cm as root:
                begin = now()
                try:
                    outcome = engine.forecast(horizon)
                except Exception as error:  # an operation's failure is data
                    outcome = error
                latency = now() - begin
            with lock:
                answers.append(_Answer(round_index, horizon, traced, root, latency, outcome))
            done.wait(BARRIER_TIMEOUT_S)

    threads = [threading.Thread(target=client, args=(i,), name=f"perfbench-client-{i}") for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    samples = {}
    observes = observe_failures = 0
    observe_spans = []
    begin = now()
    try:
        while True:
            elapsed = now() - begin
            untraced = sum(not answer.traced for answer in answers)
            enough = trace or untraced >= MIN_FORECASTS
            if (elapsed >= seconds and enough) or elapsed >= MAX_EXTENSION * seconds:
                break
            round_index = len(plan)
            plan.append(tuple(int(h) for h in rng.choice(horizon_max, CLIENTS, replace=False) + 1))
            traced = trace and round_index % 2 == 1
            observes += 1
            with tracer.span("serve.observe") if traced else contextlib.nullcontext() as root:
                try:
                    engine.observe(*_row(state))
                except Exception:  # counted as a failed operation
                    observe_failures += 1
            if root is not None:
                observe_spans.append(root)
            if round_index % SAMPLE_EVERY == 0:
                samples[round_index] = engine.store.window()
            start.wait(BARRIER_TIMEOUT_S)
            done.wait(BARRIER_TIMEOUT_S)
        wall = now() - begin
    finally:
        stop.set()
        start.wait(BARRIER_TIMEOUT_S)
        for thread in threads:
            thread.join(BARRIER_TIMEOUT_S)
        engine.close()
    hits_after = engine.cache.stats()
    peak_rss_mb = memory_high_water_mark_bytes() / 2**20  # before the output check's forwards
    problems, compared = _check(state, samples, answers)
    failed = observe_failures + sum(is_failed(answer.outcome) for answer in answers)
    timed = [answer for answer in answers if not answer.traced]
    latencies = [answer.latency for answer in timed]
    if not trace and (tail_percentile(len(latencies)) or 0.0) < TAIL:
        problems.append(f"{len(latencies)} forecasts cannot support p{TAIL:g}")
    if trace:
        lookups = (hits_after["hits"] + hits_after["misses"]) - (hits_before["hits"] + hits_before["misses"])
        metrics = _layer_metrics(tracer, answers, observe_spans, batch_sizes)
        metrics["serve.cache.hit_ratio"] = (hits_after["hits"] - hits_before["hits"]) / lookups
    else:
        answered = [a for a in timed if not is_failed(a.outcome)]
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "throughput_per_s": len(answered) / wall,
            "slo_met_share": sum(
                getattr(a.outcome, "source", None) in ("model", "cache") and a.latency <= FORECAST_LIMIT_S
                for a in timed
            ) / len(timed),
        }
    return Outcome(
        attempted=observes + len(answers),
        failed=failed,
        metrics=metrics,
        problems=problems,
        notes={
            "rounds": len(plan),
            "forecasts": len(answers),
            "sampled_forecasts_checked": compared,
            "latency": latency_note(latencies, TAIL),
        },
    )


def _layer_metrics(tracer: Tracer, answers: list[_Answer], observe_spans: list[int], sizes: list[int]) -> dict:
    spans = tracer.spans
    by_name = self_times_by_name(spans)
    ms = lambda name: 1e3 * median_or_zero(by_name[name])  # noqa: E731
    traced = [answer for answer in answers if answer.traced]
    roots = [answer.root for answer in traced]
    durations = [spans[root].duration for root in roots]
    breakdown = op_breakdown(spans, roots)
    untraced = [answer.latency for answer in answers if not answer.traced]
    return {
        "serve.observe_ms": 1e3 * median_or_zero([spans[sid].duration for sid in observe_spans]),
        "serve.window_ms": ms("serve.window"),
        "serve.cache_ms": ms("serve.cache"),
        "serve.queue_wait_ms": ms("serve.queue_wait"),
        "serve.run_batch_ms": ms("serve.run_batch"),
        "serve.batch_size_mean": float(np.mean(sizes)) if sizes else 0.0,
        "serve.inverse_ms": ms("serve.inverse"),
        "serve.unaccounted_ms": ms("serve.forecast"),
        "trace.overhead_share": float(np.median(durations) / np.median(untraced)) - 1.0,
        "trace.coverage_share": coverage_share(breakdown, LAYERS_TIMED, durations),
    }
