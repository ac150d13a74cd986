"""The assembled serving stack: engine flows, degradation and telemetry."""

import threading

import numpy as np
import pytest

from repro.check.sanitizers import AnomalyError
from repro.models import build_model
from repro.obs import TELEMETRY_SCHEMA, MemorySink
from repro.serve import (
    DegradationPolicy,
    ModelRegistry,
    ServableBundle,
    ServeConfig,
    ServingEngine,
    SlidingWindowStore,
    make_servable,
    replay_split,
)
from repro.utils.seed import set_seed


@pytest.fixture(scope="module")
def bundle(tiny_data):
    set_seed(0)
    model, _ = build_model("STGCN", tiny_data, hidden=8, layers=1)
    return make_servable("STGCN", model, tiny_data, hidden=8, layers=1)


def _engine(bundle, config=None, sink=None):
    registry = ModelRegistry()
    registry.publish(bundle)
    store = SlidingWindowStore.for_bundle(bundle)
    return ServingEngine(
        registry, store, config or ServeConfig(max_wait_s=0.001), sink=sink
    )


def _warm(engine, tiny_data, steps=None):
    series = tiny_data.dataset.series
    steps = steps if steps is not None else engine.store.history
    engine.store.warm_from(
        series.values[:steps], series.time_of_day[:steps], series.day_of_week[:steps]
    )


class TestForecastFlow:
    def test_model_then_cache(self, bundle, tiny_data):
        with _engine(bundle) as engine:
            _warm(engine, tiny_data)
            first = engine.forecast()
            second = engine.forecast()
        assert first.source == "model" and first.version == "v1"
        assert second.source == "cache"
        np.testing.assert_array_equal(first.values, second.values)
        assert first.values.shape == (
            bundle.spec.horizon, bundle.spec.num_nodes
        )

    def test_new_observation_invalidates_cache(self, bundle, tiny_data):
        series = tiny_data.dataset.series
        with _engine(bundle) as engine:
            _warm(engine, tiny_data)
            engine.forecast()
            row = engine.store.history
            engine.observe(
                series.values[row], int(series.time_of_day[row]), int(series.day_of_week[row])
            )
            assert len(engine.cache) == 0
            result = engine.forecast()
        assert result.source == "model"

    def test_forecast_without_observations_raises(self, bundle):
        with _engine(bundle) as engine:
            with pytest.raises(RuntimeError, match="observe"):
                engine.forecast()

    def test_invalid_horizon_rejected(self, bundle, tiny_data):
        with _engine(bundle) as engine:
            _warm(engine, tiny_data)
            with pytest.raises(ValueError):
                engine.forecast(horizon=bundle.spec.horizon + 1)

    def test_shorter_horizon_served_and_cached_separately(self, bundle, tiny_data):
        with _engine(bundle) as engine:
            _warm(engine, tiny_data)
            short = engine.forecast(horizon=3)
            full = engine.forecast()
        assert short.values.shape[0] == 3
        assert short.source == "model" and full.source == "model"
        np.testing.assert_array_equal(short.values, full.values[:3])


class TestDegradation:
    def test_cold_start_falls_back(self, bundle, tiny_data):
        with _engine(bundle) as engine:
            _warm(engine, tiny_data, steps=2)  # window not full yet
            result = engine.forecast()
        assert result.source == "fallback" and result.reason == "cold_start"
        assert np.isfinite(result.values).all()

    def test_outage_falls_back(self, bundle, tiny_data):
        with _engine(bundle) as engine:
            dark = np.zeros(bundle.spec.num_nodes, np.float32)
            for step in range(bundle.spec.history):
                engine.observe(dark, step, 0)
            result = engine.forecast()
        assert result.source == "fallback" and result.reason == "outage"

    def test_nan_weights_fall_back_as_anomaly(self, bundle, tiny_data):
        poisoned_state = {k: v.copy() for k, v in bundle.state.items()}
        first = next(iter(poisoned_state))
        poisoned_state[first][:] = np.nan
        poisoned = ServableBundle(
            spec=bundle.spec, state=poisoned_state, adjacency=bundle.adjacency,
            fallback_profile=bundle.fallback_profile, extra={},
        )
        with _engine(poisoned) as engine:
            _warm(engine, tiny_data)
            result = engine.forecast()
        assert result.source == "fallback" and result.reason == "anomaly"
        assert np.isfinite(result.values).all()

    def test_broken_servable_falls_back_as_error(self, bundle, tiny_data):
        broken = ServableBundle(
            spec=bundle.spec,
            state={k: v for k, v in list(bundle.state.items())[:-1]},  # instantiate fails
            adjacency=bundle.adjacency,
            fallback_profile=bundle.fallback_profile,
            extra={},
        )
        with _engine(broken) as engine:
            _warm(engine, tiny_data)
            result = engine.forecast()
        assert result.source == "fallback" and result.reason == "error"

    def test_strict_policy_reraises(self, bundle, tiny_data):
        poisoned_state = {k: np.full_like(v, np.nan) for k, v in bundle.state.items()}
        poisoned = ServableBundle(
            spec=bundle.spec, state=poisoned_state, adjacency=bundle.adjacency,
            fallback_profile=bundle.fallback_profile, extra={},
        )
        config = ServeConfig(
            max_wait_s=0.001,
            policy=DegradationPolicy(fallback_on_nan=False, fallback_on_error=False),
        )
        with _engine(poisoned, config) as engine:
            _warm(engine, tiny_data)
            with pytest.raises(AnomalyError):
                engine.forecast()


class TestConcurrentEngines:
    def test_two_engines_in_one_process_serve_from_the_model(self, bundle, tiny_data):
        # Two engines whose batcher threads overlap must not interfere: a
        # process-wide forward hook on one would fail the other's forwards.
        series = tiny_data.dataset.series
        rounds = 60
        engines = [_engine(bundle), _engine(bundle)]
        answers: list[list] = [[], []]

        def drive(index: int) -> None:
            engine = engines[index]
            for step in range(engine.store.history + rounds):
                engine.observe(
                    series.values[step], int(series.time_of_day[step]),
                    int(series.day_of_week[step]),
                )
                if engine.store.ready:
                    answers[index].append(engine.forecast())

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            for engine in engines:
                engine.close()
        for results in answers:
            assert len(results) == rounds + 1
            assert [(r.source, r.reason) for r in results] == [("model", None)] * len(results)


class TestHotSwap:
    def test_activate_switches_serving_version(self, bundle, tiny_data):
        set_seed(7)
        model, _ = build_model("STGCN", tiny_data, hidden=8, layers=1)
        second = make_servable("STGCN", model, tiny_data, hidden=8, layers=1)
        registry = ModelRegistry()
        registry.publish(bundle)
        store = SlidingWindowStore.for_bundle(bundle)
        with ServingEngine(registry, store, ServeConfig(max_wait_s=0.001)) as engine:
            _warm(engine, tiny_data)
            before = engine.forecast()
            registry.publish(second)  # activates v2
            after = engine.forecast()
            registry.activate("v1")
            back = engine.forecast()
        assert before.version == "v1" and before.source == "model"
        assert after.version == "v2" and after.source == "model"
        assert not np.array_equal(before.values, after.values)
        # v1's cached prediction is still keyed under v1 and is served again.
        assert back.version == "v1" and back.source == "cache"
        np.testing.assert_array_equal(back.values, before.values)


class TestReplayAndTelemetry:
    def test_replay_exercises_model_and_cache(self, bundle, tiny_data):
        sink = MemorySink()
        with _engine(bundle, sink=sink) as engine:
            summary = replay_split(
                engine, tiny_data, steps=6, requests_per_step=3, concurrency=3
            )
            engine.emit_telemetry()
        assert summary["requests"] == 18
        assert summary["sources"]["model"] == 6
        assert summary["sources"]["cache"] == 12
        assert summary["sources"]["fallback"] == 0
        [record] = sink.records
        assert record["schema"] == TELEMETRY_SCHEMA
        assert record["event"] == "serving"
        assert record["requests"] == 18
        assert record["cache_hits"] == 12
        assert record["served_by_model"] == 6
        assert record["active_version"] == "v1"
        assert record["latency_ms_p50"] <= record["latency_ms_p99"]

    def test_fallbacks_counted_in_telemetry(self, bundle, tiny_data):
        with _engine(bundle) as engine:
            _warm(engine, tiny_data, steps=1)
            engine.forecast()  # cold_start fallback
            report = engine.telemetry_report()
        assert report["fallbacks"] == 1
        assert report["fallback_reasons"] == {"cold_start": 1}
        assert report["served_by_model"] == 0
