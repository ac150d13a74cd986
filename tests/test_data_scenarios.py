"""Scenario presets: each must produce its advertised characteristic."""

import numpy as np
import pytest

from repro.data import SCENARIOS, scenario_config, simulate_traffic
from repro.graph import generate_road_network


@pytest.fixture(scope="module")
def network():
    return generate_road_network(8, np.random.default_rng(3))


def run(network, name, steps=288 * 3, seed=11):
    return simulate_traffic(
        network, steps, kind="speed",
        config=scenario_config(name), rng=np.random.default_rng(seed),
    )


class TestRegistry:
    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            scenario_config("apocalypse")

    def test_all_scenarios_generate(self, network):
        for name in SCENARIOS:
            series = run(network, name, steps=300)
            assert np.isfinite(series.values).all()

    def test_normal_matches_default(self):
        from repro.data import SimulationConfig

        assert scenario_config("normal") == SimulationConfig()


class TestCharacteristics:
    def test_incident_heavy_has_more_inherent_variance(self, network):
        normal = run(network, "normal")
        heavy = run(network, "incident-heavy")
        assert heavy.inherent.var() > normal.inherent.var()

    def test_diffusion_dominant_shifts_signal_shares(self, network):
        from repro.analysis import true_diffusion_share

        dominant = true_diffusion_share(run(network, "diffusion-dominant"))
        isolated = true_diffusion_share(run(network, "isolated"))
        assert dominant > 2.0 * isolated

    def test_isolated_nearly_uncoupled(self, network):
        series = run(network, "isolated")
        total = series.diffusion + series.inherent
        assert series.diffusion.sum() / total.sum() < 0.25

    def test_flaky_sensors_fail_often(self, network):
        normal = run(network, "normal")
        flaky = run(network, "flaky-sensors")
        assert flaky.failure_mask.mean() > 5.0 * max(normal.failure_mask.mean(), 1e-6)

    def test_quiet_is_more_predictable_day_to_day(self, network):
        def day_to_day_correlation(series):
            steps = series.config.steps_per_day
            day1 = series.values[:steps].mean(axis=1)
            day2 = series.values[steps : 2 * steps].mean(axis=1)
            return np.corrcoef(day1, day2)[0, 1]

        assert day_to_day_correlation(run(network, "quiet")) > day_to_day_correlation(
            run(network, "incident-heavy")
        )


class TestSensorDrift:
    """The ``sensor-drift`` event scenario: pure SensorBias miscalibration."""

    @pytest.fixture(scope="class")
    def adjacency(self, network):
        from repro.graph import gaussian_kernel_adjacency, shortest_path_distances

        return gaussian_kernel_adjacency(shortest_path_distances(network.distances))

    @staticmethod
    def drift(network, adjacency, steps=288 * 3):
        """(applied scenario, ground-truth additive bias) on a clean base."""
        from dataclasses import replace

        from repro.data import SimulationConfig, apply_events, event_scenario

        base = simulate_traffic(
            network, steps, kind="speed",
            config=replace(SimulationConfig(), failure_rate=0.0),
            rng=np.random.default_rng(11),
        )
        scenario = event_scenario("sensor-drift", adjacency, steps, seed=11)
        applied = apply_events(base, scenario.events, adjacency)
        bias = sum(event._bias_field(steps, adjacency, "speed") for event in scenario.events)
        return applied, bias

    def test_preset_registered(self, adjacency):
        from repro.data import EVENT_SCENARIOS, SensorBias, event_scenario

        assert "sensor-drift" in EVENT_SCENARIOS
        assert "sensor-drift" not in SCENARIOS  # one drift generator, not two
        scenario = event_scenario("sensor-drift", adjacency, 400)
        assert scenario.events
        # Drift, not darkness: bias events only, so no closures or outages.
        assert all(isinstance(event, SensorBias) for event in scenario.events)

    def test_drift_bias_is_a_ramp_on_a_subset(self, network, adjacency):
        applied, bias = self.drift(network, adjacency)
        assert bias.shape == applied.series.values.shape
        drifting = np.nonzero(np.abs(bias[-1]) > 0)[0]
        clean = np.setdiff1d(np.arange(bias.shape[1]), drifting)
        assert 0 < len(drifting) < bias.shape[1]
        assert np.all(bias[:, clean] == 0)
        # Each drifting sensor: zero before its onset (past a quarter of the
        # run), then a monotone one-signed ramp — additive miscalibration,
        # not a zero-coded outage.
        assert np.all(bias[: bias.shape[0] // 4] == 0)
        for sensor in drifting:
            column = bias[:, sensor]
            magnitude = np.abs(column)
            assert np.all(np.diff(magnitude) >= 0)
            signs = np.sign(column[magnitude > 0])
            assert len(set(signs.tolist())) == 1

    def test_drifted_readings_stay_plausible(self, network, adjacency):
        applied, _ = self.drift(network, adjacency)
        values = applied.series.values
        assert not applied.series.failure_mask.any()
        assert np.isfinite(values).all()
        assert values.min() >= 0.0
        assert values.max() <= applied.series.config.speed_limit

    def test_drift_data_serves_through_replay_split(self, network, adjacency):
        """The drift scenario drives the online serving path end to end."""
        from repro.data import build_forecasting_data
        from repro.data.datasets import PRESETS, TrafficDataset
        from repro.models import build_model
        from repro.serve import (
            ModelRegistry,
            ServeConfig,
            ServingEngine,
            SlidingWindowStore,
            make_servable,
            replay_split,
        )
        from repro.utils.seed import set_seed

        applied, _ = self.drift(network, adjacency, steps=420)
        data = build_forecasting_data(
            TrafficDataset(
                spec=PRESETS["metr-la-sim"].scaled(num_nodes=8, num_steps=420),
                series=applied.series, network=network, adjacency=adjacency,
            )
        )
        set_seed(0)
        model, _ = build_model("STGCN", data, hidden=8, layers=1)
        bundle = make_servable("STGCN", model, data, hidden=8, layers=1)
        registry = ModelRegistry()
        registry.publish(bundle)
        engine = ServingEngine(
            registry, SlidingWindowStore.for_bundle(bundle),
            ServeConfig(max_wait_s=0.001),
        )
        summary = replay_split(engine, data, steps=6, requests_per_step=2)
        assert summary["requests"] == 12
        # Drifted-but-plausible readings serve on the model tier: no
        # anomaly/outage degradation fires on additive bias alone.
        assert summary["sources"]["model"] >= 6
        assert summary["fallback_reasons"] == {}
