"""Named traffic-scenario presets for the simulator.

Each scenario is a :class:`~repro.data.SimulationConfig` tuned to stress a
different aspect of a forecaster.  They back the robustness example
(``examples/scenario_shift.py``) and give users reproducible workloads
beyond the four dataset presets.
"""

from __future__ import annotations

from dataclasses import replace

from .simulator import SimulationConfig

__all__ = ["SCENARIOS", "scenario_config"]

# The baseline generator configuration every scenario derives from.
_BASE = SimulationConfig()

SCENARIOS: dict[str, SimulationConfig] = {
    # The default mixture (what the dataset presets use).
    "normal": _BASE,
    # Heavy, unpredictable congestion: frequent incidents of large
    # magnitude.  Stresses a model's reliance on the seasonal pattern.
    "incident-heavy": replace(
        _BASE, event_rate=0.008, event_magnitude=1.6, noise_scale=0.14
    ),
    # A tightly coupled network where most signal diffuses from neighbours:
    # spatial modeling dominates.  (Coupling stays < 1 for stability.)
    "diffusion-dominant": replace(
        _BASE, coupling=0.85, dynamic_coupling_amplitude=0.3, event_rate=0.001
    ),
    # Nearly uncoupled sensors: a graph model gains little; the inherent
    # model carries the forecast.
    "isolated": replace(_BASE, coupling=0.1, dynamic_coupling_amplitude=0.2),
    # Unreliable sensing: long and frequent outages.  Stresses the masked
    # loss and the robustness behaviour of Fig. 8.
    "flaky-sensors": replace(
        _BASE, failure_rate=0.004, failure_duration=(12, 72)
    ),
    # Calm, highly periodic traffic (suburban weekend): the regime where
    # Historical Average is hardest to beat.
    "quiet": replace(
        _BASE, noise_scale=0.04, day_variation=0.08, event_rate=0.0003,
        dynamic_coupling_amplitude=0.3,
    ),
}


def scenario_config(name: str) -> SimulationConfig:
    """Return the :class:`SimulationConfig` for a named scenario."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}")
    return SCENARIOS[name]
