"""Synthetic traffic simulator.

Offline stand-in for the METR-LA / PEMS recordings (see DESIGN.md).  Each
sensor's series is generated as an explicit superposition of the two hidden
signals the paper postulates (Sec. 1, Fig. 2):

* an **inherent** signal — traffic originating near the sensor: per-node
  morning/evening peak profiles, a day-of-week modulation, and AR(1) noise;
* a **diffusion** signal — traffic arriving from neighbouring sensors,
  propagated along the road graph through a row-stochastic transition matrix
  with travel-time lags and a *time-varying* coupling strength (rush hours
  couple the network more tightly), which realises the dynamic spatial
  dependency of Fig. 2(c).

Because the generator literally implements "traffic = diffusion + inherent",
it is the right test bed for the decoupling hypothesis: models that separate
the two signals should win for the same reason they win on real data, and
the simulator exposes the latent components so tests can verify the
decomposition story quantitatively.

Speed-type datasets are produced by mapping congestion load to speed
(``speed = free_flow - scale * load``, clipped to [0, 70] mph); flow-type
datasets report the load directly as vehicle counts.  Random sensor outages
write zeros, mimicking the failure visible in Fig. 8 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.road_network import RoadNetwork
from ..graph.transition import forward_transition

__all__ = ["SimulationConfig", "TrafficSeries", "simulate_traffic", "time_indices"]


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the generative process.

    Defaults are tuned so that roughly 55-70% of signal variance is
    diffusion-driven, matching the paper's premise that diffusion dominates
    but the inherent part is too large to ignore.
    """

    steps_per_day: int = 288  # 5-minute sampling, like all four datasets
    start_day_of_week: int = 0  # Monday
    coupling: float = 0.55  # total diffusion gain (< 1 keeps the system stable)
    max_lag: int = 3  # travel-time lags, in sampling intervals
    noise_scale: float = 0.10
    ar_coefficient: float = 0.88
    weekend_factor: float = 0.55
    day_variation: float = 0.25  # day-to-day amplitude jitter (defeats HA)
    event_rate: float = 0.002  # per-node probability of a congestion event
    event_magnitude: float = 0.9
    event_duration: tuple[int, int] = (12, 30)  # 1-2.5 hours
    dynamic_coupling_amplitude: float = 0.6  # rush-hour boost of edge strength
    failure_rate: float = 0.0008  # per-node probability of an outage starting
    failure_duration: tuple[int, int] = (6, 36)  # outage length range, in steps
    speed_limit: float = 70.0
    free_flow_speed: float = 65.0
    flow_scale: float = 220.0


@dataclass
class TrafficSeries:
    """Simulator output: observations plus the latent ground truth.

    ``values`` is what a model sees; ``inherent``/``diffusion`` are the
    hidden components (before the speed/flow mapping) kept for analysis and
    for the decoupling tests.
    """

    values: np.ndarray  # (T, N) observed speed or flow
    inherent: np.ndarray  # (T, N) latent inherent load
    diffusion: np.ndarray  # (T, N) latent diffusion load
    time_of_day: np.ndarray  # (T,) slot index in [0, steps_per_day)
    day_of_week: np.ndarray  # (T,) day index in [0, 7)
    failure_mask: np.ndarray  # (T, N) True where an outage zeroed the sensor
    kind: str = "speed"
    config: SimulationConfig = field(default_factory=SimulationConfig)


def time_indices(
    num_steps: int, steps_per_day: int, start_day_of_week: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Return (time-of-day, day-of-week) index arrays for ``num_steps``."""
    steps = np.arange(num_steps)
    tod = steps % steps_per_day
    dow = (steps // steps_per_day + start_day_of_week) % 7
    return tod.astype(np.int64), dow.astype(np.int64)


def _daily_profile(tod: np.ndarray, steps_per_day: int, rng: np.random.Generator,
                   num_nodes: int) -> np.ndarray:
    """Per-node daily demand profiles with node-specific peak structure.

    Every node mixes a morning and an evening Gaussian bump with its own
    weights, widths and phase jitter — this is what makes node 2 congest in
    the morning and node 111 in the evening in Fig. 8.
    """
    hours = tod / steps_per_day * 24.0  # (T,)
    morning_center = 8.0 + rng.normal(0.0, 0.7, size=num_nodes)
    evening_center = 17.5 + rng.normal(0.0, 0.7, size=num_nodes)
    morning_weight = rng.uniform(0.2, 1.0, size=num_nodes)
    evening_weight = rng.uniform(0.2, 1.0, size=num_nodes)
    width = rng.uniform(1.2, 2.2, size=num_nodes)
    base = rng.uniform(0.15, 0.35, size=num_nodes)

    delta_m = hours[:, None] - morning_center[None, :]
    delta_e = hours[:, None] - evening_center[None, :]
    profile = (
        base[None, :]
        + morning_weight[None, :] * np.exp(-0.5 * (delta_m / width[None, :]) ** 2)
        + evening_weight[None, :] * np.exp(-0.5 * (delta_e / width[None, :]) ** 2)
    )
    return profile  # (T, N)


def simulate_traffic(
    network: RoadNetwork,
    num_steps: int,
    kind: str = "speed",
    config: SimulationConfig | None = None,
    rng: np.random.Generator | None = None,
) -> TrafficSeries:
    """Run the generative process for ``num_steps`` 5-minute intervals.

    Parameters
    ----------
    network:
        The road network whose (thresholded) connectivity drives diffusion.
    kind:
        ``"speed"`` (METR-LA / PEMS-BAY style) or ``"flow"`` (PEMS04/08).
    """
    if kind not in ("speed", "flow"):
        raise ValueError(f"kind must be 'speed' or 'flow', got {kind!r}")
    config = config or SimulationConfig()
    rng = rng or np.random.default_rng(0)
    num_nodes = network.num_nodes

    finite = np.isfinite(network.distances) & (network.distances > 0)
    adjacency = np.where(finite, np.exp(-network.distances / 0.3), 0.0)
    transition = forward_transition(adjacency.astype(np.float32)).astype(np.float64)
    np.fill_diagonal(transition, 0.0)  # diffusion is strictly from *other* nodes
    rowsum = transition.sum(axis=1, keepdims=True)
    rowsum[rowsum == 0] = 1.0
    transition = transition / rowsum

    tod, dow = time_indices(num_steps, config.steps_per_day, config.start_day_of_week)
    hours = tod / config.steps_per_day * 24.0

    # --- inherent signal -------------------------------------------------
    profile = _daily_profile(tod, config.steps_per_day, rng, num_nodes)
    weekday_scale = np.where(dow >= 5, config.weekend_factor, 1.0)[:, None]

    # Day-to-day amplitude variation: every (day, node) gets its own demand
    # level.  A seasonal-profile model (HA) cannot see it; a model reading
    # the recent history can — this is what separates the two families on
    # the real datasets, where HA is the weakest baseline (Table 3).
    num_days = num_steps // config.steps_per_day + 1
    day_levels = 1.0 + config.day_variation * rng.standard_normal((num_days, num_nodes))
    day_levels = np.clip(day_levels, 0.4, None)
    day_index = np.arange(num_steps) // config.steps_per_day
    inherent = profile * weekday_scale * day_levels[day_index]

    noise = np.zeros((num_steps, num_nodes))
    shocks = rng.normal(0.0, config.noise_scale, size=(num_steps, num_nodes))
    for t in range(1, num_steps):
        noise[t] = config.ar_coefficient * noise[t - 1] + shocks[t]
    inherent = inherent + noise

    # Congestion events: localized demand surges (accidents, closures) that
    # build up and decay over 1-2 hours — predictable from recent readings,
    # invisible to a seasonal profile.
    if config.event_rate > 0:
        starts = rng.random((num_steps, num_nodes)) < config.event_rate
        for t0, node in zip(*np.nonzero(starts)):
            duration = int(rng.integers(*config.event_duration))
            magnitude = config.event_magnitude * rng.uniform(0.5, 1.5)
            span = np.arange(t0, min(t0 + duration, num_steps))
            envelope = np.sin(np.linspace(0.0, np.pi, len(span)))
            inherent[span, node] += magnitude * envelope
    inherent = np.clip(inherent, 0.0, None)

    # --- diffusion signal -------------------------------------------------
    # Time-varying coupling: the network couples more tightly at rush hours
    # (Fig. 2(c): sensors 3/4 strongly affect sensor 2 at 8am, weakly at 10am).
    rush = np.exp(-0.5 * ((hours - 8.0) / 1.5) ** 2) + np.exp(
        -0.5 * ((hours - 17.5) / 1.5) ** 2
    )
    coupling_t = config.coupling * (
        (1.0 - config.dynamic_coupling_amplitude)
        + config.dynamic_coupling_amplitude * rush / max(rush.max(), 1e-9)
    )  # (T,)
    # Per-edge random modulation phase: different edges peak at slightly
    # different times, so the *pattern* of spatial dependency changes too.
    edge_phase = rng.uniform(-1.0, 1.0, size=transition.shape)
    lag_weights = np.array([0.5, 0.3, 0.2])[: config.max_lag]
    lag_weights = lag_weights / lag_weights.sum()

    total = np.zeros((num_steps, num_nodes))
    diffusion = np.zeros((num_steps, num_nodes))
    for t in range(num_steps):
        incoming = np.zeros(num_nodes)
        modulation = 1.0 + 0.3 * np.sin(2.0 * np.pi * hours[t] / 24.0 + edge_phase)
        p_t = transition * modulation
        p_t = p_t / np.maximum(p_t.sum(axis=1, keepdims=True), 1e-9)
        for lag, weight in enumerate(lag_weights, start=1):
            if t - lag >= 0:
                incoming += weight * (p_t @ total[t - lag])
        diffusion[t] = coupling_t[t] * incoming
        total[t] = inherent[t] + diffusion[t]

    # --- observation mapping ---------------------------------------------
    if kind == "speed":
        load = total / max(total.max(), 1e-9)
        values = np.clip(
            config.free_flow_speed * (1.0 - 0.75 * load)
            + rng.normal(0.0, 0.8, size=total.shape),
            0.0,
            config.speed_limit,
        )
    else:
        load = total / max(total.max(), 1e-9)
        values = np.clip(
            np.round(config.flow_scale * load + rng.normal(0.0, 3.0, size=total.shape)),
            0.0,
            None,
        )

    # --- sensor outages -----------------------------------------------------
    failure_mask = np.zeros((num_steps, num_nodes), dtype=bool)
    if config.failure_rate > 0:
        starts = rng.random((num_steps, num_nodes)) < config.failure_rate
        low, high = config.failure_duration
        for t, i in zip(*np.nonzero(starts)):
            duration = int(rng.integers(low, high + 1))
            failure_mask[t : t + duration, i] = True
        values = np.where(failure_mask, 0.0, values)

    return TrafficSeries(
        values=values.astype(np.float32),
        inherent=inherent.astype(np.float32),
        diffusion=diffusion.astype(np.float32),
        time_of_day=tod,
        day_of_week=dow,
        failure_mask=failure_mask,
        kind=kind,
        config=config,
    )
