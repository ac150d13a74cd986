"""Composable mid-stream traffic events: the scenario engine's vocabulary.

The simulator (:mod:`repro.data.simulator`) generates a *static* world —
one :class:`~repro.data.SimulationConfig` governs the whole run.  This
module adds the dynamic layer the D²STGNN premise actually calls for: a
**scenario** is a seeded, composable list of timed events applied to a base
:class:`~repro.data.TrafficSeries` stream, each declaring the ground-truth
footprint it perturbed so evaluation can report *conditional* accuracy
(affected vs. unaffected nodes, during vs. outside the event).

Event types
-----------

* :class:`Incident` — a capacity cut at one node for a window, with
  congestion spillover to its upstream neighbours (the nodes whose traffic
  feeds the incident site).
* :class:`RoadClosure` — sensors on the closed road go dark (null-coded)
  and every edge touching the closed nodes is removed from the adjacency;
  the closure *emits a rewritten adjacency mid-stream* through the applied
  scenario's :attr:`~AppliedScenario.graph_timeline`, which the serving
  harness threads through the engines as a graph-version bump.
* :class:`DemandSurge` — a rush-hour-style demand multiplier over a node
  set.
* :class:`SpecialEvent` — a localized hotspot (stadium, parade) whose
  severity decays radially over :func:`~repro.graph.hop_neighborhood`
  rings around a center node.
* :class:`SensorBias` — drift/miscalibration: an additive bias ramp on a
  sensor set (random sign per sensor from the event's seed); the
  ``sensor-drift`` scenario is built from these alone.
* :class:`RegimeShift` — a permanent daily-profile change from one step
  onward: the stream follows a DST-style time-shifted (and optionally
  re-levelled) version of itself.

Composition contract
--------------------

:func:`apply_events` is **commutative** in the event list: events are
internally sorted into a canonical order and combined through stages that
are themselves order-free (time-rebase offsets add; multiplicative fields
multiply; additive biases add; closure nulls union), so two scenarios with
the same events in different order produce bit-identical applied series.
With an empty event list the base series is returned untouched — byte
identical, zero RNG draws — extending the simulator's zero-rng-draw
contract to the whole event layer.

Every event constructor takes an explicit ``seed`` (lint rule R011): no
event may draw randomness from ambient state.  Deterministic events simply
never consume theirs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..graph.adjacency import mask_adjacency
from ..graph.partition import hop_neighborhood
from .simulator import TrafficSeries

__all__ = [
    "AppliedScenario",
    "DemandSurge",
    "EVENT_SCENARIOS",
    "Event",
    "GraphUpdate",
    "Incident",
    "RegimeShift",
    "RoadClosure",
    "Scenario",
    "SensorBias",
    "SpecialEvent",
    "apply_events",
    "event_scenario",
    "seeded_events",
]

# How strongly a unit of event severity congests a speed reading: matches
# the simulator's load->speed mapping (speed = free_flow * (1 - 0.75 load)).
_SPEED_CONGESTION_GAIN = 0.75
_MIN_SPEED_FACTOR = 0.05


class Event:
    """Base class for timed stream events.

    Concrete events are frozen dataclasses declaring ``start`` (step index
    into the stream), usually ``duration`` (steps; ``None`` = to the end of
    the stream), and always an explicit ``seed`` (R011).  Subclasses
    override the stage hooks they participate in; everything defaults to
    "no contribution", so each event perturbs exactly one stage and the
    combination stays commutative.
    """

    start: int
    duration: int | None
    seed: int

    # -- geometry ------------------------------------------------------
    def window(self, num_steps: int) -> tuple[int, int]:
        """The half-open ``[t0, t1)`` step range the event is active in."""
        t0 = max(0, int(self.start))
        duration = getattr(self, "duration", None)
        t1 = num_steps if duration is None else min(num_steps, t0 + int(duration))
        return t0, max(t0, t1)

    def affected_nodes(self, adjacency: np.ndarray) -> np.ndarray:
        """Sorted node ids whose ground truth this event perturbs."""
        raise NotImplementedError

    def effect_mask(self, num_steps: int, adjacency: np.ndarray) -> np.ndarray:
        """Ground-truth ``(T, N)`` boolean footprint of the event."""
        t0, t1 = self.window(num_steps)
        mask = np.zeros((num_steps, adjacency.shape[0]), dtype=bool)
        if t1 > t0:
            mask[t0:t1, self.affected_nodes(adjacency)] = True
        return mask

    def describe(self) -> dict:
        """JSON-safe summary of the event (type plus its fields)."""
        fields = dataclasses.asdict(self)  # type: ignore[call-overload]
        for key, value in fields.items():
            if isinstance(value, tuple):
                fields[key] = list(value)
        return {"type": type(self).__name__, **fields}

    # -- stage hooks ---------------------------------------------------
    def _shift_steps(self) -> int:
        """Time-rebase contribution (RegimeShift only)."""
        return 0

    def _factor_field(
        self, num_steps: int, adjacency: np.ndarray, kind: str
    ) -> np.ndarray | None:
        """Multiplicative ``(T, N)`` field, or None for no contribution."""
        return None

    def _bias_field(
        self, num_steps: int, adjacency: np.ndarray, kind: str
    ) -> np.ndarray | None:
        """Additive ``(T, N)`` field, or None for no contribution."""
        return None

    def _null_field(self, num_steps: int, adjacency: np.ndarray) -> np.ndarray | None:
        """``(T, N)`` mask of readings forced to the null code, or None."""
        return None

    def _closed_nodes(self) -> tuple[int, ...]:
        """Nodes whose edges are removed while the event is active."""
        return ()

    # -- shared helpers ------------------------------------------------
    def _validate_window(self) -> None:
        if int(self.start) < 0:
            raise ValueError(f"{type(self).__name__}.start must be >= 0")
        duration = getattr(self, "duration", None)
        if duration is not None and int(duration) < 1:
            raise ValueError(f"{type(self).__name__}.duration must be >= 1")

    def _severity_to_factor(self, severity: np.ndarray, kind: str) -> np.ndarray:
        """Map a severity field (0 = untouched) to a value multiplier.

        Speed datasets congest downward (bounded away from zero); flow
        datasets count the extra vehicles upward.
        """
        if kind == "speed":
            return np.maximum(
                1.0 - _SPEED_CONGESTION_GAIN * severity, _MIN_SPEED_FACTOR
            )
        return 1.0 + severity

    def _sin_envelope(self, num_steps: int) -> np.ndarray:
        """Smooth build-up/decay over the window, like simulator incidents."""
        t0, t1 = self.window(num_steps)
        envelope = np.zeros(num_steps)
        span = t1 - t0
        if span > 0:
            envelope[t0:t1] = np.sin(np.pi * (np.arange(span) + 0.5) / span)
        return envelope


def _node_tuple(nodes) -> tuple[int, ...]:
    return tuple(int(node) for node in nodes)


def _check_nodes(event: Event, nodes, num_nodes: int) -> np.ndarray:
    nodes = np.asarray(sorted(set(int(n) for n in nodes)), dtype=np.int64)
    if nodes.size and (nodes.min() < 0 or nodes.max() >= num_nodes):
        raise ValueError(
            f"{type(event).__name__} references nodes outside [0, {num_nodes})"
        )
    return nodes


@dataclass(frozen=True)
class Incident(Event):
    """A capacity cut at ``node`` with spillover to upstream neighbours.

    ``severity`` is the fractional capacity lost at the incident site;
    upstream neighbours (nodes with an edge *into* ``node`` — where the
    queue builds) receive ``severity * spillover``.  The temporal envelope
    builds up and decays smoothly over the window.
    """

    start: int
    node: int
    duration: int = 12
    severity: float = 0.5
    spillover: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        self._validate_window()
        if not 0.0 < self.severity <= 2.0:
            raise ValueError("Incident.severity must be in (0, 2]")
        if not 0.0 <= self.spillover <= 1.0:
            raise ValueError("Incident.spillover must be in [0, 1]")

    def _upstream(self, adjacency: np.ndarray) -> np.ndarray:
        incoming = np.asarray(adjacency)[:, self.node].copy()
        incoming[self.node] = 0.0
        return np.nonzero(incoming != 0)[0].astype(np.int64)

    def affected_nodes(self, adjacency: np.ndarray) -> np.ndarray:
        node = _check_nodes(self, [self.node], adjacency.shape[0])
        return np.union1d(node, self._upstream(adjacency))

    def _factor_field(self, num_steps, adjacency, kind):
        _check_nodes(self, [self.node], adjacency.shape[0])
        severity = np.zeros(adjacency.shape[0])
        severity[self.node] = self.severity
        severity[self._upstream(adjacency)] = self.severity * self.spillover
        field = self._sin_envelope(num_steps)[:, None] * severity[None, :]
        return self._severity_to_factor(field, kind)


@dataclass(frozen=True)
class RoadClosure(Event):
    """A closed road: its sensors go dark and its edges leave the graph.

    While active, readings at ``nodes`` are forced to the null code (the
    same zero-coding the outage pipeline handles) and
    :func:`apply_events` emits a rewritten adjacency with every edge
    touching the closed nodes removed — the mid-stream graph change the
    serving stack must absorb as a graph-version bump.
    """

    start: int
    nodes: tuple[int, ...]
    duration: int = 24
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", _node_tuple(self.nodes))
        self._validate_window()
        if not self.nodes:
            raise ValueError("RoadClosure needs at least one node")

    def affected_nodes(self, adjacency: np.ndarray) -> np.ndarray:
        return _check_nodes(self, self.nodes, adjacency.shape[0])

    def _null_field(self, num_steps, adjacency):
        mask = np.zeros((num_steps, adjacency.shape[0]), dtype=bool)
        t0, t1 = self.window(num_steps)
        mask[t0:t1, self.affected_nodes(adjacency)] = True
        return mask

    def _closed_nodes(self) -> tuple[int, ...]:
        return self.nodes


@dataclass(frozen=True)
class DemandSurge(Event):
    """A flat demand multiplier over a node set (rush hour that will not end)."""

    start: int
    nodes: tuple[int, ...]
    duration: int = 36
    magnitude: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", _node_tuple(self.nodes))
        self._validate_window()
        if not self.nodes:
            raise ValueError("DemandSurge needs at least one node")
        if not 0.0 < self.magnitude <= 2.0:
            raise ValueError("DemandSurge.magnitude must be in (0, 2]")

    def affected_nodes(self, adjacency: np.ndarray) -> np.ndarray:
        return _check_nodes(self, self.nodes, adjacency.shape[0])

    def _factor_field(self, num_steps, adjacency, kind):
        severity = np.zeros((num_steps, adjacency.shape[0]))
        t0, t1 = self.window(num_steps)
        severity[t0:t1, self.affected_nodes(adjacency)] = self.magnitude
        return self._severity_to_factor(severity, kind)


@dataclass(frozen=True)
class SpecialEvent(Event):
    """A localized hotspot with radial decay over hop rings.

    ``center`` takes the full ``magnitude``; each successive
    :func:`~repro.graph.hop_neighborhood` ring out to ``hops`` receives
    ``magnitude * decay**ring``.  The temporal envelope builds and decays
    smoothly (crowds arrive, crowds leave).
    """

    start: int
    center: int
    duration: int = 36
    hops: int = 2
    magnitude: float = 0.6
    decay: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        self._validate_window()
        if self.hops < 0:
            raise ValueError("SpecialEvent.hops must be >= 0")
        if not 0.0 < self.magnitude <= 2.0:
            raise ValueError("SpecialEvent.magnitude must be in (0, 2]")
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError("SpecialEvent.decay must be in [0, 1]")

    def _rings(self, adjacency: np.ndarray) -> list[np.ndarray]:
        _check_nodes(self, [self.center], adjacency.shape[0])
        rings = [np.asarray([self.center], dtype=np.int64)]
        covered = rings[0]
        for _ in range(self.hops):
            ring = hop_neighborhood(adjacency, covered, hops=1)
            if ring.size == 0:
                break
            rings.append(ring)
            covered = np.union1d(covered, ring)
        return rings

    def affected_nodes(self, adjacency: np.ndarray) -> np.ndarray:
        return np.sort(np.concatenate(self._rings(adjacency)))

    def _factor_field(self, num_steps, adjacency, kind):
        severity = np.zeros(adjacency.shape[0])
        for ring_index, ring in enumerate(self._rings(adjacency)):
            severity[ring] = self.magnitude * self.decay**ring_index
        field = self._sin_envelope(num_steps)[:, None] * severity[None, :]
        return self._severity_to_factor(field, kind)


@dataclass(frozen=True)
class SensorBias(Event):
    """Miscalibration drift: an additive bias ramp on a sensor set.

    Each sensor's drift sign is drawn from the event's own seeded RNG, so
    the same event is bit-reproducible; ``rate`` is the bias added per step
    from onset.  ``duration=None`` drifts to the end of the stream; a finite
    window models a recalibration that snaps the sensors back.
    """

    start: int
    nodes: tuple[int, ...]
    rate: float = 0.05
    duration: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", _node_tuple(self.nodes))
        self._validate_window()
        if not self.nodes:
            raise ValueError("SensorBias needs at least one node")
        if self.rate <= 0:
            raise ValueError("SensorBias.rate must be positive")

    def affected_nodes(self, adjacency: np.ndarray) -> np.ndarray:
        return _check_nodes(self, self.nodes, adjacency.shape[0])

    def _bias_field(self, num_steps, adjacency, kind):
        nodes = self.affected_nodes(adjacency)
        signs = np.where(
            np.random.default_rng(self.seed).random(nodes.size) < 0.5, -1.0, 1.0
        )
        t0, t1 = self.window(num_steps)
        bias = np.zeros((num_steps, adjacency.shape[0]))
        if t1 > t0:
            ramp = (np.arange(t0, t1) - t0 + 1)[:, None] * self.rate
            bias[t0:t1, nodes] = signs[None, :] * ramp
        return bias


@dataclass(frozen=True)
class RegimeShift(Event):
    """A permanent daily-profile change from ``start`` onward.

    DST-style: from the shift point the stream follows a version of itself
    displaced by ``shift_steps`` (the 7am peak happens at 8am), optionally
    re-levelled by ``level`` (a structural demand change).  Affects every
    node, forever — the event the conditional metrics should show *never*
    recovering, unlike the windowed events.
    """

    start: int
    shift_steps: int = 12
    level: float = 1.0
    seed: int = 0
    duration = None  # permanent, by definition

    def __post_init__(self) -> None:
        self._validate_window()
        if self.shift_steps == 0 and self.level == 1.0:
            raise ValueError("RegimeShift must shift time and/or change level")
        if self.level <= 0:
            raise ValueError("RegimeShift.level must be positive")

    def affected_nodes(self, adjacency: np.ndarray) -> np.ndarray:
        return np.arange(adjacency.shape[0], dtype=np.int64)

    def _shift_steps(self) -> int:
        return int(self.shift_steps)

    def _factor_field(self, num_steps, adjacency, kind):
        if self.level == 1.0:
            return None
        field = np.ones((num_steps, adjacency.shape[0]))
        t0, t1 = self.window(num_steps)
        field[t0:t1] = self.level
        return field


@dataclass(frozen=True)
class GraphUpdate:
    """One mid-stream adjacency rewrite: active closures changed at ``tick``.

    ``closed_nodes`` is the union of every closure active from this tick on
    (empty = the base graph is restored); ``adjacency`` is the full rewritten
    matrix serving should switch to.
    """

    tick: int
    closed_nodes: tuple[int, ...]
    adjacency: np.ndarray


@dataclass(frozen=True)
class Scenario:
    """A named, seeded list of events applied to one base stream."""

    name: str
    events: tuple[Event, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))


@dataclass
class AppliedScenario:
    """The result of applying a scenario's events to a base series.

    ``series`` is the perturbed stream (what serving observes); ``base`` the
    untouched original (with no events they are the same object —
    byte-identical by construction).  ``masks`` maps each event's label to
    its ground-truth ``(T, N)`` effect footprint; ``graph_timeline`` holds
    the adjacency rewrites closures emit, in tick order.
    """

    series: TrafficSeries
    base: TrafficSeries
    events: tuple[Event, ...]
    labels: tuple[str, ...]
    masks: dict[str, np.ndarray]
    graph_timeline: tuple[GraphUpdate, ...]
    base_adjacency: np.ndarray


def _canonical_order(events: tuple[Event, ...]) -> list[Event]:
    # repr of a frozen dataclass is a deterministic function of its fields,
    # so sorting by (type, repr) fixes one application order for any
    # permutation of the same event list — the commutativity guarantee is
    # bit-exact, not merely approximate.
    return sorted(events, key=lambda event: (type(event).__name__, repr(event)))


def _event_labels(ordered: list[Event]) -> dict[int, str]:
    """Stable, order-independent labels: ``type@start`` with dedup suffixes."""
    labels: dict[int, str] = {}
    seen: dict[str, int] = {}
    for event in ordered:
        base = f"{type(event).__name__.lower()}@{int(event.start)}"
        count = seen.get(base, 0)
        seen[base] = count + 1
        labels[id(event)] = base if count == 0 else f"{base}#{count + 1}"
    return labels


def _closure_timeline(
    ordered: list[Event], num_steps: int, adjacency: np.ndarray
) -> tuple[GraphUpdate, ...]:
    """Adjacency rewrites at every closure boundary (commutative by union)."""
    closures = [event for event in ordered if event._closed_nodes()]
    if not closures:
        return ()
    boundaries = sorted(
        {t for event in closures for t in event.window(num_steps) if t < num_steps}
    )
    timeline = []
    previous: tuple[int, ...] | None = None
    for tick in boundaries:
        closed: set[int] = set()
        for event in closures:
            t0, t1 = event.window(num_steps)
            if t0 <= tick < t1:
                closed.update(event._closed_nodes())
        closed_nodes = tuple(sorted(closed))
        if closed_nodes == previous:
            continue
        previous = closed_nodes
        rewritten = (
            mask_adjacency(adjacency, nodes=closed_nodes)
            if closed_nodes
            else np.array(adjacency, copy=True)
        )
        timeline.append(
            GraphUpdate(tick=tick, closed_nodes=closed_nodes, adjacency=rewritten)
        )
    return tuple(timeline)


def apply_events(
    series: TrafficSeries,
    events,
    adjacency: np.ndarray,
) -> AppliedScenario:
    """Apply ``events`` to ``series``, returning the perturbed stream.

    Order-free by construction: events are canonically sorted, then
    combined through commuting stages — time rebase (RegimeShift offsets
    add), multiplicative fields (factors multiply), additive biases (sum),
    and closure nulls (union) — followed by one clip to the physical range.
    An empty event list returns the base series object untouched: byte
    identical, zero RNG draws.
    """
    events = tuple(events)
    adjacency = np.asarray(adjacency)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError(f"adjacency must be square, got {adjacency.shape}")
    if not events:
        return AppliedScenario(
            series=series, base=series, events=(), labels=(), masks={},
            graph_timeline=(), base_adjacency=adjacency,
        )
    num_steps, num_nodes = series.values.shape
    if adjacency.shape[0] != num_nodes:
        raise ValueError(
            f"adjacency covers {adjacency.shape[0]} nodes, series has {num_nodes}"
        )
    ordered = _canonical_order(events)
    labels_by_id = _event_labels(ordered)

    values = np.asarray(series.values, dtype=np.float64)

    # Stage 1 — time rebase: per-step shift offsets add across events.
    shift = np.zeros(num_steps, dtype=np.int64)
    for event in ordered:
        steps = event._shift_steps()
        if steps:
            t0, _ = event.window(num_steps)
            shift[t0:] += steps
    if shift.any():
        source = np.clip(np.arange(num_steps) - shift, 0, num_steps - 1)
        values = values[source]

    # Stage 2 — multiplicative fields (surges, incidents, hotspots, levels).
    for event in ordered:
        factor = event._factor_field(num_steps, adjacency, series.kind)
        if factor is not None:
            values = values * factor

    # Stage 3 — additive biases (drift/miscalibration).
    for event in ordered:
        bias = event._bias_field(num_steps, adjacency, series.kind)
        if bias is not None:
            values = values + bias

    # One physical clip after all value stages (order-free because it is
    # applied once, not per event).
    upper = series.config.speed_limit if series.kind == "speed" else None
    values = np.clip(values, 0.0, upper)

    # Stage 4 — closure nulls: union of dark sensors, zero-coded like outages.
    nulls = np.zeros((num_steps, num_nodes), dtype=bool)
    for event in ordered:
        field = event._null_field(num_steps, adjacency)
        if field is not None:
            nulls |= field
    if nulls.any():
        values = np.where(nulls, 0.0, values)

    masks = {
        labels_by_id[id(event)]: event.effect_mask(num_steps, adjacency)
        for event in ordered
    }
    applied = dataclasses.replace(
        series,
        values=values.astype(np.float32),
        failure_mask=series.failure_mask | nulls,
    )
    return AppliedScenario(
        series=applied,
        base=series,
        events=events,
        labels=tuple(labels_by_id[id(event)] for event in events),
        masks=masks,
        graph_timeline=_closure_timeline(ordered, num_steps, adjacency),
        base_adjacency=adjacency,
    )


# ----------------------------------------------------------------------
# Seeded schedules and named scenario presets
# ----------------------------------------------------------------------

def seeded_events(
    adjacency: np.ndarray,
    num_steps: int,
    *,
    incidents: int = 0,
    closures: int = 0,
    surges: int = 0,
    specials: int = 0,
    biases: int = 0,
    shifts: int = 0,
    seed: int = 0,
) -> tuple[Event, ...]:
    """Draw a deterministic event schedule from one seeded stream.

    The scenario-engine counterpart of
    :meth:`repro.faults.ServeFaultSchedule.seeded`: all draws come from a
    single ``default_rng(seed)`` in a fixed order, so the same seed yields a
    bit-identical schedule.  Events are placed so their windows fit inside
    ``[0, num_steps)``.
    """
    if num_steps < 8:
        raise ValueError("num_steps must be >= 8 to place events")
    adjacency = np.asarray(adjacency)
    num_nodes = adjacency.shape[0]
    rng = np.random.default_rng(seed)

    def _start(duration: int) -> int:
        return int(rng.integers(0, max(1, num_steps - duration)))

    def _nodes(count: int) -> tuple[int, ...]:
        count = min(count, num_nodes)
        return tuple(sorted(int(n) for n in rng.choice(num_nodes, count, replace=False)))

    events: list[Event] = []
    for _ in range(incidents):
        duration = int(rng.integers(6, max(7, num_steps // 2)))
        events.append(Incident(
            start=_start(duration), node=int(rng.integers(num_nodes)),
            duration=duration, severity=float(rng.uniform(0.3, 0.8)),
            spillover=float(rng.uniform(0.3, 0.7)), seed=int(rng.integers(2**31)),
        ))
    for _ in range(closures):
        duration = int(rng.integers(6, max(7, num_steps // 2)))
        events.append(RoadClosure(
            start=_start(duration), nodes=_nodes(max(1, num_nodes // 8)),
            duration=duration, seed=int(rng.integers(2**31)),
        ))
    for _ in range(surges):
        duration = int(rng.integers(8, max(9, (2 * num_steps) // 3)))
        events.append(DemandSurge(
            start=_start(duration), nodes=_nodes(max(1, num_nodes // 3)),
            duration=duration, magnitude=float(rng.uniform(0.4, 0.9)),
            seed=int(rng.integers(2**31)),
        ))
    for _ in range(specials):
        duration = int(rng.integers(8, max(9, num_steps // 2)))
        events.append(SpecialEvent(
            start=_start(duration), center=int(rng.integers(num_nodes)),
            duration=duration, hops=2, magnitude=float(rng.uniform(0.4, 0.9)),
            seed=int(rng.integers(2**31)),
        ))
    for _ in range(biases):
        events.append(SensorBias(
            start=_start(num_steps // 2), nodes=_nodes(max(1, num_nodes // 4)),
            rate=float(rng.uniform(0.02, 0.08)), seed=int(rng.integers(2**31)),
        ))
    for _ in range(shifts):
        events.append(RegimeShift(
            start=_start(num_steps // 2), shift_steps=int(rng.integers(3, 13)),
            level=float(rng.uniform(0.8, 1.2)), seed=int(rng.integers(2**31)),
        ))
    return tuple(events)


EVENT_SCENARIOS: dict[str, str] = {
    "quiet-day": "no events: the bit-identity control scenario",
    "closure-rush": (
        "a demand surge, an upstream incident, and a road closure that "
        "rewrites the adjacency mid-stream"
    ),
    "stadium-day": (
        "a special-event hotspot with radial decay, plus a demand surge "
        "and an incident"
    ),
    "sensor-rot": "sensor bias drift plus a permanent regime shift",
    "sensor-drift": (
        "pure miscalibration: about 30% of the sensors gain a bias ramp, each "
        "from its own onset past a quarter of the run; no outages or closures"
    ),
}


def event_scenario(
    name: str, adjacency: np.ndarray, num_steps: int, *, seed: int = 0
) -> Scenario:
    """Build a named event scenario for one graph and stream length.

    Scenarios are parameterized by the graph (node picks) and the replay
    length (event timing scales with ``num_steps``); the same
    ``(name, adjacency, num_steps, seed)`` always yields a bit-identical
    scenario.  Unknown names raise a ``KeyError`` listing what is
    available, mirroring :func:`repro.data.scenario_config`.
    """
    if name not in EVENT_SCENARIOS:
        raise KeyError(
            f"unknown event scenario {name!r}; available: {sorted(EVENT_SCENARIOS)}"
        )
    if num_steps < 16:
        raise ValueError("num_steps must be >= 16 to place scenario events")
    adjacency = np.asarray(adjacency)
    num_nodes = adjacency.shape[0]
    rng = np.random.default_rng(seed)
    events: tuple[Event, ...] = ()
    if name == "closure-rush":
        surge_nodes = tuple(sorted(
            int(n) for n in rng.choice(num_nodes, max(2, num_nodes // 2), replace=False)
        ))
        closed = tuple(sorted(
            int(n) for n in rng.choice(num_nodes, max(1, num_nodes // 8), replace=False)
        ))
        incident_node = int(rng.integers(num_nodes))
        events = (
            DemandSurge(
                start=num_steps // 8, nodes=surge_nodes,
                duration=(3 * num_steps) // 4, magnitude=0.8,
                seed=int(rng.integers(2**31)),
            ),
            Incident(
                start=num_steps // 6, node=incident_node,
                duration=max(6, num_steps // 4), severity=0.7,
                seed=int(rng.integers(2**31)),
            ),
            RoadClosure(
                start=num_steps // 3, nodes=closed,
                duration=max(6, num_steps // 4), seed=int(rng.integers(2**31)),
            ),
        )
    elif name == "stadium-day":
        center = int(rng.integers(num_nodes))
        surge_nodes = tuple(sorted(
            int(n) for n in rng.choice(num_nodes, max(2, num_nodes // 3), replace=False)
        ))
        events = (
            SpecialEvent(
                start=num_steps // 5, center=center,
                duration=max(8, num_steps // 2), hops=2, magnitude=0.9,
                seed=int(rng.integers(2**31)),
            ),
            DemandSurge(
                start=num_steps // 4, nodes=surge_nodes,
                duration=max(8, num_steps // 3), magnitude=0.5,
                seed=int(rng.integers(2**31)),
            ),
            Incident(
                start=num_steps // 2, node=center,
                duration=max(6, num_steps // 5), severity=0.6,
                seed=int(rng.integers(2**31)),
            ),
        )
    elif name == "sensor-rot":
        drifting = tuple(sorted(
            int(n) for n in rng.choice(num_nodes, max(1, num_nodes // 4), replace=False)
        ))
        events = (
            SensorBias(
                start=num_steps // 6, nodes=drifting, rate=0.05,
                seed=int(rng.integers(2**31)),
            ),
            RegimeShift(
                start=num_steps // 2, shift_steps=max(3, num_steps // 10),
                level=1.1, seed=int(rng.integers(2**31)),
            ),
        )
    elif name == "sensor-drift":
        # Drift, not darkness: readings stay online and plausible, which
        # defeats the zero-coded outage handling.  One event per sensor so
        # every sensor drifts from its own onset.
        drifting = rng.choice(num_nodes, max(1, round(0.3 * num_nodes)), replace=False)
        events = tuple(
            SensorBias(
                start=int(rng.integers(num_steps // 4, num_steps)), nodes=(int(node),),
                rate=0.03, seed=int(rng.integers(2**31)),
            )
            for node in sorted(drifting)
        )
    return Scenario(name=name, events=events, seed=seed)
