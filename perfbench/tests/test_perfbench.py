"""Tests of the benchmark's own code: statistics, load generator, tracer, vocabulary.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench.drive import SPIN_S, Op, is_failed, run_open_loop
from perfbench.metrics import END_TO_END, PER_LAYER, Outcome
from perfbench.stats import tail_percentile
from perfbench.tracing import Span, Tracer, coverage_share, covered, op_breakdown, self_times

ROOT = Path(__file__).resolve().parents[2]
TICK = 1e-6


class FakeClock:
    """A clock that moves only when slept on or charged for work."""

    def __init__(self) -> None:
        self.t = 100.0

    def __call__(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.t += max(seconds, TICK)  # sleep(0) still lets time pass


def result(source: str, reason: str | None = None):
    return SimpleNamespace(source=source, reason=reason)


# ---------------------------------------------------------------------------
# The tail percentile rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "count, expected",
    [
        (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
        (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


# ---------------------------------------------------------------------------
# The open-loop load generator
# ---------------------------------------------------------------------------

def test_due_time_latency_carries_a_stall_to_later_requests():
    clock = FakeClock()
    service, stall, gap = 0.001, 0.2, 0.02
    calls = []

    def execute(record):
        calls.append(record.op.arg)
        clock.sleep(stall if record.op.arg == 3 else service)
        return result("model")

    lane = [Op(i * gap, "forecast", i) for i in range(20)]
    records = run_open_loop([lane], execute, clock=clock, sleep=clock.sleep)

    assert calls == list(range(20))
    by_index = {r.op.arg: r for r in records}
    close = dict(abs=1e-5)
    assert by_index[2].latency == pytest.approx(service, **close)
    assert by_index[3].latency == pytest.approx(stall, **close)
    # Requests due during the stall were sent late but are charged from due
    # time: request 4 waited out all but one gap of the stall.
    assert by_index[4].latency == pytest.approx(stall - gap + service, **close)
    for i in range(4, 13):
        assert by_index[i].latency > by_index[i].done - by_index[i].issued
    # Once the backlog drains, latency is back to service time.
    assert by_index[19].latency == pytest.approx(service, **close)
    # The lane was busy, not the generator late.
    assert max(r.late for r in records) == pytest.approx(0.0, **close)


def test_generator_lateness_is_measured_when_the_lane_is_free():
    clock = FakeClock()

    def oversleep(seconds):
        clock.sleep(seconds + 0.005 if seconds else 0)

    records = run_open_loop(
        [[Op(0.1, "forecast"), Op(0.3, "forecast")]],
        lambda record: result("model"), clock=clock, sleep=oversleep,
    )
    # The generator sleeps until SPIN_S before due time and spins the rest, so
    # an oversleep shorter than SPIN_S costs nothing.
    assert [r.late for r in records] == pytest.approx([0.005 - SPIN_S] * 2, abs=1e-5)


def test_failed_share_counts_raises_sheds_errors_and_anomalies():
    outcomes = [
        result("model"), result("cache"), result("fallback", "cold_start"),
        result("fallback", "outage"), result("fallback", "shed"),
        result("fallback", "error"), result("fallback", "anomaly"),
        RuntimeError("worker died"), result("model"), result("cache"),
    ]

    def execute(record):
        outcome = outcomes[record.op.arg]
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    clock = FakeClock()
    records = run_open_loop(
        [[Op(0.01 * i, "forecast", i) for i in range(len(outcomes))]],
        execute, clock=clock, sleep=clock.sleep,
    )
    assert [r.failed for r in sorted(records, key=lambda r: r.op.arg)] == [
        False, False, False, False, True, True, True, True, False, False,
    ]
    assert isinstance(records[7].outcome, RuntimeError)
    assert sum(r.failed for r in records) / len(records) == pytest.approx(0.4)
    assert not is_failed(result("fallback", "cold_start"))


def test_open_loop_lanes_run_concurrently_and_all_ops_are_recorded():
    import time

    lanes = [[Op(0.001 * i, "observe", i) for i in range(5)], [Op(0.001 * i, "forecast", i) for i in range(7)]]
    records = run_open_loop(lanes, lambda record: result("model"), clock=time.perf_counter)
    assert sorted((r.lane, r.index) for r in records) == [(0, i) for i in range(5)] + [(1, i) for i in range(7)]
    assert all(r.done >= r.issued >= r.due - 1e-3 for r in records)


# ---------------------------------------------------------------------------
# Spans and self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span(0, "root", 0.0, 10.0, ()),
        Span(1, "a", 1.0, 4.0, (0,)),
        Span(2, "b", 3.0, 6.0, (0,)),  # overlaps a
        Span(3, "a.child", 2.0, 3.0, (1,)),
        Span(4, "late", 9.0, 12.0, (0,)),  # outlives its parent
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (9.0, 12.0)]) == pytest.approx(6.0)


def test_tracer_nests_spans_by_thread_and_records_only_inside_an_op():
    clock = FakeClock()
    tracer = Tracer(clock)

    def work(seconds):
        clock.sleep(seconds)
        return seconds

    layer = tracer.wrap("layer", work)
    inner = tracer.wrap("inner", work)
    assert layer(1.0) == 1.0  # outside any operation: not recorded
    assert tracer.spans == []

    def nested():
        clock.sleep(0.5)
        return inner(0.25)

    outer = tracer.wrap("layer", nested)
    with tracer.span("op") as root:
        clock.sleep(0.125)
        outer()
    names = [(s.name, s.parents) for s in tracer.spans]
    assert names == [("op", ()), ("layer", (root,)), ("inner", (1,))]
    own = self_times(tracer.spans)
    assert own[root] == pytest.approx(0.125)
    assert own[1] == pytest.approx(0.5)
    assert own[2] == pytest.approx(0.25)


def test_breakdown_counts_a_shared_child_in_every_op_it_served():
    spans = [
        Span(0, "op", 0.0, 4.0, ()),
        Span(1, "op", 0.5, 4.0, ()),
        Span(2, "queue", 0.0, 1.0, (0,)),
        Span(3, "batch", 1.0, 3.5, (0, 1)),
    ]
    breakdown = op_breakdown(spans, [0, 1])
    assert breakdown[0] == pytest.approx({"op": 0.5, "queue": 1.0, "batch": 2.5})
    assert breakdown[1] == pytest.approx({"op": 1.0, "batch": 2.5})
    share = coverage_share(breakdown, ["queue", "batch"], [4.0, 3.5])
    assert share == pytest.approx((3.5 / 4.0 + 2.5 / 3.5) / 2)


# ---------------------------------------------------------------------------
# The metric vocabulary and BENCHMARK.json
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == {"train", "serve-plain", "serve-sharded"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_result_reports_every_metric_of_its_kind():
    end_to_end = Outcome(attempted=3, failed=0, metrics={name: 1.0 for name in END_TO_END})
    assert set(end_to_end.result(trace=False)["metrics"]) == set(END_TO_END)
    per_layer = Outcome(attempted=3, failed=1, metrics={"serve.run_batch_ms": 2.0}, problems=["x"])
    out = per_layer.result(trace=True)
    assert set(out["metrics"]) == set(PER_LAYER)
    assert out["metrics"]["data.gather_ms"] == {"value": 0.0, "unit": "ms"}
    assert out["correct"] is False and out["failed"] == 1
    with pytest.raises(KeyError):
        Outcome(attempted=1, failed=0, metrics={"setup_s": 1.0}).result(trace=False)
    broken = Outcome(attempted=1, failed=0, metrics={name: float("nan") for name in END_TO_END})
    out = broken.result(trace=False)
    assert out["correct"] is False
    assert json.loads(json.dumps(out, allow_nan=False)) == out
