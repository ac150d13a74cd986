"""Self-healing serving: supervision, re-hydration, chaos injectors.

Covers the failure paths ``tests/test_serve_shard.py`` leaves alone: hung
workers and per-op deadlines, SIGKILL mid-run, per-shard partial
degradation, the replay-journal re-hydration contract (bit-identical
recovery), supervisor backoff/give-up, and the seeded chaos schedules the
benchmark arms share.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.faults import (
    ReplyDrop,
    ServeFault,
    ServeFaultSchedule,
    SlowReply,
    WorkerCrash,
    WorkerHang,
)
from repro.models import build_model
from repro.serve import (
    DegradationPolicy,
    ProcessTransport,
    ReplayJournal,
    ServeConfig,
    ShardSupervisor,
    ShardedServingEngine,
    SupervisionPolicy,
    TransportError,
    fallback_forecast,
    make_servable,
    run_load,
)
from repro.utils.blas import blas_threads, shard_blas_threads
from repro.utils.seed import set_seed


@pytest.fixture(scope="module")
def bundle(tiny_data):
    set_seed(0)
    model, _ = build_model("STGCN", tiny_data, hidden=8, layers=1)
    return make_servable("STGCN", model, tiny_data, hidden=8, layers=1)


# Deterministic supervision for tests: the background thread idles (long
# check interval); tests drive restarts explicitly through ``poll_now``.
_TEST_SUPERVISION = SupervisionPolicy(
    check_interval_s=30.0, failure_threshold=1, backoff_base_s=0.0,
    backoff_max_s=0.0, max_restarts=4,
)
_TEST_TIMEOUTS = {"observe": 5.0, "forecast": 5.0, "telemetry": 5.0}


def _sharded(bundle, *, supervised: bool, transport: str = "process"):
    return ShardedServingEngine(
        bundle,
        num_shards=2,
        config=ServeConfig(
            max_wait_s=0.001,
            policy=DegradationPolicy(),
            op_timeouts_s=dict(_TEST_TIMEOUTS),
            supervision=_TEST_SUPERVISION if supervised else None,
        ),
        transport=transport,
    )


def _warm(engine, data):
    series = data.dataset.series
    history = engine.store.history
    engine.store.warm_from(
        series.values[:history], series.time_of_day[:history],
        series.day_of_week[:history],
    )


def _feed(engine, data, start: int, count: int) -> None:
    """Observe ``count`` live rows starting ``start`` steps past the warm window."""
    series = data.dataset.series
    history = engine.store.history
    for offset in range(start, start + count):
        index = history + offset
        engine.observe(
            series.values[index],
            int(series.time_of_day[index]),
            int(series.day_of_week[index]),
        )


def _sigkill(engine, shard: int) -> None:
    process = engine.workers[shard].process
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=5.0)


# ---------------------------------------------------------------------------
# TransportError diagnostics (satellite: shard + op attribution)
# ---------------------------------------------------------------------------
class TestTransportErrorAttribution:
    def test_attrs_and_message_prefix(self):
        error = TransportError("deadline exceeded", shard=1, op="forecast")
        assert error.shard == 1
        assert error.op == "forecast"
        assert "[shard 1 op 'forecast']" in str(error)

    def test_bare_error_has_no_prefix(self):
        error = TransportError("spawn failed")
        assert error.shard is None and error.op is None
        assert str(error) == "spawn failed"

    def test_timeout_carries_shard_and_op(self, bundle):
        config = ServeConfig(op_timeouts_s={"ping": 0.2})
        transport = ProcessTransport(bundle, config=config, shard=3)
        try:
            transport.inject_chaos(("delay_next", 1.0))
            with pytest.raises(TransportError) as excinfo:
                transport.request("ping")
            assert excinfo.value.shard == 3
            assert excinfo.value.op == "ping"
        finally:
            transport.kill()


# ---------------------------------------------------------------------------
# Hung-lane regression (satellite: timeout must not poison the transport)
# ---------------------------------------------------------------------------
class TestHungLaneRecovery:
    def test_timed_out_lane_recovers_cleanly(self, bundle):
        config = ServeConfig(op_timeouts_s={"ping": 0.2})
        transport = ProcessTransport(bundle, config=config)
        try:
            assert transport.request("ping") == "pong"
            transport.inject_chaos(("delay_next", 0.6))
            with pytest.raises(TransportError):
                transport.request("ping")
            # The deadline miss must not mark the lane broken: the stale
            # reply is drained on the next post and the lane keeps working.
            assert transport.alive
            time.sleep(0.8)
            assert transport.request("ping") == "pong"
            assert transport.request("ping") == "pong"
        finally:
            transport.close()

    def test_dropped_reply_times_out_but_lane_survives(self, bundle):
        config = ServeConfig(op_timeouts_s={"ping": 0.2})
        transport = ProcessTransport(bundle, config=config)
        try:
            transport.inject_chaos(("drop_next",))
            with pytest.raises(TransportError):
                transport.request("ping")
            assert transport.alive
            assert transport.request("ping") == "pong"
        finally:
            transport.close()

    def test_per_op_timeouts_from_config(self):
        config = ServeConfig(op_timeouts_s={"forecast": 0.25})
        assert config.op_timeout_s("forecast") == 0.25
        # Unlisted ops fall back to the defaults table.
        assert config.op_timeout_s("publish") > config.op_timeout_s("ping")

    def test_kill_is_immediate(self, bundle):
        transport = ProcessTransport(bundle)
        transport.inject_chaos(("delay_next", 30.0))
        transport.post("ping", ())
        start = time.monotonic()
        transport.kill()  # no stop handshake: must not wait out the hang
        assert time.monotonic() - start < 5.0
        assert not transport.alive


# ---------------------------------------------------------------------------
# Replay journal invariants
# ---------------------------------------------------------------------------
class TestReplayJournal:
    def test_capacity_trims_oldest(self):
        journal = ReplayJournal(num_shards=1, capacity=3)
        for step in range(5):
            journal.record([np.full(2, step, dtype=np.float32)], step, 0)
        entries, upto = journal.snapshot(0)
        assert upto == 5
        assert [entry[0] for entry in entries] == [3, 4, 5]
        assert journal.depth(0) == 3

    def test_since_returns_delta_only(self):
        journal = ReplayJournal(num_shards=2, capacity=8)
        for step in range(4):
            journal.record(
                [np.zeros(2, dtype=np.float32), np.ones(3, dtype=np.float32)],
                step, 0,
            )
        _entries, upto = journal.snapshot(0)
        journal.record(
            [np.zeros(2, dtype=np.float32), np.ones(3, dtype=np.float32)], 9, 1
        )
        delta = journal.since(0, upto)
        assert [entry[0] for entry in delta] == [5]
        assert delta[0][2:] == (9, 1)

    def test_rows_are_copied(self):
        journal = ReplayJournal(num_shards=1, capacity=2)
        row = np.array([1.0, 2.0], dtype=np.float32)
        journal.record([row], 0, 0)
        row[:] = -1.0
        entries, _ = journal.snapshot(0)
        np.testing.assert_array_equal(entries[0][1], [1.0, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplayJournal(num_shards=0, capacity=4)
        with pytest.raises(ValueError):
            ReplayJournal(num_shards=2, capacity=0)
        journal = ReplayJournal(num_shards=2, capacity=4)
        with pytest.raises(ValueError):
            journal.record([np.zeros(2)], 0, 0)  # one slice for two shards


# ---------------------------------------------------------------------------
# Supervisor state machine (fake router: no processes involved)
# ---------------------------------------------------------------------------
class _FakeWorker:
    def __init__(self, alive: bool = True):
        self.alive = alive
        self.requests: list = []
        self.killed = False

    def request(self, op, payload=()):
        self.requests.append((op, payload))
        return "ok"

    def kill(self):
        self.killed = True

    def close(self):
        self.killed = True


class _FakeRouter:
    def __init__(self, journal: ReplayJournal, build=None):
        self.workers = [_FakeWorker(alive=False)]
        self.journal = journal
        self._rpc_lock = threading.Lock()
        self.builds = 0
        self._build = build

    def build_worker(self, shard):
        self.builds += 1
        if self._build is None:
            raise RuntimeError("no capacity")
        return self._build()


class TestSupervisorStateMachine:
    def test_gives_up_after_max_restarts(self):
        router = _FakeRouter(ReplayJournal(1, 4))
        policy = SupervisionPolicy(
            failure_threshold=1, backoff_base_s=0.0, backoff_max_s=0.0,
            max_restarts=2,
        )
        supervisor = ShardSupervisor(router, policy)
        for _ in range(5):
            assert supervisor.poll_now() == 0
        assert router.builds == 2  # attempts stop once the budget is spent
        report = supervisor.report()[0]
        assert report["gave_up"] is True
        assert "no capacity" in report["last_error"]
        assert supervisor.total_restarts == 0

    def test_backoff_delays_next_attempt(self):
        router = _FakeRouter(ReplayJournal(1, 4))
        policy = SupervisionPolicy(
            failure_threshold=1, backoff_base_s=30.0, backoff_max_s=60.0,
            max_restarts=8,
        )
        supervisor = ShardSupervisor(router, policy)
        supervisor.poll_now()
        supervisor.poll_now()
        assert router.builds == 1  # second pass lands inside the backoff window

    def test_note_success_resets_failure_streak_and_give_up(self):
        router = _FakeRouter(ReplayJournal(1, 4))
        policy = SupervisionPolicy(
            failure_threshold=2, backoff_base_s=0.0, backoff_max_s=0.0,
            max_restarts=1, probe_liveness=False,
        )
        supervisor = ShardSupervisor(router, policy)
        supervisor.note_failure(0, "forecast", TransportError("x"))
        assert supervisor.poll_now() == 0  # one failure: under the threshold
        assert router.builds == 0
        supervisor.note_failure(0, "forecast", TransportError("x"))
        supervisor.poll_now()
        supervisor.poll_now()
        assert supervisor.report()[0]["gave_up"] is True
        supervisor.note_success(0)
        report = supervisor.report()[0]
        assert report["gave_up"] is False
        assert report["consecutive_failures"] == 0

    def test_successful_restart_replays_journal_in_order(self):
        journal = ReplayJournal(1, 4)
        for step in range(6):  # overflows capacity: only the last 4 survive
            journal.record([np.full(3, step, dtype=np.float32)], step, step % 7)
        replacement = _FakeWorker(alive=True)
        router = _FakeRouter(journal, build=lambda: replacement)
        old = router.workers[0]
        policy = SupervisionPolicy(
            failure_threshold=1, backoff_base_s=0.0, backoff_max_s=0.0,
        )
        supervisor = ShardSupervisor(router, policy)
        assert supervisor.poll_now() == 1
        assert router.workers[0] is replacement
        assert old.killed
        ops = [op for op, _payload in replacement.requests]
        assert ops == ["observe"] * 4
        fed = [payload[0][0] for _op, payload in replacement.requests]
        assert fed == [2.0, 3.0, 4.0, 5.0]  # oldest surviving row first
        assert supervisor.total_restarts == 1
        assert supervisor.report()[0]["restarts"] == 1


# ---------------------------------------------------------------------------
# Per-shard degradation (process workers, no supervision)
# ---------------------------------------------------------------------------
class TestPartialDegradation:
    def test_healthy_shards_keep_model_values(self, bundle, tiny_data):
        degraded = _sharded(bundle, supervised=False)
        reference = _sharded(bundle, supervised=False)
        with degraded, reference:
            for engine in (degraded, reference):
                _warm(engine, tiny_data)
                _feed(engine, tiny_data, 0, 2)
            _sigkill(degraded, 1)
            for engine in (degraded, reference):
                _feed(engine, tiny_data, 2, 1)  # tolerated failure on shard 1
                engine.result = engine.forecast()

            assert degraded.result.source == "fallback"
            assert degraded.result.reason == "error"
            assert reference.result.source == "model"

            # Healthy shard 0: model forecast, bit-identical to the healthy run.
            plan0, plan1 = degraded.partition.plans
            np.testing.assert_array_equal(
                degraded.result.values[:, plan0.owned],
                reference.result.values[:, plan0.owned],
            )
            # Dead shard 1: historical-average fallback for its owned nodes.
            last_tod, last_dow = degraded.last_time()
            spec = bundle.spec
            expected = fallback_forecast(
                bundle.fallback_profile, last_tod, last_dow,
                degraded.result.values.shape[0], spec.steps_per_day,
            )
            np.testing.assert_array_equal(
                degraded.result.values[:, plan1.owned], expected[:, plan1.owned]
            )

            report = degraded.telemetry_report()
            assert report["partial_fallbacks"] >= 1
            assert sum(report["shard_faults"][1].values()) >= 1
            assert report["shard_faults"][0] == {}
            health = {row["shard"]: row for row in report["shard_health"]}
            assert health[0]["alive"] is True
            assert health[1]["alive"] is False
            assert report["restarts"] == 0


# ---------------------------------------------------------------------------
# Supervised recovery (process workers + SIGKILL)
# ---------------------------------------------------------------------------
class TestSupervisedRecovery:
    def test_restart_is_bit_identical_to_unkilled_run(self, bundle, tiny_data):
        killed = _sharded(bundle, supervised=True)
        pristine = _sharded(bundle, supervised=False)
        with killed, pristine:
            for engine in (killed, pristine):
                _warm(engine, tiny_data)
                _feed(engine, tiny_data, 0, 3)
            _sigkill(killed, 0)
            for engine in (killed, pristine):
                _feed(engine, tiny_data, 3, 1)
            degraded = killed.forecast()
            assert degraded.source == "fallback" and degraded.reason == "error"

            assert killed.supervisor.poll_now() == 1

            # Post-restart rows land on the replacement like any other worker.
            for engine in (killed, pristine):
                _feed(engine, tiny_data, 4, 1)
            recovered = killed.forecast()
            expected = pristine.forecast()
            assert recovered.source == "model"
            np.testing.assert_array_equal(recovered.values, expected.values)

            report = killed.telemetry_report()
            assert report["restarts"] == 1
            health = {row["shard"]: row for row in report["shard_health"]}
            assert health[0]["alive"] is True and health[0]["restarts"] == 1

    def test_restarted_worker_keeps_the_sized_blas_pool(self, bundle, tiny_data):
        engine = _sharded(bundle, supervised=True)
        with engine:
            _warm(engine, tiny_data)
            killed_pid = engine.workers[1].process.pid
            _sigkill(engine, 1)
            assert engine.supervisor.poll_now() == 1
            assert engine.workers[1].process.pid != killed_pid
            report = engine.telemetry_report()
        assert report["restarts"] == 1
        sized = None if blas_threads() is None else shard_blas_threads(2)
        assert [shard["blas_threads"] for shard in report["shards"]] == [sized, sized]

    def test_sigkill_mid_load_answers_every_request(self, bundle, tiny_data):
        engine = _sharded(bundle, supervised=True)
        schedule = ServeFaultSchedule([WorkerCrash(at_request=4, shard=1)])
        with engine:
            result = run_load(
                engine, tiny_data, steps=10, requests_per_step=1, concurrency=1,
                faults=schedule,
            )
        assert result.requests == 10  # no request raised or went unanswered
        assert len(schedule.fired) == 1
        assert schedule.fired[0]["request"] == 4
        assert len(result.timeline) == 10
        # Every answer is model, cache or fallback — never an exception.
        assert {source for _t, source, _r in result.timeline} <= {
            "model", "cache", "fallback"
        }


# ---------------------------------------------------------------------------
# Chaos injectors + seeded schedules
# ---------------------------------------------------------------------------
class TestChaosSchedule:
    def test_seeded_is_reproducible(self):
        first = ServeFaultSchedule.seeded(4, 60, kills=1, hangs=2, drops=1, seed=5)
        second = ServeFaultSchedule.seeded(4, 60, kills=1, hangs=2, drops=1, seed=5)
        assert [f.describe() for f in first.faults] == [
            f.describe() for f in second.faults
        ]
        kinds = sorted(type(f).__name__ for f in first.faults)
        assert kinds == ["ReplyDrop", "WorkerCrash", "WorkerHang", "WorkerHang"]

    def test_seeded_places_faults_in_middle_window(self):
        schedule = ServeFaultSchedule.seeded(2, 100, kills=2, hangs=2, seed=3)
        indices = [f.at_request for f in schedule.faults]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)
        assert all(10 <= index < 90 for index in indices)
        assert all(0 <= f.shard < 2 for f in schedule.faults)

    def test_seeded_rejects_overfull_window(self):
        with pytest.raises(ValueError):
            ServeFaultSchedule.seeded(2, 10, kills=20, seed=0)

    def test_empty_schedule_is_a_noop(self):
        schedule = ServeFaultSchedule.seeded(2, 50, seed=1)
        assert len(schedule) == 0
        schedule.before_request(0, engine=None)
        assert schedule.fired == []

    def test_each_fault_fires_exactly_once(self):
        class Recording(ServeFault):
            applied = 0

            def apply(self, engine):
                type(self).applied += 1

        schedule = ServeFaultSchedule([Recording(at_request=2)])
        for index in range(6):
            schedule.before_request(index, engine=None)
        assert Recording.applied == 1
        assert schedule.fired[0]["request"] == 2

    def test_crash_rejects_loopback(self, bundle, tiny_data):
        engine = _sharded(bundle, supervised=False, transport="loopback")
        with engine:
            _warm(engine, tiny_data)
            with pytest.raises(ValueError, match="process"):
                WorkerCrash(at_request=0, shard=0).apply(engine)

    def test_fault_validates_shard_index(self, bundle, tiny_data):
        engine = _sharded(bundle, supervised=False, transport="loopback")
        with engine:
            with pytest.raises(ValueError, match="shard 7"):
                WorkerHang(at_request=0, shard=7).apply(engine)

    def test_slow_reply_inflates_latency_without_degrading(self, bundle, tiny_data):
        engine = _sharded(bundle, supervised=False)
        with engine:
            _warm(engine, tiny_data)
            _feed(engine, tiny_data, 0, 1)
            SlowReply(at_request=0, shard=0, seconds=0.3).apply(engine)
            start = time.monotonic()
            result = engine.forecast()
            elapsed = time.monotonic() - start
        assert result.source == "model"  # under the deadline: no degradation
        assert elapsed >= 0.25

    def test_reply_drop_degrades_one_request_then_recovers(self, bundle, tiny_data):
        engine = ShardedServingEngine(
            bundle, num_shards=2,
            config=ServeConfig(
                max_wait_s=0.001,
                op_timeouts_s={"observe": 5.0, "forecast": 0.5},
            ),
            transport="process",
        )
        with engine:
            _warm(engine, tiny_data)
            _feed(engine, tiny_data, 0, 1)
            ReplyDrop(at_request=0, shard=0).apply(engine)
            dropped = engine.forecast()
            assert dropped.source == "fallback" and dropped.reason == "error"
            _feed(engine, tiny_data, 1, 1)
            assert engine.forecast().source == "model"
