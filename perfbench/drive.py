"""Drive operations against an engine and account for every one of them.

:func:`run_open_loop` plays a fixed schedule: each lane is one thread and
a list of operations, each due at a fixed offset from the start.  An
operation's latency runs from when it was *due*, so a stall delays the
operations queued behind it and they carry that delay (no coordinated
omission).  The generator's own lateness — how long after its due time an
operation was issued although its lane was free — is recorded apart: a run
whose generator fell behind is invalid, not slow.

:func:`is_failed` is the one definition of a failed operation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["FAILED_REASONS", "LEAD_S", "SPIN_S", "Op", "OpRecord", "is_failed", "run_open_loop"]

# The last stretch before a due time is spun, not slept: a sleeping thread
# wakes up to a few hundred microseconds late on a virtual machine, which
# would read as latency of the system.
SPIN_S = 0.002

# The schedule starts this long after run_open_loop is called, so every lane
# thread has started and is waiting before the first operation is due.
LEAD_S = 0.05

# Fallback reasons that mean the system could not serve the request: the
# forward raised, produced non-finite values, or admission control shed it.
# Cold start and outage fallbacks are the intended answer to the input.
FAILED_REASONS = frozenset({"error", "anomaly", "shed"})


def is_failed(outcome) -> bool:
    """An operation failed if it raised, or fell back for a failure reason."""
    if isinstance(outcome, BaseException):
        return True
    return getattr(outcome, "source", None) == "fallback" and (
        getattr(outcome, "reason", None) in FAILED_REASONS
    )


@dataclass(frozen=True)
class Op:
    """One scheduled operation: ``kind`` and ``arg`` go to the executor."""

    due: float  # seconds after the schedule starts
    kind: str
    arg: Any = None


@dataclass
class OpRecord:
    """What happened to one operation; times are absolute clock readings."""

    op: Op
    lane: int
    index: int  # position in its lane
    due: float
    issued: float
    done: float
    late: float  # issued - max(due, lane free): the generator's own lag
    outcome: Any  # the executor's return value, or the exception it raised
    failed: bool

    @property
    def latency(self) -> float:
        """Seconds from due time to completion."""
        return self.done - self.due


def run_open_loop(
    lanes: list[list[Op]],
    execute: Callable[[OpRecord], Any],
    *,
    clock: Callable[[], float],
    sleep: Callable[[float], None] = time.sleep,
) -> list[OpRecord]:
    """Play ``lanes`` (one thread each) and return every operation's record.

    ``execute`` receives the partly filled record (``op``, ``due``,
    ``issued``) and returns the outcome; an exception it raises is the
    outcome and counts as a failure.  The schedule starts LEAD_S after
    the call.
    """
    start = clock() + LEAD_S
    results: list[list[OpRecord]] = [[] for _ in lanes]
    errors: list[BaseException] = []

    def play(lane: int, ops: list[Op]) -> None:
        free = start
        try:
            for index, op in enumerate(ops):
                due = start + op.due
                wait = due - clock()
                if wait > SPIN_S:
                    sleep(wait - SPIN_S)
                while clock() < due:
                    sleep(0)  # releases the interpreter lock while spinning
                issued = clock()
                record = OpRecord(
                    op=op, lane=lane, index=index, due=due, issued=issued, done=0.0,
                    late=max(0.0, issued - max(due, free)), outcome=None, failed=False,
                )
                try:
                    record.outcome = execute(record)
                except Exception as error:  # an operation's failure is data
                    record.outcome = error
                record.done = free = clock()
                record.failed = is_failed(record.outcome)
                results[lane].append(record)
        except BaseException as error:  # the generator itself broke: re-raised below
            errors.append(error)

    threads = [
        threading.Thread(target=play, args=(lane, ops), name=f"perfbench-lane-{lane}")
        for lane, ops in enumerate(lanes)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [record for lane in results for record in lane]
