"""Spans recorded from outside the program, and the self-time ledger.

The benchmark never edits the code it measures.  It wraps the public
functions of each layer — instance attributes, a module global, one class
method — with :meth:`Tracer.wrap`, which records a span only while the
calling thread is inside a traced operation (a root span the workload
opened).  Outside one, a wrapper is a thread-local lookup and a call.

A layer's *self time* is its span's duration minus the part of it that its
child spans cover.  :func:`op_breakdown` sums self time per layer inside
each root operation, which is what the coverage ledger adds up.
"""

from __future__ import annotations

import contextlib
import threading
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

__all__ = ["Span", "Tracer", "covered", "self_times", "self_times_by_name", "op_breakdown", "coverage_share"]


@dataclass
class Span:
    """One timed call: ``parents`` are the ids of the spans that caused it."""

    sid: int
    name: str
    start: float
    end: float
    parents: tuple[int, ...]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; the workload reads them when it ends."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self) -> bool:
        """Whether the calling thread is inside a traced operation."""
        return bool(self._stack())

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def record(self, name: str, start: float, end: float, parents=()) -> int:
        """Add a finished span; returns its id."""
        with self._lock:
            sid = len(self.spans)
            self.spans.append(Span(sid, name, start, end, tuple(parents)))
            return sid

    @contextlib.contextmanager
    def span(self, name: str, start: float | None = None):
        """Time the block as a child of the thread's current span.

        ``start`` back-dates the span, so a root operation can begin at the
        time it was due rather than when its thread got to it.
        """
        stack = self._stack()
        parents = (stack[-1],) if stack else ()
        with self._lock:
            sid = len(self.spans)
            self.spans.append(Span(sid, name, self.clock() if start is None else start, 0.0, parents))
        stack.append(sid)
        try:
            yield sid
        finally:
            stack.pop()
            self.spans[sid].end = self.clock()

    def wrap(self, name: str, fn):
        """``fn`` with a span around each call made inside a traced op."""

        def traced(*args, **kwargs):
            if not self._stack():
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    cursor = start
    for lo, hi in clipped:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        for parent in span.parents:
            children[parent].append(span)
    return children


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children = _children(spans)
    return {
        span.sid: span.duration
        - covered(span.start, span.end, [(c.start, c.end) for c in children[span.sid]])
        for span in spans
    }


def self_times_by_name(spans: list[Span]) -> dict[str, list[float]]:
    """Every span's self time, grouped by span name."""
    own = self_times(spans)
    by_name: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(own[span.sid])
    return by_name


def op_breakdown(spans: list[Span], roots: list[int]) -> list[dict[str, float]]:
    """Per root operation, the self time of every layer span beneath it.

    A span with several parents (one batched forward serving two requests)
    counts in full toward each operation it served.
    """
    children = _children(spans)
    own = self_times(spans)
    breakdown = []
    for root in roots:
        totals: dict[str, float] = defaultdict(float)
        seen = set()
        todo = [root]
        while todo:
            sid = todo.pop()
            if sid in seen:
                continue
            seen.add(sid)
            totals[spans[sid].name] += own[sid]
            todo.extend(child.sid for child in children[sid])
        breakdown.append(dict(totals))
    return breakdown


def coverage_share(breakdown: list[dict[str, float]], layers, op_durations) -> float:
    """Median over operations of the share of each one the ``layers`` cover.

    Per operation rather than a sum of per-layer medians: on a workload
    whose operations are a mixture (cache hits and misses, some queued
    behind others) the medians of the parts do not add up to the median
    of the whole, while each operation's parts do add up to it.
    """
    return float(np.median([
        sum(op.get(layer, 0.0) for layer in layers) / duration
        for op, duration in zip(breakdown, op_durations)
    ]))
