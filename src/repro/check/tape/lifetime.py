"""Lifetime analysis and greedy arena planning over a tape program.

:func:`compute_lifetimes` assigns every storage-owning op/grad value a
first-def/last-use interval measured in instruction indices.  A use is any
appearance in an instruction's defs or uses — gradient accumulation and
saved-for-backward reads are already explicit in the IR, so nothing here
re-derives engine semantics.  Aliases charge their references to the
owning value's interval, and leaf gradients are pinned to the end of the
program (the optimizer reads them after the step).

:func:`plan_arena` then runs a first-fit greedy allocator with a
coalescing free list over those intervals, producing the offset plan a
tape-compiled executor (deferred; see ROADMAP.md, "Deferred") would use
for one big arena buffer.  Its outputs:

* ``arena_bytes`` — the arena high-water mark the plan needs (the
  *projected peak*);
* ``ideal_peak_bytes`` — the liveness lower bound (max concurrently live
  bytes); first-fit fragmentation is the gap between the two;
* ``total_bytes`` — sum of all owned allocations, i.e. what a
  no-reuse executor (and the engine today, which holds every node until
  ``backward()`` returns) must provision.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .ir import TapeProgram

__all__ = ["Lifetime", "ArenaPlan", "compute_lifetimes", "plan_arena"]


@dataclass
class Lifetime:
    """First-def/last-use interval of one storage-owning value."""

    vid: int
    start: int  # instruction index of the first def
    end: int  # last instruction index that touches the storage
    nbytes: int

    def to_dict(self) -> dict:
        return {"vid": self.vid, "start": self.start, "end": self.end,
                "nbytes": self.nbytes}


def compute_lifetimes(program: TapeProgram) -> dict[int, Lifetime]:
    """Interval per storage-owning op/grad value, keyed by vid."""
    owner_of = {v.vid: program.owner(v.vid) for v in program.values}
    intervals: dict[int, Lifetime] = {}
    for v in program.values:
        if v.kind in ("op", "grad") and v.owns_storage:
            start = max(v.def_index, 0)
            intervals[v.vid] = Lifetime(v.vid, start, start, v.nbytes)
    for instr in program.instructions:
        for vid in instr.defs + instr.uses:
            lifetime = intervals.get(owner_of[vid])
            if lifetime is not None and instr.index > lifetime.end:
                lifetime.end = instr.index
    # Leaf gradients outlive the recorded step: the optimizer reads them.
    end_of_program = len(program.instructions)
    for source_vid, grad_vid in getattr(program, "grad_vids", {}).items():
        if program.value(source_vid).kind == "leaf":
            lifetime = intervals.get(owner_of[grad_vid])
            if lifetime is not None:
                lifetime.end = end_of_program
    return intervals


@dataclass
class ArenaSlot:
    """One value's placement in the planned arena."""

    vid: int
    offset: int
    size: int  # alignment-padded


@dataclass
class ArenaPlan:
    """Result of :func:`plan_arena` (see module docstring for the fields)."""

    slots: dict[int, ArenaSlot]
    arena_bytes: int
    ideal_peak_bytes: int
    total_bytes: int
    alignment: int

    @property
    def reuse_ratio(self) -> float:
        """How many times each arena byte is reused (total / arena)."""
        return self.total_bytes / self.arena_bytes if self.arena_bytes else 1.0

    def to_dict(self) -> dict:
        return {
            "arena_bytes": self.arena_bytes,
            "ideal_peak_bytes": self.ideal_peak_bytes,
            "total_bytes": self.total_bytes,
            "alignment": self.alignment,
            "buffers": len(self.slots),
            "reuse_ratio": round(self.reuse_ratio, 3),
        }


def _align(size: int, alignment: int) -> int:
    return (size + alignment - 1) // alignment * alignment


def plan_arena(
    program: TapeProgram,
    lifetimes: dict[int, Lifetime] | None = None,
    *,
    alignment: int = 64,
) -> ArenaPlan:
    """Greedy first-fit arena plan over the program's lifetimes.

    Values are placed in def order; a buffer becomes reusable once the
    current def index passes its last use (a value ending at instruction
    ``e`` cannot share storage with one defined at ``e``).
    """
    if lifetimes is None:
        lifetimes = compute_lifetimes(program)
    items = sorted(lifetimes.values(), key=lambda lt: (lt.start, lt.vid))

    free: list[tuple[int, int]] = []  # (offset, size), sorted by offset
    tail = 0  # everything at or beyond this offset is free
    active: list[tuple[int, int, int, int]] = []  # heap: (end, offset, size, vid)
    slots: dict[int, ArenaSlot] = {}
    arena_bytes = 0

    def release(offset: int, size: int) -> None:
        nonlocal tail, free
        free.append((offset, size))
        free.sort()
        merged: list[tuple[int, int]] = []
        for off, sz in free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + sz)
            else:
                merged.append((off, sz))
        if merged and merged[-1][0] + merged[-1][1] == tail:
            tail = merged.pop()[0]
        free = merged

    for lifetime in items:
        while active and active[0][0] < lifetime.start:
            _, offset, size, _vid = heapq.heappop(active)
            release(offset, size)
        size = _align(max(lifetime.nbytes, 1), alignment)
        offset = None
        for index, (off, sz) in enumerate(free):
            if sz >= size:
                offset = off
                if sz > size:
                    free[index] = (off + size, sz - size)
                else:
                    del free[index]
                break
        if offset is None:
            offset = tail
            tail += size
        slots[lifetime.vid] = ArenaSlot(lifetime.vid, offset, size)
        heapq.heappush(active, (lifetime.end, offset, size, lifetime.vid))
        if offset + size > arena_bytes:
            arena_bytes = offset + size

    # Liveness lower bound: sweep max of concurrently live (padded) bytes.
    events: list[tuple[int, int]] = []
    for lifetime in items:
        size = _align(max(lifetime.nbytes, 1), alignment)
        events.append((lifetime.start, size))
        events.append((lifetime.end + 1, -size))
    events.sort()
    live = peak = 0
    for _, delta in events:
        live += delta
        if live > peak:
            peak = live

    return ArenaPlan(
        slots=slots,
        arena_bytes=arena_bytes,
        ideal_peak_bytes=peak,
        total_bytes=sum(lt.nbytes for lt in items),
        alignment=alignment,
    )
