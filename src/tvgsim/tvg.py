"""Time-varying graph model: presence schedules, earliest arrival, reachability.

Time is discrete (non-negative integer ticks).  Presence is described by
half-open intervals [start, end); an optional periodic tail makes an edge
recurrent (present during [offset + i*period, offset + i*period + duration)
for every i >= 0).  A contiguous tail (duration == period) is normalized to
period = duration = 1 and represents "present forever from offset".

``PresenceSchedule.of`` builds the normal form and the constructor rejects
any other, so a schedule that exists is normal.  ``occurrences(after)`` is
the one reader of that form: windows and masks are short walks over the
maximal occurrences it yields.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import DomainError
from .graphs import Edge, StaticGraph, VertexId, is_connected, make_edge, vertex_key

Tick = int
Interval = Tuple[Tick, Optional[Tick]]  # end None = unbounded


@dataclass(frozen=True)
class PeriodicTail:
    offset: Tick
    period: Tick
    duration: Tick

    def __post_init__(self):
        if self.offset < 0:
            raise DomainError("periodic tail offset must be non-negative")
        if self.period <= 0:
            raise DomainError("periodic tail period must be positive")
        if not (0 < self.duration <= self.period):
            raise DomainError("periodic tail duration must satisfy 0 < duration <= period")


@dataclass(frozen=True)
class PresenceSchedule:
    """Presence of one edge, in the normal form ``of`` builds: sorted,
    non-empty intervals that neither overlap nor touch, a tail that starts
    after the last of them, and a contiguous tail stored as (offset, 1, 1).
    Any other form is rejected here; the engine and the journey search rely
    on it."""

    intervals: Tuple[Tuple[Tick, Tick], ...] = ()
    tail: Optional[PeriodicTail] = None

    def __post_init__(self):
        last = -1
        for (s, e) in self.intervals:
            if not last < s < e:
                raise DomainError("schedule not in normal form; build it with PresenceSchedule.of")
            last = e
        tail = self.tail
        if tail is not None and (tail.offset <= last or tail.duration == tail.period != 1):
            raise DomainError("schedule not in normal form; build it with PresenceSchedule.of")

    @staticmethod
    def of(intervals, tail: Optional[PeriodicTail] = None) -> "PresenceSchedule":
        """Normalizing constructor: sorts, merges touching intervals, folds
        finite intervals abutting the tail into it."""
        pairs = tuple(map(tuple, intervals))
        try:
            # Input already in normal form (as ``save_scenario`` writes it)
            # costs only the constructor's check.
            return PresenceSchedule(pairs, tail)
        except DomainError:
            pass
        ints: List[List[Tick]] = []
        for (s, e) in sorted(pairs):
            if s < 0:
                raise DomainError(f"interval start {s} is negative")
            if e <= s:
                raise DomainError(f"interval [{s},{e}) is empty")
            if ints and s <= ints[-1][1]:
                ints[-1][1] = max(ints[-1][1], e)
            else:
                ints.append([s, e])
        if tail is not None and tail.duration == tail.period:
            # Contiguous tail: present forever from offset.
            offset = tail.offset
            while ints and ints[-1][1] >= offset:
                offset = min(offset, ints[-1][0])
                ints.pop()
            tail = PeriodicTail(offset, 1, 1)
        elif tail is not None:
            # Fold occurrences that touch the last finite interval.
            while ints and ints[-1][1] == tail.offset:
                ints[-1][1] = tail.offset + tail.duration
                tail = PeriodicTail(tail.offset + tail.period, tail.period, tail.duration)
            if ints and ints[-1][1] > tail.offset:
                raise DomainError("periodic tail overlaps a finite interval")
        return PresenceSchedule(tuple((s, e) for s, e in ints), tail)

    @property
    def recurrent(self) -> bool:
        return self.tail is not None

    @property
    def is_empty(self) -> bool:
        return not self.intervals and self.tail is None

    def occurrences(self, after: Tick = 0) -> Iterator[Interval]:
        """The maximal presence intervals that end after ``after``, in order;
        the last may be unbounded (end None).  Infinite for a non-contiguous
        tail, whose first such occurrence is found by arithmetic."""
        for (s, e) in self.intervals:
            if e > after:
                yield (s, e)
        tail = self.tail
        if tail is None:
            return
        if tail.duration == tail.period:
            yield (tail.offset, None)
            return
        skip = max(0, (after - tail.offset - tail.duration) // tail.period + 1)
        s = tail.offset + skip * tail.period
        while True:
            yield (s, s + tail.duration)
            s += tail.period

    def earliest_window(self, t: Tick, duration: Tick) -> Optional[Tick]:
        """Smallest t' >= t such that the schedule is present at t' and, when
        duration >= 1, throughout the half-open window [t', t' + duration)."""
        if t < 0:
            raise DomainError(f"tick {t} is negative")
        tail = self.tail
        for (s, e) in self.occurrences(t):
            c = max(s, t)  # c < e, as the occurrence ends after t
            if e is None or c + duration <= e:
                return c
            if s >= t and tail is not None and s >= tail.offset:
                return None  # every later tail occurrence is as short
        return None

    def minus(self, start: Tick, end: Optional[Tick]) -> "PresenceSchedule":
        """Schedule with presence removed over [start, end); end None = forever."""
        if start < 0 or (end is not None and end <= start):
            raise DomainError(f"invalid mask interval [{start},{end})")
        tail = self.tail
        new_tail: Optional[PeriodicTail] = None
        if end is not None and tail is not None:
            # The tail resumes unchanged at its first occurrence starting at
            # or after end; for a contiguous tail that is max(offset, end).
            skip = max(0, -(-(end - tail.offset) // tail.period))
            new_tail = PeriodicTail(tail.offset + skip * tail.period, tail.period, tail.duration)
        fin: List[Tuple[Tick, Tick]] = []
        for (s, e) in self.occurrences():
            if s >= start and (end is None or new_tail is not None and s >= new_tail.offset):
                break
            if s < start:
                fin.append((s, start if e is None else min(e, start)))
            if end is not None and e is not None and e > end:
                fin.append((max(s, end), e))
        return PresenceSchedule.of(fin, new_tail)


@dataclass(frozen=True)
class Tvg:
    graph: StaticGraph
    schedule: Mapping[Edge, PresenceSchedule]
    latency: Mapping[Edge, Tick]
    process_latency: Tick = 0

    def __post_init__(self):
        if set(self.schedule) != set(self.graph.edges):
            raise DomainError("schedule must be defined for exactly the edges of the graph")
        if set(self.latency) != set(self.graph.edges):
            raise DomainError("latency must be defined for exactly the edges of the graph")
        for e, sched in self.schedule.items():
            if sched.is_empty:
                raise DomainError(f"edge {e} has an empty schedule; drop it from the graph instead")
        for e, z in self.latency.items():
            if z < 1:
                raise DomainError(f"edge {e} has latency {z} < 1")
        if self.process_latency < 0:
            raise DomainError("process latency must be non-negative")


def eventual_underlying_graph(tvg: Tvg) -> StaticGraph:
    recurrent = frozenset(e for e in tvg.graph.edges if tvg.schedule[e].recurrent)
    return StaticGraph(tvg.graph.vertices, recurrent)


def earliest_arrival(
    tvg: Tvg,
    source: VertexId,
    target: VertexId,
    after: Tick = 0,
    deliverable: bool = False,
) -> Optional[Tick]:
    """Minimum arrival tick over journeys departing at or after ``after``.

    With deliverable=True each hop needs its edge present throughout the full
    latency window, matching the delivery condition of the retrying send
    primitive; with deliverable=False presence is required only at departure.
    """
    if source not in tvg.graph.vertices:
        raise DomainError(f"unknown vertex {source!r}")
    if target not in tvg.graph.vertices:
        raise DomainError(f"unknown vertex {target!r}")
    if after < 0:
        raise DomainError(f"departure tick {after} is negative")
    if source == target:
        return after
    adjacency, schedule, latency = tvg.graph.adjacency, tvg.schedule, tvg.latency
    best: Dict[VertexId, Tick] = {source: after}
    # Entries (tick, len(v), v) pop in (tick, vertex_key) order.  Which
    # vertices are expanded, and so which windows are queried, does not
    # depend on the order neighbours are relaxed in.
    heap: List[Tuple[Tick, int, VertexId]] = [(after, len(source), source)]
    while heap:
        t, lv, v = heapq.heappop(heap)
        if t > best[v]:
            continue
        if v == target:
            return t
        vk = (lv, v)  # vertex_key(v)
        for u in adjacency[v]:
            e = (v, u) if vk < vertex_key(u) else (u, v)  # make_edge(v, u)
            z = latency[e]
            dep = schedule[e].earliest_window(t, z if deliverable else 0)
            if dep is None:
                continue
            arrival = dep + z
            if u not in best or arrival < best[u]:
                best[u] = arrival
                heapq.heappush(heap, (arrival, len(u), u))
    return best.get(target)


def is_connected_over_time(tvg: Tvg) -> bool:
    # Recurrent edges appear infinitely often with full-duration occurrences,
    # so journeys exist after any time iff the eventual underlying graph is
    # connected.
    return is_connected(eventual_underlying_graph(tvg))


def restrict(
    tvg: Tvg,
    masks: Sequence[Tuple[Sequence[Tuple[VertexId, VertexId]], Interval]],
) -> Tvg:
    """Force the presence of each masked edge to false over its masked
    half-open interval.  Edges whose schedule becomes empty are dropped."""
    schedules = dict(tvg.schedule)
    for (edges, (start, end)) in masks:
        for raw in edges:
            e = make_edge(*raw)
            if e not in schedules:
                raise DomainError(f"unknown edge {e}")
            schedules[e] = schedules[e].minus(start, end)
    kept = frozenset(e for e, sched in schedules.items() if not sched.is_empty)
    graph = StaticGraph(tvg.graph.vertices, kept)
    return Tvg(
        graph=graph,
        schedule={e: schedules[e] for e in kept},
        latency={e: tvg.latency[e] for e in kept},
        process_latency=tvg.process_latency,
    )
