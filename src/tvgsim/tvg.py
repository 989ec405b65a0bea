"""Time-varying graph model: presence schedules, earliest arrival, reachability.

Time is discrete (non-negative integer ticks).  Presence is described by
half-open intervals [start, end); an optional periodic tail makes an edge
recurrent (present during [offset + i*period, offset + i*period + duration)
for every i >= 0).  A contiguous tail (duration == period) is normalized to
period = duration = 1 and represents "present forever from offset".

``PresenceSchedule.of`` builds the normal form and the constructor rejects
any other, so a schedule that exists is normal.  Three methods read that
form, and each bisects the finite intervals and finds its place in the
periodic tail by arithmetic, walking no occurrences: ``next_occurrence(t)``,
the engine's one query of an edge's future; ``earliest_window(t,
duration)``, the journey search's one query; and ``minus(start, end)``, the
mask that ``restrict`` and the adversary apply, which writes out only the
tail occurrences before ``start``.

``earliest_arrival`` reads a Tvg's ``incidence`` table: each vertex's
(neighbour, schedule, latency) triples, built on the first query and kept
on the Tvg, so a batch of queries on one Tvg builds it once.  It queries
an edge's window only when the hop could still improve on the neighbour's
best arrival, so a vertex's expansion skips the vertex it was reached from.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import DomainError
from .graphs import Edge, StaticGraph, VertexId, is_connected, make_edge

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
            # Tail occurrences are not written out, so an interval may not end
            # after the tail starts even where it overlaps none of them.
            if ints and ints[-1][1] > tail.offset:
                s, e = ints[-1]
                raise DomainError(f"interval [{s},{e}) ends after the periodic tail's offset {tail.offset}")
        return PresenceSchedule(tuple((s, e) for s, e in ints), tail)

    @property
    def recurrent(self) -> bool:
        return self.tail is not None

    @property
    def is_empty(self) -> bool:
        return not self.intervals and self.tail is None

    def next_occurrence(self, t: Tick) -> Optional[Interval]:
        """The first maximal occurrence starting at or after ``t``, or None."""
        intervals = self.intervals
        if intervals and intervals[-1][0] >= t:
            return intervals[bisect_left(intervals, (t,))]
        tail = self.tail
        if tail is None:
            return None
        s, p, d = tail.offset, tail.period, tail.duration
        if d == p:  # contiguous
            return (s, None) if s >= t else None
        if s < t:
            s -= (s - t) // p * p  # the first start at or after t
        return (s, s + d)

    def earliest_window(self, t: Tick, duration: Tick) -> Optional[Tick]:
        """Smallest t' >= t such that the schedule is present at t' and, when
        duration >= 1, throughout the half-open window [t', t' + duration)."""
        if t < 0:
            raise DomainError(f"tick {t} is negative")
        if duration < 0:
            raise DomainError(f"duration {duration} is negative")
        intervals = self.intervals
        if intervals and intervals[-1][1] > t:
            i = bisect_left(intervals, (t,))  # the first interval starting at or after t
            if i and t < intervals[i - 1][1] and t + duration <= intervals[i - 1][1]:
                return t
            for (s, e) in intervals[i:]:
                if s + duration <= e:
                    return s
        tail = self.tail
        if tail is None:
            return None
        s, p, d = tail.offset, tail.period, tail.duration
        if d == p:  # contiguous
            return max(s, t)
        if s < t:
            r = (t - s) % p  # t's place in its period
            if r < d and r + duration <= d:
                return t
            s = t - r + p  # the first start after t
        # Every tail occurrence starting at or after t is d ticks long.
        return s if duration <= d else None

    def minus(self, start: Tick, end: Optional[Tick]) -> "PresenceSchedule":
        """Schedule with presence removed over [start, end); end None = forever."""
        if start < 0 or (end is not None and end <= start):
            raise DomainError(f"invalid mask interval [{start},{end})")
        intervals, tail = self.intervals, self.tail
        # Before start: the intervals starting before it, then the tail's
        # occurrences starting before it, the last of them cut at start.
        kept = list(intervals[:bisect_left(intervals, (start,))])
        if tail is not None and tail.offset < start:
            s, p, d = tail.offset, tail.period, tail.duration
            kept += [(s, start)] if d == p else [(a, a + d) for a in range(s, start, p)]
        if kept and kept[-1][1] > start:
            kept[-1] = (kept[-1][0], start)
        if end is None:
            return PresenceSchedule.of(kept)
        # From end on: the rest of the occurrence holding end, the intervals
        # starting at or after it, and the tail from its first start at or
        # after end (for a contiguous tail, end itself).
        j = bisect_left(intervals, (end,))
        if j and intervals[j - 1][1] > end:
            kept.append((end, intervals[j - 1][1]))
        kept += intervals[j:]
        if tail is not None and tail.offset < end:
            s, p, d = tail.offset, tail.period, tail.duration
            r = (end - s) % p  # end's place in its period
            if 0 < r < d:
                kept.append((end, end - r + d))
            tail = PeriodicTail(end - r + p if r else end, p, d)
        return PresenceSchedule.of(kept, tail)


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

    @cached_property
    def incidence(self) -> Dict[VertexId, Tuple[Tuple[VertexId, PresenceSchedule, Tick], ...]]:
        """Vertex -> (neighbour, schedule, latency) for each edge at it; an
        isolated vertex maps to ().  Built once per Tvg from its maps, so
        they are not to be changed in place after the first query."""
        schedule, latency = self.schedule, self.latency
        table = {}
        for v, neighbours in self.graph.adjacency.items():
            row = []
            for u in neighbours:
                e = make_edge(v, u)
                row.append((u, schedule[e], latency[e]))
            table[v] = tuple(row)
        return table


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
    incidence = tvg.incidence
    best: Dict[VertexId, Tick] = {source: after}
    # Entries (tick, len(v), v) pop in (tick, vertex_key) order.  Which
    # vertices are expanded does not depend on the order neighbours are
    # relaxed in.  A window found at or after t arrives at or after t + z,
    # so a neighbour already reached by then is skipped unqueried: a window
    # is queried only where it might improve the neighbour's arrival.
    heap: List[Tuple[Tick, int, VertexId]] = [(after, len(source), source)]
    while heap:
        t, _, v = heapq.heappop(heap)
        if t > best[v]:
            continue
        if v == target:
            return t
        for u, sched, z in incidence[v]:
            known = best.get(u)
            if known is not None and known <= t + z:
                continue
            dep = sched.earliest_window(t, z if deliverable else 0)
            if dep is None:
                continue
            arrival = dep + z
            if known is None or arrival < known:
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
