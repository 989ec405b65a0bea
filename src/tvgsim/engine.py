"""Deterministic discrete-event executor of a protocol over a Tvg.

Events at one tick are processed in this order, which is the engine's whole
tie-break and the order of the trace: edge disappearances, then edge
appearances (each in canonical edge order), then message deliveries in
message-id order, then protocol callbacks in vertex-id order (one vertex's
callbacks in the order they were scheduled).  The engine is
seed-independent; ``run``'s ``seed`` argument is read by nothing.

A ``Simulation`` is a run that stops and resumes.  ``advance(until)``
processes every event with tick < ``until``, and ``run(tvg, p, h)`` is
``Simulation(tvg, p).advance(h)``, so advancing in steps gives the trace of
one run.  ``fork()`` copies a simulation at its current tick.
``amend(edges, schedule)`` changes edge schedules from the current tick on,
as if the run had been on the amended scenario from tick 0: the new
schedule must agree with the old one before that tick.  The adaptive
adversary forks and amends one simulation instead of restarting runs.

Pending work sits in a calendar: one bucket per tick, holding that tick's
disappearances, appearances, deliveries and callbacks, and a heap holding
each tick that has a bucket once.  A popped tick's bucket is run in the
order above, each list sorted by its key (a stable sort for callbacks).
The edge schedule is read lazily: the calendar holds only each edge's next
appearance, and firing an appearance adds that occurrence's disappearance
(when it is finite) and the edge's next appearance.  So it holds
O(edges + messages in flight + pending callbacks) entries whatever the
horizon or the periods.  Work due at or after ``until`` stays in the
calendar for the next ``advance``.

A callback whose handler is ``Protocol``'s own no-op method (``on_init``,
``on_edge_appear``, ``on_edge_disappear``, inherited unchanged) is never
scheduled: it returns the state unchanged and sends nothing, so dropping it
changes no output and keeps the order of everything else.  Any other
handler, such as a delegating proxy's own function, gets every callback.

A ``Protocol`` subclass's ``check`` runs before the first event, on the
scenario and the protocol's ``origin``; any other object is run unchecked.

The trace is a list of ``TraceEvent`` records, one per event.  A record is a
``NamedTuple``, immutable and hashable, built by ``tuple.__new__`` without
the class's Python-level ``__new__``: a trace is recorded on every run.  An
``OutputChanged`` record holds the vertex and the raw output value.
Only the ``Trace`` formats outputs, with the protocol's ``format_output``,
when it is serialized: the metrics and the adversary format nothing.
``output_timeline`` is the one replay of the ``OutputChanged`` records; the
metrics read outputs over time from it.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .errors import DomainError
from .graphs import Edge, StaticGraph, VertexId, make_edge, vertex_key
from .tvg import PresenceSchedule, Tick, Tvg

EDGE_UP = "EdgeUp"
EDGE_DOWN = "EdgeDown"
SEND_INVOKED = "SendInvoked"
MESSAGE_DELIVERED = "MessageDelivered"
MESSAGE_LOST = "MessageLost"
OUTPUT_CHANGED = "OutputChanged"

_by_vertex = itemgetter(0)  # a callback item starts with its vertex index

@dataclass(slots=True)
class Message:
    id: int
    sender: VertexId
    receiver: VertexId
    edge: Edge
    payload: Any


class TraceEvent(NamedTuple):
    time: Tick
    kind: str
    subject: Tuple[str, ...]  # (vertex,) for OutputChanged
    value: Any = None  # raw output for OutputChanged


@dataclass
class Trace:
    events: List[TraceEvent]
    initial_outputs: Dict[VertexId, Any]
    final_outputs: Dict[VertexId, Any]
    format_output: Callable[[Any], str]

    def serialize(self) -> str:
        """One line per event, ``FINAL``, then the final lines."""
        fmt = self.format_output
        lines = [
            f"{t} {kind} {subject[0]} {fmt(value)}" if kind == OUTPUT_CHANGED else " ".join((str(t), kind) + subject)
            for t, kind, subject, value in self.events
        ]
        lines.append("FINAL")
        lines.extend(self.final_lines)
        return "\n".join(lines) + "\n"

    @cached_property
    def final_lines(self) -> Tuple[str, ...]:
        """``<vertex> <formatted final output>`` for every vertex, in id order.
        Formatted once and kept: ``serialize()`` and the CLI both print them."""
        fmt, finals = self.format_output, self.final_outputs
        return tuple(f"{v} {fmt(finals[v])}" for v in sorted(finals, key=vertex_key))


def output_timeline(trace: Trace) -> List[Tuple[Tick, Dict[VertexId, Any]]]:
    """Piecewise-constant outputs: (tick, outputs holding from that tick on),
    from tick 0 to the tick of the last ``OutputChanged`` record."""
    timeline = [(0, dict(trace.initial_outputs))]
    for ev in trace.events:
        if ev.kind != OUTPUT_CHANGED:
            continue
        current = dict(timeline[-1][1])
        current[ev.subject[0]] = ev.value
        if ev.time == timeline[-1][0]:
            timeline[-1] = (ev.time, current)
        else:
            timeline.append((ev.time, current))
    return timeline


class Protocol:
    """Per-process transition functions.  Handlers are pure: they take a state
    and return (new_state, sends) where sends is a list of (dest, payload)."""

    name = "protocol"
    # Whether the protocol is built with an origin vertex: ``cls(origin)``,
    # which it keeps as ``origin``.
    takes_origin = False
    origin: Optional[VertexId] = None

    def initial_state(self, vertex: VertexId):
        raise NotImplementedError

    def on_init(self, state, vertex: VertexId):
        return state, []

    def on_edge_appear(self, state, vertex: VertexId, other: VertexId):
        return state, []

    def on_edge_disappear(self, state, vertex: VertexId, other: VertexId):
        return state, []

    def on_receive(self, state, vertex: VertexId, sender: VertexId, payload):
        return state, []

    def output(self, state):
        raise NotImplementedError

    def format_output(self, value) -> str:
        raise NotImplementedError

    @staticmethod
    def converged(tvg: Tvg, outputs: Dict[VertexId, Any]) -> bool:
        """Whether final ``outputs`` solve the protocol's problem on ``tvg``."""
        raise NotImplementedError

    @staticmethod
    def nps(graph: StaticGraph, origin: Optional[VertexId]):
        """The problem's necessary-presence-set family on the underlying graph."""
        raise NotImplementedError

    @staticmethod
    def check(tvg: Tvg, origin: Optional[VertexId]) -> None:
        """Raise a ``DomainError`` when the protocol cannot run on ``tvg`` from
        ``origin``; called before the run starts.  Accepts everything here."""


def _is_noop(protocol, handler: str) -> bool:
    """True when ``protocol``'s ``handler`` is ``Protocol``'s own no-op method.
    A function a proxy sets as its handler has no ``__func__``, so a proxy
    may do anything in any handler."""
    return getattr(getattr(protocol, handler), "__func__", None) is getattr(Protocol, handler)


def _next_up(schedule: PresenceSchedule, t: Tick):
    """The first occurrence of ``schedule`` starting at or after ``t`` (None
    when there is none), and an iterator over the occurrences after it."""
    later = schedule.occurrences(t)
    for occ in later:
        if occ[0] >= t:
            return occ, later
    return None, later


class Simulation:
    """A run of ``protocol`` over ``tvg`` that stops and resumes: ``advance``
    processes the events before a tick, ``fork`` copies the simulation at its
    current tick, and ``amend`` changes edge schedules from that tick on.
    ``now`` is the tick before which every event has been processed, and
    ``trace`` the trace so far, whose ``final_outputs`` are the outputs at
    ``now``."""

    def __init__(self, tvg: Tvg, protocol: Protocol):
        if isinstance(protocol, Protocol):
            type(protocol).check(tvg, protocol.origin)
        verts = tvg.graph.sorted_vertices()
        edges = tvg.graph.sorted_edges()
        # Run-wide tables, shared by forks.  Sort keys: positions in the
        # canonical vertex and edge orders.
        self._protocol = protocol
        self._latency = tvg.latency
        self._phi = tvg.process_latency
        self._vertex_index = vertex_index = {v: i for i, v in enumerate(verts)}
        self._edge_index = {e: i for i, e in enumerate(edges)}
        self._edge_of = edge_of = {}
        for e in edges:
            edge_of[e] = edge_of[(e[1], e[0])] = e

        # Callback items (vertex index, handler, vertex, extra handler
        # arguments), built once per edge endpoint; None where the handler is
        # an inherited no-op.
        def endpoint_items(handler: str, e: Edge):
            if _is_noop(protocol, handler):
                return None
            fn = getattr(protocol, handler)
            return ((vertex_index[e[0]], fn, e[0], (e[1],)), (vertex_index[e[1]], fn, e[1], (e[0],)))

        self._appear_items = {e: endpoint_items("on_edge_appear", e) for e in edges}
        self._disappear_items = {e: endpoint_items("on_edge_disappear", e) for e in edges}

        # The state a fork copies.
        self.now: Tick = 0
        self.schedule: Dict[Edge, PresenceSchedule] = dict(tvg.schedule)
        self._states = {v: protocol.initial_state(v) for v in verts}
        initial_outputs = {v: protocol.output(self._states[v]) for v in verts}
        self.trace = Trace([], initial_outputs, dict(initial_outputs), protocol.format_output)
        # The calendar: a bucket of (downs, ups, deliveries, callbacks) per
        # tick with pending work, and that tick once on the heap.
        self._heap: List[Tick] = []
        self._buckets: Dict[Tick, Tuple[list, list, list, list]] = {}
        self._occurrences: Dict[Edge, Iterator[Tuple[Tick, Optional[Tick]]]] = {}
        self._up_end: Dict[Edge, Optional[Tick]] = {}  # current occurrence end while up
        self._pending: Dict[Edge, Dict[int, Message]] = {e: {} for e in edges}
        # Messages that arrive after their occurrence ends, as (arrival, message).
        self._doomed: Dict[Edge, List[Tuple[Tick, Message]]] = {e: [] for e in edges}
        self._last_id = 0
        for e in edges:
            self._seat(e, tvg.schedule[e])
        if not _is_noop(protocol, "on_init"):
            self._bucket(0)[3].extend((vertex_index[v], protocol.on_init, v, ()) for v in verts)

    def _bucket(self, t: Tick):
        """The bucket of tick ``t``, opened (and ``t`` put on the heap) if new."""
        b = self._buckets.get(t)
        if b is None:
            heapq.heappush(self._heap, t)
            b = self._buckets[t] = ([], [], [], [])
        return b

    def _seat(self, e: Edge, schedule: PresenceSchedule):
        """Put the first occurrence of ``schedule`` starting at or after now
        in the calendar as ``e``'s next appearance, and the later ones in
        ``e``'s iterator."""
        occ, self._occurrences[e] = _next_up(schedule, self.now)
        if occ is not None:
            self._bucket(occ[0])[1].append((self._edge_index[e], e, occ[1]))

    @property
    def next_tick(self) -> Optional[Tick]:
        """The earliest tick with pending work, or None when there is none."""
        return self._heap[0] if self._heap else None

    def advance(self, until: Tick) -> Trace:
        """Process every event with tick < ``until``; returns ``trace``."""
        if until <= 0:
            raise DomainError("horizon must be positive")
        if until < self.now:
            raise DomainError(f"cannot advance to tick {until}: the simulation is at tick {self.now}")
        heap, buckets = self._heap, self._buckets
        # Resolved at call time, so a spy on heapq sees every push.
        heappush, heappop = heapq.heappush, heapq.heappop
        latency, phi, edge_of = self._latency, self._phi, self._edge_of
        vertex_index, edge_index = self._vertex_index, self._edge_index
        appear_items, disappear_items = self._appear_items, self._disappear_items
        states, up_end, pending, doomed = self._states, self._up_end, self._pending, self._doomed
        output, on_receive = self._protocol.output, self._protocol.on_receive
        current_output = self.trace.final_outputs
        record, new = self.trace.events.append, tuple.__new__
        occurrences = self._occurrences
        msg_id = self._last_id

        def open_bucket(t: Tick):
            heappush(heap, t)
            b = buckets[t] = ([], [], [], [])
            return b

        def push_next_up(e: Edge):
            occ = next(occurrences[e], None)
            if occ is not None:
                (buckets.get(occ[0]) or open_bucket(occ[0]))[1].append((edge_index[e], e, occ[1]))

        def attempt(m: Message, t: Tick):
            end = up_end[m.edge]
            arrival = t + latency[m.edge]
            if end is None or arrival <= end:
                (buckets.get(arrival) or open_bucket(arrival))[2].append((m.id, m))
            else:
                doomed[m.edge].append((arrival, m))

        # A tick's phases run in the stated order.  Work added while a tick
        # runs lies in a later tick, except callbacks at process latency 0,
        # which land in this tick's callback list before that phase reads it;
        # so the bucket stays in the calendar until the tick is done.
        while heap and heap[0] < until:
            tick = heappop(heap)
            downs, ups, deliveries, callbacks = buckets[tick]
            at = tick + phi  # when the callbacks this tick's events cause run
            for _, e in sorted(downs):
                record(new(TraceEvent, (tick, EDGE_DOWN, e, None)))
                del up_end[e]
                lost = doomed[e]
                if lost:
                    for _, m in lost:
                        record(new(TraceEvent, (tick, MESSAGE_LOST, (str(m.id),), None)))
                    doomed[e] = []
                if disappear_items[e] is not None:
                    (buckets.get(at) or open_bucket(at))[3].extend(disappear_items[e])
            for _, e, end in sorted(ups):
                record(new(TraceEvent, (tick, EDGE_UP, e, None)))
                up_end[e] = end
                for m in pending[e].values():
                    attempt(m, tick)
                if appear_items[e] is not None:
                    (buckets.get(at) or open_bucket(at))[3].extend(appear_items[e])
                if end is not None:
                    (buckets.get(end) or open_bucket(end))[0].append((edge_index[e], e))
                push_next_up(e)
            for _, m in sorted(deliveries):
                record(new(TraceEvent, (tick, MESSAGE_DELIVERED, (str(m.id),), None)))
                del pending[m.edge][m.id]
                item = (vertex_index[m.receiver], on_receive, m.receiver, (m.sender, m.payload))
                (buckets.get(at) or open_bucket(at))[3].append(item)
            for _, handler, v, args in sorted(callbacks, key=_by_vertex):
                state, sends = handler(states[v], v, *args)
                states[v] = state
                out = output(state)
                if out != current_output[v]:
                    current_output[v] = out
                    record(new(TraceEvent, (tick, OUTPUT_CHANGED, (v,), out)))
                for dest, payload in sends:
                    e = edge_of.get((v, dest))
                    if e is None:
                        raise DomainError(f"protocol sent over unknown edge {make_edge(v, dest)}")
                    msg_id += 1
                    m = Message(msg_id, v, dest, e, payload)
                    record(new(TraceEvent, (tick, SEND_INVOKED, (str(msg_id), v, dest), None)))
                    pending[e][msg_id] = m
                    if e in up_end:
                        attempt(m, tick)
            del buckets[tick]

        self._last_id = msg_id
        self.now = until
        self.trace.__dict__.pop("final_lines", None)  # the outputs may have moved on
        return self.trace

    def fork(self) -> "Simulation":
        """An independent copy at ``now``.  Protocol states, messages and
        calendar items are immutable and shared; every container is copied,
        and each edge's occurrence iterator is re-seated on its schedule."""
        twin = copy.copy(self)
        twin.schedule = dict(self.schedule)
        twin._states = dict(self._states)
        trace = self.trace
        twin.trace = Trace(list(trace.events), trace.initial_outputs, dict(trace.final_outputs), trace.format_output)
        twin._heap = list(self._heap)
        twin._buckets = {t: tuple(list(phase) for phase in b) for t, b in self._buckets.items()}
        # The calendar holds each edge's first occurrence starting at or
        # after now; the iterator resumes after it.
        twin._occurrences = {e: _next_up(s, self.now)[1] for e, s in self.schedule.items()}
        twin._up_end = dict(self._up_end)
        twin._pending = {e: dict(p) for e, p in self._pending.items()}
        twin._doomed = {e: list(d) for e, d in self._doomed.items()}
        return twin

    def amend(self, edges, schedule: PresenceSchedule) -> None:
        """Give each of ``edges`` ``schedule`` from ``now`` on.  It must agree
        with the edge's schedule before ``now``.  When the occurrence in
        progress gets a new end, its disappearance moves there and every
        message attempted during it is decided again: delivered at its
        arrival if that is within the new end, lost at the end otherwise."""
        now = self.now
        for raw in edges:
            e = make_edge(*raw)
            if e not in self.schedule:
                raise DomainError(f"unknown edge {e}")
            old = self.schedule[e]
            if old.minus(now, None) != schedule.minus(now, None):
                raise DomainError(f"the new schedule of {e} differs from the old one before tick {now}")
            self.schedule[e] = schedule
            index = self._edge_index[e]
            occ, _ = _next_up(old, now)
            if occ is not None:
                self._buckets[occ[0]][1].remove((index, e, occ[1]))
            self._seat(e, schedule)
            if e in self._up_end:
                # Up at now means present at now - 1, under both schedules.
                self._move_end(e, index, next(schedule.occurrences(now - 1))[1])

    def _move_end(self, e: Edge, index: int, end: Optional[Tick]) -> None:
        """Give ``e``'s occurrence in progress the new ``end``."""
        old_end = self._up_end[e]
        if end == old_end:
            return
        self._up_end[e] = end
        if old_end is not None:
            self._buckets[old_end][0].remove((index, e))
        if end is not None:
            self._bucket(end)[0].append((index, e))
        # Every attempt so far was made before now, so its delivery, if any,
        # lies within one latency of now.
        attempts = self._doomed[e]
        self._doomed[e] = []
        for t in range(self.now, self.now + self._latency[e]):
            b = self._buckets.get(t)
            if b is not None:
                attempts.extend((t, m) for _, m in b[2] if m.edge == e)
                b[2][:] = [d for d in b[2] if d[1].edge != e]
        for arrival, m in sorted(attempts, key=lambda a: a[1].id):
            if end is None or arrival <= end:
                self._bucket(arrival)[2].append((m.id, m))
            else:
                self._doomed[e].append((arrival, m))


def run(tvg: Tvg, protocol: Protocol, horizon: Tick, seed: int = 0) -> Trace:
    """The trace of ``protocol`` over ``tvg`` before ``horizon``."""
    return Simulation(tvg, protocol).advance(horizon)
