"""Deterministic discrete-event executor of a protocol over a Tvg.

Events at one tick are processed in this order, which is the engine's whole
tie-break and the order of the trace: edge disappearances, then edge
appearances (each in canonical edge order), then message deliveries in
message-id order, then protocol callbacks in vertex-id order (one vertex's
callbacks in the order they were scheduled).  The engine draws no random
numbers: equal inputs give equal traces.

A ``Simulation`` is a run that stops and resumes.  ``advance(until)``
processes every event with tick < ``until``, and ``run(tvg, p, h)`` is
``Simulation(tvg, p).advance(h)``, so advancing in steps gives the trace of
one run.  ``fork()`` copies a simulation's state at its current tick, not its
records: the twin records into a new ``Trace`` that starts there.
``amend(edge, schedule)`` changes an edge's schedule from the current tick
on, as if the run had been on the amended scenario from tick 0: the new
schedule must agree with the old one before that tick.  The adaptive
adversary forks and amends one simulation instead of restarting runs.

A send is retried until it succeeds.  Each attempt books the message's
delivery at its arrival, one latency later, and the edge's ledger records
that arrival.  A message's fate is decided once, when its edge goes down:
every message still in flight with a later arrival is lost there, in
message-id order, and waits for the edge's next appearance.  A delivery
whose message no longer has that tick as its recorded arrival, or has no
ledger entry, is a stale booking of a lost attempt, and does nothing.  So
``amend`` moves edge events only, never a message.

A ``Simulation`` keeps a lost message even when its edge has no next
occurrence, because ``amend`` may give the edge a future.  ``run`` returns
only its sink, so nothing can amend the run it makes, and that run forgets
what it can never deliver: a loss at an edge's last disappearance drops the
ledger entry, and a later send over the edge is recorded but not stored.
No record changes, since a parked message has no record after its loss.

Pending work sits in a calendar: one bucket per tick, holding that tick's
disappearances, appearances, deliveries and callbacks, and a heap holding
each tick that has a bucket once.  A popped tick's bucket is run in the
order above, each list sorted by its key (a stable sort for callbacks).
An edge's future is read only from its schedule, by ``next_occurrence``:
the calendar holds at most one pending event per edge, the disappearance of
an edge that is up with a finite end, else its next appearance, which firing
a disappearance seats.  So it holds O(edges + bookings + pending callbacks)
entries whatever the horizon or the periods; a booking lies at most one
latency ahead.  Work due at or after ``until`` waits for the next ``advance``.

A callback whose handler is ``Protocol``'s own no-op method (``on_init``,
``on_edge_appear``, ``on_edge_disappear``, inherited unchanged) is never
scheduled: it returns the state unchanged and sends nothing, so dropping it
changes no output and keeps the order of everything else.  Any other
handler, such as a delegating proxy's own function, gets every callback.

A ``Protocol`` subclass's ``check`` runs before the first event, on the
scenario and the protocol's ``origin``; any other object is run unchecked.

A run records one ``TraceEvent`` per event, appended to its sink's
``events`` list.  A record is a ``NamedTuple``, immutable and hashable,
built by ``tuple.__new__`` without the class's Python-level ``__new__``: a
trace is recorded on every run.  An ``OutputChanged`` record holds the
vertex and the raw output value.  ``advance`` drains every sink the same
way: at the end of a tick once ``CHUNK`` records have built up, and at its
own end.  The sink is a ``Trace`` by default, whose drain keeps every
record; a ``TraceWriter``'s drain instead streams the records to a file, so
it keeps O(one chunk) of them.
Outputs are formatted, with the protocol's ``format_output``, only into
trace lines, by ``_event_lines`` (``Trace.serialize()`` and the writer share
it) and into the final lines: the metrics and the adversary format nothing.
The metrics' report is one fold over the records: a writer hands them to it
as it drains them.
"""

from __future__ import annotations

import copy
import heapq
import os
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

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


def _event_lines(events, format_output: Callable[[Any], str]) -> List[str]:
    """The serialized line of each record: the one trace line format."""
    return [
        f"{t} {kind} {subject[0]} {format_output(value)}" if kind == OUTPUT_CHANGED else " ".join((str(t), kind) + subject)
        for t, kind, subject, value in events
    ]


def _final_lines(final_outputs: Dict[VertexId, Any], format_output: Callable[[Any], str]) -> Tuple[str, ...]:
    return tuple(f"{v} {format_output(final_outputs[v])}" for v in sorted(final_outputs, key=vertex_key))


@dataclass
class Trace:
    """The in-memory sink, and ``Simulation``'s default: it keeps every record."""

    events: List[TraceEvent]
    initial_outputs: Dict[VertexId, Any]
    final_outputs: Dict[VertexId, Any]
    format_output: Callable[[Any], str]

    def drain(self) -> None:
        """Keeps every record."""

    def serialize(self) -> str:
        """One line per event, ``FINAL``, then the final lines."""
        lines = _event_lines(self.events, self.format_output)
        lines.append("FINAL")
        lines.extend(self.final_lines)
        lines.append("")  # the closing newline, without copying the text again
        return "\n".join(lines)

    @property
    def final_lines(self) -> Tuple[str, ...]:
        """``<vertex> <formatted final output>`` for every vertex, in id order."""
        return _final_lines(self.final_outputs, self.format_output)


# The records a sink lets build up before ``advance`` drains it.
CHUNK = 1024


class TraceWriter:
    """The streaming sink: the text of ``Trace.serialize()``, written to the
    file at ``path`` as the run goes, in O(one chunk) records.

    ``Simulation`` appends records to ``events``; ``drain`` hands them to
    ``fold`` (an object with ``start(initial_outputs)`` and ``update(records)``,
    or None), writes their lines and empties the list.  ``high_water`` is the
    most records it has held at once.  The writer keeps the outputs at
    ``now``, for the ``FINAL`` section, and no other record.

    The file is created when the simulation starts, after the protocol's
    check.  Used as a context manager, the writer formats ``final_lines``
    once when the block ends normally, ends the file with them as the
    ``FINAL`` section and closes it; when the block raises, it closes and
    deletes the file, so the file holds a whole trace or does not exist.
    Without a ``path`` it writes nothing.
    """

    def __init__(self, path: Optional[str] = None, fold=None):
        self.path, self.fold = path, fold
        self.events: List[TraceEvent] = []
        self.high_water = 0
        self._file = None

    def start(self, initial_outputs: Dict[VertexId, Any], format_output: Callable[[Any], str]) -> None:
        self.final_outputs = dict(initial_outputs)
        self.format_output = format_output
        if self.fold is not None:
            self.fold.start(initial_outputs)
        if self.path is not None:
            self._file = open(self.path, "w", encoding="utf-8")

    def drain(self) -> None:
        events = self.events
        self.high_water = max(self.high_water, len(events))
        if self.fold is not None:
            self.fold.update(events)
        if self._file is not None and events:
            lines = _event_lines(events, self.format_output)
            lines.append("")
            self._file.write("\n".join(lines))
        events.clear()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.final_lines = _final_lines(self.final_outputs, self.format_output)
        file = self._file
        if file is None:
            return
        complete = False
        try:
            with file:
                if exc_type is None:
                    file.write("FINAL\n")
                    file.writelines(line + "\n" for line in self.final_lines)
            complete = exc_type is None
        finally:
            self._file = None
            if not complete:
                os.remove(self.path)


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


class Simulation:
    """A run of ``protocol`` over ``tvg`` that stops and resumes: ``advance``
    processes the events before a tick, ``fork`` copies the simulation's
    state at its current tick, and ``amend`` changes edge schedules from that
    tick on.  ``now`` is the tick before which every event has been
    processed, and ``trace`` the sink the records go to: ``sink``, a
    ``TraceWriter``, or by default a new ``Trace``, which holds the records
    since tick 0, or since the fork for a twin.  Its ``final_outputs`` are
    the outputs at ``now``."""

    # The edges past their last occurrence, whose messages a run forgets:
    # set by ``run`` only.  None parks them, since ``amend`` may revive an edge.
    _dead: Optional[set] = None

    def __init__(self, tvg: Tvg, protocol: Protocol, sink: Optional[TraceWriter] = None):
        if sink is not None and not isinstance(sink, TraceWriter):
            raise TypeError(f"sink must be a TraceWriter or None, not {type(sink).__name__}")
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
        if sink is None:
            sink = Trace([], initial_outputs, dict(initial_outputs), protocol.format_output)
        else:
            sink.start(initial_outputs, protocol.format_output)
        self.trace = sink
        # The calendar: a bucket of (downs, ups, deliveries, callbacks) per
        # tick with pending work, and that tick once on the heap.
        self._heap: List[Tick] = []
        self._buckets: Dict[Tick, Tuple[list, list, list, list]] = {}
        self._up: Dict[Edge, Tick] = {}  # edge that is up -> its occurrence's start
        # The ledger: each edge's undelivered messages in id order, as
        # (message, arrival of its attempt in flight, None while it waits);
        # with ``_dead`` set, none that waits on an edge in it.
        self._pending: Dict[Edge, Dict[int, Tuple[Message, Optional[Tick]]]] = {e: {} for e in edges}
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
        """Seat ``schedule``'s first occurrence starting at or after now, if
        any, as ``e``'s next appearance: its one pending event while down."""
        occ = schedule.next_occurrence(self.now)
        if occ is not None:
            self._bucket(occ[0])[1].append((self._edge_index[e], e, occ[1]))

    @property
    def next_tick(self) -> Optional[Tick]:
        """The earliest tick with pending work, or None when there is none."""
        return self._heap[0] if self._heap else None

    def advance(self, until: Tick) -> Trace | TraceWriter:
        """Process every event with tick < ``until``; returns ``trace``."""
        if until <= 0:
            raise DomainError("horizon must be positive")
        if until < self.now:
            raise DomainError(f"cannot advance to tick {until}: the simulation is at tick {self.now}")
        heap, buckets, bucket, heappop = self._heap, self._buckets, self._bucket, heapq.heappop
        latency, phi, edge_of = self._latency, self._phi, self._edge_of
        vertex_index = self._vertex_index
        appear_items, disappear_items = self._appear_items, self._disappear_items
        states, up, pending, dead = self._states, self._up, self._pending, self._dead
        output, on_receive = self._protocol.output, self._protocol.on_receive
        sink, schedule = self.trace, self.schedule
        current_output, events, drain = sink.final_outputs, sink.events, sink.drain
        record, new, chunk = events.append, tuple.__new__, CHUNK
        msg_id = self._last_id

        def attempt(m: Message, t: Tick):
            arrival = t + latency[m.edge]
            pending[m.edge][m.id] = (m, arrival)
            (buckets.get(arrival) or bucket(arrival))[2].append((m.id, m))

        # A tick's phases run in the stated order.  Work added while a tick
        # runs lies in a later tick, except callbacks at process latency 0,
        # which land in this tick's callback list before that phase reads it;
        # so the bucket stays in the calendar until the tick is done.
        while heap and heap[0] < until:
            tick = heappop(heap)
            downs, ups, deliveries, callbacks = buckets[tick]
            at = tick + phi  # when the callbacks this tick's events cause run
            for index, e in sorted(downs):
                record(new(TraceEvent, (tick, EDGE_DOWN, e, None)))
                del up[e]
                occ = schedule[e].next_occurrence(tick)
                if occ is not None:
                    (buckets.get(occ[0]) or bucket(occ[0]))[1].append((index, e, occ[1]))
                # Every message of the edge is in flight; one due after now is lost.
                waiting = pending[e]
                for i, (m, arrival) in waiting.items():
                    if arrival > tick:
                        record(new(TraceEvent, (tick, MESSAGE_LOST, (str(i),), None)))
                        waiting[i] = (m, None)
                if occ is None and dead is not None:  # gone for good: forget its losses
                    dead.add(e)
                    pending[e] = {i: entry for i, entry in waiting.items() if entry[1] is not None}
                if disappear_items[e] is not None:
                    (buckets.get(at) or bucket(at))[3].extend(disappear_items[e])
            for index, e, end in sorted(ups):
                record(new(TraceEvent, (tick, EDGE_UP, e, None)))
                up[e] = tick
                for m, _ in pending[e].values():  # every one is waiting
                    attempt(m, tick)
                if appear_items[e] is not None:
                    (buckets.get(at) or bucket(at))[3].extend(appear_items[e])
                if end is not None:
                    (buckets.get(end) or bucket(end))[0].append((index, e))
            for i, m in sorted(deliveries):
                entry = pending[m.edge].get(i)
                if entry is None or entry[1] != tick:
                    continue  # a stale booking: this attempt was lost (and maybe forgotten)
                record(new(TraceEvent, (tick, MESSAGE_DELIVERED, (str(i),), None)))
                del pending[m.edge][i]
                item = (vertex_index[m.receiver], on_receive, m.receiver, (m.sender, m.payload))
                (buckets.get(at) or bucket(at))[3].append(item)
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
                    if e in up:
                        attempt(m, tick)
                    elif dead is None or e not in dead:
                        pending[e][msg_id] = (m, None)
            del buckets[tick]
            if len(events) >= chunk:
                drain()

        drain()
        self._last_id = msg_id
        self.now = until
        return sink

    def fork(self) -> "Simulation":
        """An independent copy of the state at ``now``, whatever the sink:
        every container is copied, no schedule is read, and the states,
        messages, ledger entries and calendar items are immutable and shared.
        The twin's ``trace`` is a new ``Trace`` that starts at ``now``, with
        no records and the outputs at ``now`` as its ``initial_outputs``."""
        twin = copy.copy(self)
        twin.schedule = dict(self.schedule)
        twin._states = dict(self._states)
        outputs = self.trace.final_outputs
        twin.trace = Trace([], dict(outputs), dict(outputs), self._protocol.format_output)
        twin._heap = list(self._heap)
        twin._buckets = {t: tuple(list(phase) for phase in b) for t, b in self._buckets.items()}
        twin._up = dict(self._up)
        twin._pending = {e: dict(p) for e, p in self._pending.items()}
        return twin

    def amend(self, edge, schedule: PresenceSchedule) -> None:
        """Give ``edge`` ``schedule`` from ``now`` on.  It must agree with the
        edge's schedule before ``now``.  An edge that is up keeps its
        occurrence's start, and its disappearance moves to the new end; the
        messages in flight are decided when it comes, as in any run.  An
        edge that is down gets the new schedule's next appearance."""
        now = self.now
        e = make_edge(*edge)
        if e not in self.schedule:
            raise DomainError(f"unknown edge {e}")
        old = self.schedule[e]
        if old.minus(now, None) != schedule.minus(now, None):
            raise DomainError(f"the new schedule of {e} differs from the old one before tick {now}")
        self.schedule[e] = schedule
        index, start = self._edge_index[e], self._up.get(e)
        if start is None:  # down: its pending appearance is swapped
            occ = old.next_occurrence(now)
            if occ is not None:
                self._buckets[occ[0]][1].remove((index, e, occ[1]))
            self._seat(e, schedule)
        else:  # up: its occurrence starts at ``start`` under both schedules
            old_end, end = old.next_occurrence(start)[1], schedule.next_occurrence(start)[1]
            if old_end is not None:
                self._buckets[old_end][0].remove((index, e))
            if end is not None:
                self._bucket(end)[0].append((index, e))


def run(tvg: Tvg, protocol: Protocol, horizon: Tick, sink: Optional[TraceWriter] = None) -> Trace | TraceWriter:
    """The trace of ``protocol`` over ``tvg`` before ``horizon``: a new
    ``Trace``, or ``sink`` once the run has been written to it.

    Nothing can amend the ``Simulation`` a run builds, since only the sink
    is returned; so the run forgets every message over an edge past its
    last occurrence, which it could never deliver."""
    sim = Simulation(tvg, protocol, sink)
    sim._dead = set()  # a Tvg has no empty schedule: every edge has an occurrence
    return sim.advance(horizon)
