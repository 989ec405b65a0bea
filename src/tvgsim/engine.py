"""Deterministic discrete-event executor of a protocol over a Tvg.

Events at one tick are processed in this order, which is the engine's whole
tie-break and the order of the trace: edge disappearances, then edge
appearances (each in canonical edge order), then message deliveries in
message-id order, then protocol callbacks in vertex-id order (one vertex's
callbacks in the order they were scheduled).  The engine is
seed-independent; the ``seed`` argument is reserved for randomized scenario
generation elsewhere.

Pending work sits in a calendar: one bucket per tick, holding that tick's
disappearances, appearances, deliveries and callbacks, and a heap holding
each tick that has a bucket once.  A popped tick's bucket is run in the
order above, each list sorted by its key (a stable sort for callbacks).
The edge schedule is read lazily: the calendar holds only each edge's next
appearance, and firing an appearance adds that occurrence's disappearance
(when it is finite and before the horizon) and the edge's next appearance.
So it holds O(edges + messages in flight + pending callbacks) entries
whatever the horizon or the periods.

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
metrics and the adversary read outputs over time from it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from .errors import DomainError
from .graphs import Edge, StaticGraph, VertexId, make_edge, vertex_key
from .tvg import Tick, Tvg

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


def run(tvg: Tvg, protocol: Protocol, horizon: Tick, seed: int = 0) -> Trace:
    if horizon <= 0:
        raise DomainError("horizon must be positive")
    if isinstance(protocol, Protocol):
        type(protocol).check(tvg, protocol.origin)
    verts = tvg.graph.sorted_vertices()
    edges = tvg.graph.sorted_edges()
    # Sort keys: positions in the canonical vertex and edge orders.
    vertex_index = {v: i for i, v in enumerate(verts)}
    edge_index = {e: i for i, e in enumerate(edges)}
    edge_of: Dict[Tuple[VertexId, VertexId], Edge] = {}
    for e in edges:
        edge_of[e] = edge_of[(e[1], e[0])] = e
    latency = tvg.latency
    phi = tvg.process_latency
    output = protocol.output
    on_receive = protocol.on_receive

    states = {v: protocol.initial_state(v) for v in verts}
    initial_outputs = {v: output(states[v]) for v in verts}
    current_output = dict(initial_outputs)
    events: List[TraceEvent] = []
    record, new = events.append, tuple.__new__

    # The calendar: a bucket of (downs, ups, deliveries, callbacks) per tick
    # with pending work, and that tick once on the heap.
    heap: List[Tick] = []
    buckets: Dict[Tick, Tuple[list, list, list, list]] = {}
    heappush, heappop = heapq.heappush, heapq.heappop

    def open_bucket(t: Tick):
        heappush(heap, t)
        b = buckets[t] = ([], [], [], [])
        return b

    # Callback items (vertex index, handler, vertex, extra handler arguments),
    # built once per edge endpoint; None where the handler is an inherited no-op.
    def endpoint_items(handler: str, e: Edge):
        if _is_noop(protocol, handler):
            return None
        fn = getattr(protocol, handler)
        return ((vertex_index[e[0]], fn, e[0], (e[1],)), (vertex_index[e[1]], fn, e[1], (e[0],)))

    appear_items = {e: endpoint_items("on_edge_appear", e) for e in edges}
    disappear_items = {e: endpoint_items("on_edge_disappear", e) for e in edges}

    occurrences = {e: tvg.schedule[e].occurrences() for e in edges}

    def push_next_up(e: Edge):
        occ = next(occurrences[e], None)
        if occ is not None and occ[0] < horizon:
            (buckets.get(occ[0]) or open_bucket(occ[0]))[1].append((edge_index[e], e, occ[1]))

    for e in edges:
        push_next_up(e)
    if not _is_noop(protocol, "on_init"):
        (buckets.get(0) or open_bucket(0))[3].extend((vertex_index[v], protocol.on_init, v, ()) for v in verts)

    up_end: Dict[Edge, Optional[Tick]] = {}  # current occurrence end while up
    pending: Dict[Edge, Dict[int, Message]] = {e: {} for e in edges}
    doomed: Dict[Edge, List[Message]] = {e: [] for e in edges}
    msg_ids = itertools.count(1)

    def attempt(m: Message, t: Tick):
        end = up_end[m.edge]
        arrival = t + latency[m.edge]
        if end is None or arrival <= end:
            if arrival < horizon:
                (buckets.get(arrival) or open_bucket(arrival))[2].append((m.id, m))
        else:
            doomed[m.edge].append(m)

    # A tick's phases run in the stated order.  Work added while a tick runs
    # lies in a later tick, except callbacks at process latency 0, which land
    # in this tick's callback list before that phase reads it; so the bucket
    # stays in the calendar until the tick is done.
    while heap:
        tick = heappop(heap)
        downs, ups, deliveries, callbacks = buckets[tick]
        at = tick + phi  # when the callbacks this tick's events cause run
        for _, e in sorted(downs):
            record(new(TraceEvent, (tick, EDGE_DOWN, e, None)))
            del up_end[e]
            lost = doomed[e]
            if lost:
                for m in lost:
                    record(new(TraceEvent, (tick, MESSAGE_LOST, (str(m.id),), None)))
                doomed[e] = []
            if at < horizon and disappear_items[e] is not None:
                (buckets.get(at) or open_bucket(at))[3].extend(disappear_items[e])
        for _, e, end in sorted(ups):
            record(new(TraceEvent, (tick, EDGE_UP, e, None)))
            up_end[e] = end
            for m in pending[e].values():
                attempt(m, tick)
            if at < horizon and appear_items[e] is not None:
                (buckets.get(at) or open_bucket(at))[3].extend(appear_items[e])
            if end is not None and end < horizon:
                (buckets.get(end) or open_bucket(end))[0].append((edge_index[e], e))
            push_next_up(e)
        for _, m in sorted(deliveries):
            record(new(TraceEvent, (tick, MESSAGE_DELIVERED, (str(m.id),), None)))
            del pending[m.edge][m.id]
            if at < horizon:
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
                m = Message(next(msg_ids), v, dest, e, payload)
                record(new(TraceEvent, (tick, SEND_INVOKED, (str(m.id), v, dest), None)))
                pending[e][m.id] = m
                if e in up_end:
                    attempt(m, tick)
        del buckets[tick]

    return Trace(events, initial_outputs, current_output, protocol.format_output)
