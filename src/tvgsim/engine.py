"""Deterministic discrete-event executor of a protocol over a Tvg.

Events at one tick are processed in this order, which is the engine's whole
tie-break and the order of the trace: edge disappearances, then edge
appearances (each in canonical edge order), then message deliveries in
message-id order, then protocol callbacks in vertex-id order (one vertex's
callbacks in the order they were scheduled).  The engine is
seed-independent; the ``seed`` argument is reserved for randomized scenario
generation elsewhere.

The edge schedule is read lazily: the heap holds only each edge's next
appearance, and firing an appearance pushes that occurrence's disappearance
(when it is finite and before the horizon) and the edge's next appearance.
The heap therefore holds O(edges + messages in flight + pending callbacks)
entries whatever the horizon or the periods.

A callback whose handler is ``Protocol``'s own no-op method (``on_init``,
``on_edge_appear``, ``on_edge_disappear``, inherited unchanged) is never
scheduled: it returns the state unchanged and sends nothing, so dropping it
changes no output and keeps the order of everything else.  Any other
handler, such as a delegating proxy's own function, gets every callback.

A ``Protocol`` subclass's ``check`` runs before the first event, on the
scenario and the protocol's ``origin``; any other object is run unchecked.

The trace is a list of ``TraceEvent`` records, one per event.  A record is a
``NamedTuple``: immutable and hashable like a frozen dataclass, and about
twice as cheap to build, which matters because a trace is recorded on every
run.  An ``OutputChanged`` record holds the vertex and the raw output value.
Only the ``Trace`` formats outputs, with the protocol's ``format_output``,
when it is serialized: metrics, replay and the adversary format nothing.
``output_timeline`` is the one replay of the ``OutputChanged`` records;
``replay_outputs``, the metrics and the adversary all read outputs over time
from it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
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

# Processing phases at an equal tick, in the order the module docstring states.
_PHASE_DOWN = 0
_PHASE_UP = 1
_PHASE_DELIVERY = 2
_PHASE_CALLBACK = 3

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
    horizon: Tick
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


def replay_outputs(trace: Trace, t: Tick) -> Dict[VertexId, Any]:
    """Output of every process once all events up to and including tick t
    have been processed."""
    if t > trace.horizon:
        raise DomainError(f"tick {t} is beyond the trace horizon {trace.horizon}")
    outputs = dict(trace.initial_outputs)
    for tick, current in output_timeline(trace):
        if tick > t:
            break
        outputs = current
    return outputs


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
    # Heap keys: positions in the canonical vertex and edge orders.
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

    seq = itertools.count()
    heap: List[Tuple] = []
    heappush, heappop = heapq.heappush, heapq.heappop

    # Callback items (handler, vertex, extra handler arguments), built once per
    # edge endpoint; None where the handler is an inherited no-op.
    def endpoint_items(handler: str, e: Edge):
        if _is_noop(protocol, handler):
            return None
        fn = getattr(protocol, handler)
        return ((fn, e[0], (e[1],)), (fn, e[1], (e[0],)))

    appear_items = {e: endpoint_items("on_edge_appear", e) for e in edges}
    disappear_items = {e: endpoint_items("on_edge_disappear", e) for e in edges}

    def push_callbacks(t: Tick, items):
        if items is not None and t < horizon:
            for item in items:
                heappush(heap, (t, _PHASE_CALLBACK, vertex_index[item[1]], next(seq), item))

    # Lazy schedule: only each edge's next appearance is on the heap; its
    # disappearance and the following appearance are pushed when it fires.
    occurrences = {e: tvg.schedule[e].occurrences() for e in edges}

    def push_next_up(e: Edge):
        occ = next(occurrences[e], None)
        if occ is not None and occ[0] < horizon:
            heappush(heap, (occ[0], _PHASE_UP, edge_index[e], next(seq), (e, occ[1])))

    for e in edges:
        push_next_up(e)
    if not _is_noop(protocol, "on_init"):
        for v in verts:
            heappush(heap, (0, _PHASE_CALLBACK, vertex_index[v], next(seq), (protocol.on_init, v, ())))

    up_end: Dict[Edge, Optional[Tick]] = {}  # current occurrence end while up
    pending: Dict[Edge, Dict[int, Message]] = {e: {} for e in edges}
    doomed: Dict[Edge, List[Message]] = {e: [] for e in edges}
    msg_ids = itertools.count(1)

    def attempt(m: Message, t: Tick):
        end = up_end[m.edge]
        arrival = t + latency[m.edge]
        if end is None or arrival <= end:
            if arrival < horizon:
                heappush(heap, (arrival, _PHASE_DELIVERY, m.id, next(seq), m))
        else:
            doomed[m.edge].append(m)

    while heap:
        tick, phase, _, _, item = heappop(heap)
        if phase == _PHASE_CALLBACK:
            handler, v, args = item
            state, sends = handler(states[v], v, *args)
            states[v] = state
            out = output(state)
            if out != current_output[v]:
                current_output[v] = out
                events.append(TraceEvent(tick, OUTPUT_CHANGED, (v,), out))
            for dest, payload in sends:
                e = edge_of.get((v, dest))
                if e is None:
                    raise DomainError(f"protocol sent over unknown edge {make_edge(v, dest)}")
                m = Message(next(msg_ids), v, dest, e, payload)
                events.append(TraceEvent(tick, SEND_INVOKED, (str(m.id), v, dest)))
                pending[e][m.id] = m
                if e in up_end:
                    attempt(m, tick)
        elif phase == _PHASE_UP:
            e, end = item
            events.append(TraceEvent(tick, EDGE_UP, e))
            up_end[e] = end
            for m in pending[e].values():
                attempt(m, tick)
            push_callbacks(tick + phi, appear_items[e])
            if end is not None and end < horizon:
                heappush(heap, (end, _PHASE_DOWN, edge_index[e], next(seq), e))
            push_next_up(e)
        elif phase == _PHASE_DOWN:
            e = item
            events.append(TraceEvent(tick, EDGE_DOWN, e))
            up_end.pop(e, None)
            lost = doomed[e]
            if lost:
                for m in lost:
                    events.append(TraceEvent(tick, MESSAGE_LOST, (str(m.id),)))
                doomed[e] = []
            push_callbacks(tick + phi, disappear_items[e])
        else:  # delivery
            m = item
            events.append(TraceEvent(tick, MESSAGE_DELIVERED, (str(m.id),)))
            del pending[m.edge][m.id]
            push_callbacks(tick + phi, ((on_receive, m.receiver, (m.sender, m.payload)),))

    return Trace(events, initial_outputs, current_output, horizon, protocol.format_output)
