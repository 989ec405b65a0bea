"""Differential check of the engine's calendar queue against the heap-based
engine it replaced, kept here as the oracle: the serialized traces must be
byte-for-byte equal."""

import heapq
import itertools
from typing import Dict, List, Optional, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ForwardingProxy
from oracles import occurrences
from tvgsim.engine import (
    EDGE_DOWN,
    EDGE_UP,
    MESSAGE_DELIVERED,
    MESSAGE_LOST,
    OUTPUT_CHANGED,
    SEND_INVOKED,
    Message,
    Protocol,
    Trace,
    TraceEvent,
    _is_noop,
    run,
)
from tvgsim.errors import DomainError
from tvgsim.graphs import Edge, StaticGraph, VertexId, make_edge
from tvgsim.protocols import FloodProtocol, MdstProtocol, UgProtocol
from tvgsim.scenarios import generate_random_cot
from tvgsim.tvg import PeriodicTail, PresenceSchedule, Tick, Tvg

# Heap keys of the oracle: the phases at an equal tick, in engine order.
_PHASE_DOWN = 0
_PHASE_UP = 1
_PHASE_DELIVERY = 2
_PHASE_CALLBACK = 3


def heap_run(tvg: Tvg, protocol, horizon: Tick) -> Trace:
    """The engine before the calendar queue: one heap entry
    ``(tick, phase, index, seq, item)`` per pending event."""
    if horizon <= 0:
        raise DomainError("horizon must be positive")
    if isinstance(protocol, Protocol):
        type(protocol).check(tvg, protocol.origin)
    verts = tvg.graph.sorted_vertices()
    edges = tvg.graph.sorted_edges()
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

    walks = {e: occurrences(tvg.schedule[e]) for e in edges}

    def push_next_up(e: Edge):
        occ = next(walks[e], None)
        if occ is not None and occ[0] < horizon:
            heappush(heap, (occ[0], _PHASE_UP, edge_index[e], next(seq), (e, occ[1])))

    for e in edges:
        push_next_up(e)
    if not _is_noop(protocol, "on_init"):
        for v in verts:
            heappush(heap, (0, _PHASE_CALLBACK, vertex_index[v], next(seq), (protocol.on_init, v, ())))

    up_end: Dict[Edge, Optional[Tick]] = {}
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
        else:
            m = item
            events.append(TraceEvent(tick, MESSAGE_DELIVERED, (str(m.id),)))
            del pending[m.edge][m.id]
            push_callbacks(tick + phi, ((on_receive, m.receiver, (m.sender, m.payload)),))

    return Trace(events, initial_outputs, current_output, protocol.format_output)


def make_protocol(name: str, tvg: Tvg, proxied: bool = False):
    protocol = {
        "ug": UgProtocol,
        "mdst": MdstProtocol,
        "flood": lambda: FloodProtocol(tvg.graph.sorted_vertices()[0]),
    }[name]()
    return ForwardingProxy(protocol) if proxied else protocol


def assert_same_trace(tvg: Tvg, make, horizon: Tick):
    """Both engines on fresh protocol objects, compared as serialized."""
    expected = heap_run(tvg, make(), horizon).serialize()
    assert run(tvg, make(), horizon).serialize() == expected


# mdst runs only on corpus scenarios of at most this many vertices: its
# subset scans make a run on a larger one cost a tenth of a second or more.
MDST_MAX_VERTICES = 6


def corpus_cases(seeds):
    """(scenario, protocol name) for the given seeds of the acceptance tests'
    200-scenario ug corpus, at process latency 0, 1 and 2; mdst at one of
    them per scenario, in turn."""
    for seed in seeds:
        tvg = generate_random_cot(2 + seed % 9, (seed % 5) / 10.0, 0.0, 32, seed)
        for name, phi in itertools.product(("ug", "flood", "mdst"), (0, 1, 2)):
            if name != "mdst" or phi == seed % 3 and len(tvg.graph.vertices) <= MDST_MAX_VERTICES:
                yield Tvg(tvg.graph, tvg.schedule, tvg.latency, phi), name


def test_calendar_matches_heap_oracle_on_random_corpus():
    for tvg, name in corpus_cases(range(200)):
        assert_same_trace(tvg, lambda: make_protocol(name, tvg), 120)


def test_calendar_matches_heap_oracle_with_a_proxy():
    # A proxy gets every callback, the inherited no-ops included, so a vertex
    # often has several callbacks at one tick.
    for tvg, name in corpus_cases(range(3, 200, 8)):
        assert_same_trace(tvg, lambda: make_protocol(name, tvg, proxied=True), 120)


@st.composite
def scenarios(draw):
    """Up to 4 vertices; every edge a few short intervals inside [0, 24) and
    maybe a periodic tail after them, with latency 1..3, so that downs, ups,
    deliveries and callbacks share ticks."""
    n = draw(st.integers(2, 4))
    pairs = list(itertools.combinations(range(n), 2))
    edges = []
    for u, v in draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)):
        starts = draw(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 4)), min_size=1, max_size=4))
        intervals = tuple((s, s + d) for s, d in starts)
        tail = None
        if draw(st.booleans()):
            period = draw(st.integers(1, 5))
            tail = (max(e for _, e in intervals) + draw(st.integers(1, 3)), period, draw(st.integers(1, period)))
        edges.append((u, v, intervals, tail, draw(st.integers(1, 3))))
    protocol = draw(st.sampled_from(("ug", "flood", "mdst")))
    return n, tuple(edges), draw(st.integers(0, 2)), draw(st.integers(5, 40)), protocol, draw(st.booleans())


def build(spec) -> Tvg:
    n, edges, phi, _, _, _ = spec
    verts = [f"v{i}" for i in range(n)]
    schedule, latency = {}, {}
    for u, v, intervals, tail, z in edges:
        e = make_edge(verts[u], verts[v])
        schedule[e] = PresenceSchedule.of(intervals, tail and PeriodicTail(*tail))
        latency[e] = z
    return Tvg(StaticGraph.of(verts, schedule), schedule, latency, phi)


# Flood from v0: the token sent at the appearance at 1 arrives at 4, exactly
# as the occurrence [1, 4) ends; the edge goes down first, then it arrives.
CLOSING_BOUNDARY = (2, ((0, 1, ((1, 4),), None, 3),), 0, 10, "flood", False)


def test_closing_boundary_example_delivers_at_the_end():
    tvg = build(CLOSING_BOUNDARY)
    lines = run(tvg, make_protocol("flood", tvg), 10).serialize().splitlines()
    assert lines.index("4 EdgeDown v0 v1") < lines.index("4 MessageDelivered 1")


@settings(max_examples=300, deadline=None)
@example(CLOSING_BOUNDARY)
@example(CLOSING_BOUNDARY[:4] + ("flood", True))
@given(scenarios())
def test_calendar_matches_heap_oracle_on_same_tick_schedules(spec):
    tvg = build(spec)
    _, _, _, horizon, name, proxied = spec
    assert_same_trace(tvg, lambda: make_protocol(name, tvg, proxied), horizon)
