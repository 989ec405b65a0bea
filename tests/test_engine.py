import heapq
import itertools

import pytest

from oracles import output_timeline
from tvgsim.engine import (
    EDGE_DOWN,
    EDGE_UP,
    MESSAGE_DELIVERED,
    MESSAGE_LOST,
    OUTPUT_CHANGED,
    SEND_INVOKED,
    Protocol,
    run,
)
from tvgsim.errors import CapacityError, DomainError
from tvgsim.graphs import StaticGraph, edge_key, vertex_key
from tvgsim.metrics import convergence_steps
from tvgsim.protocols import FloodProtocol, MdstProtocol, UgProtocol
from tvgsim.scenarios import ALWAYS, generate_gk, generate_random_cot, named_graph
from tvgsim.tvg import PeriodicTail, PresenceSchedule, Tvg


def two_vertex(schedule, latency=1, phi=0):
    g = StaticGraph.of(["a", "b"], [("a", "b")])
    return Tvg(g, {("a", "b"): schedule}, {("a", "b"): latency}, phi)


class SendOnce(Protocol):
    """Sends a single payload from a fixed origin at initialization; the
    output is whether this process has received it."""

    name = "send_once"

    def __init__(self, origin, dest):
        self.origin = origin
        self.dest = dest

    def initial_state(self, vertex):
        return False

    def on_init(self, state, vertex):
        if vertex == self.origin:
            return state, [(self.dest, "x")]
        return state, []

    def on_receive(self, state, vertex, sender, payload):
        return True, []

    def output(self, state):
        return state

    def format_output(self, value):
        return "true" if value else "false"


def test_run_rejects_bad_horizon():
    with pytest.raises(DomainError):
        run(two_vertex(ALWAYS), SendOnce("a", "b"), 0)


def test_immediate_delivery():
    trace = run(two_vertex(ALWAYS, latency=3), SendOnce("a", "b"), 10)
    assert trace.serialize().splitlines() == [
        "0 EdgeUp a b",
        "0 SendInvoked 1 a b",
        "3 MessageDelivered 1",
        "3 OutputChanged b true",
        "FINAL",
        "a false",
        "b true",
    ]
    assert trace.final_outputs == {"a": False, "b": True}


def test_retry_until_sufficient_occurrence():
    # occurrence [2,4) is too short for latency 3; [6,10) works
    sched = PresenceSchedule.of([(2, 4), (6, 10)])
    trace = run(two_vertex(sched, latency=3), SendOnce("a", "b"), 20)
    kinds = [(ev.time, ev.kind) for ev in trace.events]
    assert (0, SEND_INVOKED) in kinds
    assert (4, MESSAGE_LOST) in kinds
    assert (9, MESSAGE_DELIVERED) in kinds
    assert trace.final_outputs["b"] is True


def test_message_lost_when_no_occurrence_suffices():
    sched = PresenceSchedule.of([(2, 4), (8, 9)])
    trace = run(two_vertex(sched, latency=3), SendOnce("a", "b"), 30)
    assert trace.final_outputs["b"] is False
    assert sum(1 for ev in trace.events if ev.kind == MESSAGE_LOST) == 2
    assert not any(ev.kind == MESSAGE_DELIVERED for ev in trace.events)


@pytest.mark.parametrize("back_up, delivered", [(3, 6), (5, 8)])
def test_a_lost_attempt_leaves_a_stale_booking(back_up, delivered):
    # Sent at 0 with latency 3, the message is booked for 3 and lost when
    # the edge goes down at 2.  The booking at 3 is stale whether the edge
    # is back up then, with the retry due at 6, or still down until 5.
    sched = PresenceSchedule.of([(0, 2), (back_up, 10)])
    trace = run(two_vertex(sched, latency=3), SendOnce("a", "b"), 20)
    assert trace.serialize().splitlines() == [
        "0 EdgeUp a b",
        "0 SendInvoked 1 a b",
        "2 EdgeDown a b",
        "2 MessageLost 1",
        f"{back_up} EdgeUp a b",
        f"{delivered} MessageDelivered 1",
        f"{delivered} OutputChanged b true",
        "10 EdgeDown a b",
        "FINAL",
        "a false",
        "b true",
    ]


class SendOnEachAppearance(Protocol):
    """``a`` sends to ``b`` at initialization and again at each appearance
    of the edge; the output is how many messages ``b`` got."""

    name = "send_on_each_appearance"

    def initial_state(self, vertex):
        return 0

    def on_init(self, state, vertex):
        return state, [("b", "init")] if vertex == "a" else []

    def on_edge_appear(self, state, vertex, other):
        return state, [("b", "appear")] if vertex == "a" else []

    def on_receive(self, state, vertex, sender, payload):
        return state + 1, []

    def output(self, state):
        return state

    def format_output(self, value):
        return str(value)


def test_losses_at_one_disappearance_follow_message_ids():
    # Latency 3.  Messages 1 and 2 leave at 0, due at 3, and are lost at 2.
    # At 4 both are retried and message 3 leaves; all three are lost at 6.
    # At 9 they are retried with message 4 and all four arrive at 12, on the
    # occurrence's closing boundary.
    sched = PresenceSchedule.of([(0, 2), (4, 6)], PeriodicTail(9, 5, 3))
    trace = run(two_vertex(sched, latency=3), SendOnEachAppearance(), 13)
    lost = [(ev.time, ev.subject) for ev in trace.events if ev.kind == MESSAGE_LOST]
    assert lost == [(2, ("1",)), (2, ("2",)), (6, ("1",)), (6, ("2",)), (6, ("3",))]
    delivered = [(ev.time, ev.subject) for ev in trace.events if ev.kind == MESSAGE_DELIVERED]
    assert delivered == [(12, ("1",)), (12, ("2",)), (12, ("3",)), (12, ("4",))]


def test_delivery_on_closing_boundary():
    # transit [1,4) fits exactly into the occurrence; delivery at its end
    sched = PresenceSchedule.of([(1, 4)])
    trace = run(two_vertex(sched, latency=3), SendOnce("a", "b"), 10)
    times = {ev.kind: ev.time for ev in trace.events}
    assert times[MESSAGE_DELIVERED] == 4
    # the edge goes down at the same tick, before the delivery
    down = next(ev for ev in trace.events if ev.kind == EDGE_DOWN)
    assert trace.events.index(down) < trace.events.index(
        next(ev for ev in trace.events if ev.kind == MESSAGE_DELIVERED)
    )


def test_process_latency_shifts_callbacks():
    trace = run(two_vertex(ALWAYS, latency=1, phi=2), SendOnce("a", "b"), 10)
    changed = next(ev for ev in trace.events if ev.kind == OUTPUT_CHANGED)
    # delivered at 1, callback (and output change) at 1 + phi
    assert changed.time == 3


# Phase of each event kind at one tick, in the order the engine docstring
# states; a loss is recorded as its edge goes down.
PHASE = {EDGE_DOWN: 0, MESSAGE_LOST: 0, EDGE_UP: 1, MESSAGE_DELIVERED: 2, SEND_INVOKED: 3, OUTPUT_CHANGED: 3}


def same_tick_sequences(trace):
    """Per tick, the sequences the stated order sorts: the phases; the
    disappearing and the appearing edges by edge key; the delivered message
    ids; the vertices of the callbacks (an output's vertex, a send's sender)
    by vertex key."""
    by_tick = {}
    for ev in trace.events:
        by_tick.setdefault(ev.time, []).append(ev)
    for evs in by_tick.values():
        yield {
            "phase": [PHASE[ev.kind] for ev in evs],
            "down": [edge_key(ev.subject) for ev in evs if ev.kind == EDGE_DOWN],
            "up": [edge_key(ev.subject) for ev in evs if ev.kind == EDGE_UP],
            "delivery": [int(ev.subject[0]) for ev in evs if ev.kind == MESSAGE_DELIVERED],
            "callback": [
                vertex_key(ev.subject[0] if ev.kind == OUTPUT_CHANGED else ev.subject[1])
                for ev in evs
                if ev.kind in (OUTPUT_CHANGED, SEND_INVOKED)
            ],
        }


def test_same_tick_ordering():
    gk = generate_gk(2)
    rnd = generate_random_cot(7, 0.4, 0.3, 40, 3)
    exercised = set()
    for (tvg, protocol), phi in itertools.product(
        ((gk, UgProtocol()), (rnd, UgProtocol()), (rnd, FloodProtocol("p1"))), (0, 2)
    ):
        tvg = Tvg(tvg.graph, tvg.schedule, tvg.latency, phi)
        for sequences in same_tick_sequences(run(tvg, protocol, 120)):
            for name, seq in sequences.items():
                assert seq == sorted(seq), name
                if len(set(seq)) > 1:
                    exercised.add(name)
    assert exercised == {"phase", "down", "up", "delivery", "callback"}


def test_trace_serialization_and_replay():
    g1 = generate_gk(1)
    trace = run(g1, UgProtocol(), 30)
    text = trace.serialize()
    assert text.endswith("\n")
    body, final = text.split("FINAL\n")
    assert len(final.strip().splitlines()) == 4
    # the replay starts at tick 0, short of the final outputs, and ends on them
    timeline = output_timeline(trace)
    assert timeline[0][0] == 0
    assert timeline[0][1] != trace.final_outputs
    assert timeline[-1][1] == trace.final_outputs


class CountingUg(UgProtocol):
    def __init__(self):
        super().__init__()
        self.formatted = 0

    def format_output(self, value):
        self.formatted += 1
        return super().format_output(value)


def test_outputs_are_formatted_only_at_serialization():
    tvg = generate_gk(2)
    protocol = CountingUg()
    trace = run(tvg, protocol, 50)
    convergence_steps(trace, UgProtocol.nps(tvg.graph, None))
    assert protocol.formatted == 0
    changes = sum(1 for ev in trace.events if ev.kind == OUTPUT_CHANGED)
    assert changes > 0
    assert all(len(ev.subject) == 1 for ev in trace.events if ev.kind == OUTPUT_CHANGED)
    trace.serialize()
    assert protocol.formatted == changes + len(tvg.graph.vertices)


def test_determinism_repeated_runs():
    g2 = generate_gk(2)
    a = run(g2, UgProtocol(), 50).serialize()
    b = run(g2, UgProtocol(), 50).serialize()
    assert a == b


def test_send_over_unknown_edge_rejected():
    class Rogue(SendOnce):
        def on_init(self, state, vertex):
            if vertex == "a":
                return state, [("c", "x")]
            return state, []

    g = StaticGraph.of(["a", "b", "c"], [("a", "b"), ("b", "c")])
    tvg = Tvg(
        g,
        {("a", "b"): ALWAYS, ("b", "c"): ALWAYS},
        {("a", "b"): 1, ("b", "c"): 1},
    )
    with pytest.raises(DomainError):
        run(tvg, Rogue("a", "c"), 10)


def heap_high_water(monkeypatch, tvg, protocol, horizon):
    """Largest size the event heap reaches during ``run``; only a push can
    raise it, so spying on ``heapq.heappush`` suffices."""
    mark = 0
    real_push = heapq.heappush

    def push(heap, item):
        nonlocal mark
        real_push(heap, item)
        mark = max(mark, len(heap))

    with monkeypatch.context() as m:
        m.setattr(heapq, "heappush", push)
        run(tvg, protocol, horizon)
    return mark


def test_heap_does_not_grow_with_horizon(monkeypatch):
    tvg = two_vertex(PresenceSchedule.of([], PeriodicTail(0, 4, 1)))
    marks = [heap_high_water(monkeypatch, tvg, FloodProtocol("a"), h) for h in (10**3, 10**5)]
    assert marks[0] == marks[1]
    assert marks[1] <= 4


def pending_ticks_high_water(monkeypatch, tvg, protocol, horizon):
    """Most ticks with a pending bucket at once during ``run``.  Each such
    tick is on the heap exactly once, which the spy checks at every push."""
    mark = 0
    real_push = heapq.heappush

    def push(heap, tick):
        nonlocal mark
        assert tick not in heap
        real_push(heap, tick)
        mark = max(mark, len(heap))

    with monkeypatch.context() as m:
        m.setattr(heapq, "heappush", push)
        run(tvg, protocol, horizon)
    return mark


def test_pending_buckets_do_not_grow_with_horizon(monkeypatch):
    tvg = two_vertex(PresenceSchedule.of([], PeriodicTail(0, 4, 1)))
    marks = [pending_ticks_high_water(monkeypatch, tvg, FloodProtocol("a"), h) for h in (10**3, 10**5)]
    assert marks[0] == marks[1] <= 4


class CountingProxy:
    """Delegates to a protocol without subclassing Protocol, counting calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = {}
        self.initial_state = inner.initial_state
        self.output = inner.output
        self.format_output = inner.format_output
        for name in ("on_init", "on_edge_appear", "on_edge_disappear", "on_receive"):
            setattr(self, name, self._counted(name, getattr(inner, name)))

    def _counted(self, name, fn):
        def counted(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args)

        return counted


def test_noop_elision_keeps_trace_and_spares_proxies():
    tvg = generate_gk(2)
    proxy = CountingProxy(UgProtocol())
    proxied = run(tvg, proxy, 40)
    # UgProtocol inherits on_init and on_edge_disappear: the engine skips
    # them for the protocol itself, but a non-Protocol object gets them all.
    assert run(tvg, UgProtocol(), 40).serialize() == proxied.serialize()
    downs = sum(1 for ev in proxied.events if ev.kind == EDGE_DOWN)
    assert downs > 0
    assert proxy.calls["on_init"] == len(tvg.graph.vertices)
    assert proxy.calls["on_edge_disappear"] == 2 * downs


def test_run_checks_a_protocol_before_the_first_event():
    g = named_graph("path", 13)
    tvg = Tvg(g, {e: ALWAYS for e in g.edges}, {e: 1 for e in g.edges})
    started = []

    class WatchedMdst(MdstProtocol):
        def initial_state(self, vertex):
            started.append(vertex)
            return super().initial_state(vertex)

    # One component of 13 vertices is past the mdst subset-scan cap.
    with pytest.raises(CapacityError):
        run(tvg, WatchedMdst(), 50)
    assert started == []
    # Flood's check reads the origin it was built with.
    with pytest.raises(DomainError):
        run(tvg, FloodProtocol("nope"), 50)
    # A non-Protocol object is run unchecked, and only its handlers are read.
    proxy = CountingProxy(FloodProtocol("nope"))
    assert not any(run(tvg, proxy, 50).final_outputs.values())
