"""The resumable engine: ``Simulation.advance`` resumes where it stopped,
``fork`` copies a simulation, and ``amend`` changes schedules from the
current tick on.  Each is checked against a run restarted from tick 0, and
the adversary built on them against the restart-based adversary it
replaced."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import adversary_by_restarts
from tvgsim.engine import EDGE_DOWN, MESSAGE_DELIVERED, MESSAGE_LOST, Protocol, Simulation, run
from tvgsim.errors import DomainError
from tvgsim.graphs import StaticGraph
from tvgsim.protocols import FloodProtocol, MdstProtocol, UgProtocol
from tvgsim.scenarios import ALWAYS, adversary_destabilize, generate_random_cot, named_graph
from tvgsim.tvg import PeriodicTail, PresenceSchedule, Tvg, restrict


def make_protocol(name, tvg):
    if name == "flood":
        return FloodProtocol(tvg.graph.sorted_vertices()[0])
    return {"ug": UgProtocol, "mdst": MdstProtocol}[name]()


def scenario(seed, phi):
    """A scenario of the acceptance tests' random corpus, at process latency ``phi``."""
    tvg = generate_random_cot(2 + seed % 5, (seed % 5) / 10.0, 0.3, 32, seed)
    return Tvg(tvg.graph, tvg.schedule, tvg.latency, phi)


protocols_st = st.sampled_from(["ug", "mdst", "flood"])
corpus_st = st.tuples(st.integers(0, 199), st.integers(0, 2), protocols_st)


@settings(max_examples=60, deadline=None)
@given(corpus_st, st.integers(1, 80), st.integers(1, 80))
def test_advance_in_steps_equals_one_run(case, k, extra):
    seed, phi, name = case
    tvg = scenario(seed, phi)
    sim = Simulation(tvg, make_protocol(name, tvg))
    sim.advance(k)
    assert sim.now == k
    trace = sim.advance(k + extra)
    assert trace.serialize() == run(tvg, make_protocol(name, tvg), k + extra).serialize()


def test_advance_in_every_step_size_on_the_corpus():
    for seed in range(0, 200, 7):
        tvg = scenario(seed, seed % 3)
        for name in ("ug", "mdst", "flood"):
            expected = run(tvg, make_protocol(name, tvg), 100).serialize()
            for step in (1, 3, 17):
                sim = Simulation(tvg, make_protocol(name, tvg))
                for until in range(step, 100, step):
                    sim.advance(until)
                assert sim.advance(100).serialize() == expected


@settings(max_examples=40, deadline=None)
@given(corpus_st, st.integers(1, 60), st.integers(1, 60))
def test_fork_leaves_its_parent_unchanged(case, k, extra):
    seed, phi, name = case
    tvg = scenario(seed, phi)
    parent = Simulation(tvg, make_protocol(name, tvg))
    parent.advance(k)
    before = parent.trace.serialize()
    child = parent.fork()
    child.advance(k + extra)
    assert parent.now == k
    assert parent.trace.serialize() == before
    expected = run(tvg, make_protocol(name, tvg), k + extra).serialize()
    assert child.trace.serialize() == expected
    assert parent.advance(k + extra).serialize() == expected


@settings(max_examples=80, deadline=None)
@given(
    corpus_st,
    st.integers(1, 40),
    # Gaps near 0 cut occurrences in progress, with messages in flight.
    st.lists(st.tuples(st.integers(0, 30), st.sampled_from([0, 0, 1, 2, 5]),
                       st.one_of(st.none(), st.integers(1, 12))),
             min_size=1, max_size=6),
)
def test_amend_equals_a_restart_on_the_restricted_scenario(case, now, masks):
    """Masks start at or after ``now``; the restricted scenario agrees with
    the original before it.  Amending either way, shorter or longer, must
    give the run restarted on the target scenario."""
    seed, phi, name = case
    tvg = scenario(seed, phi)
    edges = tvg.graph.sorted_edges()
    restricted = restrict(tvg, [
        ([edges[i % len(edges)]], (now + gap, None if length is None else now + gap + length))
        for i, gap, length in masks
    ])
    if restricted.graph.edges != tvg.graph.edges:
        return  # an edge lost every occurrence: the restart drops it
    horizon = now + 60
    for source, target in ((tvg, restricted), (restricted, tvg)):
        sim = Simulation(source, make_protocol(name, source))
        sim.advance(now)
        for e in edges:
            sim.amend([e], target.schedule[e])
        expected = run(target, make_protocol(name, target), horizon).serialize()
        assert sim.advance(horizon).serialize() == expected


class SendAtInit(Protocol):
    """``a`` sends one message to ``b`` at initialization; the output is
    whether ``b`` got it."""

    name = "send_at_init"

    def initial_state(self, vertex):
        return False

    def on_init(self, state, vertex):
        return state, [("b", "x")] if vertex == "a" else []

    def on_receive(self, state, vertex, sender, payload):
        return True, []

    def output(self, state):
        return state

    def format_output(self, value):
        return str(value)


def two_vertex(schedule, latency):
    g = StaticGraph.of(["a", "b"], [("a", "b")])
    return Tvg(g, {("a", "b"): schedule}, {("a", "b"): latency})


def kinds(trace):
    return [(ev.time, ev.kind) for ev in trace.events if ev.kind in (EDGE_DOWN, MESSAGE_DELIVERED, MESSAGE_LOST)]


def test_amend_dooms_a_message_in_flight_across_the_new_end():
    # Sent at 0 over an edge up for good, due at 3.  Cut at 2: the message
    # is lost at 2, retried when the edge returns at 10, delivered at 13.
    tvg = two_vertex(ALWAYS, 3)
    cut = restrict(tvg, [([("a", "b")], (2, 10))])
    sim = Simulation(tvg, SendAtInit())
    sim.advance(2)
    sim.amend([("a", "b")], cut.schedule[("a", "b")])
    trace = sim.advance(20)
    assert kinds(trace) == [(2, EDGE_DOWN), (2, MESSAGE_LOST), (13, MESSAGE_DELIVERED)]
    assert trace.serialize() == run(cut, SendAtInit(), 20).serialize()


def test_amend_saves_a_doomed_message_when_the_end_moves_out():
    # The reverse: doomed under the cut, delivered at 3 once the edge stays.
    tvg = two_vertex(ALWAYS, 3)
    cut = restrict(tvg, [([("a", "b")], (2, 10))])
    sim = Simulation(cut, SendAtInit())
    sim.advance(1)
    sim.amend([("a", "b")], ALWAYS)
    trace = sim.advance(20)
    assert kinds(trace) == [(3, MESSAGE_DELIVERED)]
    assert trace.serialize() == run(tvg, SendAtInit(), 20).serialize()


def test_amend_keeps_a_delivery_on_the_new_closing_boundary():
    tvg = two_vertex(ALWAYS, 3)
    cut = restrict(tvg, [([("a", "b")], (3, None))])
    sim = Simulation(tvg, SendAtInit())
    sim.advance(2)
    sim.amend([("a", "b")], cut.schedule[("a", "b")])
    trace = sim.advance(20)
    assert kinds(trace) == [(3, EDGE_DOWN), (3, MESSAGE_DELIVERED)]
    assert trace.serialize() == run(cut, SendAtInit(), 20).serialize()


class Relay(Protocol):
    """``a`` sends to ``b`` at initialization and again when ``c``'s message
    reaches it."""

    name = "relay"

    def initial_state(self, vertex):
        return False

    def on_init(self, state, vertex):
        return state, {"a": [("b", "x")], "c": [("a", "y")]}.get(vertex, [])

    def on_receive(self, state, vertex, sender, payload):
        return True, [("b", "z")] if vertex == "a" else []

    def output(self, state):
        return state

    def format_output(self, value):
        return str(value)


def test_amend_loses_doomed_and_in_flight_messages_in_id_order():
    # Over a-b (latency 4, up during [0, 5)) message 1 leaves at 0, due at 4,
    # and message 3 at 2, due at 6 and so already doomed.  Ending the
    # occurrence at 3 dooms message 1 too; both are lost at 3, 1 first.
    g = StaticGraph.of(["a", "b", "c"], [("a", "b"), ("a", "c")])
    tvg = Tvg(g, {("a", "b"): PresenceSchedule.of([(0, 5)]), ("a", "c"): ALWAYS}, {("a", "b"): 4, ("a", "c"): 2})
    cut = restrict(tvg, [([("a", "b")], (3, None))])
    sim = Simulation(tvg, Relay())
    sim.advance(3)
    sim.amend([("a", "b")], cut.schedule[("a", "b")])
    trace = sim.advance(10)
    assert [ev.subject for ev in trace.events if ev.kind == MESSAGE_LOST] == [("1",), ("3",)]
    assert trace.serialize() == run(cut, Relay(), 10).serialize()


def test_amend_and_advance_reject_what_a_restart_could_not_give():
    tvg = two_vertex(PresenceSchedule.of([], PeriodicTail(0, 4, 2)), 1)
    sim = Simulation(tvg, SendAtInit())
    sim.advance(5)
    with pytest.raises(DomainError) as exc:
        sim.amend([("a", "b")], ALWAYS)  # present at 2 and 3, unlike before
    assert "before tick 5" in str(exc.value)
    with pytest.raises(DomainError):
        sim.amend([("a", "c")], ALWAYS)
    with pytest.raises(DomainError):
        sim.advance(4)
    assert sim.advance(5).serialize() == run(tvg, SendAtInit(), 5).serialize()


# --- the adversary ----------------------------------------------------------

@pytest.mark.parametrize("name,size", [("cycle", 5), ("complete", 3)])
def test_adversary_matches_the_restart_oracle(name, size):
    g = named_graph(name, size)
    for rounds, (tvg, report) in enumerate(adversary_by_restarts(g, 40), start=1):
        assert adversary_destabilize(g, rounds) == (tvg, report)


def test_adversary_work_stays_near_its_final_run(monkeypatch):
    """Events the adversary's simulations process, against the events of one
    run of the scenario it returns up to the last restabilization.  Only the
    quiet tails past each stabilization are processed twice."""
    processed = 0
    advance = Simulation.advance

    def counted(self, until):
        nonlocal processed
        seen = len(self.trace.events)
        trace = advance(self, until)
        processed += len(trace.events) - seen
        return trace

    with monkeypatch.context() as m:
        m.setattr(Simulation, "advance", counted)
        tvg, report = adversary_destabilize(named_graph("cycle", 5), 120)
    final = run(tvg, MdstProtocol(), report.rounds[-1].restabilized_at + 1)
    assert len(final.events) <= processed <= 1.1 * len(final.events)
