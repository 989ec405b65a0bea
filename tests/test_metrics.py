from fractions import Fraction

import pytest

from oracles import (
    communication_step,
    convergence_tick,
    first_appearances,
    message_delays,
    oracle_convergence_steps,
    output_timeline,
    starting_time,
)
from tvgsim.engine import MESSAGE_DELIVERED, SEND_INVOKED, Simulation, TraceEvent, run
from tvgsim.errors import DomainError
from tvgsim.metrics import NpsFamily, ReportFold, convergence_steps, nps_broadcast, nps_ug
from tvgsim.protocols import FloodProtocol, UgProtocol
from tvgsim.scenarios import generate_gk, generate_random_cot, named_graph


def test_nps_family_validation():
    with pytest.raises(DomainError):
        NpsFamily(frozenset())
    with pytest.raises(DomainError):
        NpsFamily(frozenset({frozenset()}))


def test_nps_constructors():
    g = named_graph("star", 4)
    assert nps_ug(g).elements == frozenset({frozenset(g.edges)})
    fam = nps_broadcast(g, "p1")
    assert fam.elements == frozenset(
        {frozenset({e}) for e in g.edges}
    )
    assert len(nps_broadcast(g, "p2").elements) == 1
    with pytest.raises(DomainError):
        nps_broadcast(g, "zz")


def test_delays_and_step_on_g1():
    g1 = generate_gk(1)
    trace = run(g1, UgProtocol(), 30)
    delays = message_delays(trace)
    assert delays  # something was delivered
    assert communication_step(trace) == 1  # unit latencies, always-up edges
    first = first_appearances(trace)
    assert first[("p0", "p2")] == 0
    assert first[("p0", "p1")] == 1


def test_communication_step_requires_deliveries():
    g1 = generate_gk(1)
    trace = run(g1, FloodProtocol("p3"), 1)
    with pytest.raises(DomainError):
        communication_step(trace)
    # The shortcut p0-p2 is up at tick 0, so the starting time is defined.
    with pytest.raises(DomainError, match="no message was delivered"):
        convergence_steps(trace, nps_broadcast(g1.graph, "p2"))


def test_starting_time_g1():
    g1 = generate_gk(1)
    trace = run(g1, UgProtocol(), 30)
    ug = g1.graph
    # all underlying edges, including the shortcut seen only at tick 0, must
    # have appeared: the path edges arrive at tick 1
    assert starting_time(trace, nps_ug(ug)) == 1
    fam = nps_broadcast(ug, "p2")
    assert starting_time(trace, fam) == 0  # the shortcut touches p2 at tick 0


def test_starting_time_undefined():
    g1 = generate_gk(1)
    trace = run(g1, UgProtocol(), 1)  # horizon before the path edges appear
    with pytest.raises(DomainError):
        starting_time(trace, nps_ug(g1.graph))
    with pytest.raises(DomainError, match="starting time undefined"):
        convergence_steps(trace, nps_ug(g1.graph))


def test_output_timeline_and_convergence():
    g1 = generate_gk(1)
    ug = g1.graph
    trace = run(g1, UgProtocol(), 30)
    timeline = output_timeline(trace)
    assert timeline[0][0] == 0
    assert [t for (t, _) in timeline] == sorted({t for (t, _) in timeline})
    done = lambda outs: all(out.graph == ug for out in outs.values())
    assert convergence_tick(trace, done) == 3


def test_convergence_steps_report():
    g1 = generate_gk(1)
    ug = g1.graph
    trace = run(g1, UgProtocol(), 30)
    done = lambda outs: all(out.graph == ug for out in outs.values())
    assert done(trace.final_outputs)
    report = convergence_steps(trace, nps_ug(ug))
    assert report == oracle_convergence_steps(trace, nps_ug(ug), done)
    assert report.step == 1
    assert report.starting_time == 1
    assert report.convergence_tick == 3
    assert report.convergence_steps == Fraction(2)
    d = report.to_json_dict()
    assert d == {
        "step": 1,
        "starting_time": 1,
        "convergence_tick": 3,
        "convergence_steps_num": 2,
        "convergence_steps_den": 1,
    }


def test_convergence_clamped_to_starting_time():
    # flooding from p2 can converge before the path edges all appear; measured
    # steps never go negative
    g1 = generate_gk(1)
    ug = g1.graph
    trace = run(g1, FloodProtocol("p2"), 30)
    assert all(trace.final_outputs.values())
    report = convergence_steps(trace, nps_ug(ug))
    assert report.convergence_steps >= 0
    assert report.convergence_tick >= report.starting_time


def test_a_forks_trace_is_refused_with_a_domain_error():
    # A twin's trace starts at the fork: message 32 is invoked before it and
    # delivered after it, so the fold meets a delivery with no send.
    tvg = generate_random_cot(6, 0.3, 0.2, 16, 1)
    sim = Simulation(tvg, UgProtocol())
    sim.advance(25)
    twin = sim.fork()
    twin.advance(60)
    with pytest.raises(DomainError, match=r"message 32 .*does not start at tick 0"):
        convergence_steps(twin.trace, nps_ug(tvg.graph))


def test_a_delivery_before_every_recorded_send_is_refused():
    # The fold finds a delivery's invocation tick by bisecting the first
    # message id of each tick with a send; an id below them all has none.
    fold = ReportFold()
    fold.start({"a": False, "b": False})
    with pytest.raises(DomainError, match=r"message 1 .*does not start at tick 0"):
        fold.update([TraceEvent(2, MESSAGE_DELIVERED, ("1",))])
    fold.start({"a": False, "b": False})
    fold.update([
        TraceEvent(3, SEND_INVOKED, ("5", "a", "b")),
        TraceEvent(3, SEND_INVOKED, ("6", "b", "a")),
        TraceEvent(4, SEND_INVOKED, ("7", "a", "b")),
        TraceEvent(6, MESSAGE_DELIVERED, ("6",)),
        TraceEvent(6, MESSAGE_DELIVERED, ("7",)),
    ])
    assert fold._step == 3  # message 6 was invoked at tick 3
    with pytest.raises(DomainError, match=r"message 4 .*does not start at tick 0"):
        fold.update([TraceEvent(7, MESSAGE_DELIVERED, ("4",))])
