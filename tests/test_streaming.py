"""The streaming sink and the folds over it, against the in-memory trace:
a ``TraceWriter``'s file is ``Trace.serialize()`` byte for byte, the CLI's
report folded over the drained records equals the whole-trace oracle's, the
records obey the engine's trace invariants, and the writer holds a bounded
number of records whatever the horizon."""

from collections import Counter

import pytest

from oracles import oracle_convergence_steps
from test_acceptance import UG_CORPUS_SIZE, UG_HORIZON, _engine_corpus
from trace_invariants import TraceInvariants, ug_grows
from tvgsim import engine
from tvgsim.engine import (
    CHUNK,
    EDGE_DOWN,
    EDGE_UP,
    MESSAGE_DELIVERED,
    MESSAGE_LOST,
    OUTPUT_CHANGED,
    SEND_INVOKED,
    Simulation,
    TraceEvent,
    TraceWriter,
    run,
)
from tvgsim.errors import DomainError
from tvgsim.graphs import StaticGraph
from tvgsim.metrics import ReportFold, convergence_steps, nps_ug
from tvgsim.protocols import PROTOCOLS, FloodProtocol, MdstProtocol, UgProtocol
from tvgsim.scenarios import generate_random_cot
from tvgsim.tvg import PresenceSchedule, Tvg

MDST_SEEDS = range(0, UG_CORPUS_SIZE, 7)  # mdst costs ~50x ug per run
MDST_HORIZON = 100
SHORT_HORIZONS = (1, 2, 4)  # before any delivery, or before every edge appeared
CHUNKS = (1, 7, 64, CHUNK)


class _Tee:
    """Feeds one writer's records to several folds."""

    def __init__(self, *folds):
        self.folds = folds

    def start(self, initial_outputs):
        for fold in self.folds:
            fold.start(initial_outputs)

    def update(self, events):
        for fold in self.folds:
            fold.update(events)


def _protocol(name, tvg):
    if name == "flood":
        return FloodProtocol(tvg.graph.sorted_vertices()[0])
    return {"ug": UgProtocol, "mdst": MdstProtocol}[name]()


def _cases():
    """(scenario, protocol name, horizon) over both corpora, for ug, flood
    and mdst: the 200-scenario corpus (mdst on every 7th scenario) and every
    scenario of the engine corpus, each also at short horizons."""
    for seed in range(UG_CORPUS_SIZE):
        tvg = generate_random_cot(2 + seed % 9, (seed % 5) / 10.0, 0.0, 32, seed)
        yield tvg, "ug", UG_HORIZON
        yield tvg, "flood", UG_HORIZON
        if seed in MDST_SEEDS:
            yield tvg, "mdst", MDST_HORIZON
            for horizon in SHORT_HORIZONS:
                for name in ("ug", "flood", "mdst"):
                    yield tvg, name, horizon
    for tvg, _, horizon in _engine_corpus():
        for name in ("ug", "flood", "mdst"):
            for h in (horizon,) + SHORT_HORIZONS:
                yield tvg, name, h


def _outcome(report):
    try:
        return report().to_json_dict()
    except DomainError as exc:
        return f"DomainError: {exc}"


@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    """Per case: the in-memory run and a streamed run of the same case,
    whose writer drains every 1, 7, 64 or ``CHUNK`` records in turn."""
    path = tmp_path_factory.mktemp("streamed") / "trace.txt"
    results = []
    with pytest.MonkeyPatch.context() as mp:
        for i, (tvg, name, horizon) in enumerate(_cases()):
            trace = run(tvg, _protocol(name, tvg), horizon)
            origin = tvg.graph.sorted_vertices()[0] if name == "flood" else None
            nps = PROTOCOLS[name].nps(tvg.graph, origin)
            fold, checker = ReportFold(), TraceInvariants(tvg, ug_grows if name == "ug" else None)
            mp.setattr(engine, "CHUNK", CHUNKS[i % len(CHUNKS)])
            with TraceWriter(str(path), _Tee(fold, checker)) as writer:
                run(tvg, _protocol(name, tvg), horizon, writer)
            final = trace.final_outputs
            converged = PROTOCOLS[name].converged
            results.append({
                "case": (name, horizon, sorted(tvg.graph.vertices), origin),
                "serialized": trace.serialize().encode(),
                "streamed": path.read_bytes(),
                "final_lines": (trace.final_lines, writer.final_lines),
                "report": _outcome(lambda: oracle_convergence_steps(trace, nps, lambda outs: outs == final)),
                "folded": _outcome(lambda: fold.report(nps)),
                "whole": _outcome(lambda: convergence_steps(trace, nps)),
                # ug and flood outputs only grow, so outputs that solve the
                # problem are the final ones; mdst can pass through another
                # valid set first.
                "solved": _outcome(lambda: oracle_convergence_steps(trace, nps, lambda outs: converged(tvg, outs)))
                if name != "mdst" and converged(tvg, final) else None,
                "violations": checker.finish(horizon),
                "kinds": Counter(ev.kind for ev in trace.events),
            })
    return results


def test_streamed_file_is_the_serialized_trace_on_both_corpora(streamed):
    assert len(streamed) > 600
    for r in streamed:
        assert r["streamed"] == r["serialized"], r["case"]
        assert r["final_lines"][0] == r["final_lines"][1], r["case"]


def test_report_fold_matches_convergence_steps_on_both_corpora(streamed):
    for r in streamed:
        assert r["folded"] == r["whole"] == r["report"], r["case"]
    outcomes = {r["report"] if isinstance(r["report"], str) else "report" for r in streamed}
    assert outcomes == {
        "report",
        "DomainError: starting time undefined within horizon",
        "DomainError: no message was delivered in this trace",
    }
    # Both errors apply to some cases, and both computations name the
    # starting time first.
    assert any(
        r["kinds"][MESSAGE_DELIVERED] == 0 and r["report"].endswith("starting time undefined within horizon")
        for r in streamed if isinstance(r["report"], str)
    )


def test_solved_outputs_converge_when_the_final_outputs_do_on_both_corpora(streamed):
    """For ug and flood, "the outputs solve the problem" and "the outputs
    equal the final ones" give one report wherever the final outputs solve it."""
    solved = [r for r in streamed if r["solved"] is not None]
    assert {r["case"][0] for r in solved} == {"ug", "flood"}
    assert sum(isinstance(r["solved"], dict) for r in solved) > 400
    for r in solved:
        assert r["solved"] == r["whole"], r["case"]


def test_trace_invariants_hold_on_both_corpora(streamed):
    for r in streamed:
        assert r["violations"] == [], r["case"]
    # The corpora reach the rules on losses and on messages still pending
    # at the horizon.
    kinds = sum((r["kinds"] for r in streamed), Counter())
    assert kinds[MESSAGE_LOST] > 0 and kinds[MESSAGE_DELIVERED] < kinds[SEND_INVOKED]


def _ab(intervals, latency):
    g = StaticGraph.of(["a", "b"], [("a", "b")])
    return Tvg(g, {("a", "b"): PresenceSchedule.of(intervals)}, {("a", "b"): latency})


def _check(tvg, records, horizon, grows=None):
    checker = TraceInvariants(tvg, grows)
    checker.start({"a": 0, "b": 0})
    checker.update([TraceEvent(*r) for r in records])
    return checker.finish(horizon)


AB = ("a", "b")


@pytest.mark.parametrize(
    "records,horizon,violation",
    [
        # The seeded fault: an engine that delivers when arrival > end.
        ([(0, EDGE_UP, AB), (1, SEND_INVOKED, ("1", "a", "b")), (2, EDGE_DOWN, AB), (3, MESSAGE_DELIVERED, ("1",))],
         5, "3: message 1 delivered outside an occurrence of ('a', 'b') at least 2 long"),
        # Never delivered though its attempt was due before the horizon.
        ([(0, EDGE_UP, AB), (0, SEND_INVOKED, ("1", "a", "b"))], 5, "5: message 1 was due at 2 and never delivered"),
        # A loss with no EdgeDown of its edge at that tick.
        ([(0, EDGE_UP, AB), (1, SEND_INVOKED, ("1", "a", "b")), (2, MESSAGE_LOST, ("1",))],
         3, "2: message 1 lost away from an EdgeDown of ('a', 'b')"),
        # A loss missing at the EdgeDown: the attempt stays in flight.
        ([(0, EDGE_UP, AB), (1, SEND_INVOKED, ("1", "a", "b")), (2, EDGE_DOWN, AB), (4, EDGE_UP, AB)],
         5, "4: message 1 stayed in flight across the EdgeDown of ('a', 'b')"),
        # A delivery one tick early.
        ([(0, EDGE_UP, AB), (0, SEND_INVOKED, ("1", "a", "b")), (1, MESSAGE_DELIVERED, ("1",))],
         5, "1: message 1 delivered, not one latency (2) after its attempt at 0"),
        # An output that shrinks.
        ([(3, OUTPUT_CHANGED, ("a",), 2), (4, OUTPUT_CHANGED, ("a",), 1)], 5, "4: the output of a shrinks"),
    ],
)
def test_invariant_checker_fails_on_seeded_faults(records, horizon, violation):
    tvg = _ab([(0, 2), (4, 9)], 2)
    assert violation in _check(tvg, records, horizon, lambda old, new: old <= new)


def test_invariant_checker_passes_a_lost_and_retried_message():
    tvg = _ab([(0, 2), (4, 9)], 2)
    records = [(0, EDGE_UP, AB), (1, SEND_INVOKED, ("1", "a", "b")), (2, EDGE_DOWN, AB), (2, MESSAGE_LOST, ("1",)),
               (4, EDGE_UP, AB), (6, MESSAGE_DELIVERED, ("1",)), (7, SEND_INVOKED, ("2", "b", "a"))]
    assert _check(tvg, records, 9) == []  # message 2 is in flight at the horizon
    assert _check(tvg, records, 10) == ["10: message 2 was due at 9 and never delivered"]


def test_writer_holds_at_most_a_chunk_plus_one_tick():
    tvg = generate_random_cot(64, 0.05, 0.2, 64, 3)
    horizon = 3000
    per_tick = Counter(ev.time for ev in run(tvg, FloodProtocol("p1"), horizon).events)
    writer = TraceWriter()
    run(tvg, FloodProtocol("p1"), horizon, writer)
    assert sum(per_tick.values()) > 8 * CHUNK  # many drains
    assert CHUNK <= writer.high_water <= CHUNK + max(per_tick.values())
    assert writer.events == []


class _SendTicks:
    """A fold that keeps the ticks with a send."""

    def start(self, initial_outputs):
        self.ticks = set()

    def update(self, events):
        self.ticks.update(t for t, kind, _, _ in events if kind == SEND_INVOKED)


def _dead_edge_entries(sim):
    """The ledger entries on edges that are down with no next occurrence."""
    return sum(
        len(sim._pending[e]) for e, schedule in sim.schedule.items()
        if e not in sim._up and schedule.next_occurrence(sim.now) is None
    )


def test_a_run_keeps_nothing_it_can_never_deliver(monkeypatch, tmp_path):
    """Over eventually missing edges, the ``Simulation`` that ``run`` builds
    ends with no ledger entry on an edge with no next occurrence, and the
    report fold with one pair per tick with a send; a ``Simulation``, which
    ``amend`` may revive, parks thousands there.  Both give one trace."""
    tvg = generate_random_cot(32, 0.3, 0.2, 64, 1)
    horizon = 400
    built = []
    advance = Simulation.advance

    def captured(self, until):
        built.append(self)
        return advance(self, until)

    monkeypatch.setattr(Simulation, "advance", captured)
    protocol, path = UgProtocol(), tmp_path / "trace.txt"
    fold, sends = ReportFold(), _SendTicks()
    with TraceWriter(str(path), _Tee(fold, sends)) as writer:
        run(tvg, protocol, horizon, writer)
    (ran,) = built
    parked = Simulation(tvg, protocol)
    parked.advance(horizon)
    assert _dead_edge_entries(ran) == 0
    assert _dead_edge_entries(parked) > 1000
    assert len(fold._first_ids) == len(fold._send_ticks) == len(sends.ticks) > 0
    assert path.read_text() == parked.trace.serialize()
    assert fold.report(nps_ug(tvg.graph)) == convergence_steps(parked.trace, nps_ug(tvg.graph))


def test_a_streaming_simulation_forks_into_an_in_memory_trace(tmp_path):
    tvg = generate_random_cot(6, 0.3, 0.2, 16, 1)
    protocol, path = UgProtocol(), tmp_path / "trace.txt"
    expected = run(tvg, protocol, 60)
    with TraceWriter(str(path)) as writer:
        sim = Simulation(tvg, protocol, writer)
        sim.advance(25)
        twin = sim.fork()
        sim.advance(60)
    twin.advance(60)
    assert path.read_text() == expected.serialize()
    assert twin.trace.events == [ev for ev in expected.events if ev.time >= 25] != []
    assert twin.trace.final_outputs == expected.final_outputs


def test_a_sink_that_is_not_a_writer_is_refused():
    tvg = generate_random_cot(4, 0.3, 0.0, 16, 1)
    with pytest.raises(TypeError, match="sink must be a TraceWriter or None, not int"):
        run(tvg, UgProtocol(), 10, 0)
