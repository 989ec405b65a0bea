"""End-to-end acceptance checks, one test (or parametrized group) per claim:

 1. the cut-set characterization of strong minimal dominating sets agrees
    with brute force over all connected graphs on <= 6 vertices;
 2. existence fixtures for trees, stars, C_5 and K_3;
 3. the underlying-graph protocol converges within diameter-many steps on a
    seeded random corpus;
 4. the shortcut chain family forces a convergence time linear in the chain
    length;
 5. underlying-graph outputs grow monotonically;
 6. the dominating-set protocol stabilizes on the strong set when one exists;
 7. the adversary perpetually destabilizes it when none exists, on C_5,
    K_3 and every connected graph on <= 6 vertices without a strong set;
 8. the retrying send primitive delivers exactly when an occurrence is long
    enough, and each endpoint's edge callbacks alternate, appear first;
 9. traces and metrics are byte-identical across runs and interpreter
    invocations;
10. earliest-arrival queries match an exhaustive time-expanded search;
11. flood informs every vertex at its earliest deliverable arrival.
"""

import hashlib
import itertools
import json
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nx_to_static
from oracles import (
    adversary_by_restarts,
    enumerate_connected_spanning_subgraphs,
    is_smds_bruteforce,
    present_at,
)
from tvgsim.engine import (
    MESSAGE_DELIVERED,
    MESSAGE_LOST,
    OUTPUT_CHANGED,
    SEND_INVOKED,
    Protocol,
    run,
)
from tvgsim.errors import DomainError
from tvgsim.graphs import (
    StaticGraph,
    diameter,
    enumerate_minimal_dominating_sets,
    find_smds,
    is_minimal_dominating,
    is_smds_via_cutsets,
    make_edge,
)
from tvgsim.metrics import convergence_steps, nps_ug
from tvgsim.protocols import FloodProtocol, MdstProtocol, UgProtocol
from tvgsim.scenarios import (
    adversary_destabilize,
    generate_gk,
    generate_random_cot,
    named_graph,
)
from tvgsim.tvg import (
    PeriodicTail,
    PresenceSchedule,
    Tvg,
    earliest_arrival,
    eventual_underlying_graph,
)

# --- shared corpora --------------------------------------------------------

UG_CORPUS_SIZE = 200
MDST_CORPUS_SIZE = 100
UG_HORIZON = 600


@pytest.fixture(scope="module")
def ug_corpus():
    """Seeded random recurrent-edge scenarios with their protocol traces."""
    corpus = []
    for seed in range(UG_CORPUS_SIZE):
        n = 2 + seed % 9  # 2..10
        extra = (seed % 5) / 10.0
        tvg = generate_random_cot(n, extra, 0.0, 32, seed)
        trace = run(tvg, UgProtocol(), UG_HORIZON)
        corpus.append((tvg, trace))
    return corpus


# --- 1: characterization equivalence ---------------------------------------

def _connected_atlas(max_n=6):
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if 2 <= n <= max_n and nx.is_connected(g):
            yield nx_to_static(g)


def test_cutset_characterization_matches_bruteforce_census():
    graphs = discrepancies = 0
    for g in _connected_atlas():
        subs = list(enumerate_connected_spanning_subgraphs(g))
        for m in enumerate_minimal_dominating_sets(g):
            brute = all(is_minimal_dominating(sub, m) for sub in subs)
            if brute != is_smds_via_cutsets(g, m):
                discrepancies += 1
        graphs += 1
    assert graphs >= 100  # the census actually covered the atlas
    assert discrepancies == 0


# --- 2: existence fixtures -------------------------------------------------

def test_every_small_tree_has_a_strong_set():
    for n in range(2, 8):
        for t in nx.nonisomorphic_trees(n):
            g = nx_to_static(t)
            found = find_smds(g)
            assert found is not None
            assert is_smds_bruteforce(g, found)


def test_strong_set_absent_on_c5_and_k3():
    assert find_smds(named_graph("cycle", 5)) is None
    assert find_smds(named_graph("complete", 3)) is None


@pytest.mark.parametrize("size", [3, 5, 8])
def test_star_strong_set_is_center(size):
    assert find_smds(named_graph("star", size)) == frozenset({"p1"})


# --- 3: convergence within diameter-many steps -----------------------------

def test_ug_converges_to_underlying_graph_within_diameter_steps(ug_corpus):
    for tvg, trace in ug_corpus:
        ug = tvg.graph
        assert all(out == ug for out in trace.final_outputs.values())
        done = lambda outs: all(out == ug for out in outs.values())
        report = convergence_steps(trace, nps_ug(ug), done)
        assert report.convergence_steps <= diameter(eventual_underlying_graph(tvg))


# --- 4: shortcut chains force linear convergence ---------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_shortcut_chain_lower_bound(k):
    tvg = generate_gk(k)
    ug = tvg.graph
    trace = run(tvg, UgProtocol(), 20 + 10 * k)
    done = lambda outs: all(out == ug for out in outs.values())
    report = convergence_steps(trace, nps_ug(ug), done)
    assert report.starting_time == 1
    assert Fraction(2 * k) <= report.convergence_steps <= Fraction(3 * k)


# --- 5: greedy outputs only grow -------------------------------------------

def test_ug_outputs_monotone_and_bounded(ug_corpus):
    checked = 0
    for tvg, trace in ug_corpus:
        ug = tvg.graph
        last = {}
        for ev in trace.events:
            if ev.kind != OUTPUT_CHANGED:
                continue
            v = ev.subject[0]
            if v in last:
                assert last[v].edges <= ev.value.edges
                assert last[v].vertices <= ev.value.vertices
            assert ev.value.edges <= ug.edges
            last[v] = ev.value
            checked += 1
    assert checked > 0


# --- 6: stabilization on the strong set ------------------------------------

def test_mdst_stabilizes_on_strong_set():
    done = 0
    seed = 0
    while done < MDST_CORPUS_SIZE:
        seed += 1
        n = 4 + seed % 5  # 4..8
        extra = 0.0 if seed % 2 else 0.3
        tvg = generate_random_cot(n, extra, 0.0, 16, seed)
        ug = tvg.graph
        chosen = find_smds(ug)
        if chosen is None:
            continue
        horizon = 300
        trace = run(tvg, MdstProtocol(), horizon)
        got = frozenset(v for v, out in trace.final_outputs.items() if out)
        assert got == chosen, (seed, sorted(got), sorted(chosen))
        assert is_minimal_dominating(eventual_underlying_graph(tvg), got)
        last_change = max(
            (ev.time for ev in trace.events if ev.kind == OUTPUT_CHANGED), default=0
        )
        assert last_change < horizon - 100  # stable through the tail of the run
        done += 1
    assert done == MDST_CORPUS_SIZE


# --- 7: perpetual destabilization ------------------------------------------

@pytest.mark.parametrize("name,size", [("cycle", 5), ("complete", 3)])
def test_adversary_changes_the_stable_set_every_round(name, size):
    g = named_graph(name, size)
    _, report = adversary_destabilize(g, 5)
    assert len(report.rounds) == 5
    for r in report.rounds:
        assert r.new_set != r.stable_set


def test_adversary_destabilizes_every_census_graph_without_a_strong_set():
    """The necessity half of the paper's condition on the whole census."""
    graphs = [g for g in _connected_atlas() if find_smds(g) is None]
    assert len(graphs) == 110
    for g in graphs:
        tvg, report = adversary_destabilize(g, 5)
        *_, oracle = adversary_by_restarts(g, 5)
        assert (tvg, report) == oracle
        ticks = []
        for r in report.rounds:
            assert r.new_set != r.stable_set
            assert is_minimal_dominating(g, r.stable_set)
            # Not always minimal on g itself: only without the suppressed edges.
            assert is_minimal_dominating(g.subgraph_with_edges(g.edges - r.suppressed_edges), r.new_set)
            ticks += [r.stabilized_at, r.restabilized_at]
        assert ticks == sorted(set(ticks)), ticks


def test_adversary_refuses_strong_graphs():
    with pytest.raises(DomainError) as exc:
        adversary_destabilize(named_graph("star", 5), 5)
    assert "inapplicable" in str(exc.value)


# --- 8: retrying send contract ---------------------------------------------

class _SendAtInit(Protocol):
    name = "send_at_init"

    def initial_state(self, vertex):
        return False

    def on_init(self, state, vertex):
        return (state, [("b", "x")]) if vertex == "a" else (state, [])

    def on_receive(self, state, vertex, sender, payload):
        return True, []

    def output(self, state):
        return state

    def format_output(self, value):
        return "true" if value else "false"


single_edge_intervals = st.lists(
    st.tuples(st.integers(0, 25), st.integers(1, 6)).map(lambda p: (p[0], p[0] + p[1])),
    max_size=3,
)
single_edge_tail = st.one_of(
    st.none(),
    st.integers(1, 6).flatmap(
        lambda p: st.builds(
            PeriodicTail, st.integers(0, 30), st.just(p), st.integers(1, p)
        )
    ),
)


def _expected_delivery(sched, z, horizon):
    """First occurrence whose length carries the latency; attempt happens at
    the occurrence start (the message is pending from tick 0)."""
    for (s, e) in sched.occurrences():
        if s >= horizon:
            return None
        if e is None or s + z <= e:
            return s + z if s + z < horizon else None
    return None


@settings(max_examples=200, deadline=None)
@given(single_edge_intervals, single_edge_tail, st.integers(1, 4))
def test_send_retry_delivery_contract(intervals, tail, z):
    if tail is not None:
        intervals = [(s, e) for (s, e) in intervals if e <= tail.offset]
    sched = PresenceSchedule.of(intervals, tail)
    if sched.is_empty:
        return
    horizon = 120
    g = StaticGraph.of(["a", "b"], [("a", "b")])
    tvg = Tvg(g, {("a", "b"): sched}, {("a", "b"): z})
    trace = run(tvg, _SendAtInit(), horizon)

    expected = _expected_delivery(sched, z, horizon)
    delivered = [ev.time for ev in trace.events if ev.kind == MESSAGE_DELIVERED]
    if expected is None:
        assert delivered == []
        assert trace.final_outputs["b"] is False
    else:
        assert delivered == [expected]
        assert trace.final_outputs["b"] is True
        # observed delay equals delivery minus the (single) invocation
        invoked = next(ev.time for ev in trace.events if ev.kind == SEND_INVOKED)
        assert expected - invoked == expected  # invoked at tick 0

    # every insufficient occurrence before delivery loses the message at its end
    losses = [ev.time for ev in trace.events if ev.kind == MESSAGE_LOST]
    expect_losses = []
    for (s, e) in sched.occurrences():
        if s >= horizon or (expected is not None and s + z > expected):
            break
        if e is not None and s + z > e and e < horizon:
            expect_losses.append(e)
    assert losses == expect_losses


# --- 9: determinism --------------------------------------------------------

def _corpus_digest():
    h = hashlib.sha256()
    for seed in range(12):
        n = 3 + seed % 6
        tvg = generate_random_cot(n, 0.3, 0.2, 32, seed)
        trace = run(tvg, UgProtocol(), 200)
        h.update(trace.serialize().encode())
    for k in (1, 2, 3):
        tvg = generate_gk(k)
        ug = tvg.graph
        trace = run(tvg, UgProtocol(), 20 + 10 * k)
        h.update(trace.serialize().encode())
        done = lambda outs: all(out == ug for out in outs.values())
        report = convergence_steps(trace, nps_ug(ug), done)
        h.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
    return h.hexdigest()


# Digests of the serialized traces, recorded before the engine's lazy edge
# schedule and callback elision landed; both must stay byte-for-byte equal.
CORPUS_DIGEST = "26013af0895b0ac42cb2b650994580e7d20362e9b9c5fd762bb604d7d4c609e1"
ENGINE_CORPUS_DIGEST = "1d4158dab6f9176e7d6df41f7e2c0ad537a88cb6a86d617c0ade529275db97e9"


def _engine_corpus():
    """Flood and mdst scenarios aimed at the engine's schedule handling:
    finite intervals before a periodic tail, contiguous tails, occurrences
    too short for the latency, horizons that cut an occurrence or leave a
    message in flight, and process latency."""
    abc = StaticGraph.of(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    mixed = Tvg(
        abc,
        {
            ("a", "b"): PresenceSchedule.of([(0, 2), (5, 7)], PeriodicTail(10, 4, 2)),
            ("b", "c"): PresenceSchedule.of([(1, 2)], PeriodicTail(3, 1, 1)),
            ("a", "c"): PresenceSchedule.of([(2, 3), (6, 9)], PeriodicTail(12, 5, 3)),
        },
        {("a", "b"): 2, ("b", "c"): 1, ("a", "c"): 3},
    )
    lossy = Tvg(
        StaticGraph.of(["a", "b"], [("a", "b")]),
        {("a", "b"): PresenceSchedule.of([(0, 1), (3, 5)], PeriodicTail(8, 7, 3))},
        {("a", "b"): 3},
    )
    cases = [
        (mixed, FloodProtocol("a"), 40),
        (mixed, FloodProtocol("c"), 13),  # cuts the [12,15) occurrence of a-c
        (replace(mixed, process_latency=2), FloodProtocol("b"), 40),
        (mixed, MdstProtocol(), 37),
        (replace(mixed, process_latency=1), MdstProtocol(), 31),
        (lossy, FloodProtocol("a"), 9),  # the retried send is still in flight
        (lossy, FloodProtocol("a"), 30),
    ]
    for seed in range(3):
        tvg = generate_random_cot(4 + seed, 0.4, 0.3, 24, seed)
        cases.append((tvg, FloodProtocol("p1"), 97))
        cases.append((replace(tvg, process_latency=seed + 1), MdstProtocol(), 90))
    return cases


def _engine_corpus_digest():
    h = hashlib.sha256()
    for tvg, protocol, horizon in _engine_corpus():
        h.update(run(tvg, protocol, horizon).serialize().encode())
    return h.hexdigest()


def test_engine_corpus_digest_is_pinned():
    assert _engine_corpus_digest() == ENGINE_CORPUS_DIGEST


class _EdgeCallRecorder(Protocol):
    """Records every edge callback as (vertex, other endpoint, appeared)."""

    def __init__(self):
        self.calls = []

    def initial_state(self, vertex):
        return None

    def on_edge_appear(self, state, vertex, other):
        self.calls.append((vertex, other, True))
        return state, []

    def on_edge_disappear(self, state, vertex, other):
        self.calls.append((vertex, other, False))
        return state, []

    def output(self, state):
        return None


def test_edge_callbacks_alternate_starting_with_appear():
    # The premise of the mdst edge counters: at each endpoint, an edge's
    # appear and disappear callbacks alternate, starting with an appearance,
    # whatever the process latency.
    cases = [(tvg, horizon) for tvg, _, horizon in _engine_corpus()]
    cases += [(generate_random_cot(3 + seed % 6, 0.4, 0.3, 32, seed), 150) for seed in range(20)]
    disappearances = 0
    for (tvg, horizon), phi in itertools.product(cases, range(4)):
        recorder = _EdgeCallRecorder()
        run(replace(tvg, process_latency=phi), recorder, horizon)
        last = {}
        for vertex, other, appeared in recorder.calls:
            assert appeared != last.get((vertex, other), False), (vertex, other, phi)
            last[(vertex, other)] = appeared
        disappearances += sum(1 for call in recorder.calls if not call[2])
    assert disappearances > 0


def test_traces_are_deterministic_across_runs_and_interpreters():
    digest = _corpus_digest()
    assert digest == CORPUS_DIGEST

    program = textwrap.dedent(
        """
        import sys
        sys.path[:0] = %r
        from test_acceptance import _corpus_digest
        print(_corpus_digest())
        """
    ) % (sys.path,)
    for hashseed in ("0", "424242"):
        out = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin"},
            check=True,
        )
        assert out.stdout.strip() == digest


# --- 10: earliest-arrival oracle -------------------------------------------

def _time_expanded_oracle(tvg, source, target, after, deliverable, horizon):
    """Single ascending sweep over departure ticks; arrivals only move forward
    because latencies are positive."""
    best = {source: after}
    for t in range(after, horizon):
        for e in tvg.graph.sorted_edges():
            z = tvg.latency[e]
            sched = tvg.schedule[e]
            window = range(t, t + z) if deliverable else [t]
            if not all(present_at(sched, x) for x in window):
                continue
            u, v = e
            for (a, b) in ((u, v), (v, u)):
                if a in best and best[a] <= t:
                    arrival = t + z
                    if arrival < best.get(b, arrival + 1):
                        best[b] = arrival
    got = best.get(target)
    return got if got is None or got <= horizon else None


def _random_small_tvg(rng):
    n = rng.randint(2, 5)
    verts = [f"v{i}" for i in range(n)]
    edges = {make_edge(verts[i], verts[rng.randrange(i)]) for i in range(1, n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                edges.add(make_edge(verts[i], verts[j]))
    if rng.random() < 0.4:
        edges = set(rng.sample(sorted(edges), max(1, len(edges) - 1)))
    schedule, latency = {}, {}
    for e in edges:
        intervals = []
        for _ in range(rng.randint(0, 2)):
            s = rng.randint(0, 18)
            intervals.append((s, s + rng.randint(1, 5)))
        tail = None
        if rng.random() < 0.4:
            period = rng.randint(1, 6)
            tail = PeriodicTail(rng.randint(20, 30), period, rng.randint(1, period))
            intervals = [(s, e2) for (s, e2) in intervals if e2 <= tail.offset]
        if not intervals and tail is None:
            intervals = [(rng.randint(0, 18), 20)]
        schedule[e] = PresenceSchedule.of(intervals, tail)
        latency[e] = rng.randint(1, 3)
    used = {v for e in edges for v in e}
    return Tvg(StaticGraph.of(used, edges), schedule, latency), sorted(used)


def test_earliest_arrival_matches_time_expanded_search():
    import random

    rng = random.Random(20260824)
    cases = 0
    for _ in range(150):
        tvg, verts = _random_small_tvg(rng)
        for deliverable in (False, True):
            source = rng.choice(verts)
            target = rng.choice(verts)
            after = rng.randint(0, 20)
            got = earliest_arrival(tvg, source, target, after=after, deliverable=deliverable)
            want = _time_expanded_oracle(tvg, source, target, after, deliverable, 150)
            assert got == want, (tvg, source, target, after, deliverable, got, want)
            cases += 1
    assert cases == 300


# --- 11: flood follows foremost deliverable journeys -----------------------

FLOOD_SEEDS = 200
FLOOD_HORIZON = 600


@pytest.mark.parametrize("missing", [0.0, 0.3])
def test_flood_arrival_matches_earliest_arrival(missing):
    pairs = 0
    for seed in range(FLOOD_SEEDS):
        n = 3 + seed % 8  # 3..10
        tvg = generate_random_cot(n, (seed % 4) / 10.0, missing, 64, seed)
        assert tvg.process_latency == 0
        origin = tvg.graph.sorted_vertices()[seed % n]
        trace = run(tvg, FloodProtocol(origin), FLOOD_HORIZON)
        informed = {ev.subject[0]: ev.time for ev in trace.events if ev.kind == OUTPUT_CHANGED}
        for v in tvg.graph.vertices - {origin}:
            want = earliest_arrival(tvg, origin, v, 0, deliverable=True)
            if want is not None and want >= FLOOD_HORIZON:
                want = None
            assert informed.get(v) == want, (seed, origin, v)
            pairs += 1
    assert pairs > 1000
