import argparse
import gc
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import TwoSetFloodProtocol, graph_to_str
from tvgsim.cli import build_parser
from tvgsim.engine import OUTPUT_CHANGED, Protocol, run
from tvgsim.errors import DomainError
from tvgsim.graphs import (
    StaticGraph,
    cache_stats,
    clear_caches,
    find_smds,
    is_minimal_dominating,
    smds_witness,
)
from tvgsim.protocols import (
    PROTOCOLS,
    FloodProtocol,
    MdstProtocol,
    UgProtocol,
    UgState,
    get_protocol,
    mdst_chosen_set,
)
from tvgsim.scenarios import ALWAYS, generate_gk, generate_random_cot, named_graph
from tvgsim.tvg import Tvg


def static_tvg(g, latency=1):
    return Tvg(g, {e: ALWAYS for e in g.edges}, {e: latency for e in g.edges})


def test_graph_to_str():
    g = StaticGraph.of(["b", "a", "c"], [("c", "a"), ("a", "b")])
    assert graph_to_str(g) == "a,b,c|a-b,a-c"


def _graph_to_str_by_sorting(g):
    """The output format by its definition: vertices and edges each sorted by
    their canonical keys."""
    verts = ",".join(g.sorted_vertices())
    edges = ",".join(f"{u}-{v}" for (u, v) in g.sorted_edges())
    return f"{verts}|{edges}"


# Ids of several lengths, where (length, id) order and plain string order differ.
mixed_ids = st.sampled_from(["a", "b", "Z", "_", "_1", "a1", "p9", "p10", "Zz9"])


@settings(max_examples=200, deadline=None)
@given(st.sets(mixed_ids, max_size=4), st.lists(st.tuples(mixed_ids, mixed_ids), max_size=20))
def test_graph_to_str_matches_sorted_format(isolated, pairs):
    pairs = [p for p in pairs if p[0] != p[1]]
    g = StaticGraph.of(isolated | {v for p in pairs for v in p}, pairs)
    assert graph_to_str(g) == _graph_to_str_by_sorting(g)


def ug_value(protocol, owner, pairs):
    """``owner``'s local graph once it has received each edge of ``pairs``
    from the edge's first endpoint: a value built only by ``protocol``'s
    handlers, so its bits follow the order of ``pairs``."""
    state = protocol.initial_state(owner)
    for (u, v) in pairs:
        sender, _ = protocol.on_edge_appear(protocol.initial_state(u), u, v)
        state, _ = protocol.on_receive(state, owner, u, sender.local_graph)
    return state.local_graph


id_pairs = st.lists(st.tuples(mixed_ids, mixed_ids).filter(lambda p: p[0] != p[1]), max_size=20)


@settings(max_examples=200, deadline=None)
@given(mixed_ids, id_pairs, mixed_ids, id_pairs)
def test_ug_values_format_and_compare_as_their_graphs(owner, pairs, later_owner, later_pairs):
    protocol = UgProtocol()
    value = ug_value(protocol, owner, pairs)
    assert protocol.format_output(value) == _graph_to_str_by_sorting(value.graph)
    # The index grows: new vertices and edges get bits after the old ones.
    later = ug_value(protocol, later_owner, later_pairs)
    assert protocol.format_output(value) == _graph_to_str_by_sorting(value.graph)
    assert protocol.format_output(later) == _graph_to_str_by_sorting(later.graph)
    # Within one instance, values compare and hash as their graphs do.
    again = ug_value(protocol, owner, pairs)
    assert again == value and hash(again) == hash(value)
    assert (value == later) == (value.graph == later.graph)
    # A value is not the graph it stands for.
    assert value != value.graph and value.graph != value
    # Another instance meets the edges in the other order, so its bits differ:
    # its value is never equal, its graph is.
    twin = ug_value(UgProtocol(), owner, pairs[::-1])
    assert twin != value and value != twin
    assert twin.graph == value.graph
    with pytest.raises(DomainError, match="another protocol instance"):
        protocol.on_receive(protocol.initial_state(owner), owner, later_owner, twin)


def test_ug_receive_rejects_a_payload_that_is_not_a_ug_value():
    protocol = UgProtocol()
    graph = StaticGraph.of(["a", "b"], [("a", "b")])
    with pytest.raises(DomainError, match="malformed payload from 'b'"):
        protocol.on_receive(protocol.initial_state("a"), "a", "b", graph)


def _edge_sets(vertices):
    pairs = list(itertools.combinations(vertices, 2))
    return st.sets(st.sampled_from(pairs), max_size=len(pairs))


@settings(max_examples=200, deadline=None)
@given(_edge_sets("abcde"), _edge_sets("abcde"), st.booleans())
def test_ug_receive_result_is_the_union(local_edges, payload_edges, extend):
    # As in a run: the local graph spans its edges and the process's own
    # vertex; a payload spans its edges and its sender.  ``extend`` makes the
    # payload a superset of the local edges, so that the union is its graph.
    if extend:
        payload_edges = payload_edges | local_edges
    protocol = UgProtocol()
    local = ug_value(protocol, "a", sorted(local_edges))
    payload = ug_value(protocol, "b", sorted(payload_edges))
    state = UgState(local, frozenset("bcd"))
    new_state, sends = protocol.on_receive(state, "a", "b", payload)
    # A payload with no new edge changes nothing.  (In a run it holds its
    # edge to the receiver, so it then holds no new vertex either.)
    if payload.edges <= local.edges:
        assert new_state is state and sends == []
        return
    assert new_state.local_graph.graph == local.graph.union(payload.graph)
    assert new_state.known_neighbors == state.known_neighbors
    assert sends == [("c", new_state.local_graph), ("d", new_state.local_graph)]


def test_ug_trace_holds_few_bytes_per_event():
    # What a trace keeps alive once the run is over: its records and the
    # output values they hold.
    tvg = generate_random_cot(24, 0.3, 0.2, 64, seed=1)
    gc.collect()
    tracemalloc.start()
    try:
        trace = run(tvg, UgProtocol(), 400)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 300 * len(trace.events)


def test_get_protocol():
    assert isinstance(get_protocol("ug"), UgProtocol)
    assert isinstance(get_protocol("mdst"), MdstProtocol)
    assert isinstance(get_protocol("flood", origin="x"), FloodProtocol)
    with pytest.raises(DomainError):
        get_protocol("flood")
    with pytest.raises(DomainError):
        get_protocol("nope")
    # A protocol built without an origin refuses one, as the CLI does.
    for name in ("ug", "mdst"):
        with pytest.raises(DomainError, match="takes no origin"):
            get_protocol(name, origin="p0")


def test_registry_feeds_cli_and_owns_problem_semantics():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    protocol_arg = next(a for a in commands.choices["simulate"]._actions if a.dest == "protocol")
    assert protocol_arg.choices == sorted(PROTOCOLS)
    for name, cls in PROTOCOLS.items():
        assert cls.name == name
        assert cls.converged is not Protocol.converged
        assert cls.nps is not Protocol.nps


@pytest.mark.parametrize("name,size", [("path", 5), ("cycle", 6), ("star", 5), ("complete", 4)])
def test_ug_converges_on_static_graphs(name, size):
    g = named_graph(name, size)
    trace = run(static_tvg(g), UgProtocol(), 40)
    assert all(out.graph == g for out in trace.final_outputs.values())


def test_ug_outputs_grow_monotonically():
    g2 = generate_gk(2)
    trace = run(g2, UgProtocol(), 60)
    ug = g2.graph
    last = {}
    for ev in trace.events:
        if ev.kind != OUTPUT_CHANGED:
            continue
        v = ev.subject[0]
        if v in last:
            assert last[v].edges <= ev.value.edges
        assert ev.value.edges <= ug.edges
        last[v] = ev.value


def test_mdst_outputs_smds_membership_on_path():
    g = named_graph("path", 5)
    trace = run(static_tvg(g), MdstProtocol(), 60)
    chosen = find_smds(g)
    assert chosen is not None
    got = frozenset(v for v, out in trace.final_outputs.items() if out)
    assert got == chosen


def test_mdst_fallback_on_cycle_without_suppression():
    # C_5 admits no strong set; with nothing ever down, the fallback picks the
    # first canonical minimal dominating set
    g = named_graph("cycle", 5)
    trace = run(static_tvg(g), MdstProtocol(), 60)
    got = frozenset(v for v, out in trace.final_outputs.items() if out)
    assert got == frozenset({"p1", "p3"})


def test_mdst_chosen_set_respects_down_status():
    g = named_graph("cycle", 5)
    protocol = UgProtocol()
    local = ug_value(protocol, "p1", g.sorted_edges())
    # with p1-p2 reported down (an even count), the estimate is the path p2..p5-p1
    status = {local.index.edge_bits("p1", "p2")[0]: 2}
    chosen = mdst_chosen_set(local, status, "p1")
    # agreement across processes
    assert chosen == mdst_chosen_set(ug_value(protocol, "p4", g.sorted_edges()), status, "p4")
    est = StaticGraph(g.vertices, g.edges - {("p1", "p2")})
    # the estimate is a tree, where the first minimal dominating set is strong
    assert chosen == find_smds(est)


def _by_bit(value, status):
    """``status``, keyed by edge, keyed by each edge's bit in ``value``'s index."""
    return {value.index.edge_bits(u, w)[0]: count for (u, w), count in status.items()}


def _component(g, v):
    """v's component, grown by whole-edge-set scans."""
    seen = {v}
    while True:
        more = {x for e in g.edges if seen & set(e) for x in e} - seen
        if not more:
            return StaticGraph(frozenset(seen), frozenset(e for e in g.edges if e[0] in seen))
        seen |= more


def _mds_in_order(g):
    verts = g.sorted_vertices()
    for size in range(1, len(verts) + 1):
        for combo in itertools.combinations(verts, size):
            if is_minimal_dominating(g, combo):
                yield frozenset(combo)


def _chosen_set_uncached(g, status, v):
    """The decision recomputed from scratch with no cache: a strong set of
    v's component if there is one, else the first minimal dominating set of
    v's component once the edges last seen down are dropped."""
    comp = _component(g, v)
    for m in _mds_in_order(comp):
        if smds_witness(comp, m) is None:
            return m
    down = {e for e, count in status.items() if count % 2 == 0}
    return next(_mds_in_order(_component(StaticGraph(comp.vertices, comp.edges - down), v)))


local_views = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.just([f"p{i}" for i in range(1, n + 1)]),
        st.sets(st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] < p[1])),
        st.lists(st.integers(1, 9), max_size=21),
        st.integers(1, n),
    )
)


@settings(max_examples=150, deadline=None)
@given(local_views)
def test_memoized_chosen_set_matches_uncached_recomputation(view):
    verts, pairs, counts, who = view
    g = StaticGraph.of(verts, [(f"p{a}", f"p{b}") for (a, b) in pairs])
    # Status for a prefix of the edges: some up (odd counts), some down
    # (even counts), some never seen.
    status = dict(zip(g.sorted_edges(), counts))
    v = f"p{who}"
    expected = _chosen_set_uncached(g, status, v)
    protocol = UgProtocol()
    value = ug_value(protocol, v, g.sorted_edges())
    assert mdst_chosen_set(value, _by_bit(value, status), v) == expected
    # A cache hit, on an equal value that the same instance builds again.
    assert mdst_chosen_set(ug_value(protocol, v, g.sorted_edges()), _by_bit(value, status), v) == expected
    # The same graph from an instance with other bits.
    twin = ug_value(UgProtocol(), v, g.sorted_edges()[::-1])
    assert mdst_chosen_set(twin, _by_bit(twin, status), v) == expected


def test_cache_stats_repeat_and_stay_bounded():
    # A tree whose edges keep going down and up: the decision repeats.
    tvg = generate_random_cot(8, 0.0, 0.0, 32, 1)
    stats = []
    for _ in range(2):
        clear_caches()
        run(tvg, MdstProtocol(), 200)
        # Formatting ug outputs fills no cache.
        run(tvg, UgProtocol(), 200).serialize()
        stats.append(cache_stats())
    assert stats[0] == stats[1]
    assert set(stats[0]) == {"_enumerate_mds_cached", "find_smds", "_mdst_decision"}
    for hits, misses, currsize, maxsize in stats[0].values():
        assert maxsize is not None and currsize <= maxsize
        assert misses > 0
    assert stats[0]["_mdst_decision"][0] > 0


def test_flood_informs_everyone():
    g = named_graph("star", 6)
    trace = run(static_tvg(g), FloodProtocol("p4"), 30)
    assert all(trace.final_outputs.values())


def test_flood_origin_only_when_isolated_late():
    g1 = generate_gk(1)
    trace = run(g1, FloodProtocol("p3"), 2)
    # p3's only edge appears at tick 1; nothing can be delivered before tick 2
    assert trace.final_outputs == {"p0": False, "p1": False, "p2": False, "p3": True}


FLOOD_IDS = st.sampled_from(["p0", "p1", "p2", "p3", "p10"])


@settings(max_examples=300, deadline=None)
@given(
    st.booleans(),
    st.lists(st.tuples(st.sampled_from(["appear", "receive"]), FLOOD_IDS), max_size=12),
)
def test_flood_matches_the_two_set_flood_on_any_call_sequence(at_origin, calls):
    # Any sequence of handler calls, not only one a run produces: a receive
    # may come from a vertex never seen through an edge.
    origin = "p0" if at_origin else "p1"
    one, two = FloodProtocol(origin), TwoSetFloodProtocol(origin)
    s1, s2 = one.initial_state("p0"), two.initial_state("p0")
    assert one.output(s1) == two.output(s2)
    for kind, other in calls:
        if kind == "appear":
            s1, sends1 = one.on_edge_appear(s1, "p0", other)
            s2, sends2 = two.on_edge_appear(s2, "p0", other)
        else:
            s1, sends1 = one.on_receive(s1, "p0", other, "token")
            s2, sends2 = two.on_receive(s2, "p0", other, "token")
        assert sends1 == sends2
        assert one.output(s1) == two.output(s2)
