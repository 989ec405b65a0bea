import itertools
from string import ascii_letters, digits

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nx_to_static
from oracles import enumerate_connected_spanning_subgraphs, first_witness_by_cut_sets, is_cut_set, is_smds_bruteforce
from tvgsim.errors import CapacityError, DomainError
from tvgsim.graphs import (
    StaticGraph,
    components,
    diameter,
    edge_key,
    enumerate_minimal_dominating_sets,
    find_smds,
    is_connected,
    is_dominating,
    is_minimal_dominating,
    make_edge,
    smds_witness,
    vertex_key,
)
from tvgsim.scenarios import named_graph


def test_make_edge_canonical():
    assert make_edge("b", "a") == ("a", "b")
    assert make_edge("a", "b") == ("a", "b")
    # shorter ids sort first regardless of byte value
    assert make_edge("z", "aa") == ("z", "aa")
    with pytest.raises(DomainError):
        make_edge("a", "a")


def test_vertex_order_is_total_on_identifiers():
    ids = ["p1", "p10", "p2", "a", "Z", "_", "abc"]
    ordered = sorted(ids, key=vertex_key)
    assert ordered == ["Z", "_", "a", "p1", "p2", "abc", "p10"]


identifiers = st.text(alphabet=ascii_letters + digits + "_", min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(identifiers, identifiers).filter(lambda p: p[0] != p[1]), max_size=30))
def test_sorted_edges_is_edge_key_order(pairs):
    g = StaticGraph.of({v for p in pairs for v in p}, pairs)
    # the flat key is the order of the endpoints' vertex keys
    by_endpoints = sorted(g.edges, key=lambda e: (vertex_key(e[0]), vertex_key(e[1])))
    assert g.sorted_edges() == sorted(g.edges, key=edge_key) == by_endpoints
    assert g.sorted_vertices() == sorted(g.vertices, key=vertex_key)


def test_of_rejects_stray_endpoint():
    with pytest.raises(DomainError):
        StaticGraph.of(["a", "b"], [("a", "c")])


def test_neighbors_and_has_edge():
    g = named_graph("path", 4)
    assert g.neighbors("p2") == {"p1", "p3"}
    assert g.has_edge("p2", "p1")
    assert not g.has_edge("p1", "p3")
    with pytest.raises(DomainError):
        g.neighbors("nope")


def test_component_of():
    g = StaticGraph.of(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    comp = g.component_of("a")
    assert comp.vertices == frozenset({"a", "b"})
    assert comp.edges == frozenset({("a", "b")})


# Up to 12 vertices, so that q10 and q11 sort after q2: id order is not
# string order.
small_graphs = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])),
    )
)


@settings(max_examples=200, deadline=None)
@given(small_graphs)
def test_cached_adjacency_matches_edge_scan_and_networkx(graph):
    n, pairs = graph
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(pairs)
    g = nx_to_static(nxg)
    for v in g.vertices:
        # The O(E) scan that the cached adjacency replaces.
        assert g.neighbors(v) == {u if w == v else w for (u, w) in g.edges if v in (u, w)}
        comp = g.component_of(v)
        expected = nx.node_connected_component(nxg, int(v[1:]))
        assert comp.vertices == frozenset(f"q{i}" for i in expected)
        assert comp.edges == frozenset(e for e in g.edges if e[0] in comp.vertices)
        assert (comp is g) == nx.is_connected(nxg)
    assert is_connected(g) == nx.is_connected(nxg)
    expected = [{f"q{i}" for i in c} for c in nx.connected_components(nxg)]
    expected.sort(key=lambda c: vertex_key(min(c, key=vertex_key)))
    assert list(components(g)) == expected
    if nx.is_connected(nxg):
        assert diameter(g) == nx.diameter(nxg)


def test_neighbors_returns_a_fresh_set():
    g = named_graph("path", 3)
    g.neighbors("p2").add("zz")
    assert g.neighbors("p2") == {"p1", "p3"}


def test_connectivity_and_diameter_fixtures():
    assert is_connected(named_graph("path", 5))
    assert not is_connected(StaticGraph.of(["a", "b"], []))
    assert diameter(named_graph("path", 5)) == 4
    assert diameter(named_graph("cycle", 6)) == 3
    assert diameter(named_graph("complete", 4)) == 1
    assert diameter(named_graph("star", 7)) == 2
    with pytest.raises(DomainError):
        diameter(StaticGraph.of(["a", "b"], []))
    with pytest.raises(DomainError):
        is_connected(StaticGraph.of([], []))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8), st.floats(0.1, 0.9))
def test_diameter_matches_networkx(seed, n, p):
    nxg = nx.gnp_random_graph(n, p, seed=seed)
    if not nx.is_connected(nxg) or nxg.number_of_nodes() < 2:
        return
    g = nx_to_static(nxg)
    assert diameter(g) == nx.diameter(nxg)


def test_cut_set_fixtures():
    p4 = named_graph("path", 4)
    assert is_cut_set(p4, {("p2", "p3")})
    c4 = named_graph("cycle", 4)
    assert not is_cut_set(c4, {("p1", "p2")})
    assert is_cut_set(c4, {("p1", "p2"), ("p3", "p4")})
    with pytest.raises(DomainError):
        is_cut_set(c4, {("p1", "p3")})


def test_dominating_fixtures():
    p4 = named_graph("path", 4)
    assert is_dominating(p4, {"p2", "p3"})
    assert not is_dominating(p4, {"p1"})
    assert is_minimal_dominating(p4, {"p1", "p3"})
    assert not is_minimal_dominating(p4, {"p1", "p2", "p3"})  # p1 is droppable
    with pytest.raises(DomainError):
        is_dominating(p4, {"zz"})


def _mds_by_subset_scan(g):
    """Independent oracle: scan every vertex subset."""
    verts = g.sorted_vertices()
    out = []
    for size in range(1, len(verts) + 1):
        for combo in itertools.combinations(verts, size):
            if is_minimal_dominating(g, combo):
                out.append(frozenset(combo))
    return out


@pytest.mark.parametrize("name,size", [("path", 4), ("cycle", 5), ("star", 5), ("complete", 4)])
def test_mds_enumeration_matches_subset_scan(name, size):
    g = named_graph(name, size)
    got = enumerate_minimal_dominating_sets(g)
    assert got == _mds_by_subset_scan(g)
    # canonical order: cardinality, then lexicographic on sorted id lists
    keys = [(len(m), sorted(m, key=vertex_key)) for m in got]
    assert keys == sorted(keys)


def test_mds_fixtures():
    p4 = named_graph("path", 4)
    assert [sorted(m) for m in enumerate_minimal_dominating_sets(p4)] == [
        ["p1", "p3"],
        ["p1", "p4"],
        ["p2", "p3"],
        ["p2", "p4"],
    ]
    assert len(enumerate_minimal_dominating_sets(named_graph("cycle", 5))) == 5


def test_capacity_guards():
    big = named_graph("path", 13)
    with pytest.raises(CapacityError):
        enumerate_minimal_dominating_sets(big)
    dense = named_graph("complete", 7)  # 21 edges
    with pytest.raises(CapacityError):
        list(enumerate_connected_spanning_subgraphs(dense))
    # The strong-set search is itself a cache, which keeps no exception: bad
    # input raises on every call.
    disconnected = StaticGraph.of(["a", "b"], [])
    for _ in range(2):
        with pytest.raises(CapacityError):
            find_smds(big)
        with pytest.raises(DomainError):
            find_smds(disconnected)


def test_spanning_subgraph_counts():
    assert len(list(enumerate_connected_spanning_subgraphs(named_graph("cycle", 4)))) == 5
    assert len(list(enumerate_connected_spanning_subgraphs(named_graph("complete", 3)))) == 4
    tree = named_graph("path", 5)
    assert len(list(enumerate_connected_spanning_subgraphs(tree))) == 1


def test_smds_fixtures():
    assert find_smds(named_graph("path", 4)) == frozenset({"p1", "p3"})
    assert find_smds(named_graph("cycle", 5)) is None
    assert find_smds(named_graph("complete", 3)) is None
    assert find_smds(named_graph("star", 6)) == frozenset({"p1"})


def test_smds_witness_c5():
    c5 = named_graph("cycle", 5)
    assert smds_witness(c5, {"p1", "p3"}) == "p4"
    p4 = named_graph("path", 4)
    assert smds_witness(p4, {"p1", "p3"}) is None


def test_smds_witness_requires_a_connected_graph_unless_nothing_is_dominated():
    g = StaticGraph.of(["a", "b", "c"], [("a", "b")])
    for m in (set(), {"a"}, {"a", "c"}, {"a", "b", "zz"}):
        with pytest.raises(DomainError, match="^cut-set test requires a connected graph$"):
            smds_witness(g, m)
    # With every vertex in the set there is no vertex to test.
    assert smds_witness(g, {"a", "b", "c"}) is None
    assert smds_witness(g, {"a", "b", "c", "zz"}) is None
    # Members outside the graph are ignored.
    assert smds_witness(named_graph("path", 4), {"p1", "p3", "zz"}) is None
    assert smds_witness(StaticGraph.of([], []), set()) is None


def _connected_atlas(sizes):
    return [nx_to_static(g) for g in nx.graph_atlas_g() if g.number_of_nodes() in sizes and nx.is_connected(g)]


def test_smds_witness_matches_the_cut_set_walk_on_the_7_vertex_census():
    graphs = _connected_atlas({7})
    assert len(graphs) == 853
    pairs = strong = 0
    for g in graphs:
        for m in enumerate_minimal_dominating_sets(g):
            assert smds_witness(g, m) == first_witness_by_cut_sets(g, m), (g.sorted_edges(), sorted(m))
            pairs += 1
        strong += find_smds(g) is not None
    assert pairs == 8323
    assert strong == 63


def test_smds_witness_matches_the_cut_set_walk_on_every_subset_up_to_6_vertices():
    # Every vertex subset: non-dominating and non-minimal sets as well.
    for g in _connected_atlas(range(1, 7)):
        verts = g.sorted_vertices()
        for size in range(len(verts) + 1):
            for combo in itertools.combinations(verts, size):
                m = frozenset(combo)
                assert smds_witness(g, m) == first_witness_by_cut_sets(g, m), (g.sorted_edges(), combo)


def test_bruteforce_agrees_on_small_fixtures():
    for g in [named_graph("cycle", 4), named_graph("complete", 4), named_graph("path", 5)]:
        for m in enumerate_minimal_dominating_sets(g):
            assert is_smds_bruteforce(g, m) == (smds_witness(g, m) is None)
