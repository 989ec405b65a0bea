import networkx as nx
import pytest

from tvgsim.errors import DomainError, GenerationError
from tvgsim.graphs import is_connected, make_edge
from tvgsim.scenarios import (
    _bridges,
    adversary_destabilize,
    generate_gk,
    generate_random_cot,
    named_graph,
)
from tvgsim.tvg import PeriodicTail, eventual_underlying_graph, is_connected_over_time


def test_gk_rejects_bad_k():
    with pytest.raises(DomainError):
        generate_gk(0)


def test_gk_structure():
    g2 = generate_gk(2)
    assert len(g2.graph.vertices) == 7
    # 6 chain edges plus the two shortcuts p0-p4 and p4-p6
    assert len(g2.graph.edges) == 8
    assert g2.schedule[("p0", "p4")].intervals == ((0, 1),)
    assert g2.schedule[("p0", "p1")].tail == PeriodicTail(1, 1, 1)
    assert all(z == 1 for z in g2.latency.values())
    assert is_connected_over_time(g2)
    # the chain is what remains eventually
    assert len(eventual_underlying_graph(g2).edges) == 6


def test_gk_degenerate_shortcut():
    # for k=1 one shortcut coincides with a chain edge and the chain rule wins
    g1 = generate_gk(1)
    assert len(g1.graph.edges) == 4
    assert g1.schedule[("p2", "p3")].tail == PeriodicTail(1, 1, 1)


def test_named_graph_errors():
    with pytest.raises(DomainError):
        named_graph("cycle", 2)
    with pytest.raises(DomainError):
        named_graph("blob", 4)
    with pytest.raises(DomainError):
        named_graph("path", 0)


def test_named_tree_random_is_tree():
    for seed in range(5):
        g = named_graph("tree_random", 8, seed)
        assert is_connected(g)
        assert len(g.edges) == 7


def test_random_cot_validation():
    with pytest.raises(DomainError):
        generate_random_cot(1, 0.2, 0.0, 32, 0)
    with pytest.raises(DomainError):
        generate_random_cot(5, 1.5, 0.0, 32, 0)
    with pytest.raises(DomainError):
        generate_random_cot(5, 0.2, 0.0, 4, 0)


def test_random_cot_properties():
    for seed in range(20):
        tvg = generate_random_cot(8, 0.3, 0.4, 32, seed)
        assert is_connected_over_time(tvg)
        assert is_connected(tvg.graph)
        # recurrent occurrences are long enough to carry a message (a
        # contiguous tail is normalized to (offset, 1, 1) and is always on)
        for e, sched in tvg.schedule.items():
            tail = sched.tail
            if tail is not None and tail.duration < tail.period:
                assert tail.duration >= tvg.latency[e]
        # every edge first appears within the requested span
        assert all(s.next_occurrence(0)[0] < 32 for s in tvg.schedule.values())


def _nx_bridges(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from(g.edges)
    return {make_edge(u, v) for (u, v) in nx.bridges(nxg)}


def test_bridges_match_networkx():
    for seed in range(30):
        for n, extra in ((6, 0.3), (12, 0.1), (20, 0.05)):
            g = generate_random_cot(n, extra, 0.0, 32, seed).graph
            assert _bridges(g) == _nx_bridges(g)
        tree = named_graph("tree_random", 15, seed)
        assert _bridges(tree) == tree.edges
    assert _bridges(named_graph("cycle", 6)) == set()
    # Deeper than the recursion limit: the search keeps its own stack.
    path = named_graph("path", 5000)
    assert _bridges(path) == path.edges


def test_random_cot_raises_when_not_connected_over_time(monkeypatch):
    # The final check is an exception, not an assert, so it holds under -O.
    from tvgsim import scenarios

    monkeypatch.setattr(scenarios, "is_connected_over_time", lambda tvg: False)
    with pytest.raises(GenerationError):
        generate_random_cot(6, 0.3, 0.2, 32, 0)


def test_random_cot_deterministic():
    a = generate_random_cot(7, 0.4, 0.3, 48, 11)
    b = generate_random_cot(7, 0.4, 0.3, 48, 11)
    assert a == b
    c = generate_random_cot(7, 0.4, 0.3, 48, 12)
    assert a != c


def test_random_cot_missing_edges():
    tvg = generate_random_cot(8, 0.6, 0.5, 32, 3)
    missing = [e for e, s in tvg.schedule.items() if s.tail is None]
    assert missing  # at half the non-bridges, some edge is eventually absent
    assert is_connected(eventual_underlying_graph(tvg))


def test_adversary_rejects_strong_graphs():
    with pytest.raises(DomainError) as exc:
        adversary_destabilize(named_graph("star", 5), 2)
    assert "inapplicable" in str(exc.value)
    with pytest.raises(DomainError):
        adversary_destabilize(named_graph("path", 4), 2)


def test_adversary_rejects_disconnected():
    from tvgsim.graphs import StaticGraph

    g = StaticGraph.of(["a", "b", "c"], [("a", "b")])
    with pytest.raises(DomainError):
        adversary_destabilize(g, 1)


def test_adversary_on_c5():
    c5 = named_graph("cycle", 5)
    tvg, rounds = adversary_destabilize(c5, 3)
    assert len(rounds) == 3
    for r in rounds:
        assert r.new_set != r.stable_set
        assert r.witness not in r.stable_set
        assert r.stabilized_at < r.restabilized_at
    first = rounds[0]
    assert first.stable_set == frozenset({"p1", "p3"})
    assert first.witness == "p4"
    assert first.suppressed_edges == frozenset({("p3", "p4")})
    assert first.new_set == frozenset({"p2", "p4"})
    # the witness TVG still contains every underlying edge
    assert tvg.graph == c5


def test_adversary_on_k3():
    k3 = named_graph("complete", 3)
    _, rounds = adversary_destabilize(k3, 2)
    first = rounds[0]
    assert first.stable_set == frozenset({"p1"})
    assert first.witness == "p2"
    assert first.new_set == frozenset({"p3"})
