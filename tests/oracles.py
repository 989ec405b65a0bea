"""Brute-force oracles for the differential tests: slow, exhaustive, and
written apart from the code they check."""

import itertools
from typing import Iterable, Iterator

from tvgsim.errors import CapacityError, DomainError
from tvgsim.graphs import StaticGraph, VertexId, is_connected, is_minimal_dominating
from tvgsim.tvg import PresenceSchedule, Tick

# Spanning subgraphs are enumerated as edge subsets: exponential in edges.
SUBGRAPH_EDGE_CAP = 16


def enumerate_connected_spanning_subgraphs(g: StaticGraph) -> Iterator[StaticGraph]:
    """Every spanning subgraph (V, E') with E' subset of E connected on all of V."""
    if not is_connected(g):
        raise DomainError("spanning subgraphs require a connected graph")
    edges = g.sorted_edges()
    if len(edges) > SUBGRAPH_EDGE_CAP:
        raise CapacityError(
            f"spanning-subgraph enumeration capped at {SUBGRAPH_EDGE_CAP} edges, got {len(edges)}"
        )
    n = len(g.vertices)
    for size in range(max(n - 1, 0), len(edges) + 1):
        for combo in itertools.combinations(edges, size):
            sub = g.subgraph_with_edges(combo)
            if is_connected(sub):
                yield sub


def is_smds_bruteforce(g: StaticGraph, m: Iterable[VertexId]) -> bool:
    """The definition: ``m`` is a minimal dominating set of every connected
    spanning subgraph of ``g``."""
    ms = frozenset(m)
    return all(is_minimal_dominating(sub, ms) for sub in enumerate_connected_spanning_subgraphs(g))


def present_at(schedule: PresenceSchedule, t: Tick) -> bool:
    """Presence at tick ``t`` straight from the stored intervals and tail,
    without the schedule's occurrence walk."""
    if any(s <= t < e for (s, e) in schedule.intervals):
        return True
    tail = schedule.tail
    return tail is not None and t >= tail.offset and (t - tail.offset) % tail.period < tail.duration
