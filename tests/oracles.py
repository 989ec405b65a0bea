"""Brute-force oracles for the differential tests: slow, exhaustive, and
written apart from the code they check."""

import itertools
from typing import FrozenSet, Iterable, Iterator, List, Tuple

from tvgsim.engine import output_timeline, run
from tvgsim.errors import CapacityError, DomainError, GenerationError
from tvgsim.graphs import (
    StaticGraph,
    VertexId,
    diameter,
    dominator_edges,
    edge_key,
    find_smds,
    is_connected,
    is_minimal_dominating,
    smds_witness,
)
from tvgsim.protocols import MdstProtocol
from tvgsim.scenarios import ALWAYS, AdversaryRound, InstabilityReport
from tvgsim.tvg import PresenceSchedule, Tick, Tvg, restrict

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


def _stabilize_by_restarts(tvg: Tvg, after: Tick, quiet: Tick) -> Tuple[FrozenSet[VertexId], Tick]:
    """Simulate from tick 0 until the true-set has been constant for the
    quiet window; returns the stable set and the tick of its last change."""
    horizon = after + 4 * quiet + 64
    while horizon <= 1_000_000:
        trace = run(tvg, MdstProtocol(), horizon)
        last = output_timeline(trace)[-1][0]
        if last + quiet < horizon:
            return frozenset(v for v, out in trace.final_outputs.items() if out), max(last, after)
        horizon *= 2
    raise GenerationError("dominating-set output did not stabilize within the search horizon")


def adversary_by_restarts(underlying: StaticGraph, max_rounds: int) -> Iterator[Tuple[Tvg, InstabilityReport]]:
    """The adversary as first written, re-simulating from tick 0 at every
    stabilization and rebuilding the ``Tvg`` every round; quadratic in
    rounds.  Yields the witness ``Tvg`` and the report after each round."""
    if max_rounds < 0:
        raise DomainError(f"round count must be non-negative, got {max_rounds}")
    if not is_connected(underlying):
        raise DomainError("adversary requires a connected underlying graph")
    if find_smds(underlying) is not None:
        raise DomainError("graph admits a strong minimal dominating set; adversary inapplicable")
    quiet = 2 * diameter(underlying)
    tvg = Tvg(underlying, {e: ALWAYS for e in underlying.edges}, {e: 1 for e in underlying.edges}, 0)
    rounds: List[AdversaryRound] = []
    watch = 0
    for i in range(max_rounds):
        stable, eta = _stabilize_by_restarts(tvg, watch, quiet)
        witness = smds_witness(underlying, stable)
        if witness is None:
            raise GenerationError(f"stabilized set {sorted(stable)} is unexpectedly strong")
        suppressed = dominator_edges(underlying, witness, stable)
        start = eta + 1
        probe = restrict(tvg, [(sorted(suppressed, key=edge_key), (start, None))])
        new_set, alpha = _stabilize_by_restarts(probe, start, quiet)
        tvg = restrict(tvg, [(sorted(suppressed, key=edge_key), (start, alpha + 1))])
        rounds.append(AdversaryRound(i, stable, witness, suppressed, new_set, eta, alpha))
        watch = alpha + 1
        yield tvg, InstabilityReport(tuple(rounds))
