"""Scenario constructors: the lower-bound chain family, random
connected-over-time instances, named static graph families, and the adaptive
adversary that destabilizes the dominating-set protocol on graphs admitting
no strong minimal dominating set.

The adversary extends its schedule round by round, and one forward
``Simulation`` follows it: each stabilization advances it through the same
absolute doubling horizons a run restarted from tick 0 would use, so it
reports the same set and tick, and each round forks and amends it where the
schedule changes.  Its work is linear in rounds."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from . import engine
from .engine import OUTPUT_CHANGED, Simulation
from .errors import DomainError, GenerationError
from .graphs import (
    Edge,
    StaticGraph,
    VertexId,
    diameter,
    dominator_edges,
    edge_key,
    find_smds,
    is_connected,
    make_edge,
    smds_witness,
)
from .protocols import MdstProtocol
from .tvg import PeriodicTail, PresenceSchedule, Tick, Tvg, is_connected_over_time, restrict

ALWAYS = PresenceSchedule.of([], PeriodicTail(0, 1, 1))


def generate_gk(k: int) -> Tvg:
    """Chain of 3k+1 vertices whose shortcut edges exist only during [0,1)
    while the chain edges are present from tick 1 on; unit latencies."""
    if k < 1:
        raise DomainError("k must be >= 1")
    verts = [f"p{i}" for i in range(3 * k + 1)]
    path_edges = [make_edge(verts[i], verts[i + 1]) for i in range(3 * k)]
    chords = {make_edge(verts[0], verts[2 * k]), make_edge(verts[2 * k], verts[3 * k])}
    chords -= set(path_edges)
    edges = list(path_edges) + sorted(chords, key=edge_key)
    schedule = {}
    for e in path_edges:
        schedule[e] = PresenceSchedule.of([], PeriodicTail(1, 1, 1))
    for e in chords:
        schedule[e] = PresenceSchedule.of([(0, 1)])
    graph = StaticGraph.of(verts, edges)
    return Tvg(graph, schedule, {e: 1 for e in graph.edges}, 0)


def named_graph(name: str, size: int, seed: int = 0) -> StaticGraph:
    if size < 1:
        raise DomainError("size must be >= 1")
    verts = [f"p{i}" for i in range(1, size + 1)]
    if name == "path":
        edges = [(verts[i], verts[i + 1]) for i in range(size - 1)]
    elif name == "cycle":
        if size < 3:
            raise DomainError("a cycle needs at least 3 vertices")
        edges = [(verts[i], verts[(i + 1) % size]) for i in range(size)]
    elif name == "star":
        edges = [(verts[0], v) for v in verts[1:]]
    elif name == "complete":
        edges = [(verts[i], verts[j]) for i in range(size) for j in range(i + 1, size)]
    elif name == "tree_random":
        rng = random.Random(seed)
        edges = [(verts[i], verts[rng.randrange(i)]) for i in range(1, size)]
    else:
        raise DomainError(f"unknown graph family {name!r}")
    return StaticGraph.of(verts, edges)


def _bridges(g: StaticGraph) -> set:
    """Edges whose removal disconnects their component, by Tarjan's low-link
    search in O(V + E).  The depth-first search keeps its own stack, so its
    depth is not bounded by the recursion limit."""
    adj = g.adjacency
    order: Dict[VertexId, int] = {}  # discovery index
    low: Dict[VertexId, int] = {}  # least index reachable through one back edge
    bridges = set()
    for root in g.vertices:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack = [(root, None, iter(adj[root]))]
        while stack:
            v, parent, todo = stack[-1]
            for w in todo:
                if w == parent:  # a simple graph has one edge to the parent
                    continue
                if w in order:
                    low[v] = min(low[v], order[w])
                else:
                    order[w] = low[w] = len(order)
                    stack.append((w, v, iter(adj[w])))
                    break
            else:
                stack.pop()
                if parent is not None:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > order[parent]:
                        bridges.add(make_edge(parent, v))
    return bridges


def generate_random_cot(
    n: int,
    extra_edge_probability: float,
    missing_fraction: float,
    horizon: Tick,
    seed: int,
) -> Tvg:
    """Random connected-over-time scenario, reproducible from the seed.

    All underlying edges appear within [0, horizon); recurrent edges carry
    periodic tails with duration >= latency so retried sends always get a
    sufficient occurrence."""
    if n < 2:
        raise DomainError("n must be >= 2")
    if not (0.0 <= extra_edge_probability <= 1.0) or not (0.0 <= missing_fraction <= 1.0):
        raise DomainError("probabilities must lie in [0,1]")
    if horizon < 8:
        raise DomainError("horizon must be >= 8")
    rng = random.Random(seed)
    verts = [f"p{i}" for i in range(1, n + 1)]
    edges = {make_edge(verts[i], verts[rng.randrange(i)]) for i in range(1, n)}
    for i in range(n):
        for j in range(i + 1, n):
            e = make_edge(verts[i], verts[j])
            if e not in edges and rng.random() < extra_edge_probability:
                edges.add(e)
    underlying = StaticGraph.of(verts, edges)

    eligible = sorted(edges - _bridges(underlying), key=edge_key)
    target = int(missing_fraction * len(eligible))
    rng.shuffle(eligible)
    missing: set = set()
    kept = set(edges)
    for e in eligible:
        if len(missing) >= target:
            break
        trial = kept - {e}
        if is_connected(underlying.subgraph_with_edges(trial)):
            kept = trial
            missing.add(e)
    if len(missing) < target:
        raise GenerationError(
            f"could not mark {target} eventual-missing edges while keeping the recurrent graph connected"
        )

    span = horizon
    latency = {}
    schedule = {}
    for e in sorted(edges, key=edge_key):
        z = rng.randint(1, 3)
        latency[e] = z
        if e in missing:
            intervals = []
            for _ in range(rng.randint(1, 2)):
                start = rng.randint(0, span // 2)
                intervals.append((start, start + rng.randint(1, 4)))
            schedule[e] = PresenceSchedule.of(intervals)
        else:
            period = rng.randint(z, z + 5)
            duration = period if rng.random() < 0.5 else rng.randint(z, period)
            offset = rng.randint(0, span - 1)
            intervals = []
            # Optional early one-shot appearance; kept clear of the tail.
            if offset >= 4 and rng.random() < 0.5:
                start = rng.randint(0, offset - 2)
                intervals.append((start, rng.randint(start + 1, offset - 1)))
            schedule[e] = PresenceSchedule.of(intervals, PeriodicTail(offset, period, duration))
    tvg = Tvg(underlying, schedule, latency, 0)
    if not is_connected_over_time(tvg):
        raise GenerationError("generated scenario is not connected over time")
    return tvg


@dataclass(frozen=True)
class AdversaryRound:
    index: int
    stable_set: FrozenSet[VertexId]
    witness: VertexId
    suppressed_edges: FrozenSet[Edge]
    new_set: FrozenSet[VertexId]
    stabilized_at: Tick
    restabilized_at: Tick


@dataclass(frozen=True)
class InstabilityReport:
    rounds: Tuple[AdversaryRound, ...]


def _true_set(outputs: Dict[VertexId, object]) -> FrozenSet[VertexId]:
    return frozenset(v for v, out in outputs.items() if out)


def _stabilize(sim: Simulation, quiet: Tick) -> Tuple[FrozenSet[VertexId], Tick, Simulation]:
    """Advance ``sim`` from ``after = sim.now`` until its outputs have been
    constant for the quiet window before a horizon, the horizons being
    after + 4 * quiet + 64 and its doublings.  Returns the stable true-set,
    the tick of its last change (``after`` when it has not changed since),
    and a fork of ``sim`` at the tick after that change."""
    after = sim.now
    events = sim.trace.events
    sim.advance(after + 1)
    checkpoint, last = sim.fork(), after
    horizon = after + 4 * quiet + 64
    while horizon <= 1_000_000:
        # One occupied tick at a time, so that a change can be forked right after.
        t = sim.next_tick
        while t is not None and t < horizon:
            seen = len(events)
            sim.advance(t + 1)
            if any(ev.kind == OUTPUT_CHANGED for ev in events[seen:]):
                checkpoint, last = sim.fork(), t
            t = sim.next_tick
        if last + quiet < horizon:
            return _true_set(checkpoint.trace.final_outputs), last, checkpoint
        horizon *= 2
    raise GenerationError("dominating-set output did not stabilize within the search horizon")


def adversary_destabilize(underlying: StaticGraph, max_rounds: int) -> Tuple[Tvg, InstabilityReport]:
    """Adaptively extend an all-edges-present schedule so that the shipped
    dominating-set protocol changes its stabilized output every round.

    One simulation runs forward through the rounds.  Each round it
    stabilizes, then a probe forked at the tick after the stable set's last
    change has the witness's dominator edges suppressed from that tick on;
    once the probe restabilizes, the edges return at the tick after its last
    change, and the next round continues from there."""
    if max_rounds < 0:
        raise DomainError(f"round count must be non-negative, got {max_rounds}")
    if not is_connected(underlying):
        raise DomainError("adversary requires a connected underlying graph")
    if find_smds(underlying) is not None:
        raise DomainError("graph admits a strong minimal dominating set; adversary inapplicable")
    quiet = 2 * diameter(underlying)

    tvg = Tvg(
        underlying,
        {e: ALWAYS for e in underlying.edges},
        {e: 1 for e in underlying.edges},
        0,
    )
    sim = Simulation(tvg, MdstProtocol())
    rounds: List[AdversaryRound] = []
    for i in range(max_rounds):
        stable, eta, probe = _stabilize(sim, quiet)
        witness = smds_witness(underlying, stable)
        if witness is None:
            raise GenerationError(f"stabilized set {sorted(stable)} is unexpectedly strong")
        suppressed = dominator_edges(underlying, witness, stable)
        start = eta + 1
        edges = sorted(suppressed, key=edge_key)
        for e in edges:
            probe.amend([e], tvg.schedule[e].minus(start, None))
        new_set, alpha, sim = _stabilize(probe, quiet)
        tvg = restrict(tvg, [(edges, (start, alpha + 1))])
        for e in edges:
            sim.amend([e], tvg.schedule[e])
        rounds.append(
            AdversaryRound(i, stable, witness, suppressed, new_set, eta, alpha)
        )
    return tvg, InstabilityReport(tuple(rounds))


# The adversary no longer calls ``run``, but the benchmark's tracer wraps
# ``scenarios.run`` when it installs, so the name stays bound.
run = engine.run
