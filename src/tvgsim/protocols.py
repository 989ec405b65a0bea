"""Per-process algorithms: underlying-graph computation, the dominating-set
layer built on top of it, and a flooding broadcast.

The underlying-graph protocol is greedy: the local graph only grows, and every
growth is propagated (full graph, not deltas) to every neighbor seen so far.

Each protocol class also states the problem it solves: ``converged`` decides
whether final outputs solve it on a scenario, and ``nps`` gives its family of
necessary presence sets.  It states what a run needs, too: ``takes_origin``
and ``check``, which rejects a scenario or origin before the run starts.  All
are static, so the CLI reads them off the class registered in ``PROTOCOLS``
rather than off the instance it runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Optional, Tuple

from .errors import DomainError
from .engine import Protocol
from .graphs import (
    Edge,
    StaticGraph,
    VertexId,
    bounded_cache,
    check_subset_scan,
    components,
    enumerate_minimal_dominating_sets,
    find_smds,
    is_minimal_dominating,
    make_edge,
    vertex_key,
)
from .metrics import nps_broadcast, nps_ug
from .tvg import eventual_underlying_graph


@bounded_cache
def _vertex_table(vertices: FrozenSet[VertexId]) -> Tuple[str, Tuple[VertexId, ...], Dict[VertexId, int]]:
    """The vertices joined in canonical order, that order, and each vertex's
    rank in it.  Shared by every caller: never mutate the rank dict."""
    order = tuple(sorted(vertices, key=vertex_key))
    return ",".join(order), order, {v: i for i, v in enumerate(order)}


def graph_to_str(g: StaticGraph) -> str:
    # Edge (u, v) sorts at rank[u] * n + rank[v]: the canonical edge order,
    # with integer keys in place of a key function per edge.
    verts, order, rank = _vertex_table(g.vertices)
    n = len(order)
    positions = sorted([rank[u] * n + rank[v] for (u, v) in g.edges])
    edges = ",".join([f"{order[p // n]}-{order[p % n]}" for p in positions])
    return f"{verts}|{edges}"


def bool_to_str(b: bool) -> str:
    return "true" if b else "false"


@dataclass(frozen=True)
class UgState:
    local_graph: StaticGraph
    known_neighbors: FrozenSet[VertexId]


class UgProtocol(Protocol):
    name = "ug"

    def initial_state(self, vertex):
        return UgState(StaticGraph.of([vertex], []), frozenset())

    def on_edge_appear(self, state, vertex, other):
        if make_edge(vertex, other) in state.local_graph.edges:
            return state, []
        neighbors = state.known_neighbors | {other}
        graph = state.local_graph.with_edge(vertex, other)
        sends = [(r, graph) for r in sorted(neighbors, key=vertex_key)]
        return UgState(graph, neighbors), sends

    def on_receive(self, state, vertex, sender, payload):
        if not isinstance(payload, StaticGraph):
            raise DomainError(f"malformed payload from {sender!r}")
        local = state.local_graph
        if payload.edges <= local.edges:
            return state, []
        # A payload that contains the local graph is their union: keep it.
        if local.edges <= payload.edges and local.vertices <= payload.vertices:
            graph = payload
        else:
            graph = local.union(payload)
        sends = [(r, graph) for r in sorted(state.known_neighbors - {sender}, key=vertex_key)]
        return replace(state, local_graph=graph), sends

    def output(self, state):
        return state.local_graph

    def format_output(self, value):
        return graph_to_str(value)

    @staticmethod
    def converged(tvg, outputs):
        target = tvg.graph
        return all(out == target for out in outputs.values())

    @staticmethod
    def nps(graph, origin):
        return nps_ug(graph)


# Dominating-set layer.  Per-edge status counters: each endpoint of an edge
# sees its appearances and disappearances alternate, starting with an
# appearance (normal-form occurrences never touch, and the process latency
# shifts both alike), and both endpoints see the same sequence.  So an edge's
# count of events seen says all there is: odd means last seen up, and counts
# merge consistently by taking the higher.
@dataclass(frozen=True)
class MdstState:
    ug: UgState
    # Never mutated: every change builds a new dict, so a state (and the
    # payloads that share its dict) stays valid once handed out.
    edge_status: Dict[Edge, int]
    in_mdst: bool


def mdst_chosen_set(local_graph: StaticGraph, status: Dict[Edge, int], self_v: VertexId) -> FrozenSet[VertexId]:
    """The dominating set the process currently commits to.

    A strong minimal dominating set of the known footprint wins when one
    exists (stable: insensitive to presence churn).  Otherwise the process
    falls back to the first canonical minimal dominating set of its best
    estimate of the edges that keep reappearing, i.e. the footprint minus
    edges last seen down."""
    down = frozenset(e for e, count in status.items() if count % 2 == 0)
    return _mdst_decision(local_graph, down, self_v)


@bounded_cache
def _mdst_decision(local_graph: StaticGraph, down: FrozenSet[Edge], self_v: VertexId) -> FrozenSet[VertexId]:
    # Pure in its arguments; the kernel is called through module globals so
    # that a rebinding of them (a profiler's, say) sees every miss.
    comp = local_graph.component_of(self_v)
    chosen = find_smds(comp)
    if chosen is not None:
        return chosen
    est = StaticGraph(comp.vertices, comp.edges - down)
    return enumerate_minimal_dominating_sets(est.component_of(self_v))[0]


def _merge_status(mine: Dict[Edge, int], theirs: Dict[Edge, int]) -> Dict[Edge, int]:
    """``mine`` updated with every newer entry of ``theirs``; ``mine`` itself
    when nothing is newer."""
    newer = {e: count for e, count in theirs.items() if count > mine.get(e, 0)}
    return {**mine, **newer} if newer else mine


class MdstProtocol(UgProtocol):
    """The dominating-set layer: the underlying-graph handlers run on
    ``state.ug``, and every change is published with the edge status."""

    name = "mdst"

    def initial_state(self, vertex):
        return self._publish(MdstState(super().initial_state(vertex), {}, False), vertex)[0]

    def _publish(self, state: MdstState, vertex, skip=frozenset()):
        """Recompute membership; send (graph, status) to every known
        neighbor not in ``skip``."""
        chosen = mdst_chosen_set(state.ug.local_graph, state.edge_status, vertex)
        state = MdstState(state.ug, state.edge_status, vertex in chosen)
        payload = (state.ug.local_graph, state.edge_status)
        return state, [(r, payload) for r in sorted(state.ug.known_neighbors - skip, key=vertex_key)]

    def _observe(self, state: MdstState, ug_state: UgState, vertex, other):
        """Count one appearance or disappearance of edge vertex-other."""
        e = make_edge(vertex, other)
        status = {**state.edge_status, e: state.edge_status.get(e, 0) + 1}
        return self._publish(MdstState(ug_state, status, state.in_mdst), vertex)

    def on_edge_appear(self, state, vertex, other):
        ug_state, _ = super().on_edge_appear(state.ug, vertex, other)
        return self._observe(state, ug_state, vertex, other)

    def on_edge_disappear(self, state, vertex, other):
        return self._observe(state, state.ug, vertex, other)

    def on_receive(self, state, vertex, sender, payload):
        graph, their_status = payload
        ug_state, _ = super().on_receive(state.ug, vertex, sender, graph)
        status = _merge_status(state.edge_status, their_status)
        if ug_state is state.ug and status is state.edge_status:
            return state, []
        return self._publish(MdstState(ug_state, status, state.in_mdst), vertex, {sender})

    def output(self, state):
        return state.in_mdst

    def format_output(self, value):
        return bool_to_str(value)

    @staticmethod
    def check(tvg, origin):
        # Every decision scans the subsets of a component of the footprint.
        for comp in components(tvg.graph):
            check_subset_scan(comp)

    @staticmethod
    def converged(tvg, outputs):
        # The final true-set must dominate minimally on the eventual
        # underlying graph.
        true_set = frozenset(v for v, out in outputs.items() if out)
        return is_minimal_dominating(eventual_underlying_graph(tvg), true_set)


@dataclass(frozen=True)
class BroadcastState:
    have_message: bool
    informed_neighbors: FrozenSet[VertexId]
    known_neighbors: FrozenSet[VertexId]


class FloodProtocol(Protocol):
    """Minimal flooding broadcast from a designated origin."""

    name = "flood"
    takes_origin = True

    def __init__(self, origin: VertexId):
        self.origin = origin

    def initial_state(self, vertex):
        return BroadcastState(vertex == self.origin, frozenset(), frozenset())

    def on_edge_appear(self, state, vertex, other):
        if state.have_message and other not in state.informed_neighbors:
            known = state.known_neighbors | {other}
            new_state = BroadcastState(True, state.informed_neighbors | {other}, known)
            return new_state, [(other, "token")]
        if other in state.known_neighbors:
            return state, []
        return replace(state, known_neighbors=state.known_neighbors | {other}), []

    def on_receive(self, state, vertex, sender, payload):
        informed = state.informed_neighbors | {sender}
        if state.have_message:
            return replace(state, informed_neighbors=informed), []
        targets = sorted(state.known_neighbors - informed, key=vertex_key)
        new_state = BroadcastState(True, informed | set(targets), state.known_neighbors)
        return new_state, [(r, "token") for r in targets]

    def output(self, state):
        return state.have_message

    def format_output(self, value):
        return bool_to_str(value)

    @staticmethod
    def check(tvg, origin):
        if origin not in tvg.graph.vertices:
            raise DomainError(f"origin {origin!r} is not a vertex of the scenario")

    @staticmethod
    def converged(tvg, outputs):
        return all(outputs.values())

    @staticmethod
    def nps(graph, origin):
        return nps_broadcast(graph, origin)


PROTOCOLS = {cls.name: cls for cls in (UgProtocol, MdstProtocol, FloodProtocol)}


def get_protocol(name: str, origin: Optional[VertexId] = None) -> Protocol:
    if name not in PROTOCOLS:
        raise DomainError(f"unknown protocol {name!r}")
    cls = PROTOCOLS[name]
    if cls.takes_origin != (origin is not None):
        need = "requires an" if cls.takes_origin else "takes no"
        raise DomainError(f"{name} protocol {need} origin vertex")
    return cls(origin) if cls.takes_origin else cls()
