"""Per-process algorithms: underlying-graph computation, the dominating-set
layer built on top of it, and a flooding broadcast.

The underlying-graph protocol is greedy: the local graph only grows, and every
growth is propagated (full graph, not deltas) to every neighbor seen so far.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import DomainError
from .engine import Protocol
from .graphs import (
    Edge,
    StaticGraph,
    VertexId,
    edge_key,
    enumerate_minimal_dominating_sets,
    find_smds,
    make_edge,
    vertex_key,
)


def graph_to_str(g: StaticGraph) -> str:
    verts = ",".join(g.sorted_vertices())
    edges = ",".join(f"{u}-{v}" for (u, v) in g.sorted_edges())
    return f"{verts}|{edges}"


def bool_to_str(b: bool) -> str:
    return "true" if b else "false"


@dataclass(frozen=True)
class UgState:
    local_graph: StaticGraph
    known_neighbors: FrozenSet[VertexId]


def ug_initial_state(vertex: VertexId) -> UgState:
    return UgState(StaticGraph.of([vertex], []), frozenset())


def ug_on_edge_appear(state: UgState, self_v: VertexId, other: VertexId) -> Tuple[UgState, List]:
    e = make_edge(self_v, other)
    if e in state.local_graph.edges:
        return state, []
    neighbors = state.known_neighbors | {other}
    graph = state.local_graph.with_edge(self_v, other)
    new_state = UgState(graph, neighbors)
    sends = [(r, graph) for r in sorted(neighbors, key=vertex_key)]
    return new_state, sends


def ug_on_receive(state: UgState, self_v: VertexId, sender: VertexId, payload: StaticGraph) -> Tuple[UgState, List]:
    if not isinstance(payload, StaticGraph):
        raise DomainError(f"malformed payload from {sender!r}")
    if not (payload.edges - state.local_graph.edges):
        return state, []
    graph = state.local_graph.union(payload)
    new_state = replace(state, local_graph=graph)
    sends = [(r, graph) for r in sorted(state.known_neighbors - {sender}, key=vertex_key)]
    return new_state, sends


def ug_output(state: UgState) -> StaticGraph:
    return state.local_graph


class UgProtocol(Protocol):
    name = "ug"

    def initial_state(self, vertex):
        return ug_initial_state(vertex)

    def on_edge_appear(self, state, vertex, other):
        return ug_on_edge_appear(state, vertex, other)

    def on_receive(self, state, vertex, sender, payload):
        return ug_on_receive(state, vertex, sender, payload)

    def output(self, state):
        return ug_output(state)

    def format_output(self, value):
        return graph_to_str(value)


# Dominating-set layer.  Per-edge status counters: both endpoints of an edge
# observe the same appearance/disappearance sequence, so (event_count, up)
# pairs merge consistently by taking the higher count.
EdgeStatus = Tuple[int, bool]


@dataclass(frozen=True)
class MdstState:
    ug: UgState
    edge_status: Tuple[Tuple[Edge, EdgeStatus], ...]
    in_mdst: bool

    def status_map(self) -> Dict[Edge, EdgeStatus]:
        return dict(self.edge_status)


def _freeze_status(status: Dict[Edge, EdgeStatus]):
    return tuple(sorted(status.items(), key=lambda kv: edge_key(kv[0])))


def mdst_chosen_set(local_graph: StaticGraph, status: Dict[Edge, EdgeStatus], self_v: VertexId) -> FrozenSet[VertexId]:
    """The dominating set the process currently commits to.

    A strong minimal dominating set of the known footprint wins when one
    exists (stable: insensitive to presence churn).  Otherwise the process
    falls back to the first canonical minimal dominating set of its best
    estimate of the edges that keep reappearing, i.e. the footprint minus
    edges last seen down."""
    comp = local_graph.component_of(self_v)
    chosen = find_smds(comp)
    if chosen is not None:
        return chosen
    down = {e for e, (_, up) in status.items() if not up}
    est = StaticGraph(comp.vertices, comp.edges - down)
    comp2 = est.component_of(self_v)
    return enumerate_minimal_dominating_sets(comp2)[0]


def mdst_recompute(state: MdstState, self_v: VertexId) -> MdstState:
    chosen = mdst_chosen_set(state.ug.local_graph, state.status_map(), self_v)
    return replace(state, in_mdst=self_v in chosen)


def _merge_status(mine: Dict[Edge, EdgeStatus], theirs: Dict[Edge, EdgeStatus]) -> Tuple[Dict[Edge, EdgeStatus], bool]:
    merged = dict(mine)
    changed = False
    for e, (count, up) in theirs.items():
        if e not in merged or count > merged[e][0]:
            merged[e] = (count, up)
            changed = True
    return merged, changed


class MdstProtocol(Protocol):
    name = "mdst"

    def initial_state(self, vertex):
        state = MdstState(ug_initial_state(vertex), (), False)
        return mdst_recompute(state, vertex)

    def _payload(self, state: MdstState):
        return (state.ug.local_graph, state.edge_status)

    def on_edge_appear(self, state, vertex, other):
        e = make_edge(vertex, other)
        ug_state, _ = ug_on_edge_appear(state.ug, vertex, other)
        status = state.status_map()
        count = status.get(e, (0, False))[0]
        status[e] = (count + 1, True)
        new_state = MdstState(ug_state, _freeze_status(status), state.in_mdst)
        new_state = mdst_recompute(new_state, vertex)
        payload = self._payload(new_state)
        sends = [(r, payload) for r in sorted(ug_state.known_neighbors, key=vertex_key)]
        return new_state, sends

    def on_edge_disappear(self, state, vertex, other):
        e = make_edge(vertex, other)
        status = state.status_map()
        count = status.get(e, (0, True))[0]
        status[e] = (count + 1, False)
        new_state = MdstState(state.ug, _freeze_status(status), state.in_mdst)
        new_state = mdst_recompute(new_state, vertex)
        payload = self._payload(new_state)
        sends = [(r, payload) for r in sorted(state.ug.known_neighbors, key=vertex_key)]
        return new_state, sends

    def on_receive(self, state, vertex, sender, payload):
        graph, their_status = payload
        ug_state, _ = ug_on_receive(state.ug, vertex, sender, graph)
        graph_changed = ug_state is not state.ug
        status, status_changed = _merge_status(state.status_map(), dict(their_status))
        if not graph_changed and not status_changed:
            return state, []
        new_state = MdstState(ug_state, _freeze_status(status), state.in_mdst)
        new_state = mdst_recompute(new_state, vertex)
        out = self._payload(new_state)
        sends = [(r, out) for r in sorted(ug_state.known_neighbors - {sender}, key=vertex_key)]
        return new_state, sends

    def output(self, state):
        return state.in_mdst

    def format_output(self, value):
        return bool_to_str(value)


@dataclass(frozen=True)
class BroadcastState:
    have_message: bool
    informed_neighbors: FrozenSet[VertexId]
    known_neighbors: FrozenSet[VertexId]


class FloodProtocol(Protocol):
    """Minimal flooding broadcast from a designated origin."""

    name = "flood"

    def __init__(self, origin: VertexId, payload="token"):
        self.origin = origin
        self.payload = payload

    def initial_state(self, vertex):
        return BroadcastState(vertex == self.origin, frozenset(), frozenset())

    def on_edge_appear(self, state, vertex, other):
        if state.have_message and other not in state.informed_neighbors:
            known = state.known_neighbors | {other}
            new_state = BroadcastState(True, state.informed_neighbors | {other}, known)
            return new_state, [(other, self.payload)]
        if other in state.known_neighbors:
            return state, []
        return replace(state, known_neighbors=state.known_neighbors | {other}), []

    def on_receive(self, state, vertex, sender, payload):
        informed = state.informed_neighbors | {sender}
        if state.have_message:
            return replace(state, informed_neighbors=informed), []
        targets = sorted(state.known_neighbors - informed, key=vertex_key)
        new_state = BroadcastState(True, informed | set(targets), state.known_neighbors)
        return new_state, [(r, self.payload) for r in targets]

    def output(self, state):
        return state.have_message

    def format_output(self, value):
        return bool_to_str(value)


def get_protocol(name: str, origin: Optional[VertexId] = None) -> Protocol:
    if name == "ug":
        return UgProtocol()
    if name == "mdst":
        return MdstProtocol()
    if name == "flood":
        if origin is None:
            raise DomainError("flood protocol requires an origin vertex")
        return FloodProtocol(origin)
    raise DomainError(f"unknown protocol {name!r}")
