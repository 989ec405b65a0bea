"""Per-process algorithms: underlying-graph computation, the dominating-set
layer built on top of it, and a flooding broadcast.

The underlying-graph protocol is greedy: the local graph only grows, and every
growth is propagated (full graph, not deltas) to every neighbor seen so far.

Its local graphs are ``UgGraph`` values: a vertex mask and an edge mask over
the protocol instance's ``EdgeIndex``, which gives each vertex and each edge
the next free bit the first time the instance meets it (``MdstProtocol``
inherits the index).  Union is ``|`` and containment ``a & ~b == 0``.  Values
compare and hash as plain ``(vmask, emask, index)`` triples, so two are equal
only within one instance; ``vertices``, ``edges`` and ``graph`` build the
``StaticGraph`` a value stands for, which is what compares across instances.
Formatting puts a mask's bits into canonical order through a permutation that
the index rebuilds only after it has grown, then joins the labels it built
with it.  A payload from another instance's index is a ``DomainError``.

Each protocol class also states the problem it solves: ``converged`` decides
whether final outputs solve it on a scenario, and ``nps`` gives its family of
necessary presence sets.  It states what a run needs, too: ``takes_origin``
and ``check``, which rejects a scenario or origin before the run starts.  All
are static, so the CLI reads them off the class registered in ``PROTOCOLS``
rather than off the instance it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
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
    edge_key,
    enumerate_minimal_dominating_sets,
    find_smds,
    is_minimal_dominating,
    make_edge,
    vertex_key,
)
from .metrics import nps_broadcast, nps_ug
from .tvg import eventual_underlying_graph


class EdgeIndex:
    """One protocol instance's bits: each vertex, and each edge, gets the next
    free bit of its kind the first time the instance meets it.  Bits only
    grow, so a mask stays valid for the life of the instance."""

    def __init__(self):
        self.vertices = []  # bit position -> vertex
        self.edges = []  # bit position -> canonical edge
        self._vertex_bits = {}
        # (u, v) in either orientation -> (edge bit, endpoints' vertex bits)
        self._edge_bits = {}
        # Formatting tables, for the sizes they were built at: per kind, the
        # permutation into canonical order and the labels in that order.
        self._tables = None

    def vertex_bit(self, v: VertexId) -> int:
        bit = self._vertex_bits.get(v)
        if bit is None:
            bit = self._vertex_bits[v] = 1 << len(self.vertices)
            self.vertices.append(v)
        return bit

    def edge_bits(self, u: VertexId, v: VertexId) -> Tuple[int, int]:
        """Edge u-v's bit and the bits of its endpoints."""
        bits = self._edge_bits.get((u, v))
        if bits is None:
            e = make_edge(u, v)
            bits = (1 << len(self.edges), self.vertex_bit(u) | self.vertex_bit(v))
            self._edge_bits[(u, v)] = self._edge_bits[(v, u)] = bits
            self.edges.append(e)
        return bits

    def format(self, value: "UgGraph") -> str:
        """``<vertices>|<edges>``, each comma-joined in canonical order."""
        tables = self._tables
        if tables is None or tables[0] != (len(self.vertices), len(self.edges)):
            tables = self._tables = (
                (len(self.vertices), len(self.edges)),
                _canonical(self.vertices, vertex_key, str),
                _canonical(self.edges, edge_key, "-".join),
            )
        _, vertex_table, edge_table = tables
        return f"{_joined(vertex_table, value.vmask)}|{_joined(edge_table, value.emask)}"


def _canonical(items, key, label):
    """The permutation that puts selectors by bit position in canonical order,
    and the items' labels in that order."""
    order = sorted(range(len(items)), key=lambda i: key(items[i]))
    # itemgetter of one index returns an item, not a tuple; with one item or
    # none, bit order is canonical order.
    permute = itemgetter(*order) if len(order) > 1 else bytes
    return permute, [label(items[i]) for i in order]


# Binary digits to the bytes 0 and 1, which ``compress`` reads as selectors.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _digits(mask: int, width: int = 0) -> bytes:
    """``mask``'s binary digits as selectors, lowest first, zero-padded to ``width``."""
    return bin(mask)[:1:-1].ljust(width, "0").encode().translate(_DIGIT_BYTES)


def _joined(table, mask: int) -> str:
    """The labels of ``mask``'s items, comma-joined in canonical order."""
    permute, labels = table
    return ",".join(compress(labels, permute(_digits(mask, len(labels)))))


@dataclass(frozen=True, slots=True)
class UgGraph:
    """A ug local graph: a vertex mask and an edge mask over ``index``.  Equal
    values share the index and both masks; ``graph`` builds the graph a value
    stands for, to compare with a graph or with another instance's value."""

    vmask: int
    emask: int
    index: EdgeIndex

    @property
    def vertices(self) -> FrozenSet[VertexId]:
        return frozenset(compress(self.index.vertices, _digits(self.vmask)))

    @property
    def edges(self) -> FrozenSet[Edge]:
        return frozenset(compress(self.index.edges, _digits(self.emask)))

    @property
    def graph(self) -> StaticGraph:
        return StaticGraph(self.vertices, self.edges)


def bool_to_str(b: bool) -> str:
    return "true" if b else "false"


@dataclass(frozen=True)
class UgState:
    local_graph: UgGraph
    known_neighbors: FrozenSet[VertexId]


class UgProtocol(Protocol):
    name = "ug"

    def __init__(self):
        self._index = EdgeIndex()

    def initial_state(self, vertex):
        return UgState(UgGraph(self._index.vertex_bit(vertex), 0, self._index), frozenset())

    def on_edge_appear(self, state, vertex, other):
        local = state.local_graph
        ebit, vbits = self._index.edge_bits(vertex, other)
        if local.emask & ebit:
            return state, []
        neighbors = state.known_neighbors | {other}
        graph = UgGraph(local.vmask | vbits, local.emask | ebit, self._index)
        sends = [(r, graph) for r in sorted(neighbors, key=vertex_key)]
        return UgState(graph, neighbors), sends

    def on_receive(self, state, vertex, sender, payload):
        if not isinstance(payload, UgGraph):
            raise DomainError(f"malformed payload from {sender!r}")
        if payload.index is not self._index:
            raise DomainError(f"payload from {sender!r} comes from another protocol instance")
        local = state.local_graph
        if not payload.emask & ~local.emask:
            return state, []
        graph = UgGraph(local.vmask | payload.vmask, local.emask | payload.emask, self._index)
        sends = [(r, graph) for r in sorted(state.known_neighbors - {sender}, key=vertex_key)]
        return UgState(graph, state.known_neighbors), sends

    def output(self, state):
        return state.local_graph

    def format_output(self, value):
        return value.index.format(value)

    @staticmethod
    def converged(tvg, outputs):
        target = tvg.graph
        return all(out.graph == target for out in outputs.values())

    @staticmethod
    def nps(graph, origin):
        return nps_ug(graph)


# Dominating-set layer.  Per-edge status counters: each endpoint of an edge
# sees its appearances and disappearances alternate, starting with an
# appearance (normal-form occurrences never touch, and the process latency
# shifts both alike), and both endpoints see the same sequence.  So an edge's
# count of events seen says all there is: odd means last seen up, and counts
# merge consistently by taking the higher.  Counts are keyed by the edge's bit
# in the instance's ``EdgeIndex``.
@dataclass(frozen=True)
class MdstState:
    ug: UgState
    # Never mutated: every change builds a new dict, so a state (and the
    # payloads that share its dict) stays valid once handed out.
    edge_status: Dict[int, int]
    in_mdst: bool


def mdst_chosen_set(local_graph: UgGraph, status: Dict[int, int], self_v: VertexId) -> FrozenSet[VertexId]:
    """The dominating set the process currently commits to.

    A strong minimal dominating set of the known footprint wins when one
    exists (stable: insensitive to presence churn).  Otherwise the process
    falls back to the first canonical minimal dominating set of its best
    estimate of the edges that keep reappearing, i.e. the footprint minus
    edges last seen down.  ``status`` maps edge bits to counts."""
    # The bits are distinct powers of two, so their sum is their union.
    down = sum(bit for bit, count in status.items() if count % 2 == 0)
    return _mdst_decision(local_graph, down, self_v)


@bounded_cache
def _mdst_decision(local_graph: UgGraph, down: int, self_v: VertexId) -> FrozenSet[VertexId]:
    # Pure in its arguments; the kernel is called through module globals so
    # that a rebinding of them (a profiler's, say) sees every miss.  Only a
    # miss builds the graph the value stands for.  Removing edges only splits
    # components, so dropping the down edges from the whole value leaves
    # self_v's component as dropping them from that component would.
    comp = local_graph.graph.component_of(self_v)
    chosen = find_smds(comp)
    if chosen is not None:
        return chosen
    est = UgGraph(local_graph.vmask, local_graph.emask & ~down, local_graph.index).graph
    return enumerate_minimal_dominating_sets(est.component_of(self_v))[0]


def true_set(outputs: Dict[VertexId, object]) -> FrozenSet[VertexId]:
    """The vertices whose dominating-set output is true."""
    return frozenset(v for v, out in outputs.items() if out)


def _merge_status(mine: Dict[int, int], theirs: Dict[int, int]) -> Dict[int, int]:
    """``mine`` updated with every newer entry of ``theirs``; ``mine`` itself
    when nothing is newer."""
    newer = {bit: count for bit, count in theirs.items() if count > mine.get(bit, 0)}
    return {**mine, **newer} if newer else mine


class MdstProtocol(UgProtocol):
    """The dominating-set layer: the underlying-graph handlers run on
    ``state.ug``, and every change is published with the edge status."""

    name = "mdst"

    def initial_state(self, vertex):
        return self._publish(super().initial_state(vertex), {}, vertex)[0]

    def _publish(self, ug: UgState, status: Dict[int, int], vertex, skip=frozenset()):
        """The state of ``ug`` and ``status`` with membership recomputed; send
        (graph, status) to every known neighbor not in ``skip``."""
        chosen = mdst_chosen_set(ug.local_graph, status, vertex)
        payload = (ug.local_graph, status)
        sends = [(r, payload) for r in sorted(ug.known_neighbors - skip, key=vertex_key)]
        return MdstState(ug, status, vertex in chosen), sends

    def _observe(self, state: MdstState, ug_state: UgState, vertex, other):
        """Count one appearance or disappearance of edge vertex-other."""
        ebit = self._index.edge_bits(vertex, other)[0]
        status = {**state.edge_status, ebit: state.edge_status.get(ebit, 0) + 1}
        return self._publish(ug_state, status, vertex)

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
        return self._publish(ug_state, status, vertex, {sender})

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
        return is_minimal_dominating(eventual_underlying_graph(tvg), true_set(outputs))


@dataclass(frozen=True)
class BroadcastState:
    have_message: bool
    known_neighbors: FrozenSet[VertexId]


class FloodProtocol(Protocol):
    """Minimal flooding broadcast from a designated origin.  Once a process
    holds the message, it has sent it to or had it from each known neighbor."""

    name = "flood"
    takes_origin = True

    def __init__(self, origin: VertexId):
        self.origin = origin

    def initial_state(self, vertex):
        return BroadcastState(vertex == self.origin, frozenset())

    def on_edge_appear(self, state, vertex, other):
        if other in state.known_neighbors:
            return state, []
        new_state = BroadcastState(state.have_message, state.known_neighbors | {other})
        return new_state, [(other, "token")] if state.have_message else []

    def on_receive(self, state, vertex, sender, payload):
        new_state = BroadcastState(True, state.known_neighbors | {sender})
        if state.have_message:
            return new_state, []
        targets = sorted(state.known_neighbors - {sender}, key=vertex_key)
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
