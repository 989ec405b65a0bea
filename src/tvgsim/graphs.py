"""Static undirected graph kernel and dominating-set combinatorics.

Vertices are opaque string identifiers ordered by (length, byte value), which
gives a strict total order over ids matching ``[A-Za-z0-9_]+``.  Edges are
canonical ordered pairs (smaller endpoint first).

Caching.  A ``StaticGraph`` builds, once each and on first use, its
adjacency (read by ``neighbors`` and ``is_dominating``) and its rank
encoding (read by every traversal, below); ``component_of`` returns the
graph itself when it is connected.  Values derived from a whole graph are
memoized by ``bounded_cache``: an LRU cache of at most ``CACHE_MAXSIZE``
entries, keyed by the graph.  Here these are the minimal-dominating-set scan
and the strong-set search.  The protocols use the same decorator for the
dominating-set decision, keyed by the underlying-graph value, which hashes
and compares as its vertex mask, edge mask and edge index: it equals only
values of the same index, so each protocol instance's values have their own
entries.  ``cache_stats`` reports the hits, misses and sizes of every such
cache.

Rank masks.  The rank encoding lists the vertices in id order, each with the
mask of its neighbours' ranks.  The kernel's one BFS runs over those masks a
layer at a time: connectivity, components, the diameter (an eccentricity is
a BFS's layers less one), the subset scan and the strong-set search all use
it.  A dominated vertex's cut-set test is one BFS from that vertex that
leaves out its edges to its dominators; no subgraph is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from .errors import CapacityError, DomainError

VertexId = str
Edge = Tuple[VertexId, VertexId]

# The exponential subset scan is for desk-scale graphs only.
SUBSET_VERTEX_CAP = 12
# Entries per memo.  A `simulate` benchmark pass fills the largest with about
# 300; a longer mdst run evicts the least recently used.
CACHE_MAXSIZE = 1024

_CACHES = {}


def bounded_cache(fn):
    """``fn`` memoized in an LRU cache of at most ``CACHE_MAXSIZE`` entries,
    listed by ``cache_stats`` and emptied by ``clear_caches``."""
    cached = lru_cache(maxsize=CACHE_MAXSIZE)(fn)
    _CACHES[fn.__name__] = cached
    return cached


def cache_stats():
    """``{name: (hits, misses, currsize, maxsize)}`` for every bounded cache."""
    stats = {}
    for name, c in _CACHES.items():
        info = c.cache_info()
        stats[name] = (info.hits, info.misses, info.currsize, info.maxsize)
    return stats


def clear_caches():
    for c in _CACHES.values():
        c.cache_clear()


def vertex_key(v: VertexId):
    return (len(v), v)


def sorted_ids(vs):
    """``vs`` in ``vertex_key`` order with no Python key: by value, then
    stably by length."""
    return sorted(sorted(vs), key=len)


def edge_key(e: Edge):
    """The canonical edge order: each endpoint's ``vertex_key``, flattened."""
    u, v = e
    return (len(u), u, len(v), v)


def make_edge(u: VertexId, v: VertexId) -> Edge:
    if u == v:
        raise DomainError(f"self-loop on vertex {u!r}")
    return (u, v) if vertex_key(u) < vertex_key(v) else (v, u)


@dataclass(frozen=True)
class StaticGraph:
    vertices: FrozenSet[VertexId]
    edges: FrozenSet[Edge]

    @staticmethod
    def of(vertices: Iterable[VertexId], edges: Iterable[Tuple[VertexId, VertexId]]) -> "StaticGraph":
        vs = frozenset(vertices)
        es = frozenset(make_edge(u, v) for (u, v) in edges)
        for (u, v) in es:
            if u not in vs or v not in vs:
                raise DomainError(f"edge ({u!r}, {v!r}) has an endpoint outside the vertex set")
        return StaticGraph(vs, es)

    def sorted_vertices(self):
        return sorted_ids(self.vertices)

    def sorted_edges(self):
        return sorted(self.edges, key=edge_key)

    @cached_property
    def adjacency(self) -> Dict[VertexId, Tuple[VertexId, ...]]:
        """Vertex -> its neighbours, built once per graph (the frozen
        dataclass has no slots, so the value lands in the instance dict).
        Tuples, not sets: a cached graph keeps its adjacency alive."""
        adj = {v: [] for v in self.vertices}
        for (u, v) in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(ns) for v, ns in adj.items()}

    @cached_property
    def ranks(self) -> Tuple[Tuple[VertexId, ...], Dict[VertexId, int], Tuple[int, ...]]:
        """The rank encoding, built once per graph from its edges: the
        vertices in id order, each one's rank in that order, and each one's
        neighbours as a mask of their ranks.  Tuples, as in the adjacency:
        every caller shares the one value."""
        verts = self.sorted_vertices()
        rank = {v: i for i, v in enumerate(verts)}
        bits = [1 << i for i in range(len(verts))]
        neighbours = [0] * len(verts)
        for (u, v) in self.edges:
            i = rank[u]
            j = rank[v]
            neighbours[i] |= bits[j]
            neighbours[j] |= bits[i]
        return tuple(verts), rank, tuple(neighbours)

    def neighbors(self, v: VertexId) -> set:
        if v not in self.vertices:
            raise DomainError(f"unknown vertex {v!r}")
        return set(self.adjacency[v])

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        return make_edge(u, v) in self.edges

    def union(self, other: "StaticGraph") -> "StaticGraph":
        return StaticGraph(self.vertices | other.vertices, self.edges | other.edges)

    def subgraph_with_edges(self, edges: Iterable[Edge]) -> "StaticGraph":
        """Spanning subgraph: same vertices, the given subset of edges."""
        es = frozenset(edges)
        extra = es - self.edges
        if extra:
            raise DomainError(f"edges not in graph: {sorted(extra, key=edge_key)}")
        return StaticGraph(self.vertices, es)

    def component_of(self, v: VertexId) -> "StaticGraph":
        """Induced subgraph on the connected component containing v; the
        graph itself when it is connected."""
        if v not in self.vertices:
            raise DomainError(f"unknown vertex {v!r}")
        verts, rank, neighbours = self.ranks
        seen = _reached(neighbours, 0, 1 << rank[v])[0]
        if seen == (1 << len(verts)) - 1:
            return self
        members = _members(verts, seen)
        es = frozenset(e for e in self.edges if e[0] in members and e[1] in members)
        return StaticGraph(members, es)


def _members(verts: Tuple[VertexId, ...], mask: int) -> FrozenSet[VertexId]:
    """The vertices whose ranks ``mask`` holds."""
    return frozenset(v for i, v in enumerate(verts) if mask >> i & 1)


def components(g: StaticGraph) -> Iterator[FrozenSet[VertexId]]:
    """Vertex sets of the connected components, by their least vertex."""
    verts, _, neighbours = g.ranks
    left = (1 << len(verts)) - 1
    while left:
        comp = _reached(neighbours, 0, left & -left)[0]
        left &= ~comp
        yield _members(verts, comp)


def is_connected(g: StaticGraph) -> bool:
    if not g.vertices:
        raise DomainError("connectivity is undefined on an empty vertex set")
    verts, _, neighbours = g.ranks
    return _reached(neighbours, 0, 1)[0] == (1 << len(verts)) - 1


def diameter(g: StaticGraph) -> int:
    if not is_connected(g):
        raise DomainError("diameter is undefined on a disconnected graph")
    neighbours = g.ranks[2]
    return max(_reached(neighbours, 0, 1 << i)[1] for i in range(len(neighbours))) - 1


def is_dominating(g: StaticGraph, m: Iterable[VertexId]) -> bool:
    ms = frozenset(m)
    extra = ms - g.vertices
    if extra:
        raise DomainError(f"dominating-set candidate contains unknown vertices: {sorted(extra, key=vertex_key)}")
    adj = g.adjacency
    return all(v in ms or not ms.isdisjoint(adj[v]) for v in g.vertices)


def is_minimal_dominating(g: StaticGraph, m: Iterable[VertexId]) -> bool:
    # Removing any single member breaks domination; equivalent to the
    # no-strict-subset condition because domination is monotone.
    ms = frozenset(m)
    if not is_dominating(g, ms):
        return False
    return all(not is_dominating(g, ms - {v}) for v in ms)


def _reached(neighbours: Tuple[int, ...], seen: int, frontier: int) -> Tuple[int, int]:
    """The kernel's one BFS, over rank masks a layer at a time: the mask of
    the vertices in ``seen``, in ``frontier`` or reachable from ``frontier``
    outside ``seen``, and the number of layers, ``frontier`` the first."""
    layers = 0
    while frontier:
        seen |= frontier
        layers += 1
        layer = 0
        while frontier:
            low = frontier & -frontier
            layer |= neighbours[low.bit_length() - 1]
            frontier ^= low
        frontier = layer & ~seen
    return seen, layers


@bounded_cache
def _enumerate_mds_cached(g: StaticGraph) -> Tuple[FrozenSet[VertexId], ...]:
    verts, _, neighbours = g.ranks
    n = len(verts)
    closed = [mask | 1 << i for i, mask in enumerate(neighbours)]
    full = (1 << n) - 1
    result = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            cover = 0
            for i in combo:
                cover |= closed[i]
            if cover != full:
                continue
            minimal = True
            for drop in combo:
                sub = 0
                for i in combo:
                    if i != drop:
                        sub |= closed[i]
                if sub == full:
                    minimal = False
                    break
            if minimal:
                result.append(frozenset(verts[i] for i in combo))
    return tuple(result)


def check_subset_scan(vertices: FrozenSet[VertexId]) -> None:
    """The one guard of the subset scan: at most ``SUBSET_VERTEX_CAP`` vertices."""
    if len(vertices) > SUBSET_VERTEX_CAP:
        raise CapacityError(f"subset scan capped at {SUBSET_VERTEX_CAP} vertices, got {len(vertices)}")


def enumerate_minimal_dominating_sets(g: StaticGraph):
    """All minimal dominating sets, ordered by cardinality then lexicographically
    on the sorted identifier lists."""
    if not g.vertices:
        raise DomainError("no dominating sets on an empty vertex set")
    check_subset_scan(g.vertices)
    return list(_enumerate_mds_cached(g))


def smds_witness(g: StaticGraph, m: Iterable[VertexId]) -> Optional[VertexId]:
    """First dominated vertex (in id order) whose dominator edges are not a
    cut-set, or None when the candidate passes the characterization.  Vertices
    of ``m`` outside the graph are ignored."""
    ms = frozenset(m)
    if not g.vertices <= ms and not is_connected(g):
        raise DomainError("cut-set test requires a connected graph")
    return _first_witness(g, ms)


def _first_witness(g: StaticGraph, ms: FrozenSet[VertexId]) -> Optional[VertexId]:
    # find_smds and smds_witness share this helper, which calls no public
    # name, so a count of calls to either counts only its own callers.
    # The graph is connected, so the edges from p to its dominators are a
    # cut-set exactly when a BFS from p that leaves them out misses a vertex.
    verts, _, neighbours = g.ranks
    full = (1 << len(verts)) - 1
    dominators = 0
    for i, v in enumerate(verts):
        if v in ms:
            dominators |= 1 << i
    for i, p in enumerate(verts):
        if not dominators >> i & 1 and _reached(neighbours, 1 << i, neighbours[i] & ~dominators)[0] == full:
            return p
    return None


def dominator_edges(g: StaticGraph, p: VertexId, m: FrozenSet[VertexId]) -> FrozenSet[Edge]:
    """The edges joining ``p`` to its dominators in ``m``."""
    return frozenset(make_edge(p, q) for q in g.neighbors(p) & m)


@bounded_cache
def find_smds(g: StaticGraph) -> Optional[FrozenSet[VertexId]]:
    """First minimal dominating set (in canonical order) passing the cut-set
    characterization, or None when the graph admits no such set.  Bad input
    raises on every call: the cache keeps no exception."""
    if not is_connected(g):
        raise DomainError("strong-MDS search requires a connected graph")
    check_subset_scan(g.vertices)
    for candidate in _enumerate_mds_cached(g):
        if _first_witness(g, candidate) is None:
            return candidate
    return None
