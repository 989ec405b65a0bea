"""File formats: the graph text format and the scenario JSON format."""

from __future__ import annotations

import json
import re
from typing import Optional

from .errors import DomainError, ParseError
from .graphs import StaticGraph, make_edge
from .tvg import PeriodicTail, PresenceSchedule, Tvg

_ID_RE = re.compile(r"[A-Za-z0-9_]+")
# The keys a scenario object, an edge entry and a periodic tail may hold.
_SCENARIO_KEYS = frozenset({"vertices", "edges", "process_latency"})
_EDGE_KEYS = frozenset({"u", "v", "latency", "intervals", "periodic"})
_PERIODIC_KEYS = frozenset({"offset", "period", "duration"})


def parse_graph_text(text: str) -> StaticGraph:
    """Graph file: first line ``vertices: <comma-separated ids>``, then
    ``edge: <id> <id>`` lines; ``#`` starts a comment."""
    vertices = None
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if vertices is None:
            if not line.startswith("vertices:"):
                raise ParseError(f"line {lineno}: expected 'vertices: ...', got {raw!r}")
            listed = line[len("vertices:"):]
            if not listed.strip():
                raise ParseError(f"line {lineno}: empty vertex list")
            ids = [v.strip() for v in listed.split(",")]
            for v in ids:
                if not v:
                    raise ParseError(f"line {lineno}: empty vertex identifier")
                if not _ID_RE.fullmatch(v):
                    raise ParseError(f"line {lineno}: invalid identifier {v!r}")
            vertices = frozenset(ids)
            if len(vertices) != len(ids):
                raise ParseError(f"line {lineno}: duplicate vertex identifier")
        elif line.startswith("edge:"):
            parts = line[len("edge:"):].split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'edge: <id> <id>', got {raw!r}")
            u, v = parts
            for x in (u, v):
                if x not in vertices:
                    raise ParseError(f"line {lineno}: unknown vertex {x!r}")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop on {u!r}")
            e = make_edge(u, v)
            if e in edges:
                raise ParseError(f"line {lineno}: duplicate edge {u!r}-{v!r}")
            edges.add(e)
        else:
            raise ParseError(f"line {lineno}: unrecognized line {raw!r}")
    if vertices is None:
        raise ParseError("missing 'vertices:' line")
    return StaticGraph(vertices, frozenset(edges))


def load_graph_file(path: str) -> StaticGraph:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"graph file is not UTF-8 text: {exc}") from None
    return parse_graph_text(text)


def tvg_to_dict(tvg: Tvg) -> dict:
    edges = []
    for e in tvg.graph.sorted_edges():
        sched = tvg.schedule[e]
        entry = {
            "u": e[0],
            "v": e[1],
            "latency": tvg.latency[e],
            "intervals": [[s, end] for (s, end) in sched.intervals],
        }
        if sched.tail is not None:
            entry["periodic"] = {
                "offset": sched.tail.offset,
                "period": sched.tail.period,
                "duration": sched.tail.duration,
            }
        edges.append(entry)
    return {
        "vertices": tvg.graph.sorted_vertices(),
        "edges": edges,
        "process_latency": tvg.process_latency,
    }


def tvg_from_dict(obj: dict) -> Tvg:
    if not isinstance(obj, dict):
        raise ParseError("scenario must be a JSON object")
    if not _SCENARIO_KEYS.issuperset(obj):
        raise ParseError(f"unknown scenario key {min(obj.keys() - _SCENARIO_KEYS)!r}")
    raw_vertices = obj.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise ParseError("scenario needs a nonempty 'vertices' array")
    for v in raw_vertices:
        if not isinstance(v, str) or not _ID_RE.fullmatch(v):
            raise ParseError(f"invalid vertex identifier {v!r}")
    declared = frozenset(raw_vertices)
    if len(declared) != len(raw_vertices):
        raise ParseError("duplicate vertex identifier")
    raw_edges = obj.get("edges")
    if not isinstance(raw_edges, list):
        raise ParseError("scenario needs an 'edges' array")
    schedule = {}
    latency = {}
    # Messages name the entry as f"edges[{i}]", built only when one is raised.
    for i, entry in enumerate(raw_edges):
        if not isinstance(entry, dict):
            raise ParseError(f"edges[{i}]: edge entry must be an object")
        if not _EDGE_KEYS.issuperset(entry):
            raise ParseError(f"edges[{i}]: unknown key {min(entry.keys() - _EDGE_KEYS)!r}")
        u, v = entry.get("u"), entry.get("v")
        # Declared ids are strings: test the type first, since a JSON array
        # or object is unhashable.
        if not (isinstance(u, str) and u in declared and isinstance(v, str) and v in declared):
            raise ParseError(f"edges[{i}]: endpoints {u!r},{v!r} must be declared vertices")
        if u == v:
            raise ParseError(f"edges[{i}]: self-loop on {u!r}")
        z = entry.get("latency")
        # Integer fields test type(x) is int: JSON true/false load as bool,
        # an int subclass, and must not pass as 1/0.
        if type(z) is not int or z < 1:
            raise ParseError(f"edges[{i}]: latency must be an integer >= 1")
        intervals = entry.get("intervals", [])
        if not isinstance(intervals, list):
            raise ParseError(f"edges[{i}]: intervals must be an array of [start,end] pairs")
        parsed = []
        for pair in intervals:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or type(pair[0]) is not int
                or type(pair[1]) is not int
            ):
                raise ParseError(f"edges[{i}]: interval {pair!r} must be a pair of integers")
            parsed.append((pair[0], pair[1]))
        tail: Optional[PeriodicTail] = None
        periodic = entry.get("periodic")
        if periodic is not None:
            if not isinstance(periodic, dict):
                raise ParseError(f"edges[{i}]: periodic must be an object")
            if not _PERIODIC_KEYS.issuperset(periodic):
                raise ParseError(f"edges[{i}]: unknown periodic key {min(periodic.keys() - _PERIODIC_KEYS)!r}")
            fields = (periodic.get("offset"), periodic.get("period"), periodic.get("duration"))
            if tuple(map(type, fields)) != (int, int, int):
                raise ParseError(f"edges[{i}]: periodic offset, period and duration must be integers")
            try:
                tail = PeriodicTail(*fields)
            except DomainError as exc:
                raise ParseError(f"edges[{i}]: invalid periodic tail: {exc}") from None
        if not parsed and tail is None:
            raise ParseError(f"edges[{i}]: edge has no presence at all; remove it instead")
        e = make_edge(u, v)
        if e in schedule:
            raise ParseError(f"edges[{i}]: duplicate edge {u!r}-{v!r}")
        try:
            schedule[e] = PresenceSchedule.of(parsed, tail)
        except DomainError as exc:
            raise ParseError(f"edges[{i}]: invalid schedule: {exc}") from None
        latency[e] = z
    pl = obj.get("process_latency", 0)
    if type(pl) is not int or pl < 0:
        raise ParseError("process_latency must be a non-negative integer")
    # The edges are canonical and their endpoints declared, so the graph is
    # built directly rather than through StaticGraph.of.
    graph = StaticGraph(declared, frozenset(schedule))
    return Tvg(graph, schedule, latency, pl)


def save_scenario(tvg: Tvg, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tvg_to_dict(tvg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_scenario(data: bytes) -> Tvg:
    """A scenario from the bytes of its JSON file.

    JSON text is UTF-8: the bytes are decoded strictly, so another encoding
    or a byte-order mark is a ``ParseError`` and is never guessed at.  Line
    ends are read as a text-mode file reads them, so error positions count
    CR LF and a lone CR as one line end."""
    try:
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        obj = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # Undecodable bytes are invalid JSON too; the decoder raises
        # RecursionError on nesting deeper than it can.
        raise ParseError(f"invalid JSON: {exc}") from None
    return tvg_from_dict(obj)


def load_scenario(path: str) -> Tvg:
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_scenario(data)
