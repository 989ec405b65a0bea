import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvgsim.errors import DomainError, ParseError
from tvgsim.graphs import StaticGraph, make_edge
from tvgsim.io import (
    load_graph_file,
    load_scenario,
    parse_graph_text,
    save_scenario,
    tvg_from_dict,
    tvg_to_dict,
)
from tvgsim.scenarios import generate_gk, generate_random_cot
from tvgsim.tvg import PeriodicTail, PresenceSchedule, Tvg

GOOD_GRAPH = """\
# a triangle
vertices: a, b, c
edge: a b
edge: b c

edge: a c
"""


def test_parse_graph_text():
    g = parse_graph_text(GOOD_GRAPH)
    assert g.sorted_vertices() == ["a", "b", "c"]
    assert g.sorted_edges() == [("a", "b"), ("a", "c"), ("b", "c")]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("edge: a b\n", "expected 'vertices:"),
        ("vertices:\n", "empty vertex list"),
        ("vertices: a,,b\n", "line 1: empty vertex identifier"),
        ("vertices: a, b,\n", "line 1: empty vertex identifier"),
        ("vertices: a, a\n", "duplicate"),
        ("vertices: a-b\n", "invalid identifier"),
        ("vertices: a, b\nedge: a\n", "expected 'edge:"),
        ("vertices: a, b\nedge: a c\n", "unknown vertex"),
        ("vertices: a, b\nedge: a a\n", "self-loop"),
        ("vertices: a, b\nedge: a b\nedge: b a\n", "line 3: duplicate edge 'b'-'a'"),
        ("vertices: a, b\nwhat: ever\n", "unrecognized"),
        ("# only comments\n", "missing 'vertices:'"),
    ],
)
def test_parse_graph_text_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_graph_text(text)
    assert fragment in str(exc.value)


# Mostly well-formed lines, so that most examples get past the first line.
FUZZ_GOOD_IDS = st.sampled_from(["a", "b", "c_1"])
FUZZ_ANY_IDS = st.sampled_from(["a", "b", "c_1", "a-b", "\u0661", "a\x0bb", ""])
FUZZ_JUNK = st.one_of(
    st.sampled_from(["", "  ", "# note", "vertices:", "edge:", "what: ever", "\r"]),
    st.text(max_size=8),
)
FUZZ_GRAPH_TEXT = st.builds(
    lambda head, edges, tail: "\n".join([head, *edges, *tail]),
    st.one_of(
        st.lists(FUZZ_GOOD_IDS, min_size=1, unique=True).map(lambda ids: "vertices: " + ", ".join(ids)),
        st.lists(FUZZ_ANY_IDS, max_size=4).map(lambda ids: "vertices: " + ", ".join(ids)),
        FUZZ_JUNK,
    ),
    st.lists(
        st.one_of(st.lists(FUZZ_GOOD_IDS, min_size=2, max_size=2), st.lists(FUZZ_ANY_IDS, max_size=3)).map(
            lambda ids: "edge: " + " ".join(ids)
        ),
        max_size=5,
    ),
    st.lists(FUZZ_JUNK, max_size=1),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), FUZZ_GRAPH_TEXT))
def test_parse_graph_text_fuzz(text):
    # Any text either loads or raises ParseError; nothing else escapes.
    try:
        g = parse_graph_text(text)
    except ParseError:
        return
    assert isinstance(g, StaticGraph)


def test_graph_file_roundtrip(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(GOOD_GRAPH)
    g = load_graph_file(str(path))
    assert len(g.edges) == 3


def test_scenario_roundtrip(tmp_path):
    for tvg in [generate_gk(2), generate_random_cot(6, 0.4, 0.3, 32, 5)]:
        path = tmp_path / "s.json"
        save_scenario(tvg, str(path))
        assert load_scenario(str(path)) == tvg
        # the on-disk form is stable under a second round trip
        d1 = json.loads(path.read_text())
        assert tvg_from_dict(d1) == tvg
        assert tvg_to_dict(tvg_from_dict(d1)) == d1


def test_scenario_dict_shape():
    d = tvg_to_dict(generate_gk(1))
    assert set(d) == {"vertices", "edges", "process_latency"}
    chord = next(e for e in d["edges"] if (e["u"], e["v"]) == ("p0", "p2"))
    assert chord["intervals"] == [[0, 1]]
    assert "periodic" not in chord
    path_edge = next(e for e in d["edges"] if (e["u"], e["v"]) == ("p0", "p1"))
    assert path_edge["periodic"] == {"offset": 1, "period": 1, "duration": 1}


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.pop("vertices"), "vertices"),
        (lambda d: d.update(vertices=["a", "a"]), "duplicate"),
        (lambda d: d.update(vertices=["a!", "b"]), "invalid vertex"),
        (lambda d: d.update(vertices=["p0\n", "p1", "p2", "p3"]), "identifier"),
        (lambda d: d.pop("edges"), "edges"),
        (lambda d: d["edges"][0].update(u="nope"), "declared vertices"),
        (lambda d: d["edges"][0].update(u=["p0"]), "endpoints"),
        (lambda d: d["edges"][0].update(v={"p1": 1}), "must be declared"),
        (lambda d: d["edges"][0].update(latency=0), "latency"),
        (lambda d: d["edges"][0].update(intervals=[[3, 3]]), "interval"),
        (lambda d: d["edges"][0].update(intervals=[[3]]), "interval"),
        (lambda d: d["edges"][0].update(periodic={"offset": 0}), "periodic"),
        (lambda d: d.update(process_latency=-1), "process_latency"),
        (lambda d: d.update(proces_latency=1), "unknown scenario key 'proces_latency'"),
        (lambda d: d["edges"][1].update(interval=[[0, 4]]), "edges[1]: unknown key 'interval'"),
        (lambda d: d["edges"][0]["periodic"].update(phase=1), "edges[0]: unknown periodic key 'phase'"),
    ],
)
def test_scenario_errors(mutate, fragment):
    d = tvg_to_dict(generate_gk(1))
    mutate(d)
    with pytest.raises(ParseError) as exc:
        tvg_from_dict(d)
    assert fragment in str(exc.value)


def _gk1_with_edge1(entry):
    """The scenario dict of ``generate_gk(1)`` with ``entry`` as ``edges[1]``."""
    d = tvg_to_dict(generate_gk(1))
    d["edges"][1] = entry
    return d


GK1_EDGE1 = {"u": "p0", "v": "p2", "latency": 1, "intervals": [[0, 1]]}


@pytest.mark.parametrize(
    "obj,message",
    [
        ([tvg_to_dict(generate_gk(1))], "scenario must be a JSON object"),
        (_gk1_with_edge1(["p0", "p2"]), "edges[1]: edge entry must be an object"),
        (_gk1_with_edge1({**GK1_EDGE1, "v": "p0"}), "edges[1]: self-loop on 'p0'"),
        (
            _gk1_with_edge1({**GK1_EDGE1, "intervals": {"0": 1}}),
            "edges[1]: intervals must be an array of [start,end] pairs",
        ),
        (_gk1_with_edge1({**GK1_EDGE1, "periodic": [5, 1, 1]}), "edges[1]: periodic must be an object"),
        (
            _gk1_with_edge1({**GK1_EDGE1, "periodic": {"offset": 5, "period": 0, "duration": 1}}),
            "edges[1]: invalid periodic tail: periodic tail period must be positive",
        ),
        (
            _gk1_with_edge1(
                {**GK1_EDGE1, "intervals": [[3, 4]], "periodic": {"offset": 0, "period": 5, "duration": 1}}
            ),
            "edges[1]: invalid schedule: interval [3,4) ends after the periodic tail's offset 0",
        ),
    ],
    ids=["top-level", "entry", "self-loop", "intervals", "periodic", "tail", "tail-offset"],
)
def test_scenario_boundary_errors(obj, message):
    with pytest.raises(ParseError) as exc:
        tvg_from_dict(obj)
    assert str(exc.value) == message


def _set_tail_field(d, name, value):
    d["edges"][0]["periodic"][name] = value


NON_INTEGER_FIELDS = {
    "latency": lambda d, x: d["edges"][0].update(latency=x),
    "process_latency": lambda d, x: d.update(process_latency=x),
    "interval_start": lambda d, x: d["edges"][0].update(intervals=[[x, 3]]),
    "interval_end": lambda d, x: d["edges"][0].update(intervals=[[0, x]]),
    "periodic_offset": lambda d, x: _set_tail_field(d, "offset", x),
    "periodic_period": lambda d, x: _set_tail_field(d, "period", x),
    "periodic_duration": lambda d, x: _set_tail_field(d, "duration", x),
}


# JSON true/false and non-integral numbers are never coerced to ints.
@pytest.mark.parametrize("bad", [True, False, 1.5, 2.0, "3", None])
@pytest.mark.parametrize("field", NON_INTEGER_FIELDS)
def test_scenario_rejects_non_integer_field(field, bad):
    d = tvg_to_dict(generate_gk(1))
    assert d["edges"][0]["periodic"] == {"offset": 1, "period": 1, "duration": 1}
    NON_INTEGER_FIELDS[field](d, bad)
    with pytest.raises(ParseError):
        tvg_from_dict(d)


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 5))
    verts = [f"v{i}" for i in range(n)]
    pairs = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    schedule, latency = {}, {}
    for e in edges:
        spans = st.tuples(st.integers(0, 40), st.integers(1, 5))
        intervals = [(s, s + d) for s, d in draw(st.lists(spans, max_size=3))]
        tail = None
        if not intervals or draw(st.booleans()):
            period = draw(st.integers(1, 6))
            offset = max((end for _, end in intervals), default=0) + draw(st.integers(0, 5))
            tail = PeriodicTail(offset, period, draw(st.integers(1, period)))
        schedule[e] = PresenceSchedule.of(intervals, tail)
        latency[e] = draw(st.integers(1, 4))
    return Tvg(StaticGraph.of(verts, edges), schedule, latency, draw(st.integers(0, 3)))


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_scenario_dict_roundtrip(tvg):
    d = json.loads(json.dumps(tvg_to_dict(tvg)))
    assert tvg_from_dict(d) == tvg
    assert tvg_to_dict(tvg_from_dict(d)) == d


def normalize_reference(intervals, tail):
    """``PresenceSchedule.of`` without its shortcut for input already in
    normal form: the full normalization, run on every input."""
    ints = []
    for (s, e) in sorted(intervals):
        if s < 0:
            raise DomainError(f"interval start {s} is negative")
        if e <= s:
            raise DomainError(f"interval [{s},{e}) is empty")
        if ints and s <= ints[-1][1]:
            ints[-1][1] = max(ints[-1][1], e)
        else:
            ints.append([s, e])
    if tail is not None and tail.duration == tail.period:
        offset = tail.offset
        while ints and ints[-1][1] >= offset:
            offset = min(offset, ints[-1][0])
            ints.pop()
        tail = PeriodicTail(offset, 1, 1)
    elif tail is not None:
        while ints and ints[-1][1] == tail.offset:
            ints[-1][1] = tail.offset + tail.duration
            tail = PeriodicTail(tail.offset + tail.period, tail.period, tail.duration)
        if ints and ints[-1][1] > tail.offset:
            s, e = ints[-1]
            raise DomainError(f"interval [{s},{e}) ends after the periodic tail's offset {tail.offset}")
    return PresenceSchedule(tuple((s, e) for s, e in ints), tail)


@st.composite
def raw_scenarios(draw):
    """Scenario dicts as a hand-written file may hold them: intervals
    unsorted, touching or overlapping; tails that abut or overlap an
    interval; contiguous tails with period > 1; edges in either direction.
    Dicts that ``save_scenario`` writes (normal form) are drawn too."""
    n = draw(st.integers(2, 5))
    verts = [f"v{i}" for i in range(n)]
    pairs = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    edges = []
    for u, v in draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)):
        if draw(st.booleans()):
            u, v = v, u
        if draw(st.booleans()):
            spans = st.tuples(st.integers(0, 20), st.integers(1, 6))
            intervals = [[s, s + d] for s, d in draw(st.lists(spans, max_size=4))]
        else:  # a sorted run, gap 0 where two intervals touch; maybe shuffled
            intervals, end = [], draw(st.integers(0, 3))
            for gap, length in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4)), max_size=4)):
                intervals.append([end + gap, end + gap + length])
                end += gap + length
            intervals = draw(st.permutations(intervals))
        entry = {"u": u, "v": v, "latency": draw(st.integers(1, 4)), "intervals": intervals}
        if not intervals or draw(st.booleans()):
            period = draw(st.integers(1, 6))
            duration = draw(st.sampled_from([period, draw(st.integers(1, period))]))
            ends = [e for _, e in intervals]
            if ends and draw(st.booleans()):
                offset = draw(st.sampled_from(ends))  # abuts an interval
            else:
                offset = draw(st.integers(0, 30))
            entry["periodic"] = {"offset": offset, "period": period, "duration": duration}
        edges.append(entry)
    return {"vertices": verts, "edges": edges, "process_latency": draw(st.integers(0, 3))}


@settings(max_examples=300, deadline=None)
@given(st.one_of(raw_scenarios(), scenarios().map(tvg_to_dict)))
def test_loader_matches_reference_on_unnormalized_input(d):
    schedule, latency = {}, {}
    for i, entry in enumerate(d["edges"]):
        periodic = entry.get("periodic")
        tail = PeriodicTail(**periodic) if periodic else None
        pairs = [tuple(p) for p in entry["intervals"]]
        try:
            sched = normalize_reference(pairs, tail)
        except DomainError as exc:
            with pytest.raises(ParseError) as raised:
                tvg_from_dict(d)
            assert str(raised.value) == f"edges[{i}]: invalid schedule: {exc}"
            return
        assert PresenceSchedule.of(pairs, tail) == sched
        e = make_edge(entry["u"], entry["v"])
        schedule[e], latency[e] = sched, entry["latency"]
    graph = StaticGraph.of(d["vertices"], [(x["u"], x["v"]) for x in d["edges"]])
    assert tvg_from_dict(d) == Tvg(graph, schedule, latency, d["process_latency"])


def test_duplicate_edge_rejected():
    d = tvg_to_dict(generate_gk(1))
    d["edges"].append(dict(d["edges"][0]))
    with pytest.raises(ParseError) as exc:
        tvg_from_dict(d)
    assert "duplicate edge" in str(exc.value)


def test_empty_presence_rejected():
    d = tvg_to_dict(generate_gk(1))
    d["edges"][0].pop("periodic", None)
    d["edges"][0]["intervals"] = []
    with pytest.raises(ParseError) as exc:
        tvg_from_dict(d)
    assert "no presence" in str(exc.value)


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_scenario(str(path))


def test_loaders_reject_undecodable_bytes(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("vertices: a, b\nedge: a b\n# caf\xe9\n".encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8"):
        load_graph_file(str(path))
    with pytest.raises(ParseError, match="invalid JSON"):
        load_scenario(str(path))


def _gk1_json() -> str:
    return json.dumps(tvg_to_dict(generate_gk(1)), indent=2)


# JSON text is UTF-8: another encoding, or a byte-order mark, is a ParseError
# and never decoded by guess.  Line ends count as text-mode reading counts
# them: "\r\n" and a lone "\r" are each one line end.
@pytest.mark.parametrize(
    "data,message",
    [
        (_gk1_json().encode("utf-16"),
         "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (_gk1_json().encode("utf-32"),
         "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (_gk1_json().encode("utf-8-sig"),
         "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (_gk1_json().replace("\n", "\r\n").replace('"edges"', '"edges" x', 1).encode(),
         "invalid JSON: Expecting ':' delimiter: line 8 column 11 (char 72)"),
        (_gk1_json().replace("\n", "\r").replace('"edges"', '"edges" x', 1).encode(),
         "invalid JSON: Expecting ':' delimiter: line 8 column 11 (char 72)"),
        (b'{"vertices":\r\n ["a\r\nb"]}',
         "invalid JSON: Invalid control character at: line 2 column 5 (char 17)"),
        (b'{"a": 1}\xc3',
         "invalid JSON: 'utf-8' codec can't decode byte 0xc3 in position 8: unexpected end of data"),
    ],
    ids=["utf-16", "utf-32", "utf-8-bom", "crlf", "cr", "cr-in-string", "truncated"],
)
def test_load_scenario_reads_strict_utf8(tmp_path, data, message):
    path = tmp_path / "s.json"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        load_scenario(str(path))
    assert str(exc.value) == message


def test_load_scenario_accepts_crlf_line_ends(tmp_path):
    path = tmp_path / "s.json"
    path.write_bytes(_gk1_json().replace("\n", "\r\n").encode())
    assert load_scenario(str(path)) == generate_gk(1)
