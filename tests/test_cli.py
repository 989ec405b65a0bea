import json
import pathlib
import shlex
from dataclasses import replace

import pytest

from conftest import ForwardingProxy
from tvgsim.cli import main
from tvgsim import engine, graphs
from tvgsim.engine import Simulation, run
from tvgsim.io import load_scenario, save_scenario
from tvgsim.protocols import MdstProtocol, UgProtocol
from tvgsim.scenarios import ALWAYS, generate_gk, generate_random_cot, named_graph
from tvgsim.tvg import Tvg

C5_TEXT = "vertices: a, b, c, d, e\n" + "".join(
    f"edge: {u} {v}\n" for (u, v) in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")]
)


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text(C5_TEXT)
    return str(path)


@pytest.fixture
def g1_file(tmp_path):
    path = tmp_path / "g1.json"
    save_scenario(generate_gk(1), str(path))
    return str(path)


def test_analyze(c5_file, capsys):
    assert main(["analyze", c5_file, "--all-mds", "--smds"]) == 0
    out = capsys.readouterr().out
    assert "vertices: 5" in out
    assert "diameter: 2" in out
    assert "minimal dominating sets (5):" in out
    assert "no strong minimal dominating set" in out
    assert "witness d" in out


# C5 as CI writes it, and the analysis it prints: every minimal dominating set
# with its witness.  CI diffs the installed console script against the same text.
C5_P_TEXT = "vertices: p1, p2, p3, p4, p5\n" + "".join(
    f"edge: p{i} p{i % 5 + 1}\n" for i in range(1, 6)
)
C5_ANALYSIS = """\
vertices: 5
edges: 5
connected: yes
diameter: 2
minimal dominating sets (5):
  {p1, p3}
  {p1, p4}
  {p2, p4}
  {p2, p5}
  {p3, p5}
no strong minimal dominating set
  candidate {p1, p3}: witness p4, dominator edges {p3-p4} are not a cut-set
  candidate {p1, p4}: witness p2, dominator edges {p1-p2} are not a cut-set
  candidate {p2, p4}: witness p1, dominator edges {p1-p2} are not a cut-set
  candidate {p2, p5}: witness p3, dominator edges {p2-p3} are not a cut-set
  candidate {p3, p5}: witness p1, dominator edges {p1-p5} are not a cut-set
"""


def test_analyze_prints_every_candidate_witness_without_a_strong_set(tmp_path, capsys):
    path = tmp_path / "c5.txt"
    path.write_text(C5_P_TEXT)
    assert main(["analyze", str(path), "--all-mds", "--smds"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (C5_ANALYSIS, "")


def test_analyze_encodes_the_graph_once(tmp_path, capsys, monkeypatch):
    # Connectivity, the diameter, the subset scan, the strong-set search and
    # every witness read one rank encoding, whose build sorts the vertices.
    path = tmp_path / "c5.txt"
    path.write_text(C5_P_TEXT)
    sort = graphs.StaticGraph.sorted_vertices
    sorted_graphs = []
    monkeypatch.setattr(graphs.StaticGraph, "sorted_vertices", lambda g: sorted_graphs.append(g) or sort(g))
    graphs.clear_caches()
    assert main(["analyze", str(path), "--all-mds", "--smds"]) == 0
    assert capsys.readouterr().out == C5_ANALYSIS
    assert len(sorted_graphs) == 1


def test_analyze_star(tmp_path, capsys):
    path = tmp_path / "star.txt"
    path.write_text("vertices: hub, x, y, z\nedge: hub x\nedge: hub y\nedge: hub z\n")
    assert main(["analyze", str(path), "--smds"]) == 0
    assert "strong minimal dominating set: {hub}" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--all-mds", "--smds"])
def test_analyze_checks_the_subset_scan_cap_before_any_output(tmp_path, capsys, flag):
    path = tmp_path / "path13.txt"
    edges = "".join(f"edge: p{i} p{i + 1}\n" for i in range(1, 13))
    path.write_text("vertices: " + ", ".join(f"p{i}" for i in range(1, 14)) + "\n" + edges)
    assert main(["analyze", str(path), flag]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: subset scan capped at 12 vertices")
    # Without either flag the graph is analyzed as before.
    assert main(["analyze", str(path)]) == 0
    assert "diameter: 12" in capsys.readouterr().out


def test_analyze_disconnected(tmp_path, capsys):
    path = tmp_path / "d.txt"
    path.write_text("vertices: a, b, c\nedge: a b\n")
    assert main(["analyze", str(path)]) == 0
    assert "disconnected" in capsys.readouterr().out


def test_analyze_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("nope\n")
    assert main(["analyze", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file():
    assert main(["analyze", "/no/such/file.txt"]) == 1


def test_usage_error():
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


JOURNEY = ["journey", "g1.json", "--from", "p0"]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["frobnicate"],
        ["--bogus"],
        ["--bogus", "analyze", "g.txt"],  # an option before the command
        ["analyze", "g.txt", "extra"],
        ["analyze", "g.txt", "--smds"],
        JOURNEY,  # no --to
        [*JOURNEY, "--to", "p3", "--bogus"],
        [*JOURNEY, "--to", "p3", "--after", "x"],
        [*JOURNEY, "--to", "p3", "--after", "-5"],
        [*JOURNEY, "--to", "p3", "--deliv"],
        ["journey", "-h"],
        ["generate"],
        ["generate", "-h"],
        ["generate", "random", "--nodes", "x", "--seed", "1", "-o", "r.json"],
    ],
)
def test_main_parses_as_the_full_parser_does(argv, monkeypatch, capsys):
    # main hands an argv that starts with a command to that command's
    # parser; what it prints and returns, and the namespace it passes on,
    # must be the full parser's.  Each command's func records the namespace.
    from tvgsim import cli

    parsed = []

    def record(args):
        parsed.append(args)
        return cli.EXIT_OK

    def recording_parser():
        parser = cli.build_parser()
        for command in parser.commands.values():
            command.set_defaults(func=record)
        return parser

    try:
        expected = recording_parser().parse_args(argv)
        code = cli.EXIT_OK
    except SystemExit as exc:
        expected = None
        code = cli.EXIT_OK if exc.code in (0, None) else cli.EXIT_USAGE
    reference = (code, *capsys.readouterr())
    monkeypatch.setattr(cli, "_parser", recording_parser())
    assert (main(argv), *capsys.readouterr()) == reference
    assert parsed == ([] if expected is None else [expected])
    if argv == [*JOURNEY, "--to", "p3", "--bogus"]:
        assert "tvgsim: error: unrecognized arguments: --bogus\n" in reference[2]
    if argv == JOURNEY:
        assert "tvgsim journey: error: the following arguments are required: --to\n" in reference[2]


def test_simulate_with_metrics_and_trace(g1_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.txt"
    code = main(
        [
            "simulate",
            g1_file,
            "--protocol",
            "ug",
            "--horizon",
            "30",
            "--metrics",
            "--trace",
            str(trace_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("p0 ")
    report = json.loads(lines[-1])
    assert report == {
        "step": 1,
        "starting_time": 1,
        "convergence_tick": 3,
        "convergence_steps_num": 2,
        "convergence_steps_den": 1,
    }
    text = trace_path.read_text()
    assert "FINAL" in text
    assert text.splitlines()[0] == "0 EdgeUp p0 p2"


def test_simulate_not_converged(g1_file, capsys):
    # one tick is not enough for the underlying-graph protocol
    assert main(["simulate", g1_file, "--protocol", "ug", "--horizon", "1"]) == 3
    assert "not converged" in capsys.readouterr().err


def test_simulate_not_converged_leaves_the_whole_trace(g1_file, tmp_path):
    trace_path = tmp_path / "trace.txt"
    assert main(["simulate", g1_file, "--protocol", "ug", "--horizon", "1", "--trace", str(trace_path)]) == 3
    assert trace_path.read_text(encoding="utf-8") == run(load_scenario(g1_file), UgProtocol(), 1).serialize()


def test_simulate_unwritable_trace_exits_1_before_the_run(g1_file, tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the run should not start")

    monkeypatch.setattr(Simulation, "advance", refuse)
    trace_path = tmp_path / "no-such-dir" / "trace.txt"
    assert main(["simulate", g1_file, "--protocol", "ug", "--horizon", "30", "--trace", str(trace_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


class _SendsAstray(ForwardingProxy):
    """Forwards to a protocol until its ``fail_at``-th receive, which sends
    over an edge the scenario does not have."""

    def __init__(self, inner, fail_at, trace_path):
        super().__init__(inner)
        receive, calls = self.on_receive, []

        def on_receive(state, vertex, sender, payload):
            calls.append(vertex)
            if len(calls) < fail_at:
                return receive(state, vertex, sender, payload)
            assert trace_path.exists()  # the trace is being written
            return state, [("nowhere", payload)]

        self.on_receive = on_receive


def test_simulate_deletes_the_partial_trace_when_the_run_raises(g1_file, tmp_path, monkeypatch, capsys):
    from tvgsim import cli

    trace_path = tmp_path / "trace.txt"
    get_protocol = cli.get_protocol
    monkeypatch.setattr(cli, "get_protocol", lambda *a, **k: _SendsAstray(get_protocol(*a, **k), 4, trace_path))
    monkeypatch.setattr(engine, "CHUNK", 1)  # the file is written before the run raises
    argv = ["simulate", g1_file, "--protocol", "ug", "--horizon", "30", "--metrics", "--trace", str(trace_path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "protocol sent over unknown edge" in err
    assert not trace_path.exists()


def test_simulate_flood_requires_origin(g1_file):
    assert main(["simulate", g1_file, "--protocol", "flood", "--horizon", "10"]) == 1


@pytest.fixture
def no_run(monkeypatch):
    """Lets ``run`` make its pre-run check of a ``Protocol`` and refuses what
    follows it: no process state is ever built."""
    from tvgsim import cli

    real_run = cli.run

    def refuse(*args, **kwargs):
        raise AssertionError("the run should not start")

    def checked_only(tvg, protocol, horizon, sink=None):
        monkeypatch.setattr(protocol, "initial_state", refuse)
        return real_run(tvg, protocol, horizon, sink)

    monkeypatch.setattr(cli, "run", checked_only)


def test_simulate_flood_unknown_origin_fails_before_run(g1_file, capsys, no_run):
    assert main(["simulate", g1_file, "--protocol", "flood", "--origin", "zz", "--horizon", "20"]) == 2
    assert "'zz'" in capsys.readouterr().err


@pytest.mark.parametrize("protocol", ["ug", "mdst"])
def test_simulate_origin_only_with_flood(g1_file, capsys, no_run, protocol):
    argv = ["simulate", g1_file, "--protocol", protocol, "--origin", "p0", "--horizon", "20"]
    assert main(argv) == 1
    assert "--origin is not accepted" in capsys.readouterr().err


def test_simulate_mdst_capacity_fails_before_run(tmp_path, capsys, no_run):
    g = named_graph("path", 13)
    scenario = tmp_path / "p13.json"
    save_scenario(Tvg(g, {e: ALWAYS for e in g.edges}, {e: 1 for e in g.edges}), str(scenario))
    trace = tmp_path / "p13.trace"
    argv = ["simulate", str(scenario), "--protocol", "mdst", "--horizon", "40", "--trace", str(trace)]
    assert main(argv) == 2
    assert "capped at 12 vertices" in capsys.readouterr().err
    assert not trace.exists()


@pytest.mark.parametrize("proxied", [False, True])
def test_simulate_checks_the_protocol_once(g1_file, tmp_path, monkeypatch, capsys, proxied):
    from tvgsim import cli

    calls = []
    check = MdstProtocol.check
    monkeypatch.setattr(MdstProtocol, "check", staticmethod(lambda tvg, origin: calls.append(origin) or check(tvg, origin)))
    if proxied:
        get_protocol = cli.get_protocol
        monkeypatch.setattr(cli, "get_protocol", lambda *a, **k: ForwardingProxy(get_protocol(*a, **k)))
    assert main(["simulate", g1_file, "--protocol", "mdst", "--horizon", "40"]) == 0
    assert calls == [None]
    # A component past the cap still fails before the run, after one check.
    g = named_graph("path", 13)
    scenario = tmp_path / "p13.json"
    save_scenario(Tvg(g, {e: ALWAYS for e in g.edges}, {e: 1 for e in g.edges}), str(scenario))
    assert main(["simulate", str(scenario), "--protocol", "mdst", "--horizon", "40"]) == 2
    assert "capped at 12 vertices" in capsys.readouterr().err
    assert calls == [None, None]


def test_simulate_flood(g1_file, capsys):
    code = main(
        ["simulate", g1_file, "--protocol", "flood", "--horizon", "20", "--origin", "p0", "--metrics"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "p3 true" in out


@pytest.mark.parametrize(
    "argv,report",
    [
        (
            ["--protocol", "flood", "--origin", "p0", "--horizon", "20"],
            {"convergence_steps_den": 1, "convergence_steps_num": 2, "convergence_tick": 2, "starting_time": 0, "step": 1},
        ),
        (
            ["--protocol", "mdst", "--horizon", "40"],
            {"convergence_steps_den": 1, "convergence_steps_num": 2, "convergence_tick": 3, "starting_time": 1, "step": 1},
        ),
    ],
)
def test_simulate_metrics_report(g1_file, capsys, argv, report):
    assert main(["simulate", g1_file, *argv, "--metrics"]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == report


@pytest.mark.parametrize("protocol,final", [("ug", "p1 p1|"), ("mdst", "p1 true"), ("flood", "p1 true")])
def test_simulate_metrics_on_one_vertex_says_the_measure_is_undefined(tmp_path, capsys, protocol, final):
    path = tmp_path / "one.json"
    path.write_text('{"vertices": ["p1"], "edges": []}')
    origin = ["--origin", "p1"] if protocol == "flood" else []
    assert main(["simulate", str(path), "--protocol", protocol, *origin, "--horizon", "10", "--metrics"]) == 2
    out, err = capsys.readouterr()
    assert out == final + "\n"
    assert err == "error: the time measure is undefined: the graph has no edge\n"


@pytest.mark.parametrize(
    "process_latency,note,steps",
    [(0, "", 1), (3, "note: the step and the starting time do not count the process latency (3)\n", 7)],
)
def test_simulate_metrics_notes_an_uncounted_process_latency(tmp_path, capsys, process_latency, note, steps):
    # The star p1-p2, p1-p3 of the README, both edges present from tick 2 on.
    path = tmp_path / "star.json"
    save_scenario(replace(generate_random_cot(3, 0.0, 0.3, 8, 104), process_latency=process_latency), str(path))
    assert main(["simulate", str(path), "--protocol", "ug", "--horizon", "60", "--metrics"]) == 0
    out, err = capsys.readouterr()
    assert err == note
    assert json.loads(out.splitlines()[-1]) == {
        "convergence_steps_den": 1,
        "convergence_steps_num": steps,
        "convergence_tick": 2 + steps,
        "starting_time": 2,
        "step": 1,
    }


def test_simulate_mdst(g1_file, capsys):
    code = main(["simulate", g1_file, "--protocol", "mdst", "--horizon", "40"])
    assert code == 0
    out = capsys.readouterr().out
    assert "p1 true" in out or "p0 true" in out


def test_journey(g1_file, capsys):
    assert main(["journey", g1_file, "--from", "p1", "--to", "p3", "--after", "1", "--deliverable"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["journey", g1_file, "--from", "p0", "--to", "nope"]) == 2


def test_journey_rejects_negative_after(g1_file, capsys):
    assert main(["journey", g1_file, "--from", "p0", "--to", "p0", "--after", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "negative" in captured.err


def test_journey_none(tmp_path, capsys):
    from tvgsim.graphs import StaticGraph
    from tvgsim.tvg import PresenceSchedule

    g = StaticGraph.of(["a", "b"], [("a", "b")])
    tvg = Tvg(g, {("a", "b"): PresenceSchedule.of([(0, 2)])}, {("a", "b"): 1})
    path = tmp_path / "s.json"
    save_scenario(tvg, str(path))
    assert main(["journey", str(path), "--from", "a", "--to", "b", "--after", "5"]) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_generate_gk_and_random(tmp_path):
    out = tmp_path / "gk.json"
    assert main(["generate", "gk", "--k", "2", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["vertices"][0] == "p0"
    assert main(["generate", "gk", "--k", "0", "-o", str(out)]) == 2

    out2 = tmp_path / "r.json"
    assert main(
        ["generate", "random", "--nodes", "6", "--extra", "0.3", "--missing", "0.2", "--seed", "4", "-o", str(out2)]
    ) == 0
    d = json.loads(out2.read_text())
    assert len(d["vertices"]) == 6


def test_generate_random_error_names_the_span_flag(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["generate", "random", "--nodes", "4", "--span", "7", "--seed", "1", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: span must be >= 8\n"
    assert not out.exists()


def test_adversary_cli(c5_file, capsys):
    assert main(["adversary", "--graph", c5_file, "--rounds", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("round ") == 2
    assert "witness d" in out


def test_adversary_negative_rounds(c5_file, capsys):
    assert main(["adversary", "--graph", c5_file, "--rounds", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "round count" in captured.err


def test_adversary_inapplicable(tmp_path, capsys):
    path = tmp_path / "star.txt"
    path.write_text("vertices: a, b, c\nedge: a b\nedge: a c\n")
    assert main(["adversary", "--graph", str(path), "--rounds", "1"]) == 2
    assert "inapplicable" in capsys.readouterr().err


def test_simulate_trace_formats_each_output_once(g1_file, tmp_path, monkeypatch):
    from tvgsim.protocols import UgProtocol

    calls = []
    format_output = UgProtocol.format_output

    def counted(self, value):
        calls.append(value)
        return format_output(self, value)

    monkeypatch.setattr(UgProtocol, "format_output", counted)
    trace_path = tmp_path / "trace.txt"
    argv = ["simulate", g1_file, "--protocol", "ug", "--horizon", "30", "--trace", str(trace_path)]
    assert main(argv) == 0
    lines = trace_path.read_text().splitlines()
    finals = lines[lines.index("FINAL") + 1:]
    changes = sum(" OutputChanged " in line for line in lines)
    assert changes > 0
    assert len(calls) == changes + len(finals)


def test_main_keeps_no_state_between_calls(g1_file, c5_file, tmp_path, monkeypatch, capsys):
    from tvgsim import cli

    # The string "rewrite g1" saves generate_gk(2) over g1_file, so the
    # journey after it must read the new file, not the scenario memo.
    sequence = [
        ["journey", g1_file, "--from", "p1", "--to", "p3", "--after", "1", "--deliverable"],
        ["journey", g1_file, "--from", "p1", "--to", "p3", "--after", "1"],
        ["analyze", c5_file, "--all-mds", "--smds"],
        ["analyze", c5_file],
        ["journey", g1_file, "--from", "p1"],  # usage error: no --to
        ["journey", g1_file, "--from", "p0", "--to", "p3"],
        ["simulate", g1_file, "--protocol", "flood", "--origin", "p0", "--horizon", "20"],
        ["simulate", g1_file, "--protocol", "ug", "--horizon", "30", "--metrics"],
        "rewrite g1",
        ["journey", g1_file, "--from", "p0", "--to", "p6"],  # p6 is in generate_gk(2) only
    ]

    def call(argv):
        if argv == "rewrite g1":
            save_scenario(generate_gk(2), g1_file)
            return None
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_parser", None)
        cli._parse_scenario.cache_clear()
        fresh.append(call(argv))
    assert [r and r[0] for r in fresh] == [0, 0, 0, 0, 1, 0, 0, 0, None, 0]
    # The memo now holds generate_gk(2), read from the path g1_file.
    save_scenario(generate_gk(1), g1_file)

    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    monkeypatch.setattr(cli, "_parser", None)
    assert [call(argv) for argv in sequence] == fresh
    assert len(builds) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "."],
        ["analyze", "latin1.txt"],
        ["simulate", "latin1.json", "--protocol", "ug", "--horizon", "5"],
        ["journey", "latin1.json", "--from", "a", "--to", "b"],
        ["simulate", "g1.json", "--protocol", "ug", "--horizon", "5", "--trace", "."],
        ["generate", "gk", "--k", "1", "-o", "."],
    ],
)
def test_unreadable_or_unwritable_file_exits_1(tmp_path, monkeypatch, capsys, argv):
    # A directory, or bytes that are not UTF-8, where a file is expected.
    monkeypatch.chdir(tmp_path)
    save_scenario(generate_gk(1), "g1.json")
    for name in ("latin1.txt", "latin1.json"):
        (tmp_path / name).write_bytes("vertices: a, b\n# caf\xe9\n".encode("latin-1"))
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("command", [["simulate", "deep.json", "--protocol", "ug", "--horizon", "5"],
                                     ["journey", "deep.json", "--from", "a", "--to", "b"]])
def test_deeply_nested_json_exits_1(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 100000)
    assert main(command) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid JSON")


@pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "utf-8-sig"])
def test_journey_rejects_a_scenario_not_in_utf8_every_time(g1_file, tmp_path, capsys, encoding):
    # The same scenario in another encoding: rejected on each load, also
    # right after the UTF-8 file was read.
    path = tmp_path / "other.json"
    path.write_bytes(pathlib.Path(g1_file).read_text(encoding="utf-8").encode(encoding))
    query = ["--from", "p1", "--to", "p3", "--after", "1", "--deliverable"]
    assert main(["journey", g1_file, *query]) == 0
    for _ in range(2):
        assert main(["journey", str(path), *query]) == 1
    assert main(["journey", g1_file, *query]) == 0
    captured = capsys.readouterr()
    assert captured.out.split() == ["3", "3"]
    assert [line.startswith("error: invalid JSON") for line in captured.err.splitlines()] == [True, True]


def _save_two_vertex_scenario(path, start):
    """a-b present over [start, start + 2) with latency 1: the journey from a
    to b arrives at start + 1.  Starts of one digit give files of one size."""
    from tvgsim.graphs import StaticGraph
    from tvgsim.tvg import PresenceSchedule

    g = StaticGraph.of(["a", "b"], [("a", "b")])
    save_scenario(Tvg(g, {("a", "b"): PresenceSchedule.of([(start, start + 2)])}, {("a", "b"): 1}), str(path))


def _journey_a_to_b(path, capsys):
    code = main(["journey", str(path), "--from", "a", "--to", "b"])
    captured = capsys.readouterr()
    return code, captured.out.strip()


def test_journey_reads_a_rewritten_scenario(tmp_path, capsys):
    path = tmp_path / "s.json"
    _save_two_vertex_scenario(path, 3)
    before = path.read_bytes()
    assert _journey_a_to_b(path, capsys) == (0, "4")
    _save_two_vertex_scenario(path, 5)
    assert len(path.read_bytes()) == len(before) != path.read_bytes()
    assert _journey_a_to_b(path, capsys) == (0, "6")


def test_journey_memoizes_no_parse_error(tmp_path, capsys):
    path = tmp_path / "s.json"
    _save_two_vertex_scenario(path, 3)
    good = path.read_bytes()
    assert _journey_a_to_b(path, capsys) == (0, "4")
    path.write_bytes(good[:-5])
    assert _journey_a_to_b(path, capsys) == (1, "")
    assert _journey_a_to_b(path, capsys) == (1, "")
    path.write_bytes(good)
    assert _journey_a_to_b(path, capsys) == (0, "4")


def test_journey_alternating_scenarios(tmp_path, capsys):
    paths = {tmp_path / "three.json": "4", tmp_path / "seven.json": "8"}
    _save_two_vertex_scenario(tmp_path / "three.json", 3)
    _save_two_vertex_scenario(tmp_path / "seven.json", 7)
    for _ in range(3):
        for path, answer in paths.items():
            assert _journey_a_to_b(path, capsys) == (0, answer)


def test_scenario_memo_holds_one_scenario(tmp_path, capsys):
    import gc
    import weakref

    from tvgsim import cli

    first, second = tmp_path / "first.json", tmp_path / "second.json"
    _save_two_vertex_scenario(first, 3)
    _save_two_vertex_scenario(second, 5)
    held = weakref.ref(cli._load_scenario(str(first)))
    assert held() is cli._load_scenario(str(first))
    assert _journey_a_to_b(second, capsys) == (0, "6")
    gc.collect()
    assert held() is None
    assert cli._parse_scenario.cache_info().currsize == 1


def readme_cli_commands():
    """The ``tvgsim`` lines of the README's CLI example block, as argv lists."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("tvgsim ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("graph.txt", "c5.txt"):
        (tmp_path / name).write_text(C5_TEXT)
    commands = readme_cli_commands()
    assert {argv[0] for argv in commands} == {"analyze", "generate", "simulate", "journey", "adversary"}
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
