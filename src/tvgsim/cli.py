"""Command-line entry point.

Exit codes: 0 success, 1 usage or parse error or a file that cannot be read
or written, 2 domain error, 3 simulation did not converge within the horizon.

The argument parser is built once per process, on the first call to
``main``, and reused by every later call; parsing keeps no state in it.
An argv whose first word names a command is parsed by that command's own
parser, which is what the full parser hands it to; anything else (no
command, an option first, an unknown word) and any argument the command
leaves over go through the full parser, so usage and error texts are its.
``simulate`` and ``journey`` keep the last scenario they parsed, keyed by
the file's bytes: a call that reads the same bytes again reuses it, and any
other bytes are parsed afresh.  The memo holds one scenario and never holds
an error, so each call behaves as in a fresh process.  Importing this module
builds nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Optional

from . import graphs, io, metrics, scenarios
from .engine import Protocol, TraceWriter, run
from .errors import DomainError, NotConvergedError, ParseError, TvgsimError
from .protocols import PROTOCOLS, get_protocol
from .tvg import Tvg, earliest_arrival

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NOT_CONVERGED = 3


def _fmt_set(vs) -> str:
    return "{" + ", ".join(graphs.sorted_ids(vs)) + "}"


def _fmt_edges(es) -> str:
    return "{" + ", ".join(f"{u}-{v}" for (u, v) in sorted(es, key=graphs.edge_key)) + "}"


@lru_cache(maxsize=1)
def _parse_scenario(data: bytes) -> Tvg:
    return io.parse_scenario(data)


def _load_scenario(path: str) -> Tvg:
    """The scenario at ``path``; a miss parses the bytes read here, never a
    second read.  The Tvg may be shared between calls: no command changes
    it (a ``Simulation`` copies the schedule)."""
    with open(path, "rb") as fh:
        data = fh.read()
    return _parse_scenario(data)


def cmd_analyze(args) -> int:
    g = io.load_graph_file(args.graph)
    connected = graphs.is_connected(g)
    if connected and (args.all_mds or args.smds):
        graphs.check_subset_scan(g.vertices)
    print(f"vertices: {len(g.vertices)}")
    print(f"edges: {len(g.edges)}")
    print(f"connected: {'yes' if connected else 'no'}")
    if not connected:
        print("graph is disconnected; diameter and dominating-set analysis skipped")
        return EXIT_OK
    print(f"diameter: {graphs.diameter(g)}")
    if args.all_mds:
        sets = graphs.enumerate_minimal_dominating_sets(g)
        print(f"minimal dominating sets ({len(sets)}):")
        for m in sets:
            print(f"  {_fmt_set(m)}")
    if args.smds:
        result = graphs.find_smds(g)
        if result is not None:
            print(f"strong minimal dominating set: {_fmt_set(result)}")
        else:
            print("no strong minimal dominating set")
            for m in graphs.enumerate_minimal_dominating_sets(g):
                witness = graphs.smds_witness(g, m)
                dominators = graphs.dominator_edges(g, witness, m)
                print(
                    f"  candidate {_fmt_set(m)}: witness {witness}, "
                    f"dominator edges {_fmt_edges(dominators)} are not a cut-set"
                )
    return EXIT_OK


def cmd_simulate(args) -> int:
    # The problem is read off the registered class: the protocol object may
    # be a wrapper that forwards only the handlers, which ``run`` does not
    # check, so it is checked here; ``run`` checks a ``Protocol`` itself.
    problem = PROTOCOLS[args.protocol]
    takes_origin = problem.takes_origin
    if takes_origin and not args.origin or not takes_origin and args.origin is not None:
        need = "required" if takes_origin else "not accepted"
        print(f"error: --origin is {need} with --protocol {args.protocol}", file=sys.stderr)
        return EXIT_USAGE
    tvg = _load_scenario(args.scenario)
    protocol = get_protocol(args.protocol, origin=args.origin)
    if not isinstance(protocol, Protocol):
        problem.check(tvg, args.origin)
    # The run streams its records to the trace file and the report's fold,
    # so no trace is held in memory.
    fold = metrics.ReportFold() if args.metrics else None
    with TraceWriter(args.trace, fold) as trace:
        run(tvg, protocol, args.horizon, trace)
    for line in trace.final_lines:
        print(line)
    if not problem.converged(tvg, trace.final_outputs):
        raise NotConvergedError("not converged within horizon")
    if args.metrics:
        if not tvg.graph.edges:
            raise DomainError("the time measure is undefined: the graph has no edge")
        if tvg.process_latency:
            print(
                f"note: the step and the starting time do not count the process latency ({tvg.process_latency})",
                file=sys.stderr,
            )
        report = fold.report(problem.nps(tvg.graph, args.origin))
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    return EXIT_OK


def cmd_journey(args) -> int:
    tvg = _load_scenario(args.scenario)
    result = earliest_arrival(
        tvg, args.source, args.target, after=args.after, deliverable=args.deliverable
    )
    print("none" if result is None else result)
    return EXIT_OK


def cmd_generate_gk(args) -> int:
    tvg = scenarios.generate_gk(args.k)
    io.save_scenario(tvg, args.output)
    return EXIT_OK


def cmd_generate_random(args) -> int:
    tvg = scenarios.generate_random_cot(
        n=args.nodes,
        extra_edge_probability=args.extra,
        missing_fraction=args.missing,
        span=args.span,
        seed=args.seed,
    )
    io.save_scenario(tvg, args.output)
    return EXIT_OK


def cmd_adversary(args) -> int:
    g = io.load_graph_file(args.graph)
    _, rounds = scenarios.adversary_destabilize(g, args.rounds)
    for r in rounds:
        print(
            f"round {r.index}: stable {_fmt_set(r.stable_set)} at {r.stabilized_at}; "
            f"witness {r.witness}; suppressed {_fmt_edges(r.suppressed_edges)}; "
            f"restabilized to {_fmt_set(r.new_set)} at {r.restabilized_at}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvgsim",
        description="Simulate and analyze distributed algorithms on time-varying graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a static graph file")
    p.add_argument("graph")
    p.add_argument("--all-mds", action="store_true", help="list all minimal dominating sets")
    p.add_argument("--smds", action="store_true", help="search for a strong minimal dominating set")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run a protocol over a scenario")
    p.add_argument("scenario")
    p.add_argument("--protocol", choices=sorted(PROTOCOLS), required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--trace", help="write the serialized trace to this file")
    p.add_argument("--metrics", action="store_true", help="print the complexity report as JSON")
    p.add_argument("--origin", help="origin vertex for the flood protocol")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("journey", help="earliest arrival query")
    p.add_argument("scenario")
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)
    p.add_argument("--after", type=int, default=0)
    p.add_argument("--deliverable", action="store_true")
    p.set_defaults(func=cmd_journey)

    p = sub.add_parser("generate", help="generate a scenario file")
    gen = p.add_subparsers(dest="family", required=True)

    gk = gen.add_parser("gk", help="the lower-bound chain family")
    gk.add_argument("--k", type=int, required=True)
    gk.add_argument("-o", "--output", required=True)
    gk.set_defaults(func=cmd_generate_gk)

    rnd = gen.add_parser("random", help="random connected-over-time scenario")
    rnd.add_argument("--nodes", type=int, required=True)
    rnd.add_argument("--extra", type=float, default=0.2)
    rnd.add_argument("--missing", type=float, default=0.0)
    rnd.add_argument("--span", type=int, default=64, help="ticks within which all edges first appear")
    rnd.add_argument("--seed", type=int, required=True)
    rnd.add_argument("-o", "--output", required=True)
    rnd.set_defaults(func=cmd_generate_random)

    p = sub.add_parser("adversary", help="destabilize the dominating-set protocol")
    p.add_argument("--graph", required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.set_defaults(func=cmd_adversary)

    parser.commands = sub.choices  # command name -> its parser, for ``main``
    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        command = _parser.commands.get(argv[0]) if argv else None
        if command is not None:
            args, rest = command.parse_known_args(argv[1:])
            args.command = argv[0]
        if command is None or rest:
            args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except TvgsimError as exc:  # DomainError, GenerationError and the rest
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
