"""Spans around the calls into each tvgsim layer, installed from outside the
program for the traced run only.

``install`` rebinds the public functions of ``graphs``, ``tvg``, ``metrics``,
``io`` and ``scenarios`` where their callers look them up (module attributes,
names bound by ``from ... import``, and methods on the classes), and wraps
every protocol the CLI or the adversary creates in a delegating proxy.  A
span records its name, start, end and the span open when it began; spans
stay in memory and are written out once the pass is over.  A span's self
time is its duration minus the durations of its children.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

# Span name -> graph-kernel functions it covers, wrapped wherever a module binds them.
GRAPH_SPANS = {
    "graphs.mds": ("enumerate_minimal_dominating_sets", "find_smds", "smds_witness"),
    "graphs.bfs": ("is_connected", "diameter", "is_cut_set"),
}
HANDLERS = ("on_init", "on_edge_appear", "on_edge_disappear", "on_receive")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters = Counter()

    def wrap(self, name, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self._stack

        def traced(*args, **kwargs):
            sid = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(sid)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[sid] = clock()
                stack.pop()

        return traced

    def self_times(self):
        """Span name -> (total self seconds, number of spans)."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0.0, 0] for name in self.names}
        for i, nid in enumerate(self.span_name):
            acc = out[self.names[nid]]
            acc[0] += dur[i] - child[i]
            acc[1] += 1
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path):
        """One span per line: id, parent id (-1 for a root), name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i, (nid, p, s, e) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                fh.write(f"{i}\t{p}\t{self.names[nid]}\t{s:.9f}\t{e:.9f}\n")


class ProtocolProxy:
    """Delegates to a protocol, recording its handlers and its formatting."""

    def __init__(self, inner, tracer):
        self.initial_state = inner.initial_state
        self.output = inner.output
        for handler in HANDLERS:
            setattr(self, handler, tracer.wrap("protocols.handler", getattr(inner, handler)))
        self.format_output = tracer.wrap("protocols.format", inner.format_output)


def _patch(tracer, owner, attr, span):
    setattr(owner, attr, tracer.wrap(span, getattr(owner, attr)))


def _tally(counters, trace):
    for ev in trace.events:
        counters["engine.kind." + ev.kind] += 1
    counters["engine.events"] += len(trace.events)


def install(tracer):
    from tvgsim import cli, engine, graphs, io, metrics, protocols, scenarios, tvg

    for span, attrs in GRAPH_SPANS.items():
        for attr in attrs:
            for owner in (graphs, protocols, scenarios, tvg):
                if hasattr(owner, attr):
                    _patch(tracer, owner, attr, span)
    _patch(tracer, graphs.StaticGraph, "component_of", "graphs.bfs")
    _patch(tracer, graphs.StaticGraph, "neighbors", "graphs.neighbors")
    _patch(tracer, tvg.PresenceSchedule, "earliest_window", "tvg.earliest_window")
    _patch(tracer, cli, "earliest_arrival", "tvg.earliest_arrival")
    _patch(tracer, scenarios, "restrict", "tvg.restrict")
    _patch(tracer, metrics, "convergence_steps", "metrics.convergence")
    _patch(tracer, io, "load_scenario", "io.load")
    _patch(tracer, io, "load_graph_file", "io.load")
    _patch(tracer, scenarios, "generate_random_cot", "scenarios.generate")
    _patch(tracer, scenarios, "named_graph", "scenarios.generate")
    _patch(tracer, scenarios, "adversary_destabilize", "scenarios.adversary")
    _patch(tracer, engine.Trace, "serialize", "engine.serialize")

    counters = tracer.counters
    cli_run = tracer.wrap("engine.run", cli.run)
    adversary_run = tracer.wrap("engine.run", scenarios.run)

    def run_from_cli(tvg_, protocol, horizon, seed=0):
        trace = cli_run(tvg_, protocol, horizon, seed)
        _tally(counters, trace)
        return trace

    def run_from_adversary(tvg_, protocol, horizon, seed=0):
        trace = adversary_run(tvg_, protocol, horizon, seed)
        _tally(counters, trace)
        counters["scenarios.adversary_runs"] += 1
        counters["scenarios.adversary_sim_ticks"] += horizon
        return trace

    cli.run = run_from_cli
    scenarios.run = run_from_adversary
    get_protocol = cli.get_protocol
    cli.get_protocol = lambda *a, **k: ProtocolProxy(get_protocol(*a, **k), tracer)
    mdst = scenarios.MdstProtocol
    scenarios.MdstProtocol = lambda: ProtocolProxy(mdst(), tracer)
    cli.main = tracer.wrap("cli.main", cli.main)
