"""Seeded inputs and CLI operations of each benchmark workload.

``build(name, seed, out_dir)`` generates the workload's scenario and graph
files from the seed, writes them into ``out_dir`` and returns the list of
operations (``tvgsim`` argument vectors) a pass runs, in order.  The same
seed always gives byte-identical files and operations.
"""

from __future__ import annotations

import os
import random

from tvgsim import io, scenarios
from tvgsim.graphs import StaticGraph

# Trace events are dominated by edge events once a protocol has settled, so
# flood and mdst horizons are sized to a fixed number of edge events: the
# amount of work then does not depend on how dense a seed's schedules are.
FLOOD_EDGE_EVENTS = 150_000
MDST_EDGE_EVENTS = 1_500
MDST_HORIZON_CAP = 20_000
# About the mean underlying edge count of generate_random_cot(32, 0.3, ...)
# and of generate_random_cot(64, 0.05, ...), plus or minus 6.
UG_EDGES = range(164, 177)
JOURNEY_EDGES = range(155, 168)


def edge_events_before(tvg, horizon: int) -> int:
    """Number of EdgeUp/EdgeDown events ``engine.run`` records before
    ``horizon`` (every occurrence start and every finite end below it)."""
    count = 0
    for sched in tvg.schedule.values():
        for (s, e) in sched.intervals:
            count += (s < horizon) + (e < horizon)
        tail = sched.tail
        if tail is None or tail.offset >= horizon:
            continue
        if tail.duration == tail.period:
            count += 1
            continue
        count += -(-(horizon - tail.offset) // tail.period)
        ends = horizon - tail.offset - tail.duration
        if ends > 0:
            count += -(-ends // tail.period)
    return count


def horizon_for(tvg, edge_events: int, cap: int = 10**7):
    """Smallest horizon with at least ``edge_events`` edge events, or None
    when the schedule has fewer than that before ``cap``."""
    if edge_events_before(tvg, cap) < edge_events:
        return None
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if edge_events_before(tvg, mid) >= edge_events:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _random_cot(rng, n, extra, missing, edges):
    """The first scenario of the seed's stream whose underlying graph has a
    number of edges in ``edges``.  The cost of ug and of journey queries
    grows with the edge count, so fixing its range keeps the amount of work
    from following the seed."""
    while True:
        tvg = scenarios.generate_random_cot(n, extra, missing, 64, rng.randrange(2**31))
        if len(tvg.graph.edges) in edges:
            return tvg


def _simulate(path, protocol, horizon, trace, group, extra=()):
    argv = ["simulate", path, "--protocol", protocol, "--horizon", str(horizon),
            "--metrics", "--trace", trace, *extra]
    return {"argv": argv, "kind": "simulate", "group": group, "scenario": path,
            "horizon": horizon, "trace": trace}


def _save(tvg, out_dir, name):
    io.save_scenario(tvg, os.path.join(out_dir, name))
    return name


def _write_graph(g, out_dir, name):
    # tvgsim.io reads the graph text format but has no writer for it.
    lines = ["vertices: " + ", ".join(g.sorted_vertices())]
    lines += [f"edge: {u} {v}" for (u, v) in g.sorted_edges()]
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return name


def _simulate_all(rng, out_dir):
    ops = []
    tvg = _random_cot(rng, 32, 0.3, 0.2, UG_EDGES)
    ops.append(_simulate(_save(tvg, out_dir, "ug.json"), "ug", 400, "ug.trace", "ug"))

    tvg = scenarios.generate_random_cot(64, 0.05, 0.2, 64, rng.randrange(2**31))
    horizon = horizon_for(tvg, FLOOD_EDGE_EVENTS)
    ops.append(_simulate(_save(tvg, out_dir, "flood.json"), "flood", horizon, "flood.trace",
                         "flood", ("--origin", "p1")))

    # A random tree: every tree admits a strong minimal dominating set, the
    # condition under which the dominating-set layer stabilizes.  Denser
    # random graphs mostly admit none, and the run then ends "not converged".
    while True:
        tvg = scenarios.generate_random_cot(10, 0.0, 0.0, 64, rng.randrange(2**31))
        horizon = horizon_for(tvg, MDST_EDGE_EVENTS, MDST_HORIZON_CAP)
        if horizon is not None:  # None: (nearly) every edge present forever
            break
    ops.append(_simulate(_save(tvg, out_dir, "mdst.json"), "mdst", horizon, "mdst.trace", "mdst"))

    c5 = _write_graph(scenarios.named_graph("cycle", 5), out_dir, "c5.txt")
    ops.append({"argv": ["adversary", "--graph", c5, "--rounds", "40"],
                "kind": "adversary", "group": "adversary"})
    return ops


def _analyze_journey(rng, out_dir):
    ops = []
    for i in range(150):
        n = rng.randint(5, 9)
        tree = scenarios.named_graph("tree_random", n, seed=rng.randrange(2**31))
        verts = tree.sorted_vertices()
        extra = [(verts[a], verts[b]) for a in range(n) for b in range(a + 1, n)
                 if not tree.has_edge(verts[a], verts[b]) and rng.random() < 0.3]
        g = tree.union(StaticGraph.of(verts, extra))
        path = _write_graph(g, out_dir, f"g{i}.txt")
        ops.append({"argv": ["analyze", path, "--all-mds", "--smds"],
                    "kind": "analyze", "group": "analyze"})
    tvg = _random_cot(rng, 64, 0.05, 0.2, JOURNEY_EDGES)
    path = _save(tvg, out_dir, "journey.json")
    verts = tvg.graph.sorted_vertices()
    for i in range(500):
        source, target = rng.sample(verts, 2)
        argv = ["journey", path, "--from", source, "--to", target,
                "--after", str(rng.randrange(128))]
        if i % 2:
            argv.append("--deliverable")
        ops.append({"argv": argv, "kind": "journey", "group": "journey"})
    return ops


_GENERATORS = {
    "simulate": _simulate_all,
    "analyze-journey": _analyze_journey,
}


def build(name: str, seed: int, out_dir: str):
    rng = random.Random(f"{name}/{seed}")
    return _GENERATORS[name](rng, out_dir)
