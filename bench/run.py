"""tvgsim benchmark: CLI-level workloads, end to end and layer by layer.

    python3 bench/run.py --workload simulate --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  The workload's inputs are generated from
the seed (``bench/workloads.py``) and every step runs in a fresh interpreter
(``bench/worker.py``), one operation at a time.

``--trace 0`` sets the inputs up several times, then runs untraced passes
over them for ``--seconds`` and reports the end-to-end metrics as medians
over the passes.  ``--trace 1`` sets up once and alternates untraced,
traced and no-op-protocol passes for ``--seconds``; it reports the
per-layer metrics (``bench/tracer.py``) of one traced set-up plus one traced
pass, as the low median over the traced passes.

An operation fails when its exit code is not 0 or when the SHA-256 of its
output (trace file plus stdout; for ``analyze`` and ``journey`` the outputs
of all those calls in the pass) differs from the digest stored in
``bench/digests.json`` for the seed, or, for a seed with no stored digests,
from the first pass of the run.  The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
WORK_DIR = os.path.join(ROOT, ".benchwork")
# The parent imports no tvgsim code (its memory would count in the children's
# ru_maxrss), so it names the workloads of bench/workloads.py itself.
WORKLOADS = ("simulate", "analyze-journey")

SETUPS = 5
MIN_PASSES = 3
RUN_LIMIT_S = 170.0  # one invocation must finish well within 180 s


class RunError(Exception):
    pass


def child(args, deadline):
    """Run one worker step to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError(f"no time left for worker step {args[0]}")
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RunError(f"worker step {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(step, seconds, deadline, minimum):
    """Call ``step`` until ``seconds`` have passed (at least ``minimum``
    times), starting a call only if one more is expected to fit."""
    stop = time.monotonic() + seconds
    results, lengths = [], []
    while len(results) < minimum or time.monotonic() + statistics.median(lengths) <= stop:
        began = time.monotonic()
        results.append(step(deadline))
        lengths.append(time.monotonic() - began)
    return results


def count_failures(passes, reference):
    """Failed operations over all passes.  ``reference`` maps each output
    group to its expected digest."""
    failed = 0
    for p in passes:
        for group, info in p["groups"].items():
            if reference.get(group) != info["digest"]:
                failed += info["ops"]
            else:
                failed += info["bad"]
        failed += sum(1 for g in reference if g not in p["groups"])
    return failed


def reference_digests(workload, seed, first_pass):
    with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as fh:
        stored = json.load(fh).get(workload, {}).get(str(seed))
    if stored is not None:
        return stored
    return {g: info["digest"] for g, info in first_pass["groups"].items()}


def events_per_s(p):
    """Trace events over the simulate calls' host time; 0 without them."""
    return p["events"] / p["seconds_by_kind"]["simulate"] if p["events"] else 0.0


def analyze_graphs_per_s(p):
    """Census graphs over the analyze calls' host time; 0 without them."""
    n = p["count_by_kind"].get("analyze", 0)
    return n / p["seconds_by_kind"]["analyze"] if n else 0.0


def timed_run(workload, seed, seconds, work, deadline):
    inputs = os.path.join(work, "in0")
    setups = [
        child(["setup", workload, str(seed), os.path.join(work, f"in{i}")], deadline)
        for i in range(SETUPS)
    ]
    passes = repeat(lambda d: child(["pass", inputs], d), seconds, deadline, MIN_PASSES)
    reference = reference_digests(workload, seed, passes[0])
    values = {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "setup_s": statistics.median(s["seconds"] for s in setups),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] * 1024 / 1e6 for p in passes),
    }
    consistent = len({s["digest"] for s in setups}) == 1
    return passes, reference, values, consistent


def layer_values(setup, traced):
    """Per-layer figures of one traced set-up plus one traced pass."""
    spans = {}
    for table in (setup["layers"]["spans"], traced["layers"]["spans"]):
        for name, (self_s, calls) in table.items():
            acc = spans.setdefault(name, [0.0, 0])
            acc[0] += self_s
            acc[1] += calls
    counters = dict(setup["layers"]["counters"])
    for name, n in traced["layers"]["counters"].items():
        counters[name] = counters.get(name, 0) + n

    def self_s(name):
        return spans.get(name, (0.0, 0))[0]

    def calls(name):
        return spans.get(name, (0.0, 0))[1]

    sends = counters.get("engine.kind.SendInvoked", 0)
    delivered = counters.get("engine.kind.MessageDelivered", 0)
    return {
        "engine.self_s": self_s("engine.run"),
        "engine.serialize_s": self_s("engine.serialize"),
        "engine.events": counters.get("engine.events", 0),
        "engine.sends": sends,
        "engine.losses": counters.get("engine.kind.MessageLost", 0),
        "engine.delivery_ratio": delivered / sends if sends else 0.0,
        "protocols.handler_s": self_s("protocols.handler"),
        "protocols.handler_calls": calls("protocols.handler"),
        "protocols.format_s": self_s("protocols.format"),
        "graphs.mds_s": self_s("graphs.mds"),
        "graphs.mds_calls": calls("graphs.mds"),
        "graphs.bfs_s": self_s("graphs.bfs"),
        "graphs.neighbors_s": self_s("graphs.neighbors"),
        "graphs.neighbors_calls": calls("graphs.neighbors"),
        "tvg.earliest_arrival_s": self_s("tvg.earliest_arrival"),
        "tvg.earliest_window_s": self_s("tvg.earliest_window"),
        "tvg.earliest_window_calls": calls("tvg.earliest_window"),
        "tvg.restrict_s": self_s("tvg.restrict"),
        "metrics.convergence_s": self_s("metrics.convergence"),
        "scenarios.generate_s": self_s("scenarios.generate"),
        "scenarios.adversary_s": self_s("scenarios.adversary"),
        "scenarios.adversary_runs": counters.get("scenarios.adversary_runs", 0),
        "scenarios.adversary_sim_ticks": counters.get("scenarios.adversary_sim_ticks", 0),
        "io.load_s": self_s("io.load"),
        "io.load_calls": calls("io.load"),
        "cli.self_s": self_s("cli.main"),
    }


# Counts that must repeat exactly in every traced pass.  graphs.neighbors_calls
# is left out: is_smds_via_cutsets stops at the first failing vertex of a set,
# so how many calls it makes follows the interpreter's hash seed.
COUNTS = ("engine.events", "engine.sends", "engine.losses", "protocols.handler_calls",
          "graphs.mds_calls", "tvg.earliest_window_calls",
          "scenarios.adversary_runs", "scenarios.adversary_sim_ticks", "io.load_calls")


def traced_run(workload, seed, seconds, work, deadline):
    inputs = os.path.join(work, "in0")
    spans_path = os.path.join(WORK_DIR, f"{workload}.spans.tsv")
    setup = child(["setup", workload, str(seed), inputs, "--trace"], deadline)

    def one_round(d):
        plain = child(["pass", inputs], d)
        traced = child(["pass", inputs, "--spans", spans_path], d)
        noop = child(["noop", inputs], d) if workload == "simulate" else None
        return plain, traced, noop

    rounds = repeat(one_round, seconds, deadline, 2)
    plain = [r[0] for r in rounds]
    traced = [r[1] for r in rounds]
    passes = plain + traced
    reference = reference_digests(workload, seed, plain[0])
    per_pass = [layer_values(setup, t) for t in traced]
    values = {name: statistics.median_low(v[name] for v in per_pass) for name in per_pass[0]}
    consistent = all(v[name] == per_pass[0][name] for v in per_pass for name in COUNTS)

    journey = [ms for p in plain for ms in p.get("journey_ms", ())]
    noops = [r[2] for r in rounds if r[2] is not None]
    values.update({
        "engine.noop_events_per_s":
            statistics.median(n["events"] / n["seconds"] for n in noops) if noops else 0.0,
        "trace.overhead_ratio":
            statistics.median(p["wall"] for p in traced) / statistics.median(p["wall"] for p in plain),
        "events_per_s": statistics.median(events_per_s(p) for p in plain),
        "analyze_graphs_per_s": statistics.median(analyze_graphs_per_s(p) for p in plain),
        "journey_p50_ms": statistics.median(journey) if journey else 0.0,
        "journey_p99_ms": statistics.quantiles(journey, n=100)[98] if journey else 0.0,
    })
    return passes, reference, values, consistent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tvgsim", "__init__.py")):
        print(f"error: no tvgsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        run = traced_run if args.trace else timed_run
        passes, reference, values, consistent = run(
            args.workload, args.seed, args.seconds, work, deadline
        )
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(info["ops"] for p in passes for info in p["groups"].values())
    failed = count_failures(passes, reference)
    values["fail_ratio"] = failed / attempted
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{failed}/{attempted} operations failed", file=sys.stderr)
    print("digests " + json.dumps({str(args.seed): reference}), file=sys.stderr)
    metrics = {}
    for entry in spec:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:32s} {value:14.6g} {entry['unit']}", file=sys.stderr)
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
