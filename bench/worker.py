"""One step of a benchmark run, in a fresh interpreter.

    python3 bench/worker.py setup WORKLOAD SEED DIR [--trace]
    python3 bench/worker.py pass DIR [--spans FILE]
    python3 bench/worker.py noop DIR

``setup`` imports tvgsim, generates the workload's inputs from the seed and
writes them into DIR.  ``pass`` runs the operations in DIR one at a time
through ``tvgsim.cli.main``, as a CLI user would; with ``--spans`` it records
the traced run and writes its spans to FILE.  ``noop`` runs the simulate
operations' schedules with a protocol that does nothing.  Each prints one
JSON object on its last line of output.  A fresh interpreter per step starts
the graph kernel's caches empty and gives ``ru_maxrss`` per step.
"""

import time

STARTED = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io as _io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tvgsim  # noqa: E402

if os.path.dirname(os.path.abspath(tvgsim.__file__)) != os.path.join(ROOT, "src", "tvgsim"):
    sys.exit(f"tvgsim was imported from {tvgsim.__file__}, not from this checkout's src/")

from tvgsim import cli, engine, io  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OPS_FILE = "ops.json"


class NoopProtocol(engine.Protocol):
    """Keeps no state and sends nothing: what remains is the bare engine."""

    def initial_state(self, vertex):
        return None

    def output(self, state):
        return None

    def format_output(self, value):
        return ""


def layer_table(tracer):
    return {"spans": tracer.self_times(), "counters": dict(tracer.counters)}


def cmd_setup(workload, seed, out_dir, traced):
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    os.makedirs(out_dir, exist_ok=True)
    ops = workloads.build(workload, seed, out_dir)
    with open(os.path.join(out_dir, OPS_FILE), "w", encoding="utf-8") as fh:
        json.dump(ops, fh)
    seconds = time.perf_counter() - STARTED
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    result = {"seconds": seconds, "digest": digest.hexdigest()}
    if tracer is not None:
        result["layers"] = layer_table(tracer)
    return result


def cmd_pass(spans_path):
    with open(OPS_FILE, encoding="utf-8") as fh:
        ops = json.load(fh)
    tracer = None
    if spans_path:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    outputs = []
    sink = _io.StringIO()
    clock = time.perf_counter
    began = clock()
    for op in ops:
        buf = _io.StringIO()
        t = clock()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(sink):
                code = cli.main(op["argv"])
        except Exception as exc:  # a crash is a failed operation, not a stopped run
            print(f"{op['argv']}: {exc!r}", file=sys.stderr)
            code = -1
        outputs.append((code, clock() - t, buf.getvalue()))
    wall = clock() - began
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    groups = {}
    events = 0
    seconds_by_kind = {}
    journey_ms = []
    for op, (code, seconds, stdout) in zip(ops, outputs):
        group = groups.setdefault(op["group"], {"ops": 0, "bad": 0, "sha": hashlib.sha256()})
        group["ops"] += 1
        group["bad"] += code != 0
        group["sha"].update(stdout.encode())
        if "trace" in op and os.path.exists(op["trace"]):
            with open(op["trace"], "rb") as fh:
                content = fh.read()
            group["sha"].update(content)
            lines = content.split(b"\n")
            events += lines.index(b"FINAL") if b"FINAL" in lines else 0
            os.remove(op["trace"])
        seconds_by_kind[op["kind"]] = seconds_by_kind.get(op["kind"], 0.0) + seconds
        if op["kind"] == "journey":
            journey_ms.append(seconds * 1000.0)
    result = {
        "wall": wall,
        "maxrss_kb": maxrss_kb,
        "events": events,
        "seconds_by_kind": seconds_by_kind,
        "count_by_kind": Counter(op["kind"] for op in ops),
        "groups": {g: {"ops": v["ops"], "bad": v["bad"], "digest": v["sha"].hexdigest()}
                   for g, v in groups.items()},
    }
    if journey_ms:
        result["journey_ms"] = journey_ms
    if tracer is not None:
        result["layers"] = layer_table(tracer)
        tracer.write(spans_path)
    return result


def cmd_noop():
    with open(OPS_FILE, encoding="utf-8") as fh:
        ops = [op for op in json.load(fh) if op["kind"] == "simulate"]
    events = 0
    seconds = 0.0
    for op in ops:
        tvg = io.load_scenario(op["scenario"])
        t = time.perf_counter()
        trace = engine.run(tvg, NoopProtocol(), op["horizon"])
        seconds += time.perf_counter() - t
        events += len(trace.events)
    return {"events": events, "seconds": seconds}


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        workload, seed, out_dir = rest[0], int(rest[1]), rest[2]
        result = cmd_setup(workload, seed, out_dir, "--trace" in rest[3:])
    elif mode == "pass":
        os.chdir(rest[0])
        spans = rest[2] if rest[1:2] == ["--spans"] else None
        result = cmd_pass(spans)
    elif mode == "noop":
        os.chdir(rest[0])
        result = cmd_noop()
    else:
        sys.exit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
