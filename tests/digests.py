"""The ug corpus digest, importable with only the standard library and
tvgsim on the path, so any interpreter can compute it."""

import hashlib
import json

from tvgsim.engine import run
from tvgsim.metrics import convergence_steps, nps_ug
from tvgsim.protocols import UgProtocol
from tvgsim.scenarios import generate_gk, generate_random_cot


def corpus_digest() -> str:
    """SHA-256 over the serialized ug traces of twelve random scenarios and
    three lower-bound chains, and the chains' complexity reports."""
    h = hashlib.sha256()
    for seed in range(12):
        n = 3 + seed % 6
        tvg = generate_random_cot(n, 0.3, 0.2, 32, seed)
        trace = run(tvg, UgProtocol(), 200)
        h.update(trace.serialize().encode())
    for k in (1, 2, 3):
        tvg = generate_gk(k)
        ug = tvg.graph
        trace = run(tvg, UgProtocol(), 20 + 10 * k)
        h.update(trace.serialize().encode())
        report = convergence_steps(trace, nps_ug(ug))
        h.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
    return h.hexdigest()
