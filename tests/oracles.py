"""Brute-force oracles for the differential tests: slow, exhaustive, and
written apart from the code they check."""

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from tvgsim.engine import EDGE_UP, MESSAGE_DELIVERED, OUTPUT_CHANGED, SEND_INVOKED, Protocol, Trace, run
from tvgsim.errors import CapacityError, DomainError, GenerationError
from tvgsim.graphs import (
    Edge,
    StaticGraph,
    VertexId,
    diameter,
    dominator_edges,
    edge_key,
    find_smds,
    is_connected,
    is_minimal_dominating,
    make_edge,
    smds_witness,
    vertex_key,
)
from tvgsim.metrics import ComplexityReport, NpsFamily
from tvgsim.protocols import MdstProtocol, bool_to_str
from tvgsim.scenarios import ALWAYS, AdversaryRound
from tvgsim.tvg import Interval, PeriodicTail, PresenceSchedule, Tick, Tvg, restrict

# Spanning subgraphs are enumerated as edge subsets: exponential in edges.
SUBGRAPH_EDGE_CAP = 16


def enumerate_connected_spanning_subgraphs(g: StaticGraph) -> Iterator[StaticGraph]:
    """Every spanning subgraph (V, E') with E' subset of E connected on all of V."""
    if not is_connected(g):
        raise DomainError("spanning subgraphs require a connected graph")
    edges = g.sorted_edges()
    if len(edges) > SUBGRAPH_EDGE_CAP:
        raise CapacityError(
            f"spanning-subgraph enumeration capped at {SUBGRAPH_EDGE_CAP} edges, got {len(edges)}"
        )
    n = len(g.vertices)
    for size in range(max(n - 1, 0), len(edges) + 1):
        for combo in itertools.combinations(edges, size):
            sub = g.subgraph_with_edges(combo)
            if is_connected(sub):
                yield sub


def is_smds_bruteforce(g: StaticGraph, m: Iterable[VertexId]) -> bool:
    """The definition: ``m`` is a minimal dominating set of every connected
    spanning subgraph of ``g``."""
    ms = frozenset(m)
    return all(is_minimal_dominating(sub, ms) for sub in enumerate_connected_spanning_subgraphs(g))


def is_cut_set(g: StaticGraph, f: Iterable[Edge]) -> bool:
    """Whether removing the edges ``f`` disconnects the connected graph ``g``,
    by building the graph without them."""
    fs = frozenset(make_edge(u, v) for (u, v) in f)
    extra = fs - g.edges
    if extra:
        raise DomainError(f"cut-set candidate contains edges not in graph: {sorted(extra, key=edge_key)}")
    if not is_connected(g):
        raise DomainError("cut-set test requires a connected graph")
    return not is_connected(g.subgraph_with_edges(g.edges - fs))


def first_witness_by_cut_sets(g: StaticGraph, ms: FrozenSet[VertexId]):
    """The strong-set witness search as first written: each dominated vertex
    in id order, tested by building the graph without its dominator edges."""
    for p in sorted(g.vertices - ms, key=vertex_key):
        if not is_cut_set(g, dominator_edges(g, p, ms)):
            return p
    return None


def graph_to_str(g: StaticGraph) -> str:
    """The ug output format by rank: vertex ``u``'s rank in the canonical
    order sorts edge (u, v) at ``rank[u] * n + rank[v]``, with integer keys
    in place of a key function per edge."""
    order = sorted(g.vertices, key=vertex_key)
    n, rank = len(order), {v: i for i, v in enumerate(order)}
    positions = sorted([rank[u] * n + rank[v] for (u, v) in g.edges])
    edges = ",".join([f"{order[p // n]}-{order[p % n]}" for p in positions])
    return f"{','.join(order)}|{edges}"


def present_at(schedule: PresenceSchedule, t: Tick) -> bool:
    """Presence at tick ``t`` straight from the stored intervals and tail,
    without the occurrence walk."""
    if any(s <= t < e for (s, e) in schedule.intervals):
        return True
    tail = schedule.tail
    return tail is not None and t >= tail.offset and (t - tail.offset) % tail.period < tail.duration


def occurrences(schedule: PresenceSchedule, after: Tick = 0) -> Iterator[Interval]:
    """The maximal presence intervals of ``schedule`` that end after
    ``after``, in order; the last may be unbounded (end None).  Infinite for
    a non-contiguous tail, whose first such occurrence is found by arithmetic."""
    for (s, e) in schedule.intervals:
        if e > after:
            yield (s, e)
    tail = schedule.tail
    if tail is None:
        return
    if tail.duration == tail.period:
        yield (tail.offset, None)
        return
    skip = max(0, (after - tail.offset - tail.duration) // tail.period + 1)
    s = tail.offset + skip * tail.period
    while True:
        yield (s, s + tail.duration)
        s += tail.period


def _next_up(schedule: PresenceSchedule, t: Tick):
    """The first occurrence of ``schedule`` starting at or after ``t`` (None
    when there is none), and an iterator over the occurrences after it."""
    later = occurrences(schedule, t)
    for occ in later:
        if occ[0] >= t:
            return occ, later
    return None, later


def earliest_window_by_walk(schedule: PresenceSchedule, t: Tick, duration: Tick):
    """``PresenceSchedule.earliest_window`` as first written: a walk over the
    occurrences ending after ``t``."""
    if t < 0:
        raise DomainError(f"tick {t} is negative")
    if duration < 0:
        raise DomainError(f"duration {duration} is negative")
    tail = schedule.tail
    for (s, e) in occurrences(schedule, t):
        c = max(s, t)  # c < e, as the occurrence ends after t
        if e is None or c + duration <= e:
            return c
        if s >= t and tail is not None and s >= tail.offset:
            return None  # every later tail occurrence is as short
    return None


def minus_by_walk(schedule: PresenceSchedule, start: Tick, end: Optional[Tick]) -> PresenceSchedule:
    """``PresenceSchedule.minus`` as first written: a walk over every
    occurrence from tick 0."""
    if start < 0 or (end is not None and end <= start):
        raise DomainError(f"invalid mask interval [{start},{end})")
    tail = schedule.tail
    new_tail = None
    if end is not None and tail is not None:
        # The tail resumes unchanged at its first occurrence starting at
        # or after end; for a contiguous tail that is max(offset, end).
        skip = max(0, -(-(end - tail.offset) // tail.period))
        new_tail = PeriodicTail(tail.offset + skip * tail.period, tail.period, tail.duration)
    fin: List[Tuple[Tick, Tick]] = []
    for (s, e) in occurrences(schedule):
        if s >= start and (end is None or new_tail is not None and s >= new_tail.offset):
            break
        if s < start:
            fin.append((s, start if e is None else min(e, start)))
        if end is not None and e is not None and e > end:
            fin.append((max(s, end), e))
    return PresenceSchedule.of(fin, new_tail)


def _affine(schedule: PresenceSchedule, k: int, d: Tick) -> PresenceSchedule:
    """``schedule`` with each tick t moved to k * t + d, periods and
    durations scaled by k; normalized, so a contiguous tail stays (offset, 1, 1)."""
    tail = schedule.tail
    if tail is not None:
        tail = PeriodicTail(k * tail.offset + d, k * tail.period, k * tail.duration)
    return PresenceSchedule.of([(k * s + d, k * e + d) for (s, e) in schedule.intervals], tail)


def dilate(tvg: Tvg, k: int) -> Tvg:
    """``tvg`` with every tick, every latency and the process latency times ``k``."""
    schedule = {e: _affine(sched, k, 0) for e, sched in tvg.schedule.items()}
    latency = {e: k * z for e, z in tvg.latency.items()}
    return Tvg(tvg.graph, schedule, latency, k * tvg.process_latency)


def shift(tvg: Tvg, d: Tick) -> Tvg:
    """``tvg`` with every schedule delayed by ``d`` ticks."""
    schedule = {e: _affine(sched, 1, d) for e, sched in tvg.schedule.items()}
    return Tvg(tvg.graph, schedule, tvg.latency, tvg.process_latency)


def _stabilize_by_restarts(tvg: Tvg, after: Tick, quiet: Tick) -> Tuple[FrozenSet[VertexId], Tick]:
    """Simulate from tick 0 until the true-set has been constant for the
    quiet window; returns the stable set and the tick of its last change."""
    horizon = after + 4 * quiet + 64
    while horizon <= 1_000_000:
        trace = run(tvg, MdstProtocol(), horizon)
        last = output_timeline(trace)[-1][0]
        if last + quiet < horizon:
            return frozenset(v for v, out in trace.final_outputs.items() if out), max(last, after)
        horizon *= 2
    raise GenerationError("dominating-set output did not stabilize within the search horizon")


def adversary_by_restarts(
    underlying: StaticGraph, max_rounds: int
) -> Iterator[Tuple[Tvg, Tuple[AdversaryRound, ...]]]:
    """The adversary as first written, re-simulating from tick 0 at every
    stabilization and rebuilding the ``Tvg`` every round; quadratic in
    rounds.  Yields the witness ``Tvg`` and the rounds so far after each round."""
    if max_rounds < 0:
        raise DomainError(f"round count must be non-negative, got {max_rounds}")
    if not is_connected(underlying):
        raise DomainError("adversary requires a connected underlying graph")
    if find_smds(underlying) is not None:
        raise DomainError("graph admits a strong minimal dominating set; adversary inapplicable")
    quiet = 2 * diameter(underlying)
    tvg = Tvg(underlying, {e: ALWAYS for e in underlying.edges}, {e: 1 for e in underlying.edges}, 0)
    rounds: List[AdversaryRound] = []
    watch = 0
    for i in range(max_rounds):
        stable, eta = _stabilize_by_restarts(tvg, watch, quiet)
        witness = smds_witness(underlying, stable)
        if witness is None:
            raise GenerationError(f"stabilized set {sorted(stable)} is unexpectedly strong")
        suppressed = dominator_edges(underlying, witness, stable)
        start = eta + 1
        probe = restrict(tvg, [(sorted(suppressed, key=edge_key), (start, None))])
        new_set, alpha = _stabilize_by_restarts(probe, start, quiet)
        tvg = restrict(tvg, [(sorted(suppressed, key=edge_key), (start, alpha + 1))])
        rounds.append(AdversaryRound(i, stable, witness, suppressed, new_set, eta, alpha))
        watch = alpha + 1
        yield tvg, tuple(rounds)


# The report over a whole trace, for any output predicate: the metrics as
# first written, which ``metrics.ReportFold`` replaced.

OutputPredicate = Callable[[Dict[VertexId, object]], bool]


def output_timeline(trace: Trace) -> List[Tuple[Tick, Dict[VertexId, Any]]]:
    """Piecewise-constant outputs: (tick, outputs holding from that tick on),
    from tick 0 to the tick of the last ``OutputChanged`` record."""
    timeline = [(0, dict(trace.initial_outputs))]
    for ev in trace.events:
        if ev.kind != OUTPUT_CHANGED:
            continue
        if ev.time != timeline[-1][0]:
            timeline.append((ev.time, dict(timeline[-1][1])))
        timeline[-1][1][ev.subject[0]] = ev.value
    return timeline


def message_delays(trace: Trace) -> Dict[int, Tick]:
    """Delay (delivery tick minus invocation tick) per delivered message id."""
    invoked: Dict[int, Tick] = {}
    delays: Dict[int, Tick] = {}
    for ev in trace.events:
        if ev.kind == SEND_INVOKED:
            invoked[int(ev.subject[0])] = ev.time
        elif ev.kind == MESSAGE_DELIVERED:
            mid = int(ev.subject[0])
            delays[mid] = ev.time - invoked[mid]
    return delays


def communication_step(trace: Trace) -> Tick:
    return _step(max(message_delays(trace).values(), default=-1))


def _step(largest_delay: Tick) -> Tick:
    if largest_delay < 0:
        raise DomainError("no message was delivered in this trace")
    return largest_delay


def first_appearances(trace: Trace) -> Dict[Edge, Tick]:
    first: Dict[Edge, Tick] = {}
    for ev in trace.events:
        if ev.kind == EDGE_UP:
            first.setdefault(ev.subject, ev.time)
    return first


def starting_time(trace: Trace, nps: NpsFamily) -> Tick:
    return _starting_time(first_appearances(trace), nps)


def _starting_time(first: Dict[Edge, Tick], nps: NpsFamily) -> Tick:
    candidates = []
    for element in nps.elements:
        if all(e in first for e in element):
            candidates.append(max(first[e] for e in element))
    if not candidates:
        raise DomainError("starting time undefined within horizon")
    return min(candidates)


def convergence_tick(trace: Trace, converged: OutputPredicate) -> Tick:
    """Smallest tick from which the predicate holds through the horizon."""
    timeline = output_timeline(trace)
    tick = None
    for (t, outputs) in timeline:
        if converged(outputs):
            if tick is None:
                tick = t
        else:
            tick = None
    if tick is None:
        raise DomainError("output predicate never stabilizes within horizon")
    return tick


def oracle_convergence_steps(trace: Trace, nps: NpsFamily, converged: OutputPredicate) -> ComplexityReport:
    start = starting_time(trace, nps)
    conv = max(convergence_tick(trace, converged), start)
    return _report(start, conv, communication_step(trace))


def _report(start: Tick, conv: Tick, step: Tick) -> ComplexityReport:
    return ComplexityReport(
        step=step,
        starting_time=start,
        convergence_tick=conv,
        convergence_steps=Fraction(conv - start, step),
    )


@dataclass(frozen=True)
class TwoSetBroadcastState:
    have_message: bool
    informed_neighbors: FrozenSet[VertexId]
    known_neighbors: FrozenSet[VertexId]


class TwoSetFloodProtocol(Protocol):
    """The flooding broadcast as first written: neighbors seen and neighbors
    that have the message (sent to or heard from) in two sets."""

    name = "flood"
    takes_origin = True

    def __init__(self, origin: VertexId):
        self.origin = origin

    def initial_state(self, vertex):
        return TwoSetBroadcastState(vertex == self.origin, frozenset(), frozenset())

    def on_edge_appear(self, state, vertex, other):
        if state.have_message and other not in state.informed_neighbors:
            known = state.known_neighbors | {other}
            new_state = TwoSetBroadcastState(True, state.informed_neighbors | {other}, known)
            return new_state, [(other, "token")]
        if other in state.known_neighbors:
            return state, []
        return replace(state, known_neighbors=state.known_neighbors | {other}), []

    def on_receive(self, state, vertex, sender, payload):
        informed = state.informed_neighbors | {sender}
        if state.have_message:
            return replace(state, informed_neighbors=informed), []
        targets = sorted(state.known_neighbors - informed, key=vertex_key)
        new_state = TwoSetBroadcastState(True, informed | set(targets), state.known_neighbors)
        return new_state, [(r, "token") for r in targets]

    def output(self, state):
        return state.have_message

    def format_output(self, value):
        return bool_to_str(value)
