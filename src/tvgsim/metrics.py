"""Trace-level complexity measure: communication steps, necessary presence
sets, starting time, and convergence time.

Convergence is reported as an exact rational number of communication steps so
that off-by-one behavior stays visible in uniform-latency scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, FrozenSet

from .engine import EDGE_UP, MESSAGE_DELIVERED, SEND_INVOKED, Trace, output_timeline
from .errors import DomainError
from .graphs import Edge, StaticGraph, VertexId, make_edge
from .tvg import Tick

OutputPredicate = Callable[[Dict[VertexId, object]], bool]


@dataclass(frozen=True)
class NpsFamily:
    elements: FrozenSet[FrozenSet[Edge]]

    def __post_init__(self):
        if not self.elements:
            raise DomainError("necessary-presence-set family must be nonempty")
        if any(not el for el in self.elements):
            raise DomainError("necessary-presence-set elements must be nonempty")


@dataclass(frozen=True)
class ComplexityReport:
    step: Tick
    starting_time: Tick
    convergence_tick: Tick
    convergence_steps: Fraction

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "starting_time": self.starting_time,
            "convergence_tick": self.convergence_tick,
            "convergence_steps_num": self.convergence_steps.numerator,
            "convergence_steps_den": self.convergence_steps.denominator,
        }


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
    delays = message_delays(trace)
    if not delays:
        raise DomainError("no message was delivered in this trace")
    return max(delays.values())


def nps_ug(g: StaticGraph) -> NpsFamily:
    return NpsFamily(frozenset({frozenset(g.edges)}))


def nps_broadcast(g: StaticGraph, origin: VertexId) -> NpsFamily:
    elements = frozenset(
        frozenset({make_edge(origin, q)}) for q in g.neighbors(origin)
    )
    return NpsFamily(elements)


def first_appearances(trace: Trace) -> Dict[Edge, Tick]:
    first: Dict[Edge, Tick] = {}
    for ev in trace.events:
        if ev.kind == EDGE_UP:
            first.setdefault(ev.subject, ev.time)
    return first


def starting_time(trace: Trace, nps: NpsFamily) -> Tick:
    first = first_appearances(trace)
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


def convergence_steps(trace: Trace, nps: NpsFamily, converged: OutputPredicate) -> ComplexityReport:
    start = starting_time(trace, nps)
    conv = max(convergence_tick(trace, converged), start)
    step = communication_step(trace)
    return ComplexityReport(
        step=step,
        starting_time=start,
        convergence_tick=conv,
        convergence_steps=Fraction(conv - start, step),
    )
