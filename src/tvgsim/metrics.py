"""Trace-level complexity measure: communication steps, necessary presence
sets, starting time, and convergence time.

Convergence is reported as an exact rational number of communication steps so
that off-by-one behavior stays visible in uniform-latency scenarios.

``convergence_steps`` reads a whole ``Trace`` and takes any output
predicate.  ``ReportFold`` computes the report for one predicate, "the
outputs equal the final outputs", as a fold over the records a
``TraceWriter`` drains, so it needs no trace in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, FrozenSet, Iterable, Tuple

from .engine import EDGE_UP, MESSAGE_DELIVERED, OUTPUT_CHANGED, SEND_INVOKED, Trace, TraceEvent, output_timeline
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
    return _step(max(message_delays(trace).values(), default=-1))


def _step(largest_delay: Tick) -> Tick:
    if largest_delay < 0:
        raise DomainError("no message was delivered in this trace")
    return largest_delay


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


def convergence_steps(trace: Trace, nps: NpsFamily, converged: OutputPredicate) -> ComplexityReport:
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


class ReportFold:
    """``convergence_steps(trace, nps, lambda outs: outs == final)``, where
    ``final`` is the outputs at the end of the run, folded over the records
    as a ``TraceWriter`` drains them.  It holds the invocation tick of each
    undelivered message and the largest delay so far, the first appearance
    of each edge, and per vertex its output and the tick from which its
    end-of-tick output has held.  A flip and a flip back within one tick is
    no change, as in ``output_timeline``.  The convergence tick is the
    latest of those ticks: from it on every output equals the final one."""

    def start(self, initial_outputs: Dict[VertexId, Any]) -> None:
        self._invoked: Dict[str, Tick] = {}
        self._step = -1  # no delivery yet
        self._first: Dict[Edge, Tick] = {}
        self._outputs = dict(initial_outputs)
        self._since = dict.fromkeys(initial_outputs, 0)
        # Per vertex: the tick of its latest change, with its output and
        # since-tick as they stood before that tick.
        self._before: Dict[VertexId, Tuple[Tick, Any, Tick]] = {}

    def update(self, events: Iterable[TraceEvent]) -> None:
        invoked, first, outputs, since, before = self._invoked, self._first, self._outputs, self._since, self._before
        step = self._step
        for t, kind, subject, value in events:
            if kind == EDGE_UP:
                if subject not in first:
                    first[subject] = t
            elif kind == SEND_INVOKED:
                invoked[subject[0]] = t
            elif kind == MESSAGE_DELIVERED:
                delay = t - invoked.pop(subject[0])
                if delay > step:
                    step = delay
            elif kind == OUTPUT_CHANGED:
                v = subject[0]
                mark = before.get(v)
                if mark is None or mark[0] != t:
                    mark = before[v] = (t, outputs[v], since[v])
                outputs[v] = value
                since[v] = mark[2] if value == mark[1] else t
        self._step = step

    def report(self, nps: NpsFamily) -> ComplexityReport:
        """The report, raising ``convergence_steps``'s errors in its order."""
        start = _starting_time(self._first, nps)
        conv = max(max(self._since.values(), default=0), start)
        return _report(start, conv, _step(self._step))
