"""Trace-level complexity measure: communication steps, necessary presence
sets, starting time, and convergence time.

Convergence is reported as an exact rational number of communication steps so
that off-by-one behavior stays visible in uniform-latency scenarios.

``ReportFold`` is the one computation of the report: a fold over the
records as a ``TraceWriter`` drains them, so ``simulate --metrics`` needs no
trace in memory.  A run has converged from the tick on which its outputs
equal its final outputs for good.  ``convergence_steps`` runs the fold over
an in-memory ``Trace``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, FrozenSet, Iterable, List, Tuple

from .engine import EDGE_UP, MESSAGE_DELIVERED, OUTPUT_CHANGED, SEND_INVOKED, Trace, TraceEvent
from .errors import DomainError
from .graphs import Edge, StaticGraph, VertexId, make_edge
from .tvg import Tick


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


def nps_ug(g: StaticGraph) -> NpsFamily:
    return NpsFamily(frozenset({frozenset(g.edges)}))


def nps_broadcast(g: StaticGraph, origin: VertexId) -> NpsFamily:
    elements = frozenset(
        frozenset({make_edge(origin, q)}) for q in g.neighbors(origin)
    )
    return NpsFamily(elements)


class ReportFold:
    """The complexity report, folded over the records as a ``TraceWriter``
    drains them.  Message ids grow with the tick, so it holds one (first
    message id, tick) pair per tick with a send, in tick order, and finds a
    delivery's invocation tick among them by bisection.  It also holds the
    largest delay so far (the communication step), the first appearance of
    each edge (for the starting time), and per vertex its output and the
    tick from which its end-of-tick output has held.  A flip and a flip
    back within one tick is no change.  The convergence tick is the latest
    of those ticks, and no earlier than the starting time: from it on every
    output equals the final one.  A delivery whose id comes before every
    recorded send raises a ``DomainError``: the trace does not start at
    tick 0."""

    def start(self, initial_outputs: Dict[VertexId, Any]) -> None:
        self._first_ids: List[int] = []
        self._send_ticks: List[Tick] = []
        self._step = -1  # no delivery yet
        self._first: Dict[Edge, Tick] = {}
        self._outputs = dict(initial_outputs)
        self._since = dict.fromkeys(initial_outputs, 0)
        # Per vertex: the tick of its latest change, with its output and
        # since-tick as they stood before that tick.
        self._before: Dict[VertexId, Tuple[Tick, Any, Tick]] = {}

    def update(self, events: Iterable[TraceEvent]) -> None:
        from bisect import bisect_right

        first_ids, send_ticks = self._first_ids, self._send_ticks
        first, outputs, since, before = self._first, self._outputs, self._since, self._before
        step = self._step
        for t, kind, subject, value in events:
            if kind == EDGE_UP:
                if subject not in first:
                    first[subject] = t
            elif kind == SEND_INVOKED:
                if not send_ticks or send_ticks[-1] != t:
                    first_ids.append(int(subject[0]))
                    send_ticks.append(t)
            elif kind == MESSAGE_DELIVERED:
                k = bisect_right(first_ids, int(subject[0])) - 1
                if k < 0:  # sent before the trace's first send
                    message = f"message {subject[0]} is delivered with no SendInvoked record"
                    raise DomainError(f"{message}: the trace does not start at tick 0")
                delay = t - send_ticks[k]
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
        """The report.  Raises a ``DomainError`` when no necessary presence
        set has appeared, and then when no message was delivered."""
        first = self._first
        candidates = []
        for element in nps.elements:
            if all(e in first for e in element):
                candidates.append(max(first[e] for e in element))
        if not candidates:
            raise DomainError("starting time undefined within horizon")
        start = min(candidates)
        step = self._step
        if step < 0:
            raise DomainError("no message was delivered in this trace")
        conv = max(max(self._since.values(), default=0), start)
        return ComplexityReport(step, start, conv, Fraction(conv - start, step))


def convergence_steps(trace: Trace, nps: NpsFamily) -> ComplexityReport:
    """The report of a whole ``Trace``: ``ReportFold`` over its records."""
    fold = ReportFold()
    fold.start(trace.initial_outputs)
    fold.update(trace.events)
    return fold.report(nps)
