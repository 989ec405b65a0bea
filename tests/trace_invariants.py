"""A pure checker of the engine's trace invariants.

``TraceInvariants`` reads a run's records in order, a chunk at a time: it is
a ``TraceWriter`` fold (``start(initial_outputs)``, ``update(records)``),
and ``finish(horizon)`` closes the run.  It reads nothing but the records,
the scenario's latencies and the horizon, and it collects one line per
broken invariant in ``violations``:

- every ``SendInvoked`` ends in ``MessageDelivered`` or is pending at the
  horizon: waiting for its edge, or in flight and due at or after the
  horizon;
- each delivery comes one latency after its attempt and lies inside one
  occurrence of its edge at least as long as the latency;
- a message is lost only at its edge's ``EdgeDown``, when it is in flight
  and due after it, and no message stays in flight across an ``EdgeDown``;
- with ``grows``, each vertex's outputs only grow: ``grows(old, new)``
  holds for each output change.
"""

from tvgsim.engine import EDGE_DOWN, EDGE_UP, MESSAGE_DELIVERED, MESSAGE_LOST, OUTPUT_CHANGED, SEND_INVOKED
from tvgsim.graphs import make_edge


def ug_grows(old, new):
    """Whether the ug value ``new`` contains ``old``: both hold bits of one
    protocol instance's edge index."""
    return old.vmask & ~new.vmask == 0 and old.emask & ~new.emask == 0


class TraceInvariants:
    def __init__(self, tvg, grows=None):
        self._latency = tvg.latency
        self._grows = grows
        self.violations = []

    def start(self, initial_outputs):
        self._outputs = dict(initial_outputs)
        self._up = {}  # edge -> start of its occurrence in progress
        self._last = {}  # edge -> (start, end) of its last ended occurrence
        self._down = None  # (tick, edge) of the latest EdgeDown
        self._edge = {}  # undelivered message id -> its edge
        self._attempt = {}  # undelivered message id -> start of its attempt in flight, or None
        self._by_edge = {}  # edge -> ids of its undelivered messages

    def _fail(self, t, what):
        self.violations.append(f"{t}: {what}")

    def update(self, events):
        for t, kind, subject, value in events:
            if kind == EDGE_UP:
                self._edge_up(t, subject)
            elif kind == EDGE_DOWN:
                if subject not in self._up:
                    self._fail(t, f"{subject} goes down while down")
                    continue
                self._last[subject] = (self._up.pop(subject), t)
                self._down = (t, subject)
            elif kind == SEND_INVOKED:
                i, e = subject[0], make_edge(subject[1], subject[2])
                if i in self._edge:
                    self._fail(t, f"message {i} sent twice")
                self._edge[i] = e
                self._attempt[i] = t if e in self._up else None
                self._by_edge.setdefault(e, set()).add(i)
            elif kind == MESSAGE_DELIVERED:
                self._delivered(t, subject[0])
            elif kind == MESSAGE_LOST:
                self._lost(t, subject[0])
            elif kind == OUTPUT_CHANGED:
                v = subject[0]
                if self._grows is not None and not self._grows(self._outputs[v], value):
                    self._fail(t, f"the output of {v} shrinks")
                self._outputs[v] = value

    def _edge_up(self, t, e):
        if e in self._up:
            self._fail(t, f"{e} comes up while up")
        self._up[e] = t
        for i in sorted(self._by_edge.get(e, ()), key=int):
            if self._attempt[i] is not None:
                self._fail(t, f"message {i} stayed in flight across the EdgeDown of {e}")
            self._attempt[i] = t

    def _delivered(self, t, i):
        e = self._edge.get(i)
        if e is None:
            self._fail(t, f"message {i} delivered but not pending")
            return
        a, lat = self._attempt[i], self._latency[e]
        if a is None or a + lat != t:
            self._fail(t, f"message {i} delivered, not one latency ({lat}) after its attempt at {a}")
        start = self._up.get(e)
        if start is None:  # the edge may have gone down at this very tick
            start, end = self._last.get(e, (None, None))
            if end != t:
                start = None
        if start is None or start > t - lat:
            self._fail(t, f"message {i} delivered outside an occurrence of {e} at least {lat} long")
        del self._edge[i], self._attempt[i]
        self._by_edge[e].discard(i)

    def _lost(self, t, i):
        e = self._edge.get(i)
        if e is None:
            self._fail(t, f"message {i} lost but not pending")
            return
        if self._down != (t, e):
            self._fail(t, f"message {i} lost away from an EdgeDown of {e}")
        a = self._attempt[i]
        if a is None or a + self._latency[e] <= t:
            self._fail(t, f"message {i} lost while not due after the EdgeDown (attempt at {a})")
        self._attempt[i] = None

    def finish(self, horizon):
        """Check the messages still pending at ``horizon``; returns ``violations``."""
        for i in sorted(self._edge, key=int):
            e, a = self._edge[i], self._attempt[i]
            if a is None and e in self._up:
                self._fail(horizon, f"message {i} waits while {e} is up")
            elif a is not None and a + self._latency[e] < horizon:
                self._fail(horizon, f"message {i} was due at {a + self._latency[e]} and never delivered")
        return self.violations
