import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import present_at
from tvgsim.errors import DomainError
from tvgsim.graphs import StaticGraph
from tvgsim.scenarios import ALWAYS, generate_gk
from tvgsim.tvg import (
    PeriodicTail,
    PresenceSchedule,
    Tvg,
    earliest_arrival,
    eventual_underlying_graph,
    is_connected_over_time,
    restrict,
)

# --- schedule strategies ---------------------------------------------------

intervals_st = st.lists(
    st.tuples(st.integers(0, 30), st.integers(1, 8)).map(lambda p: (p[0], p[0] + p[1])),
    max_size=4,
)
tail_st = st.one_of(
    st.none(),
    st.integers(1, 8).flatmap(
        lambda p: st.builds(
            PeriodicTail, st.integers(0, 40), st.just(p), st.integers(1, p)
        )
    ),
)


def _schedule(intervals, tail):
    if tail is not None:
        # keep finite intervals clear of the tail to stay in the valid domain
        intervals = [(s, e) for (s, e) in intervals if e <= tail.offset]
    return PresenceSchedule.of(intervals, tail)


# --- schedules -------------------------------------------------------------

def test_tail_validation():
    with pytest.raises(DomainError):
        PeriodicTail(-1, 2, 1)
    with pytest.raises(DomainError):
        PeriodicTail(0, 0, 1)
    with pytest.raises(DomainError):
        PeriodicTail(0, 2, 3)


def test_schedule_normalization():
    s = PresenceSchedule.of([(3, 5), (0, 3), (7, 9)])
    assert s.intervals == ((0, 5), (7, 9))
    assert not s.recurrent

    # interval abutting the tail's first occurrence folds into the tail
    s = PresenceSchedule.of([(0, 4)], PeriodicTail(4, 3, 2))
    assert s.intervals == ((0, 6),)
    assert s.tail == PeriodicTail(7, 3, 2)

    # contiguous tail absorbs overlapping intervals and normalizes
    s = PresenceSchedule.of([(2, 6)], PeriodicTail(5, 4, 4))
    assert s.intervals == ()
    assert s.tail == PeriodicTail(2, 1, 1)

    with pytest.raises(DomainError):
        PresenceSchedule.of([(0, 6)], PeriodicTail(4, 3, 2))
    with pytest.raises(DomainError):
        PresenceSchedule.of([(3, 3)])
    with pytest.raises(DomainError):
        PresenceSchedule.of([(-1, 3)])


@settings(max_examples=150, deadline=None)
@given(intervals_st, tail_st, st.integers(0, 80))
def test_present_at_matches_occurrences(intervals, tail, t):
    s = _schedule(intervals, tail)
    expected = False
    for (a, b) in s.occurrences():
        if a > t:
            break
        if b is None or t < b:
            expected = expected or a <= t
        if b is None:
            break
    assert present_at(s, t) == expected


@settings(max_examples=200, deadline=None)
@given(intervals_st, tail_st, st.integers(0, 100))
def test_occurrences_after_matches_filtered_walk(intervals, tail, after):
    # after runs past the largest tail offset (40), so the walk often has to
    # jump into the tail rather than start at its first occurrence.
    s = _schedule(intervals, tail)
    walk = (occ for occ in s.occurrences() if occ[1] is None or occ[1] > after)
    assert list(itertools.islice(s.occurrences(after), 12)) == list(itertools.islice(walk, 12))


@settings(max_examples=150, deadline=None)
@given(intervals_st, tail_st, st.integers(0, 60), st.integers(0, 5))
def test_earliest_window_matches_scan(intervals, tail, t, duration):
    s = _schedule(intervals, tail)

    def window_ok(c):
        # transit window is half-open: the edge may close exactly at c+duration
        span = range(c, c + duration) if duration else [c]
        return all(present_at(s, x) for x in span)

    scan = next((c for c in range(t, t + 90) if window_ok(c)), None)
    got = s.earliest_window(t, duration)
    if got is not None and got < t + 90:
        assert got == scan
    else:
        assert scan is None


def test_earliest_window_rejects_negative_tick():
    with pytest.raises(DomainError) as exc:
        PresenceSchedule.of([(0, 5)]).earliest_window(-3, 0)
    assert "negative" in str(exc.value)


@settings(max_examples=150, deadline=None)
@given(intervals_st, tail_st, st.integers(0, 50), st.one_of(st.none(), st.integers(1, 30)), st.integers(0, 90))
def test_minus_pointwise(intervals, tail, start, length, t):
    s = _schedule(intervals, tail)
    end = None if length is None else start + length
    masked = s.minus(start, end)
    in_mask = start <= t and (end is None or t < end)
    assert present_at(masked, t) == (present_at(s, t) and not in_mask)


def test_minus_preserves_recurrence_for_bounded_masks():
    s = PresenceSchedule.of([], PeriodicTail(0, 4, 2))
    assert s.minus(3, 20).recurrent
    assert not s.minus(3, None).recurrent
    always = PresenceSchedule.of([], PeriodicTail(0, 1, 1))
    m = always.minus(5, 9)
    assert m.intervals == ((0, 5),)
    assert m.tail == PeriodicTail(9, 1, 1)


# --- Tvg -------------------------------------------------------------------

def _two_vertex(schedule, latency=1):
    g = StaticGraph.of(["a", "b"], [("a", "b")])
    return Tvg(g, {("a", "b"): schedule}, {("a", "b"): latency})


def test_tvg_validation():
    g = StaticGraph.of(["a", "b"], [("a", "b")])
    with pytest.raises(DomainError):
        Tvg(g, {}, {("a", "b"): 1})
    with pytest.raises(DomainError):
        Tvg(g, {("a", "b"): PresenceSchedule.of([])}, {("a", "b"): 1})
    with pytest.raises(DomainError):
        Tvg(g, {("a", "b"): ALWAYS}, {("a", "b"): 0})
    with pytest.raises(DomainError):
        Tvg(g, {("a", "b"): ALWAYS}, {("a", "b"): 1}, process_latency=-1)


@pytest.mark.parametrize(
    "intervals,tail",
    [
        (((0, 5), (3, 8)), None),  # overlapping
        (((0, 3), (3, 5)), None),  # touching
        (((4, 6), (0, 2)), None),  # unsorted
        (((3, 3),), None),  # empty
        (((-1, 2),), None),  # negative start
        (((0, 5),), PeriodicTail(5, 3, 2)),  # touches the tail
        (((0, 6),), PeriodicTail(4, 3, 2)),  # overlaps the tail
        ((), PeriodicTail(2, 4, 4)),  # contiguous tail not stored as (offset, 1, 1)
    ],
)
def test_tvg_rejects_unnormalized_schedule(intervals, tail):
    with pytest.raises(DomainError) as exc:
        _two_vertex(PresenceSchedule(intervals, tail))
    assert "normal form" in str(exc.value)


def test_underlying_graphs():
    g1 = generate_gk(1)
    assert g1.graph.edges == frozenset(
        {("p0", "p1"), ("p0", "p2"), ("p1", "p2"), ("p2", "p3")}
    )
    # shortcut edges appear only once: not part of the eventual graph
    assert eventual_underlying_graph(g1).edges == frozenset(
        {("p0", "p1"), ("p1", "p2"), ("p2", "p3")}
    )
    assert is_connected_over_time(g1)
    assert present_at(g1.schedule[("p0", "p2")], 0)
    assert not present_at(g1.schedule[("p0", "p2")], 1)


def test_not_connected_over_time():
    g = StaticGraph.of(["a", "b", "c"], [("a", "b"), ("b", "c")])
    tvg = Tvg(
        g,
        {("a", "b"): ALWAYS, ("b", "c"): PresenceSchedule.of([(0, 5)])},
        {("a", "b"): 1, ("b", "c"): 1},
    )
    assert not is_connected_over_time(tvg)


def test_earliest_arrival_fixtures():
    g1 = generate_gk(1)
    assert earliest_arrival(g1, "p0", "p2", after=0) == 1  # shortcut at tick 0
    assert earliest_arrival(g1, "p0", "p2", after=1) == 3  # via p1 from tick 1
    assert earliest_arrival(g1, "p1", "p3", after=1, deliverable=True) == 3
    assert earliest_arrival(g1, "p0", "p0", after=7) == 7
    with pytest.raises(DomainError):
        earliest_arrival(g1, "p0", "nope")


@pytest.mark.parametrize("source,target", [("p0", "p0"), ("p0", "p3")])
def test_earliest_arrival_rejects_negative_departure(source, target):
    with pytest.raises(DomainError) as exc:
        earliest_arrival(generate_gk(1), source, target, after=-5)
    assert "negative" in str(exc.value)


def test_earliest_arrival_waits_for_presence():
    s = PresenceSchedule.of([(10, 12)])
    tvg = _two_vertex(s, latency=2)
    assert earliest_arrival(tvg, "a", "b") == 12
    # deliverable needs the window [t, t+2] inside the occurrence
    assert earliest_arrival(tvg, "a", "b", deliverable=True) == 12
    short = _two_vertex(PresenceSchedule.of([(10, 11)]), latency=2)
    assert earliest_arrival(short, "a", "b") == 12
    assert earliest_arrival(short, "a", "b", deliverable=True) is None


def test_restrict_drops_emptied_edges():
    g1 = generate_gk(1)
    cut = restrict(g1, [([("p0", "p2")], (0, None))])
    assert ("p0", "p2") not in cut.graph.edges
    assert ("p0", "p1") in cut.graph.edges
    with pytest.raises(DomainError):
        restrict(g1, [([("p0", "p3")], (0, 5))])

