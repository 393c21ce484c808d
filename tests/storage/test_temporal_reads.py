"""The store's temporal reads against per-trace brute force.

``ids_active_between`` and ``states_occupied_at`` answer from the
start-sorted interval arrays; these properties pin them to the
trace-level definitions (``Trace.entries_overlapping`` and
``Trace.entry_at``) over random corpora, with ``extend`` calls
interleaved so the index is invalidated and rebuilt between reads.
"""

from hypothesis import given, settings, strategies as st

from repro.core.annotations import AnnotationSet
from repro.core.trajectory import SemanticTrajectory, Trace, TraceEntry
from repro.storage.store import TrajectoryStore
from tests.conftest import make_trajectory

STATES = "abcd"


@st.composite
def trajectories(draw):
    """A valid trajectory: starts never decrease, and a stay may begin
    up to the sensing tolerance (10 s) before its predecessor ends —
    so short stays can share a start with the next one."""
    t = float(draw(st.integers(0, 1200)))
    entries = []
    for k in range(draw(st.integers(1, 5))):
        dwell = draw(st.sampled_from([0, 0, 4, 10, 30, 250]))
        entries.append(TraceEntry(
            None if k == 0 else "door{}".format(k),
            draw(st.sampled_from(STATES)), t, t + dwell))
        t = max(t, t + dwell + draw(st.integers(-10, 60)))
    return SemanticTrajectory("mo", Trace(entries),
                              AnnotationSet.goals("visit"))


def times(data, docs):
    """A query time: anywhere (outside the span too) or exactly on a
    stay endpoint."""
    endpoints = [t for doc in docs for entry in doc.trace
                 for t in (entry.t_start, entry.t_end)]
    anywhere = st.integers(-500, 3000).map(float)
    if not endpoints:
        return data.draw(anywhere)
    return data.draw(st.one_of(anywhere, st.sampled_from(endpoints)))


def active_between(docs, start, end):
    return frozenset(doc_id for doc_id, doc in enumerate(docs)
                     if doc.trace.entries_overlapping(start, end))


def occupied_at(docs, t):
    found = {}
    for doc_id, doc in enumerate(docs):
        entry = doc.trace.entry_at(t)
        if entry is not None:
            found[doc_id] = entry.state
    return found


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reads_match_trace_bruteforce_across_extends(data):
    store = TrajectoryStore()
    docs = []
    for _ in range(data.draw(st.integers(0, 4))):
        # reads first, so the empty store is covered too
        for _ in range(3):
            start = times(data, docs)
            end = start + data.draw(st.sampled_from([0, 0, 1, 50, 900]))
            assert store.ids_active_between(start, end) \
                == active_between(docs, start, end)
            t = times(data, docs)
            assert store.states_occupied_at(t) == occupied_at(docs, t)
        batch = data.draw(st.lists(trajectories(), max_size=6))
        store.extend(batch)
        docs.extend(batch)
    start = times(data, docs)
    assert store.ids_active_between(start, start) \
        == active_between(docs, start, start)


def test_empty_store():
    store = TrajectoryStore()
    assert store.ids_active_between(0.0, 1e12) == frozenset()
    assert store.states_occupied_at(0.0) == {}


def test_windows_on_exact_endpoints_and_outside_the_span():
    store = TrajectoryStore()
    docs = [make_trajectory(states=("a", "b"), start=100.0),   # 100..310
            make_trajectory(states=("c",), start=310.0),        # 310..410
            make_trajectory(states=("d",), start=500.0, dwell=0.0)]
    store.extend(docs)
    for start, end in [(310.0, 310.0), (210.0, 210.0), (200.0, 200.0),
                       (410.0, 500.0), (500.0, 500.0), (0.0, 99.9),
                       (500.1, 1e9), (-1e9, 100.0), (201.0, 209.0)]:
        assert store.ids_active_between(start, end) \
            == active_between(docs, start, end), (start, end)
    assert store.ids_active_between(0.0, 99.9) == frozenset()
    assert store.ids_active_between(500.0, 500.0) == {2}
    assert store.states_occupied_at(310.0) == {0: "b", 1: "c"}


def test_long_stay_ahead_of_many_short_ones():
    """One stay spanning the whole corpus keeps the running maximum of
    ends high, so every lookup brackets from the first slot — the
    per-slot end check must still reject the short stays."""
    docs = [SemanticTrajectory(
        "long", Trace([TraceEntry(None, "hall", 0.0, 1e6)]),
        AnnotationSet.goals("visit"))]
    docs += [make_trajectory(mo_id="s{}".format(k), states=("a", "b"),
                             start=1000.0 * k, dwell=20.0, gap=5.0)
             for k in range(1, 300)]
    store = TrajectoryStore()
    store.extend(docs)
    for start, end in [(5000.0, 5000.0), (5030.0, 5040.0),
                       (5046.0, 5999.0), (123456.0, 130000.0),
                       (2e6, 3e6), (0.0, 0.0), (999.0, 1000.0),
                       (1045.0, 1999.0)]:
        assert store.ids_active_between(start, end) \
            == active_between(docs, start, end), (start, end)
        assert store.states_occupied_at(start) \
            == occupied_at(docs, start)
    assert store.ids_active_between(5046.0, 5999.0) == {0}


def test_overlapping_stays_with_equal_starts_take_the_later_entry():
    """Two stays of one trajectory sharing a start both contain the
    probe time; the later one in trace order wins, as in
    ``Trace.entry_at``."""
    trace = Trace([TraceEntry(None, "a", 100.0, 105.0),
                   TraceEntry("d1", "b", 100.0, 200.0),
                   TraceEntry("d2", "c", 195.0, 300.0)])
    docs = [SemanticTrajectory("x", trace, AnnotationSet.goals("visit")),
            make_trajectory(states=("e",), start=100.0)]
    store = TrajectoryStore()
    store.extend(docs)
    for t in (100.0, 103.0, 105.0, 150.0, 195.0, 198.0, 200.0, 250.0):
        assert store.states_occupied_at(t) == occupied_at(docs, t), t
    assert store.states_occupied_at(103.0) == {0: "b", 1: "e"}
    assert store.states_occupied_at(198.0) == {0: "c", 1: "e"}
