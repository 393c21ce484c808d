"""Tests for Definitions 3.1/3.2: traces and semantic trajectories."""

import pytest
from hypothesis import given, strategies as st

from repro.core.annotations import AnnotationSet
from repro.core.trajectory import (
    DETECTION_OVERLAP_TOLERANCE,
    SemanticTrajectory,
    Trace,
    TraceEntry,
    TraceValidationError,
)
from repro.core.timeutil import from_clock, from_date
from tests.conftest import make_trajectory


class TestTraceEntry:
    def test_requires_state(self):
        with pytest.raises(ValueError):
            TraceEntry(None, "", 0, 1)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            TraceEntry(None, "a", 10, 5)

    def test_duration(self):
        assert TraceEntry(None, "a", 10, 25).duration == 15
        assert TraceEntry(None, "a", 10, 10).duration == 0

    def test_time_predicates(self):
        entry = TraceEntry(None, "a", 10, 20)
        assert entry.contains_time(15)
        assert entry.contains_time(10) and entry.contains_time(20)
        assert not entry.contains_time(21)
        assert entry.overlaps_time(15, 30)
        assert not entry.overlaps_time(21, 30)

    def test_describe_matches_paper_notation(self):
        day = from_date("15-02-2017")
        entry = TraceEntry("door012", "hall003",
                           from_clock(day, "11:32:31"),
                           from_clock(day, "11:40:00"))
        assert entry.describe() \
            == "(door012, hall003, 11:32:31, 11:40:00, ∅)"

    def test_first_entry_underscore(self):
        entry = TraceEntry(None, "room001", 0, 1)
        assert entry.describe().startswith("(_, room001")

    def test_dict_roundtrip(self):
        entry = TraceEntry("d", "a", 1.0, 2.0,
                           AnnotationSet.goals("visit"))
        assert TraceEntry.from_dict(entry.to_dict()) == entry


class TestTraceValidation:
    def test_out_of_order_rejected(self):
        with pytest.raises(TraceValidationError):
            Trace([TraceEntry(None, "a", 100, 200),
                   TraceEntry("d", "b", 50, 90)])

    def test_bounded_overlap_allowed(self):
        """The paper's own example overlaps room001/hall003 by 4 s."""
        trace = Trace([
            TraceEntry(None, "a", 0, 100),
            TraceEntry("d", "b", 100 - 4, 200),
        ])
        assert len(trace) == 2

    def test_excessive_overlap_rejected(self):
        with pytest.raises(TraceValidationError):
            Trace([TraceEntry(None, "a", 0, 100),
                   TraceEntry("d", "b",
                              100 - DETECTION_OVERLAP_TOLERANCE - 1,
                              200)])

    def test_state_change_requires_transition(self):
        with pytest.raises(TraceValidationError):
            Trace([TraceEntry(None, "a", 0, 10),
                   TraceEntry(None, "b", 20, 30)])

    def test_same_state_split_may_omit_transition(self):
        trace = Trace([TraceEntry(None, "a", 0, 10),
                       TraceEntry(None, "a", 11, 30)])
        assert len(trace) == 2


def make_copies(traces):
    """Equal traces with cold caches."""
    return [Trace(trace.entries) for trace in traces]


class TestTraceViews:
    def test_states_and_distinct_sequence(self):
        trace = Trace([
            TraceEntry(None, "a", 0, 10),
            TraceEntry(None, "a", 11, 20),  # semantic split
            TraceEntry("d", "b", 21, 30),
        ])
        assert trace.states() == ["a", "a", "b"]
        assert trace.distinct_state_sequence() == ["a", "b"]
        assert trace.transitions() == [("a", "b")]

    def test_distinct_sequence_is_a_fresh_list(self):
        trace = make_trajectory(states=("a", "b", "a")).trace
        first = trace.distinct_state_sequence()
        first.append("z")
        first[0] = "y"
        assert trace.distinct_state_sequence() == ["a", "b", "a"]
        assert trace.distinct_states == ("a", "b", "a")
        assert trace.distinct_state_sequence() \
            is not trace.distinct_state_sequence()

    def test_cached_states_leave_identity_alone(self):
        """The cached tuple is invisible to equality, hashing and
        pickles: a trace pickles to the same bytes before and after
        the cache fills, and round-trips equal."""
        import pickle

        trajectory = make_trajectory(states=("a", "b", "c"))
        cold = make_trajectory(states=("a", "b", "c"))
        before = [pickle.dumps(trajectory, protocol)
                  for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        assert trajectory.distinct_states == ("a", "b", "c")
        after = [pickle.dumps(trajectory, protocol)
                 for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        assert before == after
        assert trajectory == cold and trajectory.trace == cold.trace
        assert hash(trajectory) == hash(cold)
        assert hash(trajectory.trace) == hash(cold.trace)
        revived = pickle.loads(after[-1])
        assert revived == trajectory
        assert revived.distinct_state_sequence() == ["a", "b", "c"]

    def test_cached_states_under_concurrent_first_reads(self):
        """Threads racing to fill the cache all read the same
        sequence (the fill is idempotent, so no lock is needed)."""
        import sys
        import threading

        traces = [make_trajectory(states=("a", "b", "c")[:1 + i % 3]
                                  * (1 + i % 4)).trace
                  for i in range(200)]
        expected = [tuple(trace.distinct_state_sequence())
                    for trace in make_copies(traces)]
        seen = [[] for _ in range(8)]

        def reader(out):
            out.extend(trace.distinct_states for trace in traces)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(out,))
                       for out in seen]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(out == expected for out in seen)

    def test_durations(self):
        trace = Trace([TraceEntry(None, "a", 0, 10),
                       TraceEntry("d", "b", 15, 30)])
        assert trace.total_duration() == 25
        assert trace.span() == (0, 30)

    def test_empty_trace_span_raises(self):
        with pytest.raises(ValueError):
            Trace([]).span()

    def test_entry_at(self):
        trace = Trace([TraceEntry(None, "a", 0, 10),
                       TraceEntry("d", "b", 8, 30)])
        assert trace.entry_at(5).state == "a"
        # In the overlap region the newer detection wins.
        assert trace.entry_at(9).state == "b"
        assert trace.entry_at(50) is None

    def test_entries_overlapping(self):
        trace = Trace([TraceEntry(None, "a", 0, 10),
                       TraceEntry("d", "b", 20, 30)])
        assert len(trace.entries_overlapping(5, 25)) == 2
        assert len(trace.entries_overlapping(11, 19)) == 0

    def test_time_in_state(self):
        trace = Trace([TraceEntry(None, "a", 0, 10),
                       TraceEntry("d", "b", 10, 30),
                       TraceEntry("d2", "a", 30, 35)])
        assert trace.time_in_state("a") == 15
        assert trace.visits_state("b")
        assert not trace.visits_state("c")

    def test_slicing_returns_trace(self):
        trace = make_trajectory(states=("a", "b", "c")).trace
        assert isinstance(trace[0:2], Trace)
        assert len(trace[0:2]) == 2
        assert trace[1].state == "b"

    def test_list_roundtrip(self):
        trace = make_trajectory().trace
        assert Trace.from_list(trace.to_list()) == trace

    def test_insert_revalidates(self):
        trace = Trace([TraceEntry(None, "a", 0, 10),
                       TraceEntry("d", "b", 50, 60)])
        extended = trace.with_entry_inserted(
            1, TraceEntry("d2", "c", 20, 40))
        assert extended.states() == ["a", "c", "b"]
        with pytest.raises(TraceValidationError):
            trace.with_entry_inserted(
                1, TraceEntry("d2", "c", 200, 300))


class TestSemanticTrajectory:
    def test_requires_mo_id(self):
        trace = make_trajectory().trace
        with pytest.raises(ValueError):
            SemanticTrajectory("", trace, AnnotationSet.goals("visit"))

    def test_requires_nonempty_trace(self):
        with pytest.raises(ValueError):
            SemanticTrajectory("mo", Trace([]),
                               AnnotationSet.goals("visit"))

    def test_definition_31_requires_annotations(self):
        trace = make_trajectory().trace
        with pytest.raises(ValueError) as excinfo:
            SemanticTrajectory("mo", trace, AnnotationSet.empty())
        assert "A_traj" in str(excinfo.value)

    def test_span_defaults_to_trace(self):
        trajectory = make_trajectory(start=1000.0, dwell=100.0, gap=10.0,
                                     states=("a", "b"))
        assert trajectory.t_start == 1000.0
        assert trajectory.t_end == 1000.0 + 100 + 10 + 100

    def test_explicit_span_must_enclose(self):
        trace = make_trajectory().trace
        with pytest.raises(ValueError):
            SemanticTrajectory("mo", trace,
                               AnnotationSet.goals("visit"),
                               t_start=trace.span()[0] + 1)

    def test_key_and_duration(self):
        trajectory = make_trajectory(mo_id="v42")
        assert trajectory.key[0] == "v42"
        assert trajectory.duration == trajectory.t_end \
            - trajectory.t_start

    def test_state_at(self):
        trajectory = make_trajectory(states=("a", "b"), start=0.0,
                                     dwell=10.0, gap=5.0)
        assert trajectory.state_at(5.0) == "a"
        assert trajectory.state_at(20.0) == "b"
        assert trajectory.state_at(12.0) is None  # in the gap

    def test_with_annotations(self):
        trajectory = make_trajectory()
        updated = trajectory.with_annotations(AnnotationSet.goals("buy"))
        assert updated.annotations != trajectory.annotations
        assert updated.trace == trajectory.trace

    def test_equality_and_hash(self):
        a = make_trajectory()
        b = make_trajectory()
        assert a == b
        assert hash(a) == hash(b)
        assert a != make_trajectory(mo_id="other")

    def test_dict_roundtrip(self):
        trajectory = make_trajectory()
        restored = SemanticTrajectory.from_dict(trajectory.to_dict())
        assert restored == trajectory


@given(st.integers(1, 8), st.floats(1.0, 1000.0), st.floats(0.0, 100.0))
def test_property_trace_construction(n_states, dwell, gap):
    """Linear traces of any shape satisfy the invariants."""
    states = tuple("s{}".format(i) for i in range(n_states))
    trajectory = make_trajectory(states=states, dwell=dwell, gap=gap)
    assert len(trajectory.trace) == n_states
    assert trajectory.distinct_state_sequence() == list(states)
    assert trajectory.duration >= trajectory.trace.total_duration() - 1e-6
