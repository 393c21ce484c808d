"""Tests for the detection-record → trajectory builder."""

import pytest

from repro.core.annotations import AnnotationKind, AnnotationSet
from repro.core.builder import (
    DetectionRecord,
    TrajectoryBuilder,
    UNOBSERVED_TRANSITION_PREFIX,
)
from repro.indoor.nrg import NodeRelationGraph


@pytest.fixture
def nrg():
    graph = NodeRelationGraph("zones")
    graph.connect("a", "b", edge_id="ab", boundary_id="door-ab",
                  bidirectional=True)
    graph.connect("b", "c", edge_id="bc", bidirectional=True)
    return graph


@pytest.fixture
def builder(nrg):
    return TrajectoryBuilder(nrg, visit_gap_seconds=3600.0)


def rec(mo, state, start, end, visit=None):
    return DetectionRecord(mo, state, start, end, visit)


def build(builder, records):
    """``build_all``'s trajectories and its cleaning report."""
    trajectories, report = builder.build_all(records)
    return trajectories, report.cleaning


def spans(trajectories):
    """Every built entry's ``(t_start, t_end)``, in build order."""
    return [(entry.t_start, entry.t_end)
            for trajectory in trajectories for entry in trajectory.trace]


class TestCleaning:
    def test_zero_duration_dropped(self, builder):
        trajectories, report = build(builder, [
            rec("m", "a", 0, 0),
            rec("m", "a", 10, 20),
        ])
        assert spans(trajectories) == [(10, 20)]
        assert report.kept == 1
        assert report.dropped_zero_duration == 1
        assert report.zero_duration_share == 0.5

    def test_negative_duration_dropped(self, builder):
        _, report = build(builder, [rec("m", "a", 10, 5)])
        assert report.dropped_negative_duration == 1
        assert report.kept == 0

    def test_unknown_state_dropped(self, builder):
        trajectories, report = build(builder, [rec("m", "ghost", 0, 10)])
        assert trajectories == []
        assert report.dropped_unknown_state == 1

    def test_unknown_state_kept_when_configured(self, nrg):
        builder = TrajectoryBuilder(nrg, drop_unknown_states=False)
        trajectories, report = build(builder, [rec("m", "ghost", 0, 10)])
        assert report.kept == 1
        assert [e.state for e in trajectories[0].trace] == ["ghost"]

    def test_duplicate_record_dropped_as_contained(self, builder):
        trajectories, report = build(builder, [
            rec("m", "a", 0, 100),
            rec("m", "a", 0, 100),   # exact duplicate upload
            rec("m", "a", 20, 80),   # fully contained echo
        ])
        assert spans(trajectories) == [(0, 100)]
        assert report.kept == 1
        assert report.dropped_contained == 2

    def test_overlapping_record_clipped(self, builder):
        trajectories, report = build(builder, [
            rec("m", "a", 0, 100),
            rec("m", "b", 50, 200),  # starts 50s early
        ])
        assert report.clipped_overlaps == 1
        assert spans(trajectories) == [(0, 100), (100, 200)]

    def test_bounded_overlap_untouched(self, builder):
        """Overlaps within the sensing tolerance are a modelled
        phenomenon, not an error — they pass through unchanged."""
        trajectories, report = build(builder, [
            rec("m", "a", 0, 100),
            rec("m", "b", 96, 200),
        ])
        assert report.clipped_overlaps == 0
        assert spans(trajectories)[1] == (96, 200)

    def test_record_starting_before_a_clipped_start_is_clipped(
            self, builder):
        """A clip moves a start past the next record's: the last
        accepted start is a second floor, so the trace stays in
        order (these three records raised TraceValidationError)."""
        records = [rec("v0", "a", 0, 20), rec("v0", "a", 5, 25),
                   rec("v0", "a", 15, 23)]
        trajectories, report = build(builder, records)
        assert len(trajectories) == 1
        assert spans(trajectories) == [(0, 20), (20, 25), (20, 23)]
        assert report.clipped_overlaps == 2

    def test_record_ending_by_a_clipped_start_is_dropped(self, builder):
        records = [rec("v0", "a", 0, 20), rec("v0", "a", 5, 25),
                   rec("v0", "b", 16, 19)]  # within the tolerance of 25
        trajectories, report = build(builder, records)
        assert len(trajectories) == 1
        assert spans(trajectories) == [(0, 20), (20, 25)]
        assert report.dropped_contained == 1
        assert report.clipped_overlaps == 1

    def test_different_mos_never_clipped(self, builder):
        trajectories, report = build(builder, [
            rec("m1", "a", 0, 100),
            rec("m2", "b", 50, 200),
        ])
        assert report.clipped_overlaps == 0
        assert report.kept == 2
        assert spans(trajectories) == [(0, 100), (50, 200)]

    def test_sorting(self, builder):
        trajectories, _ = build(builder, [
            rec("m2", "a", 0, 10),
            rec("m1", "b", 50, 60),
            rec("m1", "a", 0, 10),
        ])
        assert [(t.mo_id, e.t_start) for t in trajectories
                for e in t.trace] == [("m1", 0), ("m1", 50), ("m2", 0)]


class TestVisitSplitting:
    def test_gap_splits_visits(self, builder):
        visits, _ = build(builder, [
            rec("m", "a", 0, 100),
            rec("m", "b", 200, 300),
            rec("m", "a", 100_000, 100_100),
        ])
        assert len(visits) == 2
        assert len(visits[0].trace) == 2

    def test_visit_id_grouping(self, builder):
        visits, _ = build(builder, [
            rec("m", "a", 0, 100, visit="v1"),
            rec("m", "b", 200, 300, visit="v2"),
        ])
        assert len(visits) == 2

    def test_different_mos_never_merge(self, builder):
        visits, _ = build(builder, [
            rec("m1", "a", 0, 100),
            rec("m2", "b", 100, 200),
        ])
        assert len(visits) == 2


class TestBuild:
    def test_transitions_resolved(self, builder):
        trajectory = builder.build_trajectory([
            rec("m", "a", 0, 100),
            rec("m", "b", 110, 200),
        ])
        assert trajectory.trace.entries[0].transition is None
        assert trajectory.trace.entries[1].transition == "door-ab"

    def test_edge_id_used_without_boundary(self, builder):
        trajectory = builder.build_trajectory([
            rec("m", "b", 0, 100),
            rec("m", "c", 110, 200),
        ])
        assert trajectory.trace.entries[1].transition == "bc"

    def test_unobserved_transition_marked(self, builder):
        trajectory = builder.build_trajectory([
            rec("m", "a", 0, 100),
            rec("m", "c", 110, 200),  # no direct a→c edge
        ])
        assert trajectory.trace.entries[1].transition.startswith(
            UNOBSERVED_TRANSITION_PREFIX)

    def test_default_goal_annotation(self, builder):
        trajectory = builder.build_trajectory([rec("m", "a", 0, 100)])
        assert trajectory.annotations.has(AnnotationKind.GOAL, "visit")

    def test_custom_annotations(self, builder):
        trajectory = builder.build_trajectory(
            [rec("m", "a", 0, 100)],
            annotations=AnnotationSet.goals("maintenance"))
        assert trajectory.annotations.has(AnnotationKind.GOAL,
                                          "maintenance")

    def test_empty_visit_rejected(self, builder):
        with pytest.raises(ValueError):
            builder.build_trajectory([])

    def test_mixed_mos_rejected(self, builder):
        with pytest.raises(ValueError):
            builder.build_trajectory([
                rec("m1", "a", 0, 100),
                rec("m2", "b", 110, 200),
            ])

    def test_build_all_report(self, builder):
        trajectories, report = builder.build_all([
            rec("m", "a", 0, 100),
            rec("m", "b", 110, 200),
            rec("m", "b", 205, 205),       # zero duration
            rec("m2", "a", 0, 50),
            rec("m2", "c", 60, 100),       # unobserved transition
        ])
        assert report.trajectories == 2
        assert report.cleaning.dropped_zero_duration == 1
        assert report.unobserved_transitions == 1
        assert report.entries == 4
        assert report.transitions == 2
