"""A test-side reference for trajectory construction.

The library builds every trajectory through one state machine
(:class:`repro.core.builder.VisitAssembler`): the batch builder, both
modes of the ``segment`` stage and the stream segmenter all feed it.
Tests that hold those paths equal to each other would pass together if
the machine broke, so they also compare against this module: the
construction rules written out as whole-list passes — clean, sort,
repair overlaps, split visits — sharing no code with the machine.
Only the per-visit trace construction and annotation are the
builder's own.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.builder import (
    CleaningReport,
    DetectionRecord,
    TrajectoryBuilder,
)
from repro.core.trajectory import (
    DETECTION_OVERLAP_TOLERANCE,
    SemanticTrajectory,
)


def clean(builder: TrajectoryBuilder, records: Iterable[DetectionRecord]
          ) -> Tuple[List[DetectionRecord], CleaningReport]:
    """Filter error records; returns survivors sorted by (mo, time),
    overlaps repaired, and the counts of what was done."""
    report = CleaningReport()
    kept: List[DetectionRecord] = []
    for record in records:
        report.total += 1
        reason = builder.classify_record(record)
        if reason == "negative_duration":
            report.dropped_negative_duration += 1
        elif reason == "zero_duration":
            report.dropped_zero_duration += 1
        elif reason == "unknown_state":
            report.dropped_unknown_state += 1
        else:
            kept.append(record)
    kept.sort(key=lambda r: (r.mo_id, r.t_start, r.t_end))
    kept = resolve_overlaps(kept, report)
    report.kept = len(kept)
    return kept, report


def resolve_overlaps(records: Sequence[DetectionRecord],
                     report: CleaningReport) -> List[DetectionRecord]:
    """Repair same-object records overlapping beyond the tolerance.

    A record starting before its predecessor's end (minus the
    tolerance) is dropped when contained, else clipped to start at
    that end.  The last accepted start is a second floor: a record
    starting before it is clipped to it, or dropped when it ends by
    then.  Input must be sorted by (mo, t_start, t_end).
    """
    resolved: List[DetectionRecord] = []
    last_end: Dict[str, float] = {}
    last_start: Dict[str, float] = {}
    for record in records:
        previous_end = last_end.get(record.mo_id)
        if previous_end is not None and record.t_start \
                < previous_end - DETECTION_OVERLAP_TOLERANCE:
            if record.t_end <= previous_end:
                report.dropped_contained += 1
                continue
            record = DetectionRecord(
                record.mo_id, record.state, previous_end,
                record.t_end, record.visit_id, record.attributes)
            report.clipped_overlaps += 1
        floor = last_start.get(record.mo_id)
        if floor is not None and record.t_start < floor:
            if record.t_end <= floor:
                report.dropped_contained += 1
                continue
            record = DetectionRecord(
                record.mo_id, record.state, floor, record.t_end,
                record.visit_id, record.attributes)
            report.clipped_overlaps += 1
        resolved.append(record)
        last_start[record.mo_id] = record.t_start
        last_end[record.mo_id] = max(record.t_end,
                                     previous_end or record.t_end)
    return resolved


def split_visits(builder: TrajectoryBuilder,
                 records: Sequence[DetectionRecord]
                 ) -> List[List[DetectionRecord]]:
    """Group cleaned records into visits.

    Records with a ``visit_id`` group by ``(mo_id, visit_id)``;
    records without group by ``mo_id`` and split on the inactivity
    gap.  Visits are ordered by ``(mo_id, first t_start)``, a
    ``visit_id`` visit before an id-less one on a tie.  Input must be
    sorted (as :func:`clean` returns it).
    """
    with_id: Dict[Tuple[str, str], List[DetectionRecord]] = {}
    without_id: Dict[str, List[DetectionRecord]] = {}
    for record in records:
        if record.visit_id is not None:
            with_id.setdefault((record.mo_id, record.visit_id),
                               []).append(record)
        else:
            without_id.setdefault(record.mo_id, []).append(record)
    visits: List[List[DetectionRecord]] = list(with_id.values())
    for mo_records in without_id.values():
        current: List[DetectionRecord] = []
        for record in mo_records:
            if current and (record.t_start - current[-1].t_end
                            > builder.visit_gap_seconds):
                visits.append(current)
                current = []
            current.append(record)
        if current:
            visits.append(current)
    visits.sort(key=lambda v: (v[0].mo_id, v[0].t_start))
    return visits


def build(builder: TrajectoryBuilder, records: Iterable[DetectionRecord]
          ) -> Tuple[List[SemanticTrajectory], CleaningReport]:
    """The exact-mode build: every trajectory, in builder order, and
    the cleaning counts."""
    kept, report = clean(builder, records)
    return ([builder.build_trajectory(visit)
             for visit in split_visits(builder, kept)], report)


def build_contiguous(builder: TrajectoryBuilder,
                     records: Iterable[DetectionRecord]
                     ) -> Tuple[List[SemanticTrajectory], CleaningReport]:
    """The contiguity-mode build: each run of kept records sharing a
    ``(mo_id, visit_id)`` key is sorted, repaired on its own and (when
    id-less) gap-split; visits come out in stream order.  The report
    holds the overlap repairs only."""
    runs: List[List[DetectionRecord]] = []
    for record in records:
        if builder.classify_record(record) is not None:
            continue
        if runs and (runs[-1][0].mo_id, runs[-1][0].visit_id) \
                == (record.mo_id, record.visit_id):
            runs[-1].append(record)
        else:
            runs.append([record])
    report = CleaningReport()
    trajectories: List[SemanticTrajectory] = []
    for run in runs:
        run.sort(key=lambda r: (r.t_start, r.t_end))
        repaired = resolve_overlaps(run, report)
        visits = (split_visits(builder, repaired)
                  if run[0].visit_id is None else [repaired])
        trajectories.extend(builder.build_trajectory(visit)
                            for visit in visits)
    return trajectories, report
