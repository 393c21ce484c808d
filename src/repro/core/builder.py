"""From raw symbolic detections to semantic trajectories.

Section 4.1 describes the input: "each visit consists of a sequence of
timestamped 'zone detections', i.e. detections of the visitor's
smartphone inside a certain zone", with known quirks — "around 10% of
the zone detections have a duration of zero value, forcing us to filter
them out as detection errors", sparse coverage, and app usage that may
start late or stop early.

:class:`TrajectoryBuilder` turns such records into SITM trajectories:

1. **cleaning** — drop zero/negative-duration detections and (optionally)
   detections in states unknown to the space graph;
2. **visit segmentation** — split each moving object's records into
   visits on a configurable inactivity gap (unless records already
   carry a ``visit_id``);
3. **trace construction** — resolve each state change to a transition
   ``e_i`` via the layer's accessibility NRG (picking the boundary when
   it is unique), marking unobserved transitions;
4. **annotation** — attach the default whole-trajectory annotation set
   (Definition 3.1 requires A_traj to be non-empty).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.annotations import AnnotationSet
from repro.core.trajectory import SemanticTrajectory, Trace, TraceEntry
from repro.indoor.nrg import NodeRelationGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.metrics import PipelineMetrics

#: Prefix used for transitions observed in the data but absent from the
#: accessibility NRG — either a data error or an incomplete graph, both
#: worth surfacing ("the accessibility topology ... can therefore also
#: assist in filtering out data errors" — Section 4.2).
UNOBSERVED_TRANSITION_PREFIX = "unobserved:"


@dataclass(frozen=True)
class DetectionRecord:
    """One raw zone detection.

    Attributes:
        mo_id: the moving object (visitor) identifier.
        state: the detected symbolic location (zone/cell id).
        t_start: detection interval start.
        t_end: detection interval end.
        visit_id: optional pre-assigned visit identifier.
        attributes: free-form source attributes (device type, ...).
    """

    mo_id: str
    state: str
    t_start: float
    t_end: float
    visit_id: Optional[str] = None
    attributes: Mapping[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Detection duration in seconds."""
        return self.t_end - self.t_start


@dataclass
class CleaningReport:
    """What the cleaning stage did to a record batch."""

    total: int = 0
    kept: int = 0
    dropped_zero_duration: int = 0
    dropped_negative_duration: int = 0
    dropped_unknown_state: int = 0
    #: records fully contained in an earlier record of the same moving
    #: object (duplicate uploads, sensor echoes) — dropped.
    dropped_contained: int = 0
    #: records whose start overlapped the previous record beyond the
    #: sensing tolerance — their start was clipped forward.
    clipped_overlaps: int = 0

    @property
    def dropped(self) -> int:
        """Total records dropped."""
        return (self.dropped_zero_duration
                + self.dropped_negative_duration
                + self.dropped_unknown_state
                + self.dropped_contained)

    @property
    def zero_duration_share(self) -> float:
        """Share of zero-duration records — the paper reports ~10 %."""
        if self.total == 0:
            return 0.0
        return self.dropped_zero_duration / self.total


@dataclass
class BuildReport:
    """Summary of a full build run.

    When the build ran on the pipeline engine, ``stage_metrics`` holds
    the per-stage instrumentation (items in/out, drop reasons, wall
    time) the aggregate numbers were derived from.
    """

    cleaning: CleaningReport = field(default_factory=CleaningReport)
    trajectories: int = 0
    entries: int = 0
    unobserved_transitions: int = 0
    stage_metrics: Optional["PipelineMetrics"] = None

    @property
    def transitions(self) -> int:
        """Intra-visit transitions (entries minus one per trajectory)."""
        return self.entries - self.trajectories


@dataclass(frozen=True)
class TraceDraft:
    """A constructed trace awaiting its trajectory-level annotations.

    The trace-construction stage emits drafts because Definition 3.1
    forbids a :class:`SemanticTrajectory` with an empty ``A_traj`` —
    attaching the annotation set is a stage of its own.
    """

    mo_id: str
    trace: Trace
    unobserved_transitions: int = 0


class TrajectoryBuilder:
    """Builds semantic trajectories from raw detection records.

    Args:
        nrg: the accessibility NRG of the detection layer (e.g. the
            thematic-zone layer for the Louvre dataset).
        default_annotations: the ``A_traj`` attached to every built
            trajectory; defaults to ``{goal:visit}`` as in the paper's
            museum setting.
        visit_gap_seconds: inactivity gap splitting two visits of the
            same moving object when records carry no ``visit_id``.
        min_duration: detections shorter than this are dropped as
            errors (0 reproduces the paper's zero-duration filter).
        drop_unknown_states: drop detections whose state is not an NRG
            node (otherwise they are kept verbatim).
    """

    def __init__(self, nrg: NodeRelationGraph,
                 default_annotations: Optional[AnnotationSet] = None,
                 visit_gap_seconds: float = 4 * 3600.0,
                 min_duration: float = 0.0,
                 drop_unknown_states: bool = True) -> None:
        self.nrg = nrg
        self.default_annotations = (default_annotations
                                    if default_annotations is not None
                                    else AnnotationSet.goals("visit"))
        self.visit_gap_seconds = visit_gap_seconds
        self.min_duration = min_duration
        self.drop_unknown_states = drop_unknown_states

    def config_fingerprint(self) -> str:
        """A stable digest of everything that shapes the build output.

        Covers the NRG's node/edge structure and every builder knob,
        so the pipeline stage cache can prove two builds equivalent
        (see :mod:`repro.pipeline.cache`).
        """
        from repro.pipeline.cache import fingerprint_of

        edges = sorted((edge.source, edge.target, edge.edge_id)
                       for edge in self.nrg.edges)
        annotations = sorted(repr(a) for a in self.default_annotations)
        return fingerprint_of(
            "trajectory-builder", sorted(self.nrg.nodes), edges,
            annotations, self.visit_gap_seconds, self.min_duration,
            self.drop_unknown_states)

    # ------------------------------------------------------------------
    # stage 1: cleaning
    # ------------------------------------------------------------------
    def classify_record(self, record: DetectionRecord) -> Optional[str]:
        """The drop reason for a record, or ``None`` when it is kept.

        Reasons are the stable keys the pipeline metrics report:
        ``negative_duration``, ``zero_duration``, ``unknown_state``.
        """
        if record.duration < 0:
            return "negative_duration"
        if record.duration <= self.min_duration:
            return "zero_duration"
        if self.drop_unknown_states and record.state not in self.nrg:
            return "unknown_state"
        return None

    def clean(self, records: Iterable[DetectionRecord]
              ) -> Tuple[List[DetectionRecord], CleaningReport]:
        """Filter error records; returns survivors sorted by (mo, time)."""
        report = CleaningReport()
        kept: List[DetectionRecord] = []
        for record in records:
            report.total += 1
            reason = self.classify_record(record)
            if reason == "negative_duration":
                report.dropped_negative_duration += 1
            elif reason == "zero_duration":
                report.dropped_zero_duration += 1
            elif reason == "unknown_state":
                report.dropped_unknown_state += 1
            else:
                kept.append(record)
        kept.sort(key=lambda r: (r.mo_id, r.t_start, r.t_end))
        kept = self._resolve_overlaps(kept, report)
        report.kept = len(kept)
        return kept, report

    def _resolve_overlaps(self, records: List[DetectionRecord],
                          report: CleaningReport
                          ) -> List[DetectionRecord]:
        """Repair same-object records overlapping beyond the tolerance.

        Real feeds contain duplicate uploads and sensor echoes; a
        record starting before its predecessor's end (minus the
        bounded sensing overlap the model tolerates) is either fully
        contained — dropped — or clipped to start where the
        predecessor ended.  The last accepted start is a second
        floor, since a clip moves a start later than the next
        record's: a record starting before it is clipped to it, or
        dropped when it ends by then.
        """
        from repro.core.trajectory import DETECTION_OVERLAP_TOLERANCE

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

    # ------------------------------------------------------------------
    # stage 2: visit segmentation
    # ------------------------------------------------------------------
    def split_visits(self, records: Sequence[DetectionRecord]
                     ) -> List[List[DetectionRecord]]:
        """Group cleaned records into visits.

        Records with a ``visit_id`` group by ``(mo_id, visit_id)``;
        records without group by ``mo_id`` and split on the inactivity
        gap.  Input must be sorted (as :meth:`clean` returns it).
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
                                > self.visit_gap_seconds):
                    visits.append(current)
                    current = []
                current.append(record)
            if current:
                visits.append(current)
        visits.sort(key=lambda v: (v[0].mo_id, v[0].t_start))
        return visits

    # ------------------------------------------------------------------
    # stage 3+4: trace construction and annotation
    # ------------------------------------------------------------------
    def resolve_transition(self, from_state: str,
                           to_state: str) -> Tuple[str, bool]:
        """Find the transition id for an observed state change.

        Returns ``(transition_id, observed_in_graph)``.  When the NRG
        has exactly one edge for the move its boundary (or edge) id is
        used; with several parallel edges the data cannot tell which
        door was used, so a deterministic first edge is picked (the
        paper notes ``e_i`` is "albeit optional" knowledge).  When the
        NRG has no such edge the transition is marked unobserved.
        """
        if from_state in self.nrg and to_state in self.nrg:
            edges = self.nrg.edges_between(from_state, to_state)
            if edges:
                edge = edges[0]
                return (edge.boundary_id or edge.edge_id, True)
        return (UNOBSERVED_TRANSITION_PREFIX
                + "{}->{}".format(from_state, to_state), False)

    def construct_trace(self, visit: Sequence[DetectionRecord]
                        ) -> TraceDraft:
        """Build the trace of one visit (stage 3, no annotations yet).

        Raises:
            ValueError: for an empty visit or mixed moving objects.
        """
        if not visit:
            raise ValueError("cannot build a trajectory from no records")
        mo_ids = {record.mo_id for record in visit}
        if len(mo_ids) != 1:
            raise ValueError(
                "one trajectory concerns one moving object, got {}".format(
                    sorted(mo_ids)))
        entries: List[TraceEntry] = []
        unobserved = 0
        previous: Optional[DetectionRecord] = None
        for record in visit:
            transition: Optional[str] = None
            if previous is not None and previous.state != record.state:
                transition, observed = self.resolve_transition(
                    previous.state, record.state)
                if not observed:
                    unobserved += 1
            entries.append(TraceEntry(
                transition=transition,
                state=record.state,
                t_start=record.t_start,
                t_end=record.t_end,
            ))
            previous = record
        return TraceDraft(mo_id=next(iter(mo_ids)),
                          trace=Trace(entries),
                          unobserved_transitions=unobserved)

    def annotate(self, draft: TraceDraft,
                 annotations: Optional[AnnotationSet] = None
                 ) -> SemanticTrajectory:
        """Attach ``A_traj`` to a draft (stage 4), completing it."""
        return SemanticTrajectory(
            mo_id=draft.mo_id,
            trace=draft.trace,
            annotations=annotations if annotations is not None
            else self.default_annotations,
        )

    def build_trajectory(self, visit: Sequence[DetectionRecord],
                         annotations: Optional[AnnotationSet] = None,
                         report: Optional[BuildReport] = None
                         ) -> SemanticTrajectory:
        """Build one semantic trajectory from one visit's records.

        Raises:
            ValueError: for an empty visit or mixed moving objects.
        """
        draft = self.construct_trace(visit)
        if report is not None:
            report.unobserved_transitions += draft.unobserved_transitions
        return self.annotate(draft, annotations)

    # ------------------------------------------------------------------
    # the composed pipeline
    # ------------------------------------------------------------------
    def stages(self, streaming: bool = False) -> List["object"]:
        """The builder decomposed into its four pipeline stages.

        Args:
            streaming: passed to the segmentation stage; see
                :class:`repro.pipeline.stages.SegmentStage` for the
                contiguity assumption streaming mode makes.
        """
        from repro.pipeline.stages import (
            AnnotateStage,
            CleanStage,
            SegmentStage,
            TraceConstructStage,
        )
        return [CleanStage(self), SegmentStage(self, streaming=streaming),
                TraceConstructStage(self), AnnotateStage(self)]

    def build_all(self, records: Iterable[DetectionRecord],
                  batch_size: int = 2048
                  ) -> Tuple[List[SemanticTrajectory], BuildReport]:
        """Run the full pipeline: clean → segment → trace → annotate.

        Runs on the :mod:`repro.pipeline` engine; the returned
        :class:`BuildReport` aggregates the engine's per-stage metrics
        (also exposed raw as ``report.stage_metrics``).  Returns the
        trajectories ordered by moving object and time.
        """
        from repro.pipeline.engine import Pipeline

        pipeline = Pipeline(self.stages(), batch_size=batch_size)
        trajectories = pipeline.run(records)
        return trajectories, build_report_from_metrics(pipeline.metrics)


def build_report_from_metrics(metrics: "PipelineMetrics") -> BuildReport:
    """Aggregate engine stage metrics into a :class:`BuildReport`.

    The mapping is the contract between the builder stages and the
    legacy report shape: ``clean`` contributes the error-filter drops,
    ``segment`` the overlap repairs, ``trace`` the entry and
    unobserved-transition counts, ``annotate`` the trajectory count.
    """
    clean = metrics["clean"]
    segment = metrics["segment"]
    trace = metrics["trace"]
    annotate = metrics["annotate"]
    cleaning = CleaningReport(
        total=clean.items_in,
        kept=clean.items_out - segment.drops.get("overlap_contained", 0),
        dropped_zero_duration=clean.drops.get("zero_duration", 0),
        dropped_negative_duration=clean.drops.get("negative_duration", 0),
        dropped_unknown_state=clean.drops.get("unknown_state", 0),
        dropped_contained=segment.drops.get("overlap_contained", 0),
        clipped_overlaps=segment.counters.get("overlap_clipped", 0),
    )
    return BuildReport(
        cleaning=cleaning,
        trajectories=annotate.items_out,
        entries=trace.counters.get("entries", 0),
        unobserved_transitions=trace.counters.get(
            "unobserved_transitions", 0),
        stage_metrics=metrics,
    )
