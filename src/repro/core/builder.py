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
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.annotations import AnnotationSet
from repro.core.trajectory import (
    DETECTION_OVERLAP_TOLERANCE,
    SemanticTrajectory,
    Trace,
    TraceEntry,
)
from repro.indoor.nrg import NodeRelationGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.metrics import PipelineMetrics

#: Prefix used for transitions observed in the data but absent from the
#: accessibility NRG — either a data error or an incomplete graph, both
#: worth surfacing ("the accessibility topology ... can therefore also
#: assist in filtering out data errors" — Section 4.2).
UNOBSERVED_TRANSITION_PREFIX = "unobserved:"

#: Revision of the construction rules (:class:`VisitAssembler`).  It is
#: part of :meth:`TrajectoryBuilder.config_fingerprint`, so a stage
#: cache entry built under older rules misses instead of replaying
#: their output; bump it whenever a rule change can alter a build.
CONSTRUCTION_RULES_REVISION = 2


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


#: One open visit's key: the visitor plus its (optional) visit id.
BufferKey = Tuple[str, Optional[str]]


class VisitAssembler:
    """The trajectory-construction rules, as one per-visitor state
    machine: both modes of the ``segment`` stage and the stream
    segmenter build their visits through it.

    Kept records are pushed one at a time, each visitor's in
    ``(t_start, t_end)`` order, and pass three rules in turn:

    1. **order** — a record sorting before its visitor's previous one
       is dropped as ``out_of_order``;
    2. **overlap repair** — duplicate uploads and sensor echoes: a
       record starting before its visitor's latest end, minus the
       sensing overlap the model tolerates, is dropped as
       ``overlap_contained`` when it ends by then, else clipped to
       start there (``overlap_clipped``).  A clip moves a start past
       the next record's, so a clipped start is a second floor, with
       the same drop-or-clip rule;
    3. **gap split** — records group into open visits keyed ``(mo_id,
       visit_id)``; an id-less record starting more than the gap after
       its visit's last record closes that visit and opens the next.

    The repair state is per visitor and spans its visits.

    Args:
        gap_seconds: the inactivity gap splitting id-less visits.
        report: called with the reason key of every drop and with
            ``overlap_clipped`` for every clip.
    """

    def __init__(self, gap_seconds: float,
                 report: Callable[[str], None]) -> None:
        self.gap_seconds = gap_seconds
        self.report = report
        #: open visits: ``(mo_id, visit_id) -> records`` in order.
        self._buffers: Dict[BufferKey, List[DetectionRecord]] = {}
        #: per visitor: the latest end of its accepted records.
        self._last_end: Dict[str, float] = {}
        #: per visitor: its last accepted start, held only when a clip
        #: moved it (an unclipped start is no floor for the next one).
        self._last_start: Dict[str, float] = {}
        #: per visitor: the order key of its last record.
        self._last_key: Dict[str, Tuple[float, float]] = {}

    def push(self, record: DetectionRecord
             ) -> Optional[Sequence[DetectionRecord]]:
        """Apply the rules to one kept record.

        Returns ``None`` when the record was dropped, else the visit
        its gap split closed, or an empty tuple.
        """
        mo_id = record.mo_id
        order_key = (record.t_start, record.t_end)
        previous_key = self._last_key.get(mo_id)
        if previous_key is not None and order_key < previous_key:
            # A sorted batch never has one.  In a stream, splicing it
            # in could rewrite an episode that may already be emitted.
            self.report("out_of_order")
            return None
        self._last_key[mo_id] = order_key
        start = record.t_start
        previous_end = self._last_end.get(mo_id)
        if previous_end is not None \
                and start < previous_end - DETECTION_OVERLAP_TOLERANCE:
            if record.t_end <= previous_end:
                self.report("overlap_contained")
                return None
            record = DetectionRecord(
                mo_id, record.state, previous_end, record.t_end,
                record.visit_id, record.attributes)
            self.report("overlap_clipped")
        floor = self._last_start.get(mo_id)
        if floor is not None and record.t_start < floor:
            if record.t_end <= floor:
                self.report("overlap_contained")
                return None
            record = DetectionRecord(
                mo_id, record.state, floor, record.t_end,
                record.visit_id, record.attributes)
            self.report("overlap_clipped")
        key = (mo_id, record.visit_id)
        buffer = self._buffers.get(key)
        closed: Sequence[DetectionRecord] = ()
        if buffer is not None and record.visit_id is None \
                and record.t_start - buffer[-1].t_end > self.gap_seconds:
            # popped, not overwritten: the next visit opens last
            closed = self._buffers.pop(key)
            buffer = None
        if buffer is None:
            buffer = self._buffers[key] = []
        buffer.append(record)
        if record.t_start != start:
            self._last_start[mo_id] = record.t_start
        elif floor is not None:
            del self._last_start[mo_id]
        if previous_end is None or record.t_end >= previous_end:
            self._last_end[mo_id] = record.t_end
        return closed

    def drain(self) -> List[List[DetectionRecord]]:
        """Close every open visit; returns them in the order they
        opened.  The repair state is kept."""
        visits = list(self._buffers.values())
        self._buffers = {}
        return visits


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

        Covers the revision of the construction rules, the NRG's
        node/edge structure and every builder knob, so the pipeline
        stage cache can prove two builds equivalent (see
        :mod:`repro.pipeline.cache`).
        """
        from repro.pipeline.cache import fingerprint_of

        edges = sorted((edge.source, edge.target, edge.edge_id)
                       for edge in self.nrg.edges)
        annotations = sorted(repr(a) for a in self.default_annotations)
        return fingerprint_of(
            "trajectory-builder", CONSTRUCTION_RULES_REVISION,
            sorted(self.nrg.nodes), edges, annotations,
            self.visit_gap_seconds, self.min_duration,
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
