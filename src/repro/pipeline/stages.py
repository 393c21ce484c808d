"""The built-in stage catalog.

Builder stages (``clean`` → ``segment`` → ``trace`` → ``annotate``)
are the four natural phases of :class:`~repro.core.builder
.TrajectoryBuilder` exposed as composable pipeline stages — they reuse
the builder's primitives and its one construction core
(:class:`~repro.core.builder.VisitAssembler`), so the facade, the
engine and the stream segmenter cannot drift apart.  Storage and
mining stages turn the store and the sequential miners into
sinks/transforms, so one pipeline covers the paper's whole ingest →
build → store → mine chain.

Every stage here registers itself in :mod:`repro.pipeline.registry`
under the name given by its ``name`` attribute.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.core.builder import (
    DetectionRecord,
    TrajectoryBuilder,
    VisitAssembler,
)
from repro.pipeline.cache import fingerprint_of
from repro.pipeline.engine import Stage
from repro.pipeline.registry import register_stage
from repro.storage.store import TrajectoryStore


# ----------------------------------------------------------------------
# generic building blocks
# ----------------------------------------------------------------------
class MapStage(Stage):
    """Apply a function to every item (stateless, streaming).

    Declared ``parallel_safe``: the mapped function must be a pure
    per-item function for the parallel executor to be used.
    """

    name = "map"
    parallel_safe = True

    def __init__(self, fn: Callable[[Any], Any],
                 name: Optional[str] = None) -> None:
        if name is not None:
            self.name = name
        super().__init__()
        self.fn = fn

    def process(self, batch: Sequence[Any]) -> List[Any]:
        return [self.fn(item) for item in batch]


class FilterStage(Stage):
    """Keep items satisfying a predicate (stateless, streaming).

    Declared ``parallel_safe``: the predicate must be pure for the
    parallel executor to be used.
    """

    name = "filter"
    parallel_safe = True

    def __init__(self, predicate: Callable[[Any], bool],
                 name: Optional[str] = None,
                 drop_reason: str = "predicate") -> None:
        if name is not None:
            self.name = name
        super().__init__()
        self.predicate = predicate
        self.drop_reason = drop_reason

    def process(self, batch: Sequence[Any]) -> List[Any]:
        kept = [item for item in batch if self.predicate(item)]
        dropped = len(batch) - len(kept)
        if dropped:
            self.metrics.drop(self.drop_reason, dropped)
        return kept


@register_stage("collect")
class CollectStage(Stage):
    """Pass-through sink that keeps every item in :attr:`items`."""

    name = "collect"

    def __init__(self) -> None:
        super().__init__()
        self.items: List[Any] = []

    def process(self, batch: Sequence[Any]) -> List[Any]:
        self.items.extend(batch)
        return list(batch)


# ----------------------------------------------------------------------
# builder stages (clean → segment → trace → annotate)
# ----------------------------------------------------------------------
@register_stage("clean")
class CleanStage(Stage):
    """Stage 1 — drop error detections (zero/negative duration,
    unknown states), counting every drop reason.

    Stateless and order-preserving; overlap repair needs per-object
    time order and therefore lives in :class:`SegmentStage`.
    """

    name = "clean"
    parallel_safe = True

    def __init__(self, builder: TrajectoryBuilder) -> None:
        super().__init__()
        self.builder = builder

    def config_fingerprint(self) -> str:
        return fingerprint_of("clean", self.builder.config_fingerprint())

    def process(self, batch: Sequence[DetectionRecord]
                ) -> List[DetectionRecord]:
        kept: List[DetectionRecord] = []
        classify = self.builder.classify_record
        for record in batch:
            reason = classify(record)
            if reason is None:
                kept.append(record)
            else:
                self.metrics.drop(reason)
        return kept


@register_stage("segment")
class SegmentStage(Stage):
    """Stage 2 — repair overlaps and group records into visits.

    Emits one item per visit (a list of records), assembled by the
    builder's one construction core,
    :class:`~repro.core.builder.VisitAssembler`, fed records in
    ``(mo_id, t_start, t_end)`` order.  Two modes:

    * **exact** (default): buffers all cleaned records and feeds them
      to one assembler at end of stream, so overlap repair spans each
      moving object's visits.  Visits come out ordered by ``(mo_id,
      first t_start)``, a ``visit_id`` visit before an id-less one
      starting with it.  Memory is O(corpus) in this stage only.
    * **streaming**: assumes records arrive *contiguously* per
      ``(mo_id, visit_id)`` key (as the Louvre generator and CSV dumps
      of it produce them — batch boundaries may still split a visit
      anywhere).  A group is flushed as soon as a record with a
      different key arrives, so memory is O(longest visit) and visits
      come out in stream order.  Each group is assembled with fresh
      repair state: a record overlapping the previous group's records
      keeps its times, where the exact mode would clip or drop it.
    """

    name = "segment"

    def __init__(self, builder: TrajectoryBuilder,
                 streaming: bool = False) -> None:
        super().__init__()
        self.builder = builder
        self.streaming = streaming
        #: every cleaned record (exact), or the open group (streaming).
        self._records: List[DetectionRecord] = []

    def config_fingerprint(self) -> str:
        return fingerprint_of("segment",
                              self.builder.config_fingerprint(),
                              self.streaming)

    def process(self, batch: Sequence[DetectionRecord]
                ) -> List[List[DetectionRecord]]:
        if not self.streaming:
            self._records.extend(batch)
            return []
        visits: List[List[DetectionRecord]] = []
        for record in batch:
            group = self._records
            if group and (record.mo_id != group[-1].mo_id
                          or record.visit_id != group[-1].visit_id):
                visits.extend(self._assemble(group))
                self._records = []
            self._records.append(record)
        return visits

    def finish(self) -> List[List[DetectionRecord]]:
        records, self._records = self._records, []
        visits = self._assemble(records)
        if not self.streaming:
            # Builds have always put a visit_id visit before an
            # id-less one with the same first start, which opens first
            # when its first record ends first; other ties keep the
            # opening order.
            visits.sort(key=lambda visit: (visit[0].mo_id,
                                           visit[0].t_start,
                                           visit[0].visit_id is None))
        return visits

    def _assemble(self, records: List[DetectionRecord]
                  ) -> List[List[DetectionRecord]]:
        """The visits a fresh assembler makes of ``records``, in the
        order they close."""
        records.sort(key=lambda r: (r.mo_id, r.t_start, r.t_end))
        assembler = VisitAssembler(self.builder.visit_gap_seconds,
                                   self._report)
        visits: List[List[DetectionRecord]] = []
        for record in records:
            closed = assembler.push(record)
            if closed:
                visits.append(closed)
        visits.extend(assembler.drain())
        return visits

    def _report(self, reason: str) -> None:
        """Mirror the assembler's drops and clips into the metrics."""
        if reason == "overlap_clipped":
            self.metrics.count(reason)
        else:
            self.metrics.drop(reason)


@register_stage("trace")
class TraceConstructStage(Stage):
    """Stage 3 — resolve transitions and build each visit's trace."""

    name = "trace"
    parallel_safe = True

    def __init__(self, builder: TrajectoryBuilder) -> None:
        super().__init__()
        self.builder = builder

    def config_fingerprint(self) -> str:
        return fingerprint_of("trace", self.builder.config_fingerprint())

    def process(self, batch: Sequence[Sequence[DetectionRecord]]
                ) -> List[Any]:
        drafts = []
        for visit in batch:
            draft = self.builder.construct_trace(visit)
            self.metrics.count("entries", len(draft.trace))
            if draft.unobserved_transitions:
                self.metrics.count("unobserved_transitions",
                                   draft.unobserved_transitions)
            drafts.append(draft)
        return drafts


@register_stage("annotate")
class AnnotateStage(Stage):
    """Stage 4 — attach ``A_traj``, completing each trajectory."""

    name = "annotate"
    parallel_safe = True

    def __init__(self, builder: TrajectoryBuilder) -> None:
        super().__init__()
        self.builder = builder

    def config_fingerprint(self) -> str:
        return fingerprint_of("annotate",
                              self.builder.config_fingerprint())

    def process(self, batch: Sequence[Any]) -> List[Any]:
        return [self.builder.annotate(draft) for draft in batch]


# ----------------------------------------------------------------------
# storage stages
# ----------------------------------------------------------------------
@register_stage("store")
class StoreSinkStage(Stage):
    """Bulk-insert trajectories into a :class:`TrajectoryStore`.

    Uses :meth:`TrajectoryStore.extend`, so secondary indexes update
    incrementally and the interval index is touched once per batch.
    Passes the batch through unchanged, so mining stages can follow.
    """

    name = "store"

    def __init__(self, store: Optional[TrajectoryStore] = None) -> None:
        super().__init__()
        self.store = store if store is not None else TrajectoryStore()

    def process(self, batch: Sequence[Any]) -> List[Any]:
        self.store.extend(batch)
        return list(batch)


@register_stage("jsonl-sink")
class JsonlSinkStage(Stage):
    """Append trajectories to a JSON-lines archive, streaming.

    The file is opened on first use and closed by the flush, so a
    pipeline run is also a well-scoped writer.  Passes the batch
    through unchanged.
    """

    name = "jsonl-sink"

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = path
        self._handle = None
        self.written = 0

    def process(self, batch: Sequence[Any]) -> List[Any]:
        import json

        if self._handle is None:
            self._handle = open(self.path, "w", encoding="utf-8")
        for trajectory in batch:
            self._handle.write(json.dumps(trajectory.to_dict()))
            self._handle.write("\n")
            self.written += 1
        return list(batch)

    def finish(self) -> List[Any]:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        return []


# ----------------------------------------------------------------------
# mining stages
# ----------------------------------------------------------------------
@register_stage("state-sequences")
class StateSequenceStage(Stage):
    """Trajectory → its distinct symbolic state sequence."""

    name = "state-sequences"
    parallel_safe = True

    def config_fingerprint(self) -> str:
        return fingerprint_of("state-sequences")

    def process(self, batch: Sequence[Any]) -> List[List[str]]:
        return [t.distinct_state_sequence() for t in batch]


@register_stage("prefixspan")
class PrefixSpanStage(Stage):
    """Accumulate state sequences and mine them at end of stream.

    Sequential pattern mining needs corpus-wide support counts, so
    this is a barrier sink: it buffers the (small, symbolic)
    sequences and emits the mined patterns from its flush; they are
    also kept on :attr:`patterns`.

    Args:
        min_support: absolute count when >= 1, else a fraction of the
            sequence count resolved at flush time (floored at 2).
        max_length: longest pattern to explore.
    """

    name = "prefixspan"

    def __init__(self, min_support: float = 0.05,
                 max_length: int = 4) -> None:
        super().__init__()
        self.min_support = min_support
        self.max_length = max_length
        self.patterns: List[Any] = []
        self._sequences: List[List[str]] = []

    def process(self, batch: Sequence[List[str]]) -> List[Any]:
        self._sequences.extend(batch)
        return []

    def finish(self) -> List[Any]:
        from repro.mining.prefixspan import prefixspan

        sequences, self._sequences = self._sequences, []
        if not sequences:
            return []
        if self.min_support >= 1:
            support = int(self.min_support)
        else:
            support = max(2, int(len(sequences) * self.min_support))
        self.metrics.count("min_support", support)
        self.patterns = prefixspan(sequences, support, self.max_length)
        return list(self.patterns)
