"""Event-time watermark segmentation of live detection streams.

The batch builder (:class:`~repro.core.builder.TrajectoryBuilder`)
sees a whole corpus at once: it sorts globally by ``(mo_id, t_start,
t_end)``, repairs overlaps per moving object, and splits visits on the
inactivity gap.  A live deployment sees the same records *interleaved
across visitors* and never "at once" — something must decide that an
episode is finished while events for other visitors keep arriving.

:class:`WatermarkSegmenter` makes that decision with an event-time
**watermark**: the producer's promise that no future event will carry
``t_start`` below the watermark.  An open episode whose last record
ended more than the inactivity gap before the watermark can therefore
never be extended by an in-order event — the batch builder would have
split at that silence too — so the segmenter closes it and emits the
completed :class:`~repro.core.trajectory.SemanticTrajectory`.

**Byte-identity contract.**  Fed any corpus in per-visitor time order
(arbitrarily interleaved across visitors, which is what a live feed
delivers), the segmenter emits *exactly* the episodes the batch
builder produces, each byte-identical under canonical JSON.  Closure
order differs from the batch output order (episodes close when their
watermark passes, not sorted by visitor), so the guarantee is per
episode and store content, not store sequence — see
``docs/streaming.md``.  The contract is property-tested in
``tests/stream/``.

Events that break the in-order premise are **late**: counted, and
dropped when accepting them could contradict an already-emitted
episode.  Records sharing a ``visit_id`` are never gap-split (exactly
as in batch), but a visit that stays silent past the gap threshold
while the watermark advances is considered complete — producers
needing longer intra-visit silences must widen the gap.

**Bounded state.**  What the segmenter holds, and what a checkpoint
costs, follows what is *open*, not what has streamed: a visitor's
repair state is forgotten once it has no open episode and its last
event ended behind the watermark (no future on-time event can
consult it), and each open event is encoded to canonical bytes at
most once over its buffer's lifetime (:meth:`state_json`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.builder import (
    BufferKey,
    DetectionRecord,
    TrajectoryBuilder,
    VisitAssembler,
)
from repro.core.trajectory import SemanticTrajectory
from repro.service.protocol import canonical_json, splice_json

#: The watermark before any ``advance()`` — every event is on time.
NO_WATERMARK = float("-inf")


# ----------------------------------------------------------------------
# the wire codec for detection events
# ----------------------------------------------------------------------
def event_to_dict(record: DetectionRecord) -> Dict[str, object]:
    """A JSON-native dict for one detection event (wire shape)."""
    data: Dict[str, object] = {
        "mo_id": record.mo_id,
        "state": record.state,
        "t_start": record.t_start,
        "t_end": record.t_end,
    }
    if record.visit_id is not None:
        data["visit_id"] = record.visit_id
    if record.attributes:
        data["attributes"] = dict(record.attributes)
    return data


def finite_time(value: object) -> float:
    """``value`` as a float when it is a finite JSON number.

    Raises:
        ValueError: for a bool (JSON ``true``), a string, ``NaN`` or
            an infinity (JSON ``Infinity``, or ``1e400`` once parsed).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("{!r} is not a number".format(value))
    try:
        number = float(value)
    except OverflowError:  # an int beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError("{!r} is not finite".format(value))
    return number


def event_from_dict(data: Mapping) -> DetectionRecord:
    """Parse one wire-shaped detection event.

    Raises:
        ValueError: for anything but a mapping with string
            ``mo_id``/``state`` and finite numeric
            ``t_start``/``t_end``.
    """
    try:
        mo_id = data["mo_id"]
        state = data["state"]
        if not isinstance(mo_id, str) or not isinstance(state, str):
            raise TypeError("mo_id/state must be strings")
        visit_id = data.get("visit_id")
        if visit_id is not None and not isinstance(visit_id, str):
            raise TypeError("visit_id must be a string or null")
        return DetectionRecord(
            mo_id=mo_id,
            state=state,
            t_start=finite_time(data["t_start"]),
            t_end=finite_time(data["t_end"]),
            visit_id=visit_id,
            attributes=dict(data.get("attributes") or {}),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(
            "malformed detection event {!r}: {}".format(data, error))


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
@dataclass
class StreamMetrics:
    """Counters of one stream's ingestion history.

    ``drops`` uses the batch pipeline's stable reason keys
    (``negative_duration``, ``zero_duration``, ``unknown_state``,
    ``overlap_contained``) plus the stream-only reasons
    ``out_of_order`` and ``late``.
    """

    events_in: int = 0
    accepted: int = 0
    drops: Dict[str, int] = field(default_factory=dict)
    overlap_clipped: int = 0
    #: events arriving with ``t_start`` behind the watermark.
    late_events: int = 0
    #: late or out-of-order events that had to be discarded.
    dropped_late: int = 0
    episodes: int = 0

    def drop(self, reason: str) -> None:
        """Count one dropped event under ``reason``."""
        self.drops[reason] = self.drops.get(reason, 0) + 1

    @property
    def dropped(self) -> int:
        """Total events dropped for any reason."""
        return sum(self.drops.values())

    def to_dict(self) -> Dict[str, object]:
        """JSON-native snapshot (stable keys, sorted drop reasons)."""
        return {
            "events_in": self.events_in,
            "accepted": self.accepted,
            "drops": {k: self.drops[k] for k in sorted(self.drops)},
            "overlap_clipped": self.overlap_clipped,
            "late_events": self.late_events,
            "dropped_late": self.dropped_late,
            "episodes": self.episodes,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "StreamMetrics":
        """Rebuild a snapshot written by :meth:`to_dict`."""
        return cls(
            events_in=int(data.get("events_in", 0)),
            accepted=int(data.get("accepted", 0)),
            drops=dict(data.get("drops") or {}),
            overlap_clipped=int(data.get("overlap_clipped", 0)),
            late_events=int(data.get("late_events", 0)),
            dropped_late=int(data.get("dropped_late", 0)),
            episodes=int(data.get("episodes", 0)),
        )


class WatermarkSegmenter(VisitAssembler):
    """Segments an interleaved event stream into semantic trajectories.

    Args:
        builder: the batch builder whose semantics (cleaning rules,
            NRG, annotations, gap) this stream must reproduce
            byte-identically.
        gap_seconds: override of the builder's inactivity gap.

    The order test, overlap repair and gap split are the builder's
    own construction core, which this class extends with the
    watermark.  Events enter through :meth:`feed`; the watermark
    advances through :meth:`advance`; both return the episodes they
    closed.  :meth:`close` flushes everything still open (end of
    stream).  The inherited :meth:`push` and :meth:`drain` are not
    entry points: they skip cleaning, the watermark and the checkpoint
    bookkeeping.
    """

    def __init__(self, builder: TrajectoryBuilder,
                 gap_seconds: Optional[float] = None) -> None:
        super().__init__(builder.visit_gap_seconds
                         if gap_seconds is None else gap_seconds,
                         self._report)
        self.builder = builder
        self.watermark = NO_WATERMARK
        self.metrics = StreamMetrics()
        #: the records in ``_buffers``, kept at every change to it.
        self._open_events = 0
        #: per open buffer, ``(records encoded, the buffer's
        #: canonical checkpoint entry)`` as of the last
        #: :meth:`state_json`: a buffer only grows at its end and
        #: leaves whole, so encoded bytes never go stale.
        self._encoded: Dict[BufferKey, Tuple[int, bytes]] = {}

    # -- observation ----------------------------------------------------
    @property
    def open_buffers(self) -> int:
        """Episodes currently open (distinct visitor/visit keys)."""
        return len(self._buffers)

    @property
    def open_events(self) -> int:
        """Events buffered in open episodes (the memory gauge)."""
        return self._open_events

    @property
    def repair_visitors(self) -> int:
        """Visitors whose overlap/order repair state is still held
        (bounded by the open visitors, not by all visitors seen)."""
        return len(self._last_end)

    # -- ingestion ------------------------------------------------------
    def feed(self, record: DetectionRecord
             ) -> List[SemanticTrajectory]:
        """Ingest one event; returns episodes this event closed.

        An event closes an episode only on the gap-split path: a
        ``visit_id``-less record arriving more than the gap after its
        visitor's open buffer finishes that buffer and starts the
        next one.
        """
        metrics = self.metrics
        metrics.events_in += 1
        reason = self.builder.classify_record(record)
        if reason is not None:
            metrics.drop(reason)
            return []
        if record.t_start < self.watermark:
            metrics.late_events += 1
            if (record.mo_id, record.visit_id) not in self._buffers:
                # Late with no open episode to extend: its episode
                # (if it had one) closed when the watermark passed.
                # Checked before the order test, whose repair state
                # may already be forgotten for this visitor.
                metrics.drop("late")
                metrics.dropped_late += 1
                return []
        closed = self.push(record)
        if closed is None:
            return []
        self._open_events += 1
        metrics.accepted += 1
        return [self._emit(closed)] if closed else []

    def _report(self, reason: str) -> None:
        """Count a drop or clip of the construction rules."""
        if reason == "overlap_clipped":
            self.metrics.overlap_clipped += 1
            return
        self.metrics.drop(reason)
        if reason == "out_of_order":
            self.metrics.dropped_late += 1

    def advance(self, watermark: float) -> List[SemanticTrajectory]:
        """Advance the watermark; returns the episodes it closed.

        A regressing (or equal) watermark is a no-op — watermarks are
        monotonic by definition.  Closes every open episode whose last
        record ended more than the gap before the new watermark, in
        deterministic ``(mo_id, first t_start)`` order, then forgets
        the repair state of finished visitors (:meth:`_forget`).
        """
        if watermark <= self.watermark:
            return []
        self.watermark = watermark
        closable = [key for key, records in self._buffers.items()
                    if watermark - records[-1].t_end > self.gap_seconds]
        closable.sort(key=lambda key: (key[0],
                                       self._buffers[key][0].t_start))
        closed = [self._emit(self._buffers.pop(key)) for key in closable]
        self._forget()
        return closed

    def close(self) -> List[SemanticTrajectory]:
        """End of stream: flush every open episode."""
        return [self._emit(self._buffers.pop(key))
                for key, _ in self._ordered_buffers()]

    def _emit(self, records: List[DetectionRecord]) -> SemanticTrajectory:
        """The episode of a buffer just closed."""
        self._open_events -= len(records)
        self._encoded.pop((records[0].mo_id, records[0].visit_id), None)
        draft = self.builder.construct_trace(records)
        self.metrics.episodes += 1
        return self.builder.annotate(draft)

    def _forget(self) -> None:
        """Drop the repair state of every visitor with no open episode
        whose last event ended behind the watermark.

        No episode changes: an on-time event starts at or past the
        watermark, so it is past the forgotten ``last_end`` and
        ``last_start``, neither the order test nor the overlap clip
        could fire, and its own ``t_end`` becomes the new
        ``last_end``; a late one finds no open episode and drops as
        ``late`` first.
        """
        watermark = self.watermark
        open_visitors = {mo_id for mo_id, _ in self._buffers}
        finished = [mo_id for mo_id, end in self._last_end.items()
                    if end < watermark and mo_id not in open_visitors]
        for mo_id in finished:
            del self._last_end[mo_id]
            self._last_start.pop(mo_id, None)
            self._last_key.pop(mo_id, None)

    # -- checkpoint state ----------------------------------------------
    def _ordered_buffers(self) -> List[Tuple[BufferKey,
                                             List[DetectionRecord]]]:
        """Open buffers in close and checkpoint order: ``(mo_id,
        first t_start)``."""
        return sorted(self._buffers.items(),
                      key=lambda item: (item[0][0], item[1][0].t_start))

    def _scalar_state(self) -> Dict[str, object]:
        """Every :meth:`state_dict` field except ``buffers``."""
        return {
            "watermark": (None if self.watermark == NO_WATERMARK
                          else self.watermark),
            "gap_seconds": self.gap_seconds,
            "last_end": dict(self._last_end),
            "last_start": dict(self._last_start),
            "last_key": {mo: list(key)
                         for mo, key in self._last_key.items()},
            "metrics": self.metrics.to_dict(),
        }

    def state_dict(self) -> Dict[str, object]:
        """JSON-native snapshot of everything :meth:`load_state`
        needs to resume this stream after a restart."""
        buffers = [
            {"mo_id": key[0], "visit_id": key[1],
             "records": [event_to_dict(r) for r in records]}
            for key, records in self._ordered_buffers()
        ]
        return {"buffers": buffers, **self._scalar_state()}

    def state_json(self) -> bytes:
        """Exactly ``canonical_json(self.state_dict())``, at the cost
        of what changed since the last call: each open event is
        encoded once over its buffer's lifetime and its bytes reused
        by every later checkpoint."""
        entries = []
        for key, records in self._ordered_buffers():
            count, entry = self._encoded.get(key, (0, b""))
            if count < len(records):
                fresh = canonical_json([event_to_dict(record) for record
                                        in records[count:]])[1:-1]
                tail = b'],"visit_id":' + canonical_json(key[1]) + b"}"
                if entry:
                    entry = entry[:-len(tail)] + b"," + fresh + tail
                else:
                    entry = (b'{"mo_id":' + canonical_json(key[0])
                             + b',"records":[' + fresh + tail)
                self._encoded[key] = (len(records), entry)
            entries.append(entry)
        return splice_json(self._scalar_state(), "buffers",
                           b"[%s]" % b",".join(entries))

    def load_state(self, state: Mapping) -> None:
        """Restore a :meth:`state_dict` snapshot (replaces all
        in-memory state).  Repair state of finished visitors is
        forgotten as :meth:`advance` would, so a snapshot holding
        long-gone visitors shrinks on its next checkpoint."""
        watermark = state.get("watermark")
        self.watermark = (NO_WATERMARK if watermark is None
                          else float(watermark))
        self.gap_seconds = float(state.get("gap_seconds",
                                           self.gap_seconds))
        self._buffers = {
            (entry["mo_id"], entry.get("visit_id")):
                [event_from_dict(r) for r in entry["records"]]
            for entry in state.get("buffers", ())
        }
        self._open_events = sum(map(len, self._buffers.values()))
        self._last_end = {str(mo): float(end) for mo, end
                          in (state.get("last_end") or {}).items()}
        self._last_start = {str(mo): float(start) for mo, start
                            in (state.get("last_start") or {}).items()}
        self._last_key = {str(mo): (float(key[0]), float(key[1]))
                          for mo, key
                          in (state.get("last_key") or {}).items()}
        self.metrics = StreamMetrics.from_dict(
            state.get("metrics") or {})
        self._encoded = {}
        self._forget()
