"""The semantic indoor trajectory (Definitions 3.1 and 3.2).

Definition 3.1: a semantic trajectory is the couple

    T(ID_mo, t_start, t_end) = (trace(ID_mo, t_start, t_end), A_traj)

of its spatiotemporal **trace** and a **non-empty** set of semantic
annotations describing it in its entirety.

Definition 3.2: the trace is the sequence

    (e_i, v_i, t_start_i, t_end_i, A_i)  for i in [1, n]

where ``e_i = (v_{i-1}, v_i)`` is the transition (boundary crossed) that
led the moving object into state ``v_i`` at ``t_start_i``, where it
stayed until ``t_end_i``, and ``A_i`` is a possibly empty set of
annotations describing that stay.  The first entry has no incoming
transition (the paper writes it ``_``, here ``None``).

The model is **event-based**: "only a change of the spatial cell that
the MO is located in, or a change of the semantic information regarding
the MO's presence in that cell, needs to be accompanied by a new tuple"
— so consecutive entries may share a state when their annotation sets
differ (see :mod:`repro.core.events`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.annotations import AnnotationSet
from repro.core.timeutil import clock, duration_hms

#: Sensors may report short overlapping detections at zone borders
#: ("sensor detection area overlaps" — Section 1; the paper's own trace
#: example overlaps room001/hall003 by four seconds).  Overlaps up to
#: this many seconds are tolerated by trace validation.
DETECTION_OVERLAP_TOLERANCE = 10.0


@dataclass(frozen=True)
class TraceEntry:
    """One presence interval: ``(e_i, v_i, t_start_i, t_end_i, A_i)``.

    Attributes:
        transition: identifier of the boundary crossed to enter the
            state (``e_i``), ``None`` for the first entry of a trace or
            for event-based splits that stay in the same cell.
        state: the indoor graph node (cell id) the object is in (``v_i``).
        t_start: entry timestamp (``t_start_i``).
        t_end: exit timestamp (``t_end_i``).
        annotations: the stay's annotation set (``A_i``), may be empty.
        transition_annotations: optional semantic transition annotations
            (``A_trans_i`` of footnote 2 — e.g. alarm probability).
    """

    transition: Optional[str]
    state: str
    t_start: float
    t_end: float
    annotations: AnnotationSet = field(default_factory=AnnotationSet.empty)
    transition_annotations: AnnotationSet = field(
        default_factory=AnnotationSet.empty)

    def __post_init__(self) -> None:
        if not self.state:
            raise ValueError("a trace entry needs a state (cell id)")
        if self.t_end < self.t_start:
            raise ValueError(
                "entry at {!r}: t_end {} precedes t_start {}".format(
                    self.state, self.t_end, self.t_start))

    @property
    def duration(self) -> float:
        """Stay duration in seconds (0 marks a potential detection error)."""
        return self.t_end - self.t_start

    def overlaps_time(self, t_start: float, t_end: float) -> bool:
        """True when the stay intersects the (closed) time interval."""
        return self.t_start <= t_end and t_start <= self.t_end

    def contains_time(self, t: float) -> bool:
        """True when ``t`` falls within the stay (closed interval)."""
        return self.t_start <= t <= self.t_end

    def describe(self) -> str:
        """The paper's tuple notation, e.g.
        ``(door012, hall003, 11:32:31, 11:40:00, ∅)``."""
        ann = repr(self.annotations) if self.annotations else "∅"
        return "({}, {}, {}, {}, {})".format(
            self.transition or "_", self.state,
            clock(self.t_start), clock(self.t_end), ann)

    def to_dict(self) -> Dict:
        """Plain-data form for persistence."""
        return {
            "transition": self.transition,
            "state": self.state,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "annotations": self.annotations.to_list(),
            "transition_annotations":
                self.transition_annotations.to_list(),
        }

    @staticmethod
    def from_dict(data: Mapping) -> "TraceEntry":
        """Inverse of :meth:`to_dict`."""
        return TraceEntry(
            transition=data.get("transition"),
            state=data["state"],
            t_start=data["t_start"],
            t_end=data["t_end"],
            annotations=AnnotationSet.from_list(
                data.get("annotations", ())),
            transition_annotations=AnnotationSet.from_list(
                data.get("transition_annotations", ())),
        )


class TraceValidationError(ValueError):
    """Raised when a trace violates Definition 3.2's sequencing rules."""


class Trace:
    """An ordered sequence of :class:`TraceEntry` items.

    Invariants enforced at construction:

    * entries are ordered by ``t_start``;
    * an entry may start at most :data:`DETECTION_OVERLAP_TOLERANCE`
      seconds before its predecessor ends (bounded sensing overlap);
    * only the first entry may lack a transition **unless** it repeats
      the predecessor's state (an event-based semantic split).
    """

    # ``_distinct`` caches :attr:`distinct_states`: set lazily (racing
    # first readers store equal tuples, so no lock) and left out of
    # equality, hashing and pickles.
    __slots__ = ("_entries", "_distinct")

    def __init__(self, entries: Iterable[TraceEntry]) -> None:
        entries = tuple(entries)
        _validate_sequence(entries)
        self._entries: Tuple[TraceEntry, ...] = entries

    def __getstate__(self):
        return None, {"_entries": self._entries}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self._entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self._entries[index])
        return self._entries[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return "Trace({} entries)".format(len(self._entries))

    @property
    def entries(self) -> Tuple[TraceEntry, ...]:
        """The underlying entry tuple."""
        return self._entries

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def states(self) -> List[str]:
        """The state of every entry, in order (repeats possible)."""
        return [entry.state for entry in self._entries]

    def distinct_state_sequence(self) -> List[str]:
        """States with consecutive repeats collapsed.

        This is the symbolic "zone sequence" consumed by sequential
        pattern mining: event-based semantic splits inside one cell do
        not create artificial moves.  A fresh list on every call; see
        :attr:`distinct_states` for the shared tuple.
        """
        return list(self.distinct_states)

    @property
    def distinct_states(self) -> Tuple[str, ...]:
        """:meth:`distinct_state_sequence` as a tuple, computed once
        (the trace is immutable) and shared by every reader."""
        try:
            return self._distinct
        except AttributeError:
            sequence: List[str] = []
            for entry in self._entries:
                if not sequence or sequence[-1] != entry.state:
                    sequence.append(entry.state)
            self._distinct: Tuple[str, ...] = tuple(sequence)
            return self._distinct

    def transitions(self) -> List[Tuple[str, str]]:
        """Ordered ``(from_state, to_state)`` pairs of actual moves."""
        seq = self.distinct_states
        return list(zip(seq, seq[1:]))

    def total_duration(self) -> float:
        """Sum of stay durations (excludes inter-entry gaps)."""
        return sum(entry.duration for entry in self._entries)

    def span(self) -> Tuple[float, float]:
        """``(first t_start, last t_end)``.

        Raises:
            ValueError: for an empty trace.
        """
        if not self._entries:
            raise ValueError("empty trace has no span")
        return self._entries[0].t_start, self._entries[-1].t_end

    def entry_at(self, t: float) -> Optional[TraceEntry]:
        """The entry whose stay contains ``t``, if any.

        When a bounded sensing overlap makes two entries contain ``t``,
        the later entry wins (the newer detection supersedes).
        """
        found: Optional[TraceEntry] = None
        for entry in self._entries:
            if entry.contains_time(t):
                found = entry
        return found

    def entries_overlapping(self, t_start: float,
                            t_end: float) -> List[TraceEntry]:
        """All entries intersecting the (closed) time window."""
        return [e for e in self._entries if e.overlaps_time(t_start, t_end)]

    def time_in_state(self, state: str) -> float:
        """Total stay duration accumulated in ``state``."""
        return sum(e.duration for e in self._entries if e.state == state)

    def visits_state(self, state: str) -> bool:
        """True when any entry's state is ``state``."""
        return any(e.state == state for e in self._entries)

    # ------------------------------------------------------------------
    # functional updates
    # ------------------------------------------------------------------
    def with_entry_inserted(self, index: int,
                            entry: TraceEntry) -> "Trace":
        """A new trace with ``entry`` inserted at ``index``.

        Used by missing-presence inference (Figure 6) to add the
        undetected tuple between two detections; the result is
        re-validated.
        """
        entries = list(self._entries)
        entries.insert(index, entry)
        return Trace(entries)

    def with_entry_replaced(self, index: int,
                            *replacements: TraceEntry) -> "Trace":
        """A new trace with entry ``index`` replaced by ``replacements``."""
        entries = list(self._entries)
        entries[index:index + 1] = list(replacements)
        return Trace(entries)

    def describe(self) -> str:
        """The paper's multi-line trace notation."""
        inner = ",\n  ".join(entry.describe() for entry in self._entries)
        return "{\n  " + inner + " }"

    def to_list(self) -> List[Dict]:
        """Plain-data form for persistence."""
        return [entry.to_dict() for entry in self._entries]

    @staticmethod
    def from_list(data: Iterable[Mapping]) -> "Trace":
        """Inverse of :meth:`to_list`."""
        return Trace(TraceEntry.from_dict(item) for item in data)


def _validate_sequence(entries: Tuple[TraceEntry, ...]) -> None:
    for i in range(1, len(entries)):
        previous = entries[i - 1]
        current = entries[i]
        if current.t_start < previous.t_start:
            raise TraceValidationError(
                "entries out of order at index {}: {} < {}".format(
                    i, current.t_start, previous.t_start))
        if current.t_start < previous.t_end - DETECTION_OVERLAP_TOLERANCE:
            raise TraceValidationError(
                "entry {} overlaps its predecessor by more than the "
                "sensing tolerance ({}s)".format(
                    i, DETECTION_OVERLAP_TOLERANCE))
        if current.transition is None \
                and current.state != previous.state:
            raise TraceValidationError(
                "entry {} changes state ({} → {}) without a transition; "
                "only event-based same-state splits may omit e_i".format(
                    i, previous.state, current.state))


class SemanticTrajectory:
    """Definition 3.1: ``T = (trace, A_traj)`` with identity metadata.

    Args:
        mo_id: the moving object identifier (``ID_mo``).
        trace: the spatiotemporal trace.
        annotations: ``A_traj`` — must be non-empty per Definition 3.1.
        t_start: trajectory start; defaults to the trace's first entry.
        t_end: trajectory end; defaults to the trace's last exit.

    Raises:
        ValueError: on an empty trace, empty ``A_traj``, or a trajectory
            span that does not enclose the trace.
    """

    __slots__ = ("mo_id", "trace", "annotations", "t_start", "t_end")

    def __init__(self, mo_id: str, trace: Trace,
                 annotations: AnnotationSet,
                 t_start: Optional[float] = None,
                 t_end: Optional[float] = None) -> None:
        if not mo_id:
            raise ValueError("a trajectory needs a moving-object id")
        if len(trace) == 0:
            raise ValueError("a trajectory needs a non-empty trace")
        if not annotations:
            raise ValueError(
                "Definition 3.1 requires a non-empty A_traj; annotate "
                "the trajectory (e.g. AnnotationSet.goals('visit'))")
        first_start, last_end = trace.span()
        self.mo_id = mo_id
        self.trace = trace
        self.annotations = annotations
        self.t_start = first_start if t_start is None else t_start
        self.t_end = last_end if t_end is None else t_end
        if self.t_start > first_start or self.t_end < last_end:
            raise ValueError(
                "trajectory span [{}, {}] must enclose its trace "
                "[{}, {}]".format(self.t_start, self.t_end,
                                  first_start, last_end))

    # ------------------------------------------------------------------
    # identity & basics
    # ------------------------------------------------------------------
    @property
    def key(self) -> Tuple[str, float, float]:
        """The paper's trajectory identity ``(ID_mo, t_start, t_end)``."""
        return (self.mo_id, self.t_start, self.t_end)

    @property
    def duration(self) -> float:
        """``t_end - t_start`` in seconds."""
        return self.t_end - self.t_start

    def __len__(self) -> int:
        return len(self.trace)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SemanticTrajectory):
            return NotImplemented
        return (self.key == other.key and self.trace == other.trace
                and self.annotations == other.annotations)

    def __hash__(self) -> int:
        return hash((self.key, self.trace, self.annotations))

    def __repr__(self) -> str:
        return ("SemanticTrajectory(mo={!r}, entries={}, span={}, "
                "annotations={!r})".format(
                    self.mo_id, len(self.trace),
                    duration_hms(self.duration), self.annotations))

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def states(self) -> List[str]:
        """Delegates to :meth:`Trace.states`."""
        return self.trace.states()

    def distinct_state_sequence(self) -> List[str]:
        """Delegates to :meth:`Trace.distinct_state_sequence`."""
        return self.trace.distinct_state_sequence()

    @property
    def distinct_states(self) -> Tuple[str, ...]:
        """Delegates to :attr:`Trace.distinct_states`."""
        return self.trace.distinct_states

    def state_at(self, t: float) -> Optional[str]:
        """The state at time ``t``, if the object was detected then."""
        entry = self.trace.entry_at(t)
        return None if entry is None else entry.state

    def with_trace(self, trace: Trace) -> "SemanticTrajectory":
        """A copy with a different trace (annotations preserved)."""
        return SemanticTrajectory(self.mo_id, trace, self.annotations)

    def with_annotations(self,
                         annotations: AnnotationSet) -> "SemanticTrajectory":
        """A copy with a different ``A_traj``."""
        return SemanticTrajectory(self.mo_id, self.trace, annotations,
                                  self.t_start, self.t_end)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Plain-data form for persistence."""
        return {
            "mo_id": self.mo_id,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "annotations": self.annotations.to_list(),
            "trace": self.trace.to_list(),
        }

    @staticmethod
    def from_dict(data: Mapping) -> "SemanticTrajectory":
        """Inverse of :meth:`to_dict`."""
        return SemanticTrajectory(
            mo_id=data["mo_id"],
            trace=Trace.from_list(data["trace"]),
            annotations=AnnotationSet.from_list(data["annotations"]),
            t_start=data.get("t_start"),
            t_end=data.get("t_end"),
        )
