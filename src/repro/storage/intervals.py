"""A static interval index for presence-time queries.

Presence intervals are the SITM's temporal primitive, so "who was in
zone X between t1 and t2" is the store's hottest query shape.  The
index is a set of flat, start-sorted arrays built once over the corpus
(the store rebuilds it lazily after inserts): ``starts`` and ``ends``
in start order, plus ``reach``, the running maximum of ``ends``.  An
overlap query is two binary searches and one vectorised comparison
over the bracket between them — no per-interval Python call.

Results come back in start order (a stable sort, so intervals with
equal starts keep their input order).  Payloads are opaque to the
index; :meth:`IntervalIndex.positions` answers with slots in that
order, so a caller can keep its own columns aligned to :attr:`order`
and read them by position without building one object per hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, List, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


@dataclass(frozen=True)
class Interval(Generic[T]):
    """A closed interval ``[start, end]`` with a payload."""

    start: float
    end: float
    payload: T

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("interval end precedes start")

    def contains(self, t: float) -> bool:
        """True when ``t`` lies in the closed interval."""
        return self.start <= t <= self.end

    def overlaps(self, start: float, end: float) -> bool:
        """True when the closed intervals intersect."""
        return self.start <= end and start <= self.end


_NO_POSITIONS = np.zeros(0, dtype=np.intp)


class IntervalIndex(Generic[T]):
    """Start-sorted interval arrays over a fixed set of intervals.

    Slot ``i`` holds the interval with the ``i``-th smallest start.
    ``reach[i]`` is the largest end among slots ``0..i``, so it never
    decreases: every slot before the first ``reach >= start`` ends
    before the window opens, and every slot after the last
    ``starts <= end`` opens after it closes.  Between the two, one
    ``ends >= start`` comparison is exact for closed intervals.
    """

    __slots__ = ("starts", "ends", "reach", "order", "_payloads")

    def __init__(self, intervals: Sequence[Interval[T]]) -> None:
        self._install([iv.start for iv in intervals],
                      [iv.end for iv in intervals],
                      [iv.payload for iv in intervals])

    @classmethod
    def from_columns(cls, starts: Sequence[float], ends: Sequence[float],
                     payloads: Sequence[T]) -> "IntervalIndex[T]":
        """An index over parallel columns, with no ``Interval`` built.

        Raises:
            ValueError: when the columns differ in length or an end
                precedes its start.
        """
        index = cls.__new__(cls)
        index._install(starts, ends, payloads)
        return index

    def _install(self, starts: Sequence[float], ends: Sequence[float],
                 payloads: Sequence[T]) -> None:
        if not len(starts) == len(ends) == len(payloads):
            raise ValueError("interval columns differ in length")
        start_array = np.asarray(starts, dtype=np.float64)
        end_array = np.asarray(ends, dtype=np.float64)
        if np.any(end_array < start_array):
            raise ValueError("interval end precedes start")
        #: Input position of each slot (a stable sort by start).
        self.order = np.argsort(start_array, kind="stable")
        self.starts = start_array[self.order]
        self.ends = end_array[self.order]
        self.reach = np.maximum.accumulate(self.ends)
        self._payloads: List[T] = [payloads[i]
                                   for i in self.order.tolist()]

    def __len__(self) -> int:
        return len(self._payloads)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def positions(self, start: float, end: float) -> np.ndarray:
        """Slots of every interval intersecting ``[start, end]``, in
        start order.

        Raises:
            ValueError: when ``end < start``.
        """
        if end < start:
            raise ValueError("query end precedes start")
        if not start <= end:  # a NaN bound intersects nothing
            return _NO_POSITIONS
        lo = int(np.searchsorted(self.reach, start, "left"))
        hi = int(np.searchsorted(self.starts, end, "right"))
        if lo >= hi:
            return _NO_POSITIONS
        return lo + np.flatnonzero(self.ends[lo:hi] >= start)

    def payloads_at(self, positions: np.ndarray) -> List[T]:
        """The payloads of the given slots, in the given order."""
        payloads = self._payloads
        return [payloads[i] for i in positions.tolist()]

    def stab(self, t: float) -> List[Interval[T]]:
        """All intervals containing time ``t``, in start order."""
        return self.overlapping(t, t)

    def overlapping(self, start: float, end: float) -> List[Interval[T]]:
        """All intervals intersecting ``[start, end]``, in start order.

        Raises:
            ValueError: when ``end < start``.
        """
        return self._intervals(self.positions(start, end))

    def all_intervals(self) -> List[Interval[T]]:
        """Every stored interval, in start order."""
        return self._intervals(np.arange(len(self)))

    def _intervals(self, positions: np.ndarray) -> List[Interval[T]]:
        return [Interval(start, end, payload) for start, end, payload
                in zip(self.starts[positions].tolist(),
                       self.ends[positions].tolist(),
                       self.payloads_at(positions))]
