"""Lazy, re-iterable query results.

:meth:`Query.execute <repro.storage.query.Query.execute>` returns a
:class:`ResultSet` — an iterator-backed view over matching
:class:`~repro.storage.store.StoredTrajectory` items instead of a
materialized list.  Nothing is fetched until the set is consumed;
``limit``/``offset``/``order_by`` derive new lazy views; ``count()``
short-circuits to an index-only count when the underlying plan has no
residual predicates; ``to_list()`` materializes for compatibility
with the old eager API.

A result set is *re-iterable*: each iteration re-runs its source, so
results always reflect the store at consumption time.  It also
compares equal to a list of the same hits, which keeps pre-redesign
call sites (``hits == []``, ``len(hits)``) working unchanged.
"""

from __future__ import annotations

from itertools import islice
from typing import (
    Callable,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Union,
)

from repro.core.trajectory import SemanticTrajectory
from repro.storage.store import StoredTrajectory

#: ``order_by`` accepts a key callable or one of these field names.
ORDER_KEYS = {
    "doc_id": lambda hit: hit.doc_id,
    "mo_id": lambda hit: hit.trajectory.mo_id,
    "t_start": lambda hit: hit.trajectory.t_start,
    "t_end": lambda hit: hit.trajectory.t_end,
    "duration": lambda hit: hit.trajectory.duration,
    "entries": lambda hit: len(hit.trajectory.trace),
}

OrderKey = Union[str, Callable[[StoredTrajectory], object]]


class ResultSet:
    """A lazy stream of query hits with list-like conveniences.

    Args:
        source: zero-argument callable producing a fresh iterator of
            hits; called once per consumption.
        fast_count: optional ``fast_count(limit)`` returning the
            exact result count, capped at ``limit`` unless that is
            None, from one consumption of its own (the planner's
            count: index-only when no residual predicates remain).
    """

    def __init__(self, source: Callable[[], Iterator[StoredTrajectory]],
                 fast_count: Optional[Callable[..., int]] = None) -> None:
        self._source = source
        self._fast_count = fast_count

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[StoredTrajectory]:
        return self._source()

    def trajectories(self) -> Iterator[SemanticTrajectory]:
        """The hits' trajectories (ids stripped), lazily."""
        return (hit.trajectory for hit in self)

    def ids(self) -> FrozenSet[int]:
        """The matching document ids."""
        return frozenset(hit.doc_id for hit in self)

    def first(self) -> Optional[StoredTrajectory]:
        """The first hit, or ``None``; stops at the first match."""
        return next(iter(self), None)

    def count(self) -> int:
        """Number of hits; index-only when the plan allows it."""
        if self._fast_count is not None:
            return self._fast_count(None)
        return sum(1 for _ in self)

    def to_list(self) -> List[StoredTrajectory]:
        """Materialize every hit (the old eager ``execute()``).

        Iterates the source directly: ``list(self)`` would take
        :meth:`__len__` as a length hint, running a whole second
        count just to presize the list.
        """
        return list(self._source())

    # ------------------------------------------------------------------
    # derived lazy views
    # ------------------------------------------------------------------
    def limit(self, count: int) -> "ResultSet":
        """At most the first ``count`` hits.

        Raises:
            ValueError: for a negative count.
        """
        if count < 0:
            raise ValueError("limit must be non-negative")
        fast = None
        if self._fast_count is not None:
            base = self._fast_count
            fast = lambda limit: base(  # noqa: E731
                count if limit is None else min(count, limit))
        return ResultSet(lambda: islice(self._source(), count), fast)

    def offset(self, count: int) -> "ResultSet":
        """Skip the first ``count`` hits.

        Raises:
            ValueError: for a negative count.
        """
        if count < 0:
            raise ValueError("offset must be non-negative")
        fast = None
        if self._fast_count is not None:
            base = self._fast_count
            fast = lambda limit: max(0, base(  # noqa: E731
                None if limit is None else count + limit) - count)
        return ResultSet(lambda: islice(self._source(), count, None),
                         fast)

    def order_by(self, key: OrderKey,
                 reverse: bool = False) -> "ResultSet":
        """Hits sorted by a field name or key callable.

        Sorting materializes internally at consumption time; the view
        itself stays lazy and re-iterable.

        Raises:
            KeyError: for an unknown field name.
        """
        key_fn = ORDER_KEYS[key] if isinstance(key, str) else key
        return ResultSet(
            lambda: iter(sorted(self._source(), key=key_fn,
                                reverse=reverse)),
            self._fast_count)

    # ------------------------------------------------------------------
    # list-compatibility dunders
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.count()

    def __bool__(self) -> bool:
        return self.first() is not None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResultSet):
            return self.to_list() == other.to_list()
        if isinstance(other, (list, tuple)):
            return self.to_list() == list(other)
        return NotImplemented

    __hash__ = None  # mutable-store view; not hashable

    def __repr__(self) -> str:
        preview = self.limit(4).to_list()
        suffix = ", ..." if len(preview) == 4 else ""
        return "ResultSet([{}{}])".format(
            ", ".join("#{}".format(h.doc_id) for h in preview[:3]),
            suffix)
