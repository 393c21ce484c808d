"""The in-memory semantic trajectory store.

:class:`TrajectoryStore` owns a corpus of
:class:`~repro.core.trajectory.SemanticTrajectory` objects and
maintains these secondary indexes over them:

* an inverted index state → trajectories that visit it;
* an inverted index (annotation kind, value) → trajectories carrying
  it (whole-trajectory or stay-level);
* an inverted index moving object → its trajectories;
* start-sorted interval arrays over presence intervals for time
  queries, with a doc-id column aligned to them;
* a sequence column (:mod:`repro.storage.column`): each distinct
  state sequence once, laid out for the miners, and per document the
  id of its sequence.

The inverted indexes are maintained incrementally on insert.  The
interval index — a static structure — is rebuilt lazily on first
temporal query after a write, and published together with its doc-id
column as one immutable object, so a reader never pairs one build's
positions with another build's doc ids.  The sequence column is
append-only: the first mining read after a write catches it up over
the new documents and publishes the result the same way.  It is never
built on the write path, at snapshot load or at log replay.

The store is safe for **concurrent readers with a single writer**: a
:class:`~repro.storage.locks.ReadWriteLock` guards every public
method, so a background ingestion job (the service layer's
``BuildDataset``) can extend the corpus while HTTP worker threads run
queries against it.  Reads are snapshot-consistent per call — a query
sees the store as of some instant, never a half-indexed trajectory —
and iteration snapshots the document count up front so a concurrent
``extend`` cannot leak items into an in-flight scan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterable, Iterator, List,
                    NamedTuple, Optional, Tuple)

import numpy as np

from repro.core.annotations import AnnotationKind, AnnotationValue
from repro.core.trajectory import SemanticTrajectory
from repro.storage.column import EMPTY, SequenceColumn
from repro.storage.index import InvertedIndex
from repro.storage.intervals import IntervalIndex
from repro.storage.locks import ReadWriteLock


@dataclass(frozen=True)
class StoredTrajectory:
    """A trajectory with its store-assigned id."""

    doc_id: int
    trajectory: SemanticTrajectory


class _TemporalIndex(NamedTuple):
    """One build of the interval index, published by a single
    assignment: ``docs[i]`` is the document of interval slot ``i``."""

    intervals: IntervalIndex  # payload: the stay's state
    docs: np.ndarray


#: Process-wide store identities (see :attr:`TrajectoryStore.serial`).
_STORE_SERIALS = itertools.count(1)


class TrajectoryStore:
    """Insert-only trajectory corpus with secondary indexes."""

    def __init__(self) -> None:
        self._serial = next(_STORE_SERIALS)
        self._version = 0
        self._docs: List[SemanticTrajectory] = []
        self._by_state = InvertedIndex()
        self._by_annotation = InvertedIndex()
        self._by_mo = InvertedIndex()
        self._interval_index: Optional[_TemporalIndex] = None
        self._sequence_column: SequenceColumn = EMPTY
        self._span: Optional[Tuple[float, float]] = None
        self._lock = ReadWriteLock()
        self._wal = None

    @classmethod
    def from_documents(cls, docs: Iterable[SemanticTrajectory],
                       indexes: Optional[Tuple[Dict, Dict, Dict]]
                       = None) -> "TrajectoryStore":
        """A store over already-built documents (the snapshot-load
        path).

        Args:
            docs: the corpus, in document-id order.
            indexes: optional pre-built ``(by_state, by_annotation,
                by_mo)`` posting maps (key → id set), installed
                verbatim instead of re-indexing every document.
        """
        store = cls()
        if indexes is None:
            for trajectory in docs:
                store._index_one(trajectory)
        else:
            store._docs = list(docs)
            by_state, by_annotation, by_mo = indexes
            store._by_state.install(by_state)
            store._by_annotation.install(by_annotation)
            store._by_mo.install(by_mo)
        return store

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, trajectory: SemanticTrajectory) -> int:
        """Store a trajectory; returns its document id."""
        return self.extend([trajectory])[0]

    def insert_many(self,
                    trajectories: Iterable[SemanticTrajectory]
                    ) -> List[int]:
        """Store several trajectories; returns their document ids."""
        return self.extend(trajectories)

    def extend(self, trajectories: Iterable[SemanticTrajectory],
               rebuild_interval: bool = False) -> List[int]:
        """Bulk-insert a batch; returns the document ids.

        The ingest path for pipeline sinks: the inverted indexes are
        updated incrementally per trajectory, but the interval index —
        a static structure — is touched exactly once per batch, and
        can optionally be rebuilt on the spot so batched ingest
        interleaved with temporal queries pays one rebuild per batch
        rather than one per query-after-insert.

        The input iterable is materialized *before* the write lock is
        taken, so a lazy source cannot stall readers (or call back
        into the store) mid-ingestion.

        Args:
            trajectories: the batch to store.
            rebuild_interval: rebuild the interval index immediately
                after the batch (keeps temporal queries warm) instead
                of lazily on the next temporal query.
        """
        batch = list(trajectories)
        with self._lock.write_locked():
            if self._wal is not None and batch:
                # Write-ahead: the batch is durable before it is
                # visible — a crash after this line replays it.
                self._wal.append(batch)
            doc_ids = [self._index_one(t) for t in batch]
            if doc_ids:
                self._version += 1
                self._interval_index = None  # one invalidation per batch
                self._span = None
                if rebuild_interval:
                    self._build_interval_index()
        return doc_ids

    # ------------------------------------------------------------------
    # durability (repro.persist)
    # ------------------------------------------------------------------
    def attach_wal(self, wal) -> None:
        """Journal every future insert/extend to a write-ahead log.

        The log (:class:`~repro.persist.wal.WriteAheadLog`) is
        appended *before* the batch is indexed, under the write lock,
        so the on-disk record order always matches document-id order.
        """
        with self._lock.write_locked():
            self._wal = wal

    def detach_wal(self):
        """Stop journaling; returns the previously attached log."""
        with self._lock.write_locked():
            wal, self._wal = self._wal, None
            return wal

    @property
    def wal(self):
        """The attached write-ahead log, if any."""
        return self._wal

    def snapshot_state(self) -> Tuple[List[SemanticTrajectory],
                                      Dict, Dict, Dict]:
        """One consistent ``(docs, by_state, by_annotation, by_mo)``
        capture for the snapshot writer — taken under the read lock,
        so a concurrent build cannot tear it."""
        with self._lock.read_locked():
            return (list(self._docs), self._by_state.postings(),
                    self._by_annotation.postings(),
                    self._by_mo.postings())

    def save(self, path: str, include_indexes: bool = True,
             space: Optional[str] = None):
        """Write a verified on-disk snapshot of this store.

        Sugar over :func:`repro.persist.format.save_store`; see
        ``docs/persistence.md``.
        """
        from repro.persist.format import save_store

        return save_store(self, path, include_indexes=include_indexes,
                          space=space)

    @classmethod
    def load(cls, path: str, use_indexes: bool = True,
             verify: bool = True) -> "TrajectoryStore":
        """Reconstruct a store from a snapshot directory.

        Sugar over :func:`repro.persist.format.load_store` (which
        also returns the manifest metadata, when needed).
        """
        from repro.persist.format import load_store

        store, _ = load_store(path, use_indexes=use_indexes,
                              verify=verify)
        return store

    def _index_one(self, trajectory: SemanticTrajectory) -> int:
        """Append one trajectory and update every inverted index."""
        doc_id = len(self._docs)
        self._docs.append(trajectory)
        self._by_mo.add(trajectory.mo_id, doc_id)
        for state in set(trajectory.states()):
            self._by_state.add(state, doc_id)
        for annotation in trajectory.annotations:
            self._by_annotation.add((annotation.kind, annotation.value),
                                    doc_id)
        for entry in trajectory.trace:
            for annotation in entry.annotations:
                self._by_annotation.add(
                    (annotation.kind, annotation.value), doc_id)
        return doc_id

    # ------------------------------------------------------------------
    # identity (the service response cache keys on these)
    # ------------------------------------------------------------------
    @property
    def serial(self) -> int:
        """Process-unique store identity.

        Unlike ``id()``, serials are never reused after garbage
        collection, so ``(serial, version)`` names one exact corpus
        state for the lifetime of the process — the validity stamp
        the service-layer response cache checks.
        """
        return self._serial

    @property
    def version(self) -> int:
        """Mutation counter: bumped once per non-empty ``extend``.

        The store is insert-only and every write funnels through
        :meth:`extend`, so an unchanged version guarantees unchanged
        query/mining results.
        """
        return self._version

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock.read_locked():
            return len(self._docs)

    def __iter__(self) -> Iterator[SemanticTrajectory]:
        """Iterate the corpus as of iteration start.

        The document count is snapshotted under the read lock, then
        items are yielded *without* holding it — consumers may run
        queries per item, and a concurrent ``extend`` neither breaks
        the scan nor leaks its new documents into it (the store is
        insert-only, so ids below the snapshot are immutable).
        """
        with self._lock.read_locked():
            count = len(self._docs)
        for doc_id in range(count):
            yield self._docs[doc_id]

    def iter_ids(self, doc_ids: Iterable[int]
                 ) -> Iterator[SemanticTrajectory]:
        """Fetch documents by id, in the given order, taking the read
        lock once per scan rather than once per document.

        Like :meth:`__iter__`, the document count is snapshotted under
        the read lock when the scan starts and documents are yielded
        without holding it; the scan stays lazy, so a consumer that
        stops early fetches only what it took.

        Raises:
            IndexError: for an id not stored when the scan started.
        """
        with self._lock.read_locked():
            docs, count = self._docs, len(self._docs)
        for doc_id in doc_ids:
            if not 0 <= doc_id < count:
                raise IndexError("no document {}".format(doc_id))
            yield docs[doc_id]

    def get(self, doc_id: int) -> SemanticTrajectory:
        """Fetch by document id.

        Raises:
            IndexError: for unknown ids.
        """
        with self._lock.read_locked():
            return self._docs[doc_id]

    def all_ids(self) -> FrozenSet[int]:
        """Every document id."""
        with self._lock.read_locked():
            return frozenset(range(len(self._docs)))

    # ------------------------------------------------------------------
    # index lookups (used by the Query planner)
    # ------------------------------------------------------------------
    def ids_visiting_state(self, state: str) -> FrozenSet[int]:
        """Trajectories with at least one stay in ``state``."""
        with self._lock.read_locked():
            return self._by_state.lookup(state)

    def ids_visiting_any(self, states: Iterable[str]) -> FrozenSet[int]:
        """Trajectories visiting any of the states."""
        with self._lock.read_locked():
            return self._by_state.lookup_any(states)

    def ids_visiting_all(self, states: Iterable[str]) -> FrozenSet[int]:
        """Trajectories visiting every one of the states."""
        with self._lock.read_locked():
            return self._by_state.lookup_all(states)

    def ids_with_annotation(self, kind: AnnotationKind,
                            value: object) -> FrozenSet[int]:
        """Trajectories carrying the annotation anywhere."""
        with self._lock.read_locked():
            return self._by_annotation.lookup((kind, value))

    def ids_of_mo(self, mo_id: str) -> FrozenSet[int]:
        """Trajectories of one moving object."""
        with self._lock.read_locked():
            return self._by_mo.lookup(mo_id)

    def ids_active_between(self, start: float,
                           end: float) -> FrozenSet[int]:
        """Trajectories with a presence interval intersecting the window."""
        with self._lock.read_locked():
            temporal = self._ensure_interval_index()
            positions = temporal.intervals.positions(start, end)
            return frozenset(temporal.docs[positions].tolist())

    def states_occupied_at(self, t: float) -> Dict[int, str]:
        """doc id → state for every trajectory present at time ``t``.

        The interval payload carries the stay's state, so no trace is
        rescanned — the stab answers the question outright.  When
        bounded sensing overlap makes two stays of one trajectory
        contain ``t``, the later stay wins (the newer detection
        supersedes, matching ``Trace.entry_at``): hits come in start
        order, ties in trace order, so the last one per document is
        the one kept.
        """
        with self._lock.read_locked():
            temporal = self._ensure_interval_index()
            positions = temporal.intervals.positions(t, t)
            return dict(zip(temporal.docs[positions].tolist(),
                            temporal.intervals.payloads_at(positions)))

    def _ensure_interval_index(self) -> _TemporalIndex:
        """The interval index and its aligned doc-id column.

        Caller must hold the lock (read side suffices: concurrent
        readers may both build, which is idempotent, and each reads
        only the bundle it got back — writers, the only invalidators,
        are excluded while any reader is in here).
        """
        temporal = self._interval_index
        if temporal is None:
            temporal = self._build_interval_index()
        return temporal

    def _build_interval_index(self) -> _TemporalIndex:
        starts: List[float] = []
        ends: List[float] = []
        states: List[str] = []
        docs: List[int] = []
        for doc_id, trajectory in enumerate(self._docs):
            for entry in trajectory.trace:
                starts.append(entry.t_start)
                ends.append(entry.t_end)
                states.append(entry.state)
                docs.append(doc_id)
        intervals = IntervalIndex.from_columns(starts, ends, states)
        temporal = _TemporalIndex(
            intervals, np.asarray(docs, dtype=np.int64)[intervals.order])
        self._interval_index = temporal
        return temporal

    def sequence_column(self) -> SequenceColumn:
        """The sequence column over every document stored now.

        Caught up over the documents appended since the last call and
        published by one assignment, under the read lock: writers are
        excluded, so racing readers extend the same snapshot to the
        same length and publish equal columns.
        """
        with self._lock.read_locked():
            column = self._sequence_column
            count = len(self._docs)
            if len(column) < count:
                column = column.extended(
                    trajectory.distinct_states
                    for trajectory in self._docs[len(column):count])
                self._sequence_column = column
            return column

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def state_cardinalities(self) -> Dict[str, int]:
        """State → number of trajectories visiting it (selectivity)."""
        with self._lock.read_locked():
            return {str(k): v
                    for k, v in self._by_state.posting_sizes().items()}

    def annotation_cardinalities(
            self) -> Dict[Tuple[AnnotationKind, AnnotationValue], int]:
        """(kind, value) → number of trajectories carrying it."""
        with self._lock.read_locked():
            return dict(self._by_annotation.posting_sizes())

    def time_span(self) -> Optional[Tuple[float, float]]:
        """``(earliest t_start, latest t_end)`` over the corpus.

        ``None`` for an empty store.  Cached; invalidated on insert
        alongside the interval index.
        """
        with self._lock.read_locked():
            if not self._docs:
                return None
            if self._span is None:
                self._span = (min(t.t_start for t in self._docs),
                              max(t.t_end for t in self._docs))
            return self._span

    def moving_objects(self) -> List[str]:
        """All distinct moving-object ids."""
        with self._lock.read_locked():
            return [str(k) for k in self._by_mo.keys()]

    def mo_cardinalities(self) -> Dict[str, int]:
        """Moving object → number of trajectories (selectivity)."""
        with self._lock.read_locked():
            return {str(k): v
                    for k, v in self._by_mo.posting_sizes().items()}
