"""Corpus coercion: every miner accepts query results directly.

Mining entry points take a *corpus* argument that may be any of:

* an iterable of :class:`~repro.core.trajectory.SemanticTrajectory`
  (the historical form);
* an iterable of :class:`~repro.storage.store.StoredTrajectory`
  (store hits — ids are stripped);
* a lazy :class:`~repro.storage.results.ResultSet`;
* an unexecuted :class:`~repro.storage.query.Query` (executed here);
* a whole :class:`~repro.storage.store.TrajectoryStore`.

:func:`iter_trajectories` normalizes all of them to a stream of plain
trajectories, so ``patterns(Query(store).visiting_state("z"))`` works
without materializing anything the caller didn't ask for.

The sequence miners read a corpus as a :class:`SequenceCorpus`: the
documents' rows of a sequence column
(:class:`~repro.storage.column.SequenceColumn`).  A store or a query
reads the store's own column; any other corpus, and a plain list of
state sequences, goes through a column built on the spot.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, \
    Union

import numpy as np

from repro.core.trajectory import SemanticTrajectory
from repro.storage.column import SequenceColumn
from repro.storage.query import Query
from repro.storage.store import StoredTrajectory, TrajectoryStore

#: Anything the miners accept as a corpus.
Corpus = Union[
    Iterable[SemanticTrajectory],
    Iterable[StoredTrajectory],
    "repro.storage.query.Query",          # noqa: F821
    "repro.storage.results.ResultSet",    # noqa: F821
    "repro.storage.store.TrajectoryStore",  # noqa: F821
]


def iter_trajectories(corpus: Corpus) -> Iterator[SemanticTrajectory]:
    """Stream plain trajectories out of any corpus form."""
    execute = getattr(corpus, "execute", None)
    if callable(execute):  # an unexecuted Query
        corpus = execute()
    for item in corpus:
        if isinstance(item, StoredTrajectory):
            yield item.trajectory
        else:
            yield item


def as_trajectory_list(corpus: Corpus) -> List[SemanticTrajectory]:
    """Materialize a corpus (for multi-pass consumers)."""
    return list(iter_trajectories(corpus))


class SequenceCorpus:
    """The distinct state sequences of a corpus's documents, as rows
    of a sequence column.

    Built over a store (every document), a query (its matches, in
    document-id order) or a column (every row).  Resolved on first
    use — a query runs then — and fixed from then on.
    """

    def __init__(self, source: Union[SequenceColumn, TrajectoryStore,
                                     Query]) -> None:
        self._source = source
        self._resolved: Optional[Tuple[SequenceColumn, np.ndarray]] = None
        self._counts: Optional[np.ndarray] = None

    @staticmethod
    def of(corpus: Union[Corpus, "SequenceCorpus"]) -> "SequenceCorpus":
        """The sequence corpus of any corpus form: a store or a query
        reads the store's column, other forms are iterated once."""
        if isinstance(corpus, SequenceCorpus):
            return corpus
        if isinstance(corpus, (TrajectoryStore, Query)):
            return SequenceCorpus(corpus)
        return SequenceCorpus(SequenceColumn.of(
            trajectory.distinct_states
            for trajectory in iter_trajectories(corpus)))

    @staticmethod
    def of_sequences(sequences: Union[Sequence[Sequence[str]],
                                      "SequenceCorpus"]
                     ) -> "SequenceCorpus":
        """``sequences`` itself, or a plain list of state sequences
        as a corpus of one row each."""
        if isinstance(sequences, SequenceCorpus):
            return sequences
        return SequenceCorpus(SequenceColumn.of(sequences))

    @property
    def _rows(self) -> Tuple[SequenceColumn, np.ndarray]:
        if self._resolved is None:
            self._resolved = self._resolve()
        return self._resolved

    def _resolve(self) -> Tuple[SequenceColumn, np.ndarray]:
        source = self._source
        if isinstance(source, SequenceColumn):
            return source, source.ids
        if isinstance(source, TrajectoryStore):
            column = source.sequence_column()
            return column, column.ids
        plan = source.plan()
        doc_ids = plan.matching_ids()
        # After the query: the store only appends, so this column
        # holds every id the plan saw.
        column = plan.store.sequence_column()
        return column, column.ids[doc_ids]

    @property
    def column(self) -> SequenceColumn:
        """The column the rows come from."""
        return self._rows[0]

    @property
    def members(self) -> np.ndarray:
        """Per row (document order), its distinct-sequence id."""
        return self._rows[1]

    @property
    def counts(self) -> np.ndarray:
        """Per distinct-sequence id of the column, its rows."""
        if self._counts is None:
            self._counts = np.bincount(
                self.members, minlength=len(self.column.sequences))
        return self._counts

    def __len__(self) -> int:
        return len(self.members)

    def lists(self) -> List[List[str]]:
        """Every row's sequence, as a fresh list."""
        return list(map(list, map(self.column.sequences.__getitem__,
                                  self.members.tolist())))
