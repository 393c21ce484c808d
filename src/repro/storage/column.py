"""The sequence column: one table of distinct state sequences.

The collective-level miners (patterns, similarity, sequences, flow)
read each document's symbolic zone sequence, and a corpus repeats its
sequences heavily (the Louvre's 4,819 visits have 2,024 distinct
ones).  A :class:`SequenceColumn` keeps each distinct sequence once,
with an id, and one int32 id per document: a corpus is then a sorted
doc-id array, and its multiplicities are one ``np.bincount`` of the
gathered ids (the individual-trajectory-database idea: one id per
distinct trajectory and a count for each).

The distinct sequences are also laid out flat for the kernels, the
states coded in sorted order, so a subset's patterns come out in the
order they would over the subset alone (the global alphabet's sorted
coding agrees with any subset's).  Per position, ``end`` is where its
sequence ends and ``previous`` the last earlier position *of the same
sequence* holding the same code (-1 if none): a suffix's first
occurrence of an item is then ``previous < offset``, whatever else the
layout holds.

A column is an immutable snapshot.  :meth:`SequenceColumn.extended`
returns a new one with more documents appended and leaves the old one
valid for whoever still reads it, so a store can publish a caught-up
column with a single assignment.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np


class SequenceColumn:
    """One snapshot of a corpus's distinct state sequences.

    Attributes:
        ids: int32, the distinct-sequence id of every document.
        sequences: the distinct sequences (tuples), by id, in the
            order their first document was appended.
        index: distinct sequence → id.
        alphabet: every state of the sequences, sorted; a state's
            code is its position (``code_of``).
        codes: int32, the distinct sequences' codes back to back, in
            id order.
        start: int32, per id, the position its sequence starts at.
        length: int32, per id, its sequence's length.
        end: int32, per position, where its sequence ends.
        previous: int32, per position, the last earlier position of
            its own sequence with the same code, or -1.
    """

    __slots__ = ("ids", "sequences", "index", "alphabet", "code_of",
                 "codes", "start", "length", "end", "previous")

    def __init__(self, ids: np.ndarray,
                 sequences: List[Tuple[str, ...]],
                 index: Dict[Tuple[str, ...], int],
                 alphabet: List[str], code_of: Dict[str, int],
                 codes: np.ndarray, start: np.ndarray,
                 length: np.ndarray, end: np.ndarray,
                 previous: np.ndarray) -> None:
        self.ids = ids
        self.sequences = sequences
        self.index = index
        self.alphabet = alphabet
        self.code_of = code_of
        self.codes = codes
        self.start = start
        self.length = length
        self.end = end
        self.previous = previous

    @classmethod
    def of(cls, sequences: Iterable[Sequence[str]]) -> "SequenceColumn":
        """A column over ``sequences``, one document each, in order."""
        return EMPTY.extended(sequences)

    def __len__(self) -> int:
        """The number of documents."""
        return len(self.ids)

    def extended(self, sequences: Iterable[Sequence[str]]
                 ) -> "SequenceColumn":
        """This column with ``sequences`` appended as documents.

        ``self`` is left untouched.  When a new state sorts before an
        existing one, the layout is re-coded once.
        """
        index = dict(self.index)
        known = len(index)
        fresh_ids = np.fromiter(
            (index.setdefault(tuple(sequence), len(index))
             for sequence in sequences), np.int32)
        ids = np.concatenate((self.ids, fresh_ids))
        if len(index) == known:
            return SequenceColumn(
                ids, self.sequences, self.index, self.alphabet,
                self.code_of, self.codes, self.start, self.length,
                self.end, self.previous)
        fresh = list(islice(index, known, None))
        alphabet, code_of, codes = self.alphabet, self.code_of, self.codes
        states = set(chain.from_iterable(fresh)).difference(code_of)
        if states:
            alphabet = sorted(chain(alphabet, states))
            code_of = dict(zip(alphabet, range(len(alphabet))))
            if self.alphabet and min(states) < self.alphabet[-1]:
                recode = np.fromiter(map(code_of.__getitem__,
                                         self.alphabet),
                                     np.int32, len(self.alphabet))
                codes = recode[codes]
        lengths = np.fromiter(map(len, fresh), np.int32, len(fresh))
        base = len(codes)
        flat = np.fromiter(map(code_of.__getitem__,
                               chain.from_iterable(fresh)),
                           np.int32, int(lengths.sum()))
        ends = base + np.cumsum(lengths, dtype=np.int32)
        # Same code in the same sequence: equal (sequence, code) keys.
        key = np.repeat(np.arange(len(fresh), dtype=np.int64), lengths)
        key *= len(alphabet)
        key += flat
        order = np.argsort(key, kind="stable").astype(np.int32)
        same = key[order[1:]] == key[order[:-1]]
        previous = np.full(len(flat), -1, np.int32)
        previous[order[1:][same]] = order[:-1][same] + base
        return SequenceColumn(
            ids, self.sequences + fresh, index, alphabet, code_of,
            np.concatenate((codes, flat)),
            np.concatenate((self.start, ends - lengths)),
            np.concatenate((self.length, lengths)),
            np.concatenate((self.end, np.repeat(ends, lengths))),
            np.concatenate((self.previous, previous)))


def _empty() -> np.ndarray:
    array = np.zeros(0, np.int32)
    array.flags.writeable = False
    return array


#: The column of no documents.
EMPTY = SequenceColumn(_empty(), [], {}, [], {}, _empty(), _empty(),
                       _empty(), _empty(), _empty())
