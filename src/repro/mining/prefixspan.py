"""PrefixSpan sequential pattern mining over symbolic trajectories.

Bogorny et al. [7] (cited in Section 2.2) extended semantic trajectory
models "with fundamental data mining concepts in order to support
frequent/sequential patterns and association rules"; the SITM is
designed so its symbolic state sequences feed such miners directly —
at any hierarchy granularity (zones, floors, wings) thanks to lifting.

This is the classic PrefixSpan algorithm (Pei et al. 2001) specialised
to single-item events (a visitor is in one cell at a time), run level
by level in numpy: one projection pass per pattern length serves both
the miner (:func:`prefixspan`) and the candidate recount
(:func:`pattern_supports`).  Supports stay exact integers: they are
``np.bincount`` sums of float64 multiplicities, exact below 2**53
sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, \
    Tuple, Union

import numpy as np

from repro.mining.corpus import SequenceCorpus

#: What the miners read: state sequences, one per trajectory, or a
#: corpus's rows of a sequence column.
Sequences = Union[Sequence[Sequence[str]], SequenceCorpus]


@dataclass(frozen=True)
class SequentialPattern:
    """One frequent sequential pattern.

    Attributes:
        sequence: the pattern's state tuple (order matters, gaps
            allowed — it is a subsequence pattern, not a substring).
        support: number of input sequences containing the pattern.
    """

    sequence: Tuple[str, ...]
    support: int

    @property
    def length(self) -> int:
        """Pattern length in items."""
        return len(self.sequence)

    def describe(self) -> str:
        """Compact form, e.g. ``zone60886→zone60861 (support 120)``."""
        return "{} (support {})".format("→".join(self.sequence),
                                        self.support)

    def to_dict(self) -> Dict:
        """JSON-safe plain-data form (service wire format)."""
        return {"sequence": list(self.sequence),
                "support": self.support}

    @staticmethod
    def from_dict(data: Mapping) -> "SequentialPattern":
        """Inverse of :meth:`to_dict`."""
        return SequentialPattern(tuple(data["sequence"]),
                                 int(data["support"]))


#: A level of projected entries, ``(node, offset)``: entry ``i`` is
#: the suffix from position ``offset[i]`` to the end of its distinct
#: sequence, projected by node ``node[i]`` of its level (int32 both).
Level = Tuple[np.ndarray, np.ndarray]


class _Database:
    """A corpus's distinct sequences, laid out flat for the kernel.

    The layout is the sequence column's
    (:class:`~repro.storage.column.SequenceColumn`): every distinct
    sequence of the column once, coded in sorted alphabet order, so
    patterns come out exactly as over the raw input.  Per position,
    ``codes`` is its item, ``end`` where its sequence ends,
    ``previous`` the last earlier position of its sequence with the
    same code (-1 if none) and ``weight`` its sequence's multiplicity
    in the corpus (``np.bincount`` of the rows' sequence ids).
    Position ``p`` of a suffix starting at ``offset`` is the first
    occurrence of its item in that suffix exactly when ``previous[p] <
    offset``.  Only sequences with rows in the corpus are rooted, so
    the passes never touch the rest of the layout.
    """

    def __init__(self, corpus: SequenceCorpus) -> None:
        column, counts = corpus.column, corpus.counts
        self.alphabet = column.alphabet
        self.code_of = column.code_of
        self.sequences = len(corpus)
        self.codes = column.codes
        self.previous = column.previous
        self.end = column.end
        self.weight = np.repeat(counts.astype(np.float64), column.length)
        starts = column.start[(counts > 0) & (column.length > 0)]
        #: The root level: every non-empty sequence of the corpus,
        #: projected by the empty pattern (node 0).
        self.root: Level = (np.zeros(len(starts), np.int32), starts)

    def project(self, level: Level, nodes: int) -> "_Pass":
        """The projection pass over one level of ``nodes`` nodes.

        Expands every entry's suffix with one ``np.repeat`` and a
        segment ``arange``, keeps each item's first occurrence (by
        ``previous``), keys the rows by ``node * |alphabet| + item``
        (int32 unless that can pass 2**31) and sums each key's
        weighted support with one ``np.bincount``.  The support table is sized by the rows: dense over every key
        when that is no larger than the rows, else over the rows'
        distinct keys, compacted by a stable argsort (``np.unique``
        would import ``numpy.ma``, +1.6 MB resident).
        """
        node, offset = level
        keys = nodes * len(self.alphabet)
        lengths = self.end[offset] - offset
        entry = np.repeat(np.arange(len(node), dtype=np.int32), lengths)
        shift = offset - (np.cumsum(lengths, dtype=np.int32) - lengths)
        del lengths
        position = shift[entry]
        del shift
        position += np.arange(len(entry), dtype=np.int32)
        first = self.previous[position] < offset[entry]
        position, entry = position[first], entry[first]
        del first
        slot = node[entry].astype(
            np.int32 if keys < 2 ** 31 else np.int64, copy=False)
        del entry
        slot *= len(self.alphabet)
        slot += self.codes[position]
        if keys <= len(slot):
            table = np.arange(keys, dtype=slot.dtype)
        else:
            table = slot[np.argsort(slot, kind="stable")]
            distinct = np.empty(len(table), bool)
            distinct[:1] = True
            np.not_equal(table[1:], table[:-1], out=distinct[1:])
            table = table[distinct]
            del distinct
            slot = np.searchsorted(table, slot)
        support = np.bincount(slot, weights=self.weight[position],
                              minlength=len(table))
        return _Pass(self, table, support, slot, position)


class _Pass:
    """One level's projection: the sorted key table with each key's
    weighted support, and per row its slot in the table and its
    item's position."""

    def __init__(self, database: _Database, table: np.ndarray,
                 support: np.ndarray, slot: np.ndarray,
                 position: np.ndarray) -> None:
        self.database = database
        self.table = table
        self.support = support
        self.slot = slot
        self.position = position

    def advance(self, node_of_slot: np.ndarray) -> Level:
        """The next level: every row whose slot is a node there
        (``node_of_slot`` >= 0), projected past its item; exhausted
        suffixes drop out.  Consumes the rows."""
        node = node_of_slot[self.slot]
        offset = self.position
        self.slot = self.position = None
        live = node >= 0
        live &= offset + 1 < self.database.end[offset]
        offset += 1
        return node[live], offset[live]


def prefixspan(sequences: Sequences,
               min_support: Union[int, Callable[[int], int]],
               max_length: int = 6) -> List[SequentialPattern]:
    """Mine frequent sequential patterns.

    Level by level over the distinct sequences (:class:`_Database`):
    the nodes of level ``k`` are the frequent ``k``-patterns, in sorted
    order, and one projection pass finds the next level's.

    Args:
        sequences: the symbolic state sequences (one per trajectory),
            or a :class:`~repro.mining.corpus.SequenceCorpus`.
        min_support: minimum number of sequences a pattern must occur
            in (absolute count), or a function mapping the number of
            sequences to it (then an empty corpus mines nothing,
            whatever the other arguments).
        max_length: maximum pattern length to explore.

    Returns:
        Patterns sorted by descending support, then lexicographically.

    Raises:
        ValueError: for ``min_support < 1`` or ``max_length < 1``.
    """
    corpus = None
    if callable(min_support):
        corpus = SequenceCorpus.of_sequences(sequences)
        if not len(corpus):
            return []
        min_support = min_support(len(corpus))
    if min_support < 1:
        raise ValueError("min_support must be at least 1")
    if max_length < 1:
        raise ValueError("max_length must be at least 1")
    if corpus is None:
        corpus = SequenceCorpus.of_sequences(sequences)
    database = _Database(corpus)
    alphabet, width = database.alphabet, len(database.alphabet)
    patterns: List[SequentialPattern] = []
    prefixes: List[Tuple[str, ...]] = [()]
    level = database.root
    for length in range(1, max_length + 1):
        if not len(level[0]):
            break
        projection = database.project(level, len(prefixes))
        frequent = projection.support >= min_support
        parents, items = np.divmod(projection.table[frequent], width)
        prefixes = [prefixes[parent] + (alphabet[item],)
                    for parent, item in zip(parents.tolist(),
                                            items.tolist())]
        patterns.extend(map(
            SequentialPattern, prefixes,
            projection.support[frequent].astype(np.int64).tolist()))
        if length < max_length:
            node_of_slot = np.full(len(frequent), -1, np.int32)
            node_of_slot[frequent] = np.arange(len(prefixes),
                                               dtype=np.int32)
            level = projection.advance(node_of_slot)
        del projection, frequent, parents, items
    patterns.sort(key=lambda p: (-p.support, p.sequence))
    return patterns


def contains_pattern(sequence: Sequence[str],
                     pattern: Sequence[str]) -> bool:
    """True when ``pattern`` is a (gap-allowed) subsequence."""
    iterator = iter(sequence)
    return all(item in iterator for item in pattern)


def pattern_support(sequences: Sequence[Sequence[str]],
                    pattern: Sequence[str]) -> int:
    """Recount one pattern's support, sequence by sequence: the
    reference the miner and :func:`pattern_supports` are tested
    against."""
    return sum(1 for sequence in sequences
               if contains_pattern(sequence, pattern))


def pattern_supports(sequences: Sequences,
                     patterns: Iterable[Sequence[str]]) -> List[int]:
    """:func:`pattern_support` of each pattern, in order.

    The miner's projection pass, level by level over the candidates'
    prefix trie instead of the frequent patterns: the nodes of level
    ``k`` are the distinct candidate prefixes of length ``k``, in
    sorted order, so their keys ``parent * |alphabet| + item`` come
    out sorted and one ``np.searchsorted`` finds them in the pass's
    table.  A prefix shared by many patterns is matched once.  The
    empty pattern counts every sequence, a pattern holding a state no
    sequence holds counts none, and duplicate patterns share a node.
    ``sequences`` may be a
    :class:`~repro.mining.corpus.SequenceCorpus`: its rows are read
    (and a query's run) even when there is no pattern.
    """
    database = _Database(SequenceCorpus.of_sequences(sequences))
    patterns = [tuple(pattern) for pattern in patterns]
    if not patterns:
        return []
    code_of, width = database.code_of, len(database.alphabet)
    live = [pattern for pattern in set(patterns)
            if all(item in code_of for item in pattern)]
    depth = max(map(len, live), default=0)
    support_of: Dict[Tuple[str, ...], int] = {(): database.sequences}
    rank_of: Dict[Tuple[str, ...], int] = {(): 0}
    level = database.root
    for length in range(1, depth + 1):
        if not len(level[0]):
            break  # no sequence holds a prefix this long
        prefixes = sorted({pattern[:length] for pattern in live
                           if len(pattern) >= length})
        projection = database.project(level, len(rank_of))
        table = projection.table
        keys = np.fromiter(
            (rank_of[prefix[:-1]] * width + code_of[prefix[-1]]
             for prefix in prefixes), table.dtype, len(prefixes))
        slot = np.minimum(np.searchsorted(table, keys), len(table) - 1)
        found = table[slot] == keys
        support_of.update(zip(prefixes, np.where(
            found, projection.support[slot], 0).astype(np.int64).tolist()))
        if length < depth:
            node_of_slot = np.full(len(table), -1, np.int32)
            node_of_slot[slot[found]] = np.flatnonzero(found)
            level = projection.advance(node_of_slot)
            rank_of = {prefix: rank for rank, prefix in enumerate(prefixes)}
        del projection, table, keys, slot, found
    return [support_of.get(pattern, 0) for pattern in patterns]
