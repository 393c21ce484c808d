"""PrefixSpan sequential pattern mining over symbolic trajectories.

Bogorny et al. [7] (cited in Section 2.2) extended semantic trajectory
models "with fundamental data mining concepts in order to support
frequent/sequential patterns and association rules"; the SITM is
designed so its symbolic state sequences feed such miners directly —
at any hierarchy granularity (zones, floors, wings) thanks to lifting.

This is the classic PrefixSpan algorithm (Pei et al. 2001) specialised
to single-item events (a visitor is in one cell at a time), which
makes the projected-database machinery simple and fast.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple


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


def prefixspan(sequences: Sequence[Sequence[str]],
               min_support: int,
               max_length: int = 6) -> List[SequentialPattern]:
    """Mine frequent sequential patterns.

    Corpora repeat state sequences heavily (the Louvre's 4,819 visits
    have 2,024 distinct ones), so the miner runs over the distinct
    sequences, each weighted by its multiplicity — the ``Counter`` of
    location tuples idiom — with the alphabet coded as integers in
    sorted order, so patterns come out exactly as over the raw input.

    Args:
        sequences: the symbolic state sequences (one per trajectory).
        min_support: minimum number of sequences a pattern must occur
            in (absolute count).
        max_length: maximum pattern length to explore.

    Returns:
        Patterns sorted by descending support, then lexicographically.

    Raises:
        ValueError: for ``min_support < 1`` or ``max_length < 1``.
    """
    if min_support < 1:
        raise ValueError("min_support must be at least 1")
    if max_length < 1:
        raise ValueError("max_length must be at least 1")
    counts = Counter(map(tuple, sequences))
    alphabet = sorted({item for sequence in counts for item in sequence})
    code_of = {item: code for code, item in enumerate(alphabet)}
    # A projected database is a list of (codes, count, start offset).
    initial = [(tuple(code_of[item] for item in sequence), count, 0)
               for sequence, count in counts.items()]
    patterns: List[SequentialPattern] = []
    _grow((), initial, alphabet, min_support, max_length, patterns)
    patterns.sort(key=lambda p: (-p.support, p.sequence))
    return patterns


def _grow(prefix: Tuple[str, ...],
          projected: List[Tuple[Tuple[int, ...], int, int]],
          alphabet: List[str], min_support: int, max_length: int,
          out: List[SequentialPattern]) -> None:
    """Extend ``prefix`` by every frequent item in its projection.

    One pass: each sequence adds its count to the support of every
    distinct item of its suffix and appends its projection past that
    item's first occurrence to the item's bucket.
    """
    support: Dict[int, int] = {}
    buckets: Dict[int, List[Tuple[Tuple[int, ...], int, int]]] = {}
    leaves = len(prefix) + 1 >= max_length  # extensions project nothing
    for codes, count, offset in projected:
        seen = set()
        for position in range(offset, len(codes)):
            item = codes[position]
            if item in seen:
                continue
            seen.add(item)
            support[item] = support.get(item, 0) + count
            if not leaves:
                buckets.setdefault(item, []).append(
                    (codes, count, position + 1))
    for item in sorted(support):
        if support[item] < min_support:
            continue
        new_prefix = prefix + (alphabet[item],)
        out.append(SequentialPattern(new_prefix, support[item]))
        if not leaves:
            _grow(new_prefix, buckets[item], alphabet, min_support,
                  max_length, out)


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


def pattern_supports(sequences: Sequence[Sequence[str]],
                     patterns: Iterable[Sequence[str]]) -> List[int]:
    """:func:`pattern_support` of each pattern, in order.

    One walk of the patterns' prefix trie over the distinct sequences,
    each weighted by its multiplicity: a node's projection is its
    parent's, each sequence advanced past the leftmost occurrence of
    the node's item at or after its offset, so a prefix shared by many
    patterns is matched once.  Each sequence carries its items' last
    positions, which tell whether the item still occurs past the
    offset before ``tuple.index`` looks for it.  The empty pattern
    counts every sequence; duplicate patterns share a node.
    """
    patterns = [tuple(pattern) for pattern in patterns]
    supports = [0] * len(patterns)
    if not patterns:
        return supports
    # A trie node is (children by item, indices of patterns ending here).
    root: Tuple[Dict, List[int]] = ({}, [])
    for index, pattern in enumerate(patterns):
        node = root
        for item in pattern:
            node = node[0].setdefault(item, ({}, []))
        node[1].append(index)
    projected = [(sequence,
                  {item: position for position, item in enumerate(sequence)},
                  count, 0)
                 for sequence, count
                 in Counter(map(tuple, sequences)).items()]
    stack = [(root, projected)]
    while stack:
        (children, ends), projected = stack.pop()
        if ends:
            support = sum(entry[2] for entry in projected)
            for index in ends:
                supports[index] = support
        for item, child in children.items():
            stack.append((child, [
                (sequence, last, count, sequence.index(item, offset) + 1)
                for sequence, last, count, offset in projected
                if last.get(item, -1) >= offset]))
    return supports
