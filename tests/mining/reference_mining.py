"""A test-side reference for the sequence miners.

The library reads every miner's input from a sequence column
(:mod:`repro.storage.column`): one table of distinct sequences per
store, one id per document.  Tests that only hold the miners equal to
each other would pass together if the column broke, so they also
compare against this module: each miner's input derived per call, as
before the column existed — one ``distinct_state_sequence()`` list per
document, a ``Counter`` collapse with a sorted alphabet, a per-pair DP
over a ``dict`` of unique sequences and a per-trajectory flow loop —
sharing no code with the column or the numpy kernels.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.trajectory import SemanticTrajectory
from repro.mining.flow import FlowBalance
from repro.mining.prefixspan import SequentialPattern, contains_pattern
from repro.mining.similarity import normalized_edit_similarity
from repro.service.executor import support_threshold


def state_sequences(docs: Iterable[SemanticTrajectory]
                    ) -> List[List[str]]:
    """One fresh distinct-state list per document."""
    return [doc.distinct_state_sequence() for doc in docs]


class CounterLayout:
    """The distinct sequences of a corpus with their multiplicities,
    over the corpus's own sorted alphabet."""

    def __init__(self, sequences: Sequence[Sequence[str]]) -> None:
        self.counts = Counter(map(tuple, sequences))
        self.alphabet = sorted({state for sequence in self.counts
                                for state in sequence})
        self.code_of = {state: code
                        for code, state in enumerate(self.alphabet)}
        self.sequences = sum(self.counts.values())


def prefixspan(sequences: Sequence[Sequence[str]], min_support: int,
               max_length: int) -> List[SequentialPattern]:
    """Classic PrefixSpan over the distinct sequences, each projected
    once and weighted by its multiplicity."""
    layout = CounterLayout(sequences)
    distinct = [[layout.code_of[state] for state in sequence]
                for sequence in layout.counts]
    weight = list(layout.counts.values())
    found: List[SequentialPattern] = []

    def grow(prefix: Tuple[str, ...],
             projected: List[Tuple[int, int]]) -> None:
        if len(prefix) >= max_length:
            return
        support: Dict[int, int] = {}
        first: Dict[Tuple[int, int], int] = {}
        for index, offset in projected:
            seen = set()
            for position in range(offset, len(distinct[index])):
                code = distinct[index][position]
                if code in seen:
                    continue
                seen.add(code)
                support[code] = support.get(code, 0) + weight[index]
                first[(code, index)] = position
        for code in sorted(support):
            if support[code] < min_support:
                continue
            pattern = prefix + (layout.alphabet[code],)
            found.append(SequentialPattern(pattern, support[code]))
            grow(pattern, [(index, first[(code, index)] + 1)
                           for index, _ in projected
                           if (code, index) in first])

    grow((), [(index, 0) for index in range(len(distinct))])
    found.sort(key=lambda p: (-p.support, p.sequence))
    return found


def patterns_over(sequences: Sequence[Sequence[str]],
                  min_support: float,
                  max_length: int) -> List[SequentialPattern]:
    """The service's ``MinePatterns`` over explicit sequences."""
    if not sequences:
        return []
    return prefixspan(sequences,
                      support_threshold(min_support, len(sequences)),
                      max_length)


def pattern_supports(sequences: Sequence[Sequence[str]],
                     patterns: Iterable[Sequence[str]]) -> List[int]:
    """Each pattern's support, summed over the distinct sequences."""
    layout = CounterLayout(sequences)
    return [sum(count for sequence, count in layout.counts.items()
                if contains_pattern(sequence, pattern))
            for pattern in patterns]


def similarity_matrix(sequences: Sequence[Sequence[str]]
                      ) -> List[List[float]]:
    """Normalized edit similarity of every row pair, one DP per pair
    of unique sequences (rows share them by first appearance)."""
    if len(sequences) < 2:
        return [[1.0] for _ in sequences]
    unique_index: Dict[Tuple[str, ...], int] = {}
    member_of = [unique_index.setdefault(tuple(sequence),
                                         len(unique_index))
                 for sequence in sequences]
    unique = list(unique_index)
    scores = [[1.0] * len(unique) for _ in unique]
    for i in range(len(unique)):
        for j in range(i + 1, len(unique)):
            scores[i][j] = scores[j][i] = normalized_edit_similarity(
                unique[i], unique[j])
    return [[scores[member][other] for other in member_of]
            for member in member_of]


def flow_balances(docs: Iterable[SemanticTrajectory]
                  ) -> List[FlowBalance]:
    """Per-cell flow balance, one trajectory at a time."""
    inflow: Counter = Counter()
    outflow: Counter = Counter()
    starts: Counter = Counter()
    ends: Counter = Counter()
    states: set = set()
    for doc in docs:
        sequence = doc.distinct_state_sequence()
        states.update(sequence)
        starts[sequence[0]] += 1
        ends[sequence[-1]] += 1
        for source, target in zip(sequence, sequence[1:]):
            outflow[source] += 1
            inflow[target] += 1
    balances = [FlowBalance(state, inflow[state], outflow[state],
                            starts[state], ends[state])
                for state in states]
    return sorted(balances, key=lambda b: (-abs(b.imbalance), b.state))
