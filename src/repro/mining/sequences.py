"""Symbolic sequence statistics over semantic trajectories.

These are the corpus-level aggregations behind the paper's Figure 3
(detections per zone) and the descriptive statistics of Section 4.1.
Everything works on the symbolic state sequences of SITM traces, which
is the point of the model: no geometry is touched.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.mining.corpus import Corpus, SequenceCorpus, \
    as_trajectory_list, iter_trajectories


def state_sequences(trajectories: Corpus) -> List[List[str]]:
    """The distinct state sequence of every trajectory, each a fresh
    list, gathered from the corpus's sequence column
    (:class:`~repro.mining.corpus.SequenceCorpus`)."""
    return SequenceCorpus.of(trajectories).lists()


def detection_counts(trajectories: Corpus,
                     states: Optional[Sequence[str]] = None
                     ) -> Dict[str, int]:
    """Number of presence intervals per state across the corpus.

    Args:
        trajectories: the corpus (any form, incl. a query/result set).
        states: when given, restrict (and zero-fill) to these states —
            e.g. the 11 ground-floor zones for the Figure 3 choropleth.
    """
    counter: Counter = Counter()
    for trajectory in iter_trajectories(trajectories):
        for entry in trajectory.trace:
            counter[entry.state] += 1
    if states is None:
        return dict(counter)
    return {state: counter.get(state, 0) for state in states}


def visitor_counts(trajectories: Corpus,
                   states: Optional[Sequence[str]] = None
                   ) -> Dict[str, int]:
    """Number of distinct moving objects that visited each state."""
    seen: Dict[str, set] = {}
    for trajectory in iter_trajectories(trajectories):
        for state in set(trajectory.states()):
            seen.setdefault(state, set()).add(trajectory.mo_id)
    counts = {state: len(mos) for state, mos in seen.items()}
    if states is None:
        return counts
    return {state: counts.get(state, 0) for state in states}


def transition_matrix(trajectories: Corpus
                      ) -> Dict[Tuple[str, str], int]:
    """Counts of observed state-to-state moves across the corpus."""
    counter: Counter = Counter()
    for trajectory in iter_trajectories(trajectories):
        for pair in trajectory.trace.transitions():
            counter[pair] += 1
    return dict(counter)


def top_transitions(matrix: Mapping[Tuple[str, str], int],
                    count: int = 10) -> List[Tuple[Tuple[str, str], int]]:
    """The most frequent transitions, ties broken lexicographically."""
    return sorted(matrix.items(), key=lambda kv: (-kv[1], kv[0]))[:count]


def ngram_counts(sequences: Sequence[Sequence[str]],
                 n: int = 2) -> Dict[Tuple[str, ...], int]:
    """Frequency of contiguous state n-grams across sequences.

    Raises:
        ValueError: for ``n < 1``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    counter: Counter = Counter()
    for sequence in sequences:
        for i in range(len(sequence) - n + 1):
            counter[tuple(sequence[i:i + n])] += 1
    return dict(counter)


def dwell_statistics(trajectories: Corpus
                     ) -> Dict[str, Dict[str, float]]:
    """Per-state dwell-time statistics (count/total/mean/max seconds)."""
    dwell: Dict[str, List[float]] = {}
    for trajectory in iter_trajectories(trajectories):
        for entry in trajectory.trace:
            dwell.setdefault(entry.state, []).append(entry.duration)
    stats: Dict[str, Dict[str, float]] = {}
    for state, durations in dwell.items():
        stats[state] = {
            "count": float(len(durations)),
            "total": sum(durations),
            "mean": sum(durations) / len(durations),
            "max": max(durations),
        }
    return stats


class SummaryParts(NamedTuple):
    """The combinable pieces of :func:`corpus_summary` over a corpus
    slice: counts add, ``mo_ids`` (distinct moving objects) unions,
    the duration extremes are ``None`` for an empty slice.  The field
    names are the service's ``SummaryPartsInfo`` reply's, so
    :func:`merge_summary_parts` combines either."""

    visits: int
    mo_ids: Collection[str]
    detections: int
    transitions: int
    max_visit_duration: Optional[float]
    min_visit_duration: Optional[float]


def summary_parts(trajectories: Corpus) -> SummaryParts:
    """The summary parts of one corpus slice."""
    trajectories = as_trajectory_list(trajectories)
    durations = [t.duration for t in trajectories]
    detections = sum(len(t.trace) for t in trajectories)
    return SummaryParts(len(trajectories),
                        {t.mo_id for t in trajectories}, detections,
                        detections - len(trajectories),
                        max(durations, default=None),
                        min(durations, default=None))


def merge_summary_parts(parts: Iterable) -> SummaryParts:
    """The summary parts of the union of disjoint slices (extremes
    keep the first slice's value on ties, as one pass would)."""
    parts = list(parts)
    longest = [p.max_visit_duration for p in parts
               if p.max_visit_duration is not None]
    shortest = [p.min_visit_duration for p in parts
                if p.min_visit_duration is not None]
    return SummaryParts(sum(p.visits for p in parts),
                        set().union(*(p.mo_ids for p in parts)),
                        sum(p.detections for p in parts),
                        sum(p.transitions for p in parts),
                        max(longest, default=None),
                        min(shortest, default=None))


def summary_stats(parts: SummaryParts) -> Dict[str, float]:
    """:func:`corpus_summary`'s numbers from (merged) parts; an empty
    corpus reports float zero durations (the int/float split is part
    of the canonical wire bytes)."""
    if not parts.visits:
        return {"visits": 0, "visitors": 0, "detections": 0,
                "transitions": 0, "max_visit_duration": 0.0,
                "min_visit_duration": 0.0}
    return {"visits": parts.visits, "visitors": len(parts.mo_ids),
            "detections": parts.detections,
            "transitions": parts.transitions,
            "max_visit_duration": parts.max_visit_duration,
            "min_visit_duration": parts.min_visit_duration}


def corpus_summary(trajectories: Corpus) -> Dict[str, float]:
    """Section 4.1-style corpus headline numbers."""
    return summary_stats(summary_parts(trajectories))
