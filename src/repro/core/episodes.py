"""Episodes and episodic segmentations (Definition 3.4, Section 4.2).

An **episode** of a semantic trajectory ``T`` is a subtrajectory ``T'``
such that

1. ``T'`` is a semantic subtrajectory of ``T`` (Definition 3.3),
2. ``A'_traj ≠ A_traj`` (the episode means something *different* from
   the whole trajectory), and
3. a domain-dependent, user-defined predicate ``P_ep(T')`` holds.

An **episodic segmentation** is "any subset of its episodes that covers
it time-wise.  Contrary to typical literature practice, we allow an
episodic segmentation to contain episodes that overlap in time, since
the exact same movement part may have multiple meanings depending on
the broader context" — the paper's Figure 5 tags E→P→S→C with
"exit museum" while its E→P→S prefix also carries "buy souvenir".

Predicates are first-class composable objects so that mining code can
enumerate candidate episodes mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core.annotations import AnnotationKind, AnnotationSet
from repro.core.subtrajectory import extract_by_entries, is_subtrajectory
from repro.core.trajectory import SemanticTrajectory

#: An episode predicate: "P_ep : T' → {true, false} where P_ep is
#: domain-dependent and user-defined".
EpisodePredicate = Callable[[SemanticTrajectory], bool]


@dataclass(frozen=True)
class Episode:
    """A detected episode: the subtrajectory plus the predicate label.

    Attributes:
        subtrajectory: the episode's semantic subtrajectory ``T'``
            (carrying ``A'_traj`` as its annotations).
        label: human-readable predicate name (e.g. ``"exit museum"``).
    """

    subtrajectory: SemanticTrajectory
    label: str

    @property
    def t_start(self) -> float:
        """Episode start time."""
        return self.subtrajectory.t_start

    @property
    def t_end(self) -> float:
        """Episode end time."""
        return self.subtrajectory.t_end

    @property
    def annotations(self) -> AnnotationSet:
        """The episode's ``A'_traj``."""
        return self.subtrajectory.annotations

    def overlaps(self, other: "Episode") -> bool:
        """True when the two episodes intersect in time."""
        return self.t_start <= other.t_end and other.t_start <= self.t_end

    def states(self) -> List[str]:
        """The episode's distinct state sequence."""
        return self.subtrajectory.distinct_state_sequence()


def is_episode(candidate: SemanticTrajectory, main: SemanticTrajectory,
               predicate: EpisodePredicate) -> bool:
    """Check the three conditions of Definition 3.4."""
    if not is_subtrajectory(candidate, main):
        return False
    if candidate.annotations == main.annotations:
        return False
    return bool(predicate(candidate))


# ----------------------------------------------------------------------
# predicate combinators
# ----------------------------------------------------------------------
class Predicate:
    """Base class giving predicates ``&``, ``|`` and ``~`` composition."""

    name = "predicate"

    def __call__(self, trajectory: SemanticTrajectory) -> bool:
        raise NotImplementedError

    def __and__(self, other: "Predicate") -> "Predicate":
        return _BinaryPredicate(self, other, all, "and")

    def __or__(self, other: "Predicate") -> "Predicate":
        return _BinaryPredicate(self, other, any, "or")

    def __invert__(self) -> "Predicate":
        return _NotPredicate(self)


class _BinaryPredicate(Predicate):
    def __init__(self, left: Predicate, right: Predicate,
                 reducer: Callable, symbol: str) -> None:
        self._left = left
        self._right = right
        self._reducer = reducer
        self.name = "({} {} {})".format(left.name, symbol, right.name)

    def __call__(self, trajectory: SemanticTrajectory) -> bool:
        return self._reducer(
            p(trajectory) for p in (self._left, self._right))


class _NotPredicate(Predicate):
    def __init__(self, inner: Predicate) -> None:
        self._inner = inner
        self.name = "(not {})".format(inner.name)

    def __call__(self, trajectory: SemanticTrajectory) -> bool:
        return not self._inner(trajectory)


class StateSequencePredicate(Predicate):
    """Holds when the trajectory's state sequence equals/contains a pattern.

    Args:
        pattern: the state sequence to match.
        exact: require equality with the full distinct state sequence;
            otherwise a contiguous subsequence match suffices.
    """

    def __init__(self, pattern: Sequence[str], exact: bool = True) -> None:
        if not pattern:
            raise ValueError("pattern must be non-empty")
        self.pattern = tuple(pattern)
        self.exact = exact
        self.name = "states={}".format("→".join(pattern))

    def __call__(self, trajectory: SemanticTrajectory) -> bool:
        sequence = trajectory.distinct_states
        if self.exact:
            return sequence == self.pattern
        window = len(self.pattern)
        return any(sequence[i:i + window] == self.pattern
                   for i in range(len(sequence) - window + 1))


class VisitsStatePredicate(Predicate):
    """Holds when the trajectory visits a given state."""

    def __init__(self, state: str) -> None:
        self.state = state
        self.name = "visits={}".format(state)

    def __call__(self, trajectory: SemanticTrajectory) -> bool:
        return trajectory.trace.visits_state(self.state)


class EndsInStatePredicate(Predicate):
    """Holds when the trajectory's last state is the given one."""

    def __init__(self, state: str) -> None:
        self.state = state
        self.name = "ends={}".format(state)

    def __call__(self, trajectory: SemanticTrajectory) -> bool:
        return trajectory.trace.entries[-1].state == self.state

class MinDurationPredicate(Predicate):
    """Holds when the trajectory lasts at least ``seconds``.

    The classic stop-detection style predicate ([3]'s "temporal stay
    value thresholds") expressed in SITM terms.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.name = "duration>={}s".format(seconds)

    def __call__(self, trajectory: SemanticTrajectory) -> bool:
        return trajectory.duration >= self.seconds


class AnnotationPredicate(Predicate):
    """Holds when some stay or the trajectory carries an annotation."""

    def __init__(self, kind: AnnotationKind,
                 value: Optional[object] = None) -> None:
        self.kind = kind
        self.value = value
        self.name = "has {}:{}".format(kind.value, value)

    def __call__(self, trajectory: SemanticTrajectory) -> bool:
        if trajectory.annotations.has(self.kind, self.value):
            return True
        return any(entry.annotations.has(self.kind, self.value)
                   for entry in trajectory.trace)


# ----------------------------------------------------------------------
# episode detection
# ----------------------------------------------------------------------
def find_episodes(main: SemanticTrajectory, predicate: EpisodePredicate,
                  annotations: AnnotationSet,
                  label: Optional[str] = None,
                  maximal_only: bool = True) -> List[Episode]:
    """Enumerate episodes of ``main`` satisfying ``predicate``.

    Every proper contiguous entry range is considered a candidate
    subtrajectory carrying ``annotations`` as its ``A'_traj``; those on
    which the predicate holds become episodes.

    Args:
        main: the trajectory to segment.
        predicate: the user-defined ``P_ep``.
        annotations: the episode annotation set; must differ from
            ``main.annotations`` (Definition 3.4 condition 2).
        label: episode label; defaults to the predicate's name.
        maximal_only: keep only episodes not strictly contained (in
            entry range) in another episode with the same label —
            mirrors the "maximal subsequence" flavour of [25]'s episode
            definition while still allowing distinct-label overlap.

    Raises:
        ValueError: when ``annotations`` equals the main trajectory's.
    """
    if annotations == main.annotations:
        raise ValueError(
            "Definition 3.4 requires A'_traj != A_traj for an episode")
    label = label if label is not None else getattr(
        predicate, "name", "episode")
    entry_count = len(main.trace)
    hits: List[Tuple[int, int]] = []
    for first in range(entry_count):
        for last in range(first, entry_count):
            if first == 0 and last == entry_count - 1:
                continue  # not a proper subsequence
            candidate = extract_by_entries(main, first, last,
                                           annotations=annotations)
            if predicate(candidate):
                hits.append((first, last))
    if maximal_only:
        hits = [span for span in hits
                if not any(other != span
                           and other[0] <= span[0] and span[1] <= other[1]
                           for other in hits)]
    episodes = []
    for first, last in hits:
        sub = extract_by_entries(main, first, last, annotations=annotations)
        episodes.append(Episode(sub, label))
    return episodes


class EpisodicSegmentation:
    """A set of episodes of one trajectory that covers it time-wise.

    Overlapping episodes are explicitly allowed (Section 3.3: "we allow
    an episodic segmentation to contain episodes that overlap in time").
    """

    def __init__(self, main: SemanticTrajectory,
                 episodes: Iterable[Episode]) -> None:
        self.main = main
        self.episodes: Tuple[Episode, ...] = tuple(
            sorted(episodes, key=lambda e: (e.t_start, e.t_end)))

    def __len__(self) -> int:
        return len(self.episodes)

    def __iter__(self):
        return iter(self.episodes)

    def covers_main(self, tolerance: float = 0.0) -> bool:
        """True when the episodes' union covers the trajectory's span.

        Gaps of at most ``tolerance`` seconds between consecutive
        episodes are ignored.
        """
        if not self.episodes:
            return False
        coverage_end = self.main.t_start
        for episode in self.episodes:
            if episode.t_start > coverage_end + tolerance:
                return False
            coverage_end = max(coverage_end, episode.t_end)
        return coverage_end + tolerance >= self.main.t_end

    def overlapping_pairs(self) -> List[Tuple[Episode, Episode]]:
        """All pairs of episodes that intersect in time."""
        pairs: List[Tuple[Episode, Episode]] = []
        for i, first in enumerate(self.episodes):
            for second in self.episodes[i + 1:]:
                if first.overlaps(second):
                    pairs.append((first, second))
        return pairs

    def has_overlaps(self) -> bool:
        """True when at least two episodes intersect in time."""
        return bool(self.overlapping_pairs())

    def labels(self) -> List[str]:
        """The distinct episode labels, in first-appearance order."""
        seen: List[str] = []
        for episode in self.episodes:
            if episode.label not in seen:
                seen.append(episode.label)
        return seen

    def episodes_at(self, t: float) -> List[Episode]:
        """All episodes whose span contains ``t``.

        More than one result is precisely the "same movement part,
        multiple meanings" situation the SITM supports.
        """
        return [e for e in self.episodes if e.t_start <= t <= e.t_end]

    def tagged_share(self) -> float:
        """Fraction of the trajectory span covered by ≥1 episode.

        Used by the exclusive-vs-overlapping episodes ablation (A3).
        """
        span = self.main.duration
        if span <= 0:
            return 0.0
        boundaries = sorted({self.main.t_start, self.main.t_end}
                            | {e.t_start for e in self.episodes}
                            | {e.t_end for e in self.episodes})
        covered = 0.0
        for left, right in zip(boundaries, boundaries[1:]):
            midpoint = (left + right) / 2.0
            if any(e.t_start <= midpoint <= e.t_end for e in self.episodes):
                covered += right - left
        return covered / span


def force_exclusive(segmentation: EpisodicSegmentation
                    ) -> EpisodicSegmentation:
    """Reduce a segmentation to mutually exclusive episodes.

    Implements the "typical literature practice" the paper argues
    against ([26]'s mutually exclusive predicates): episodes are kept
    greedily by start time and any episode overlapping an already-kept
    one is dropped entirely.  The information loss is measurable via
    :meth:`EpisodicSegmentation.tagged_share` and the disappearance of
    multi-label time points (ablation A3).
    """
    kept: List[Episode] = []
    for episode in segmentation.episodes:
        if all(not episode.overlaps(existing) for existing in kept):
            kept.append(episode)
    return EpisodicSegmentation(segmentation.main, kept)
