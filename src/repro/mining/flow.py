"""Collective-level flow analytics.

Section 3 requires support for "insight both at the individual and
collective level".  The individual level is covered by episodes,
similarity and profiling; this module adds the collective level:

* origin–destination matrices over any layer granularity;
* time-of-day occupancy series per cell (the temporal cousin of the
  Figure 3 choropleth);
* flow imbalance — cells whose in-flow and out-flow differ, which in
  a museum flags entrances, exits and one-way bottlenecks;
* simultaneous-occupancy (congestion) estimation from the store's
  interval index.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.timeutil import SECONDS_PER_DAY
from repro.mining.corpus import Corpus, SequenceCorpus, iter_trajectories
from repro.storage.store import TrajectoryStore


def od_matrix(trajectories: Corpus) -> Dict[Tuple[str, str], int]:
    """Origin–destination counts: first state → last state per visit."""
    counter: Counter = Counter()
    for trajectory in iter_trajectories(trajectories):
        sequence = trajectory.distinct_states
        counter[(sequence[0], sequence[-1])] += 1
    return dict(counter)


@dataclass(frozen=True)
class FlowBalance:
    """In/out flow of one cell across a corpus.

    Attributes:
        state: the cell.
        inflow: transitions arriving at the cell.
        outflow: transitions leaving the cell.
        started_here: visits whose first detection was here.
        ended_here: visits whose last detection was here.
    """

    state: str
    inflow: int
    outflow: int
    started_here: int
    ended_here: int

    @property
    def imbalance(self) -> int:
        """``inflow - outflow``; large positive values mark sinks
        (exits), large negative values mark sources (entrances)."""
        return self.inflow - self.outflow

    def to_dict(self) -> Dict:
        """JSON-safe plain-data form (service wire format).

        ``imbalance`` is included for consumers but ignored on the
        way back in (it is derived).
        """
        return {"state": self.state, "inflow": self.inflow,
                "outflow": self.outflow,
                "started_here": self.started_here,
                "ended_here": self.ended_here,
                "imbalance": self.imbalance}

    @staticmethod
    def from_dict(data: Mapping) -> "FlowBalance":
        """Inverse of :meth:`to_dict`."""
        return FlowBalance(data["state"], int(data["inflow"]),
                           int(data["outflow"]),
                           int(data["started_here"]),
                           int(data["ended_here"]))


def flow_balances(trajectories: Corpus) -> List[FlowBalance]:
    """Per-cell flow balance, sorted by |imbalance| descending.

    Three weighted ``np.bincount`` passes over the corpus's sequence
    column (:class:`~repro.mining.corpus.SequenceCorpus`), each
    distinct sequence weighted by its rows: every occurrence of a
    cell is one outflow unless it ends its sequence, and one inflow
    unless it starts it.
    """
    corpus = SequenceCorpus.of(trajectories)
    column, counts = corpus.column, corpus.counts
    width = len(column.alphabet)
    weights = counts.astype(np.float64)
    # A trajectory's trace, hence its sequence, is never empty.
    started = np.bincount(column.codes[column.start], weights, width)
    ended = np.bincount(column.codes[column.start + column.length - 1],
                        weights, width)
    visits = np.bincount(column.codes,
                         np.repeat(weights, column.length), width)
    present = np.flatnonzero(visits)
    table = np.stack((visits - started, visits - ended, started,
                      ended))[:, present].astype(np.int64)
    return sorted(map(FlowBalance, map(column.alphabet.__getitem__,
                                       present.tolist()),
                      *table.tolist()), key=_imbalance_order)


def merge_flow_balances(slices: Iterable[Iterable[FlowBalance]]
                        ) -> List[FlowBalance]:
    """The flow balances of the union of disjoint corpus slices.

    Every count is additive, so each cell's balances are summed
    across slices; the result is sorted by |imbalance| descending,
    ties by cell name.
    """
    totals: Dict[str, List[int]] = {}
    for balances in slices:
        for balance in balances:
            counts = totals.setdefault(balance.state, [0, 0, 0, 0])
            counts[0] += balance.inflow
            counts[1] += balance.outflow
            counts[2] += balance.started_here
            counts[3] += balance.ended_here
    merged = [FlowBalance(state, *counts)
              for state, counts in totals.items()]
    return sorted(merged, key=_imbalance_order)


def _imbalance_order(balance: FlowBalance) -> Tuple[int, str]:
    return -abs(balance.imbalance), balance.state


def hourly_occupancy(trajectories: Corpus,
                     states: Optional[Sequence[str]] = None
                     ) -> Dict[str, List[float]]:
    """Seconds of presence per cell per hour-of-day (24 buckets).

    Stays are apportioned to the hours they span, so a 90-minute stay
    starting at 10:30 contributes 30 minutes to hour 10 and 60 to
    hour 11 (capped at the stay end).
    """
    occupancy: Dict[str, List[float]] = {}
    for trajectory in iter_trajectories(trajectories):
        for entry in trajectory.trace:
            series = occupancy.setdefault(entry.state, [0.0] * 24)
            _apportion(series, entry.t_start, entry.t_end)
    if states is None:
        return occupancy
    return {state: occupancy.get(state, [0.0] * 24)
            for state in states}


def _apportion(series: List[float], t_start: float,
               t_end: float) -> None:
    cursor = t_start
    while cursor < t_end:
        second_of_day = cursor % SECONDS_PER_DAY
        hour = int(second_of_day // 3600)
        hour_end = cursor + (3600.0 - second_of_day % 3600.0)
        slice_end = min(hour_end, t_end)
        series[hour] += slice_end - cursor
        cursor = slice_end


def peak_hour(series: Sequence[float]) -> int:
    """The hour-of-day with the highest occupancy."""
    return max(range(len(series)), key=lambda h: series[h])


def simultaneous_occupancy(store: TrajectoryStore, t: float
                           ) -> Dict[str, int]:
    """How many moving objects occupy each cell at time ``t``.

    Uses the store's interval index, so the cost is proportional to
    the number of simultaneously-present objects, not the corpus size.
    """
    counts: Counter = Counter()
    for state in store.states_occupied_at(t).values():
        counts[state] += 1
    return dict(counts)


def congestion_profile(store: TrajectoryStore,
                       t_start: float, t_end: float,
                       step: float = 3600.0
                       ) -> List[Tuple[float, int, Optional[str]]]:
    """Sampled congestion: (time, objects present, busiest cell).

    Raises:
        ValueError: for a non-positive step or reversed window.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if t_end < t_start:
        raise ValueError("window end precedes start")
    samples: List[Tuple[float, int, Optional[str]]] = []
    t = t_start
    while t <= t_end:
        occupancy = simultaneous_occupancy(store, t)
        total = sum(occupancy.values())
        busiest = max(occupancy, key=lambda s: (occupancy[s], s),
                      default=None)
        samples.append((t, total, busiest))
        t += step
    return samples
