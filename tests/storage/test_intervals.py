"""Tests for the start-sorted interval index."""

import pytest
from hypothesis import given, strategies as st

from repro.storage.intervals import Interval, IntervalIndex


class TestInterval:
    def test_reversed_rejected(self):
        with pytest.raises(ValueError):
            Interval(10, 5, None)

    def test_contains_closed(self):
        interval = Interval(1, 5, "x")
        assert interval.contains(1) and interval.contains(5)
        assert not interval.contains(5.01)

    def test_overlaps_closed(self):
        interval = Interval(1, 5, "x")
        assert interval.overlaps(5, 10)
        assert interval.overlaps(0, 1)
        assert not interval.overlaps(6, 10)


class TestIndex:
    @pytest.fixture
    def index(self):
        return IntervalIndex([
            Interval(0, 10, "a"),
            Interval(5, 15, "b"),
            Interval(20, 30, "c"),
            Interval(25, 26, "d"),
        ])

    def test_len(self, index):
        assert len(index) == 4

    def test_stab(self, index):
        assert {iv.payload for iv in index.stab(7)} == {"a", "b"}
        assert {iv.payload for iv in index.stab(25.5)} == {"c", "d"}
        assert index.stab(17) == []

    def test_stab_boundary(self, index):
        assert {iv.payload for iv in index.stab(10)} == {"a", "b"}

    def test_overlapping(self, index):
        assert {iv.payload for iv in index.overlapping(8, 22)} \
            == {"a", "b", "c"}
        assert index.overlapping(16, 19) == []

    def test_overlapping_invalid(self, index):
        with pytest.raises(ValueError):
            index.overlapping(10, 5)

    def test_empty_index(self):
        index = IntervalIndex([])
        assert index.stab(5) == []
        assert index.overlapping(0, 100) == []

    def test_all_intervals(self, index):
        assert len(index.all_intervals()) == 4

    def test_results_come_in_start_order(self):
        """``overlapping``/``stab`` answer in start order, equal starts
        in input order (a stable sort) — not in any tree order."""
        index = IntervalIndex([
            Interval(20, 30, "late"),
            Interval(0, 100, "wide"),
            Interval(5, 25, "first-at-5"),
            Interval(5, 22, "second-at-5"),
            Interval(40, 50, "out"),
        ])
        assert [iv.payload for iv in index.overlapping(21, 24)] \
            == ["wide", "first-at-5", "second-at-5", "late"]
        assert [iv.payload for iv in index.stab(22)] \
            == ["wide", "first-at-5", "second-at-5", "late"]
        assert [iv.start for iv in index.all_intervals()] \
            == [0, 5, 5, 20, 40]

    def test_from_columns_matches_intervals(self):
        intervals = [Interval(3, 9, "a"), Interval(1, 2, "b"),
                     Interval(4, 4, "c")]
        columns = IntervalIndex.from_columns([3, 1, 4], [9, 2, 4],
                                             ["a", "b", "c"])
        assert columns.all_intervals() \
            == IntervalIndex(intervals).all_intervals()
        assert columns.order.tolist() == [1, 0, 2]
        assert columns.payloads_at(columns.positions(4, 4)) == ["a", "c"]

    def test_from_columns_rejects_bad_columns(self):
        with pytest.raises(ValueError):
            IntervalIndex.from_columns([1, 2], [3], ["a", "b"])
        with pytest.raises(ValueError):
            IntervalIndex.from_columns([5], [4], ["a"])

    def test_nan_window_intersects_nothing(self, index):
        nan = float("nan")
        assert index.overlapping(0, nan) == []
        assert index.overlapping(nan, 100) == []
        assert index.stab(nan) == []


intervals_strategy = st.lists(
    st.tuples(st.integers(0, 1000), st.integers(0, 500)),
    min_size=0, max_size=60)


@given(intervals_strategy, st.integers(-10, 1600))
def test_property_stab_matches_bruteforce(raw, t):
    intervals = [Interval(s, s + length, i)
                 for i, (s, length) in enumerate(raw)]
    index = IntervalIndex(intervals)
    expected = {iv.payload for iv in intervals if iv.contains(t)}
    assert {iv.payload for iv in index.stab(t)} == expected


@given(intervals_strategy, st.integers(-10, 1600), st.integers(0, 300))
def test_property_overlap_matches_bruteforce(raw, start, length):
    intervals = [Interval(s, s + ln, i)
                 for i, (s, ln) in enumerate(raw)]
    index = IntervalIndex(intervals)
    end = start + length
    expected = {iv.payload for iv in intervals if iv.overlaps(start, end)}
    assert {iv.payload
            for iv in index.overlapping(start, end)} == expected


@given(intervals_strategy)
def test_property_build_is_deterministic(raw):
    """Two builds over the same input yield identical query results,
    including result order (the sorted-once build partitions stably)."""
    intervals = [Interval(s, s + length, i)
                 for i, (s, length) in enumerate(raw)]
    first = IntervalIndex(intervals)
    second = IntervalIndex(intervals)
    assert [iv.payload for iv in first.stab(50)] \
        == [iv.payload for iv in second.stab(50)]
    assert [iv.payload for iv in first.overlapping(10, 200)] \
        == [iv.payload for iv in second.overlapping(10, 200)]
    assert sorted(iv.payload for iv in first.all_intervals()) \
        == list(range(len(intervals)))


def test_deep_unbalanced_tree_iterative_walk():
    """A heavily skewed interval set must not hit recursion limits in
    overlap collection (the walk is iterative)."""
    intervals = [Interval(i, i + 0.5, i) for i in range(5000)]
    index = IntervalIndex(intervals)
    hits = index.overlapping(0, 5001)
    assert len(hits) == 5000
