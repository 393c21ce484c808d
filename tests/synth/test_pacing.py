"""ArrivalSchedule: open-loop slots, unpaced mode, splitting."""

import time

import pytest

from repro.synth.pacing import ArrivalSchedule


class TestPaced:
    def test_interval(self):
        assert ArrivalSchedule(rate=200.0).interval == 0.005

    def test_intended_times_are_evenly_spaced(self):
        schedule = ArrivalSchedule(rate=1000.0)
        base = schedule.intended(0)
        assert schedule.intended(10) == pytest.approx(base + 0.010)
        assert schedule.intended(100) == pytest.approx(base + 0.100)

    def test_wait_returns_intended_not_now(self):
        schedule = ArrivalSchedule(rate=100.0)
        schedule.wait(0)
        intended = schedule.wait(2)  # slot 2: 20ms after base
        assert intended == schedule.intended(2)

    def test_wait_actually_paces(self):
        schedule = ArrivalSchedule(rate=100.0)
        started = time.perf_counter()
        for index in range(4):
            schedule.wait(index)
        # Slots 0..3 at 100/s span 30ms of schedule.
        assert time.perf_counter() - started >= 0.025

    def test_behind_counts_overdue_slots(self):
        schedule = ArrivalSchedule(rate=10_000.0)
        schedule.wait(0)
        before = schedule.behind
        time.sleep(0.01)  # ~100 slots pass
        schedule.wait(1)
        assert schedule.behind == before + 1

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            ArrivalSchedule(rate=0.0)
        with pytest.raises(ValueError):
            ArrivalSchedule(rate=-5.0)


class TestUnpaced:
    def test_never_sleeps_and_returns_now(self):
        schedule = ArrivalSchedule(rate=None)
        started = time.perf_counter()
        for index in range(100):
            intended = schedule.wait(index)
            assert intended >= started
        assert time.perf_counter() - started < 0.5
        assert schedule.behind == 0

    def test_interval_is_none(self):
        assert ArrivalSchedule(None).interval is None
