"""Open-loop arrival scheduling (shared by benches and the replayer).

A request's latency must run from its **intended** arrival time, never
from the moment a slow server finally let us send it — otherwise a
saturated server silently thins the load and the tail looks healthy
(coordinated omission).  The schedule is fixed up front:

    intended(i) = base + i / rate

``wait(i)`` sleeps until slot ``i`` is due and returns the intended
time; the caller measures ``perf_counter() - intended`` after the
response.  An unpaced schedule (``rate=None``) never sleeps and
returns the current time, so callers can treat paced and as-fast-as-
possible modes uniformly.
"""

from __future__ import annotations

import time
from typing import Optional


class ArrivalSchedule:
    """Fixed-rate open-loop arrival schedule.

    Args:
        rate: target arrivals per second, or ``None`` for unpaced
            (closed-loop, as fast as the callee allows).
        start: schedule origin on the ``perf_counter`` clock; defaults
            to the first ``wait`` call, so construction cost never
            counts against slot 0.
    """

    def __init__(self, rate: Optional[float] = None,
                 start: Optional[float] = None) -> None:
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive (or None)")
        self.rate = rate
        self._base = start
        self.behind = 0  # slots that were already overdue on arrival

    @property
    def interval(self) -> Optional[float]:
        """Seconds between consecutive slots (``None`` when unpaced)."""
        return None if self.rate is None else 1.0 / self.rate

    def intended(self, index: int) -> float:
        """The intended ``perf_counter`` time of slot ``index``."""
        if self._base is None:
            self._base = time.perf_counter()
        if self.rate is None:
            return time.perf_counter()
        return self._base + index / self.rate

    def wait(self, index: int) -> float:
        """Block until slot ``index`` is due; return its intended time.

        When the slot is already overdue (the callee is slower than
        the schedule) no sleep happens and the overdue slot is counted
        in :attr:`behind` — the latency the caller measures from the
        returned time then includes the queueing delay, as open-loop
        semantics demand.
        """
        intended = self.intended(index)
        if self.rate is None:
            return intended
        now = time.perf_counter()
        if now < intended:
            time.sleep(intended - now)
        else:
            self.behind += 1
        return intended
