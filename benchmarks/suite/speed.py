"""The speed of the processor the server runs on, over time.

On a shared machine a vCPU's speed follows its neighbours' load.  On
the 2-vCPU guest the baseline comes from, each vCPU switches between
two speeds about 1.7x apart, independently of the other, staying in
one for tenths of a second to minutes; a ten-second run can spend
anywhere from none to most of its time in the slow one.  A time
measured on such a machine mixes the program's cost with that share.

``run.py`` therefore pins the server to one vCPU and the load to the
other, and runs this module as a third process pinned beside the
server::

    python3 benchmarks/suite/speed.py CPU

It times :func:`kernel`, a fixed pure-Python loop of about 30 us,
every few milliseconds until its standard input closes, then prints
the samples as one JSON list of ``[start, seconds]`` pairs
(``perf_counter`` clock, which every process on the machine shares).
It takes about 1% of the vCPU it watches.  :meth:`SpeedTrace.factor`
turns the samples into the vCPU's mean speed over an interval,
relative to :data:`REFERENCE`, and the gated times are divided by
(rates) or multiplied by (durations) that factor.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from typing import List, Sequence, Tuple

#: Seconds between samples.
PERIOD = 0.005
#: Seconds one kernel takes at the reference speed: about its time in
#: the fast state of the baseline machine (see the README).
REFERENCE = 35e-6
#: Seconds per bin of samples.
BIN = 0.05


def kernel() -> int:
    """Interpreter arithmetic that stays in the first-level cache.

    Whatever else runs on the vCPU cannot change its time except by
    preempting it, which the fastest sample of each bin leaves out.
    A kernel that also read a 16 MB table tracked the server's
    slowdown more closely in one-second windows, but its reads share
    the caches with the server, so the server's own memory traffic
    could move the scale; in one ten-run set it made
    ``sharded_reads`` spread more, not less.
    """
    total = 0
    for value in range(1000):
        total += value
    return total


def monitor(cpu: int) -> None:
    """Sample until standard input closes, then print the samples."""
    os.sched_setaffinity(0, {cpu})
    samples: List[Tuple[float, float]] = []
    while True:
        started = time.perf_counter()
        kernel()
        samples.append((started, time.perf_counter() - started))
        if select.select([sys.stdin], [], [], PERIOD)[0]:
            break
    json.dump(samples, sys.stdout)


class SpeedTrace:
    """The monitor process of one run and, once stopped, its samples."""

    def __init__(self, cpu: int) -> None:
        self._process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._origin = 0.0
        #: Speed relative to the reference in each ``BIN`` from the
        #: first sample: the bin's fastest sample, which a preemption
        #: of the monitor cannot slow.
        self._speeds: List[float] = []

    def stop(self) -> None:
        """End the monitor and keep its samples."""
        self._process.stdin.close()
        output = self._process.stdout.read()
        self._process.stdout.close()
        if self._process.wait(60) != 0:
            raise RuntimeError("speed monitor exited with {}".format(
                self._process.returncode))
        samples = json.loads(output)
        self._origin = samples[0][0]
        fastest: List[float] = []
        for start, seconds in samples:
            index = int((start - self._origin) / BIN)
            if index < len(fastest):
                fastest[index] = min(fastest[index], seconds)
                continue
            # Bins the monitor missed keep the speed before them.
            fastest += [fastest[-1] if fastest else seconds] \
                * (index - len(fastest)) + [seconds]
        self._speeds = [REFERENCE / seconds for seconds in fastest]

    def _bin(self, moment: float) -> int:
        index = int((moment - self._origin) / BIN)
        return min(max(index, 0), len(self._speeds) - 1)

    def at(self, moment: float) -> float:
        """Speed of the watched vCPU at ``moment``, relative to the
        reference."""
        return self._speeds[self._bin(moment)]

    def factor(self, start: float, end: float) -> float:
        """Mean speed of the watched vCPU over ``[start, end]``,
        relative to the reference."""
        speeds = self._speeds[self._bin(start):self._bin(end) + 1]
        return sum(speeds) / len(speeds)


def placement() -> Tuple[int, int]:
    """``(server vCPU, load vCPU)``: two different ones when this
    process may use two or more, else the same one."""
    cpus: Sequence[int] = sorted(os.sched_getaffinity(0))
    return cpus[-1], cpus[0]


if __name__ == "__main__":
    monitor(int(sys.argv[1]))
