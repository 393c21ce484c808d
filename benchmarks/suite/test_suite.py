"""Tests of the benchmark suite itself.

    python -m pytest benchmarks/suite -q

* the open-loop driver keeps its schedule through a server stall and
  charges the stall to the requests queued behind it;
* Zipf request sequences hold fixed shares and vary only in order;
* the self-time rule of ``spans.py``;
* every workload end to end at ``--smoke`` size, traced, with its
  correctness checks (the run exits non-zero on any wrong output).
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time

from driver import open_loop, take_response
from spans import self_times

HERE = os.path.dirname(os.path.abspath(__file__))


class StallingServer:
    """Answers every request with ``{}``, but holds the reply to
    request number ``stall_at`` (from 0) for ``stall`` seconds."""

    def __init__(self, stall_at: int, stall: float) -> None:
        self.stall_at = stall_at
        self.stall = stall
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        connection, _ = self._listener.accept()
        with connection:
            buffer = bytearray()
            served = 0
            while True:
                chunk = connection.recv(65536)
                if not chunk:
                    return
                buffer += chunk
                while True:
                    end = buffer.find(b"\r\n\r\n")
                    if end < 0:
                        break
                    length = 0
                    for line in bytes(buffer[:end]).split(b"\r\n")[1:]:
                        name, _, value = line.partition(b":")
                        if name.strip().lower() == b"content-length":
                            length = int(value)
                    if len(buffer) < end + 4 + length:
                        break
                    del buffer[:end + 4 + length]
                    if served == self.stall_at:
                        time.sleep(self.stall)
                    served += 1
                    connection.sendall(b"HTTP/1.1 200 OK\r\n"
                                       b"Content-Length: 2\r\n\r\n{}")

    def close(self) -> None:
        self._listener.close()
        self._thread.join(timeout=5)


def test_take_response_waits_for_the_whole_body():
    buffer = bytearray(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nab")
    assert take_response(buffer) is None
    buffer += b"cdHTTP/1.1 503 X\r\nContent-Length: 0\r\n\r\n"
    assert take_response(buffer) == (200, b"abcd")
    assert take_response(buffer) == (503, b"")
    assert not buffer


def test_open_loop_keeps_schedule_through_a_stall():
    rate, count, stall_at, stall = 500.0, 300, 50, 0.2
    server = StallingServer(stall_at, stall)
    try:
        result, = open_loop(server.port, [([b"{}"] * count, rate, 0.0)])
    finally:
        server.close()
    assert result.sent == count and result.failed == 0
    # Sends kept to the schedule while replies were held back (a driver
    # that waited for replies would send the ~100 requests due during
    # the stall late, a third of them) ...
    assert result.late_share < 0.15
    assert result.seconds < count / rate + stall
    # ... and the stall is charged to the request that hit it and to
    # those queued behind it, from their intended send times.
    gap = 1.0 / rate
    assert result.latencies[stall_at] >= stall
    for later in (1, 10, 50):
        assert result.latencies[stall_at + later] \
            >= stall - later * gap - 0.01
    assert max(result.latencies[:stall_at]) < stall / 2


def test_zipf_sequence_fixes_shares_and_seeds_only_the_order():
    import random

    from workloads import zipf_sequence

    pool = [str(rank).encode() for rank in range(100)]
    first = zipf_sequence(pool, 1000, random.Random(1))
    second = zipf_sequence(pool, 1000, random.Random(2))
    assert len(first) == 1000 and first != second
    assert sorted(first) == sorted(second)
    harmonic = sum(1.0 / rank for rank in range(1, 101))
    for rank in (0, 1, 9, 99):
        share = 1000 / (rank + 1) / harmonic
        assert abs(first.count(pool[rank]) - share) < 1


def test_self_time_subtracts_children_union_and_counted_work():
    # parent [0, 10]; children on two threads overlap in [3, 4];
    # a counter ran 1 s directly inside the parent.
    spans = [
        [1, 1, None, "executor.execute", 1, 0.0, 10.0,
         {"storage.fetch.top": 1.0, "kind": "RunQuery"}],
        [1, 2, 1, "shard.hop", 2, 1.0, 4.0, None],
        [1, 3, 1, "shard.hop", 3, 3.0, 6.0, None],
        [1, 4, 2, "shard.call", 2, 1.5, 3.5, None],
    ]
    selfs = self_times(spans)
    assert selfs[1] == 10.0 - 5.0 - 1.0
    assert selfs[2] == 3.0 - 2.0
    assert selfs[3] == 3.0


def test_every_workload_smoke(tmp_path):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--trace", "1", "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    assert set(summary["metrics"]) == {
        "louvre_reads", "analytics", "live_ingest",
        "ingest_with_reads", "sharded_reads"}
    for workload, metrics in summary["metrics"].items():
        assert metrics["executor.self_ms"]["value"] > 0, workload
        assert (tmp_path / "spans" / (workload + ".spans.jsonl")).exists()
    assert "trace_overhead.ops_per_s" in completed.stdout
