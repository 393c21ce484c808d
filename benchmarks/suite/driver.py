"""Load drivers: a pipelined open loop and a threaded closed loop.

Both speak HTTP/1.1 keep-alive to ``POST /v1/call`` on loopback and
record, per request, its latency and status, plus the request and
reply bytes of a sample of requests for the correctness check.

* :func:`open_loop` — one thread, up to a few connections, requests
  sent at the due times of an :class:`~repro.synth.pacing
  .ArrivalSchedule` *without waiting for replies* (pipelined), so a
  stalled server cannot thin the schedule.  Latency runs from each
  request's intended time; ``late`` counts sends that left more than
  :data:`LATE_AFTER` seconds after it.
* :func:`closed_loop` — one thread per connection, each sending its
  next operation only after the previous reply.  An operation may be
  several dependent requests (a cursor walk).
"""

from __future__ import annotations

import collections
import itertools
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.synth.pacing import ArrivalSchedule

#: A send later than this past its intended time counts as late.
LATE_AFTER = 0.001

#: Seconds without any reply before a driver gives up.
STALL_TIMEOUT = 60.0

Sample = Tuple[bytes, int, bytes]


def request_bytes(body: bytes) -> bytes:
    """One ``POST /v1/call`` request carrying ``body``."""
    return (b"POST /v1/call HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\nContent-Length: "
            + str(len(body)).encode("ascii") + b"\r\n\r\n" + body)


def take_response(buffer: bytearray) -> Optional[Tuple[int, bytes]]:
    """Remove one complete response from the front of ``buffer``;
    ``None`` when it holds no complete response yet."""
    end = buffer.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = bytes(buffer[:end])
    lines = head.split(b"\r\n")
    status = int(lines[0].split(b" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    start = end + 4
    if len(buffer) < start + length:
        return None
    body = bytes(buffer[start:start + length])
    del buffer[:start + length]
    return status, body


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port),
                                    timeout=STALL_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _receive(sock: socket.socket) -> bytes:
    """One ``recv``, then re-arm immediate ACKs.

    The server leaves Nagle on, so a reply segment waits for the ACK
    of the previous one; left to the kernel's delayed-ACK timer, a
    pipelined reply then lands one inter-arrival gap late (or not, as
    the timer mode flips), and latency would measure the timer, not
    the server.  ``benchmarks/bench_service.py`` quick-ACKs for the
    same reason.
    """
    chunk = sock.recv(262144)
    if not chunk:
        raise ConnectionError("server closed the connection")
    if hasattr(socket, "TCP_QUICKACK"):  # Linux
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
    return chunk


class Connection:
    """One blocking keep-alive connection."""

    def __init__(self, port: int) -> None:
        self._sock = _connect(port)
        self._buffer = bytearray()

    def call(self, body: bytes) -> Tuple[int, bytes]:
        """Send one command body; ``(status, reply body)``."""
        self._sock.sendall(request_bytes(body))
        while True:
            response = take_response(self._buffer)
            if response is not None:
                return response
            self._buffer += _receive(self._sock)

    def close(self) -> None:
        self._sock.close()


@dataclass
class LoadResult:
    """What one driver run measured.

    ``latencies`` (seconds) are those of the requests answered 200,
    and ``ends`` their completion times; ``statuses`` maps HTTP status
    to its count; ``samples`` holds ``(request body, status, reply
    body)`` of the sampled requests.
    """

    latencies: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)
    statuses: Dict[int, int] = field(default_factory=dict)
    samples: List[Sample] = field(default_factory=list)
    #: Measured interval on the ``perf_counter`` clock.
    started: float = 0.0
    ended: float = 0.0
    late: int = 0

    @property
    def seconds(self) -> float:
        return self.ended - self.started

    @property
    def sent(self) -> int:
        return sum(self.statuses.values())

    @property
    def ok(self) -> int:
        return self.statuses.get(200, 0)

    @property
    def failed(self) -> int:
        return self.sent - self.ok

    @property
    def late_share(self) -> float:
        return self.late / self.sent if self.sent else 0.0

    def record(self, latency: float, status: int, ended: float) -> None:
        if status == 200:
            self.latencies.append(latency)
            self.ends.append(ended)
        self.statuses[status] = self.statuses.get(status, 0) + 1

    def merge(self, other: "LoadResult") -> None:
        """Add ``other``'s requests (not its interval or lateness)."""
        self.latencies.extend(other.latencies)
        self.ends.extend(other.ends)
        for status, count in other.statuses.items():
            self.statuses[status] = self.statuses.get(status, 0) + count
        self.samples.extend(other.samples)


def open_loop(port: int,
              lanes: Sequence[Tuple[Sequence[bytes], Optional[float],
                                    float]],
              warmup: float = 0.0,
              sample_every: int = 0) -> List[LoadResult]:
    """Send several paced request streams at once, pipelined.

    Each lane is ``(bodies, rate, offset)``: its own connection, and
    an :class:`~repro.synth.pacing.ArrivalSchedule` at ``rate`` per
    second whose origin is the common start plus ``offset`` seconds
    (two lanes of one stream interleave with an offset of one gap).
    A lane whose rate is ``None`` is closed instead: it sends its next
    request when the previous reply arrived, timed from its send.
    With closed lanes, the run ends when they have sent everything:
    the paced lanes send nothing after that.
    Requests due in the first ``warmup`` seconds run on the same
    schedule but are left out of the result (the cache fills and lazy
    set-up finishes before timing).  Every ``sample_every``-th
    measured request of a lane is sampled (``0``: none, ``1``: all).
    Returns one result per lane.
    """
    # select(2) takes a microsecond timeout; epoll rounds up to whole
    # milliseconds, which would make sends late by up to 1 ms.
    selector = selectors.SelectSelector()
    states = []
    for bodies, _, _ in lanes:
        sock = _connect(port)
        sock.setblocking(False)
        state = {"sock": sock, "out": bytearray(), "in": bytearray(),
                 "fifo": collections.deque(), "waiting": False,
                 "bodies": bodies, "next": 0, "measured": 0,
                 "result": LoadResult()}
        selector.register(sock, selectors.EVENT_READ, state)
        states.append(state)
    base = time.perf_counter() + 0.005
    for state, (_, rate, offset) in zip(states, lanes):
        state["schedule"] = rate and ArrivalSchedule(rate,
                                                     start=base + offset)
        state["result"].started = base + warmup
    closed = [state for state in states if not state["schedule"]]

    def unsent(state: Dict) -> bool:
        return state["next"] < len(state["bodies"])

    last_progress = time.perf_counter()
    try:
        while True:
            ending = closed and not any(unsent(state) or state["fifo"]
                                        for state in closed)
            if not any(state["fifo"] or (unsent(state) and not ending)
                       for state in states):
                break
            now = time.perf_counter()
            due = STALL_TIMEOUT
            for state in states:
                while unsent(state) and not ending:
                    index = state["next"]
                    if not state["schedule"]:
                        if state["fifo"]:
                            break
                        intended = max(now, base)
                    else:
                        intended = state["schedule"].intended(index)
                    if intended > now:
                        due = min(due, intended - now)
                        break
                    measured = intended >= base + warmup
                    if measured and now - intended > LATE_AFTER:
                        state["result"].late += 1
                    state["out"] += request_bytes(state["bodies"][index])
                    state["fifo"].append((index, intended, measured))
                    _flush(selector, state)
                    state["next"] += 1
                    now = time.perf_counter()
            for key, events in selector.select(due):
                state = key.data
                if events & selectors.EVENT_WRITE:
                    _flush(selector, state)
                if events & selectors.EVENT_READ:
                    state["in"] += _receive(state["sock"])
                    arrived = time.perf_counter()
                    while True:
                        response = take_response(state["in"])
                        if response is None:
                            break
                        index, intended, measured = \
                            state["fifo"].popleft()
                        last_progress = arrived
                        if not measured:
                            continue
                        status, reply = response
                        result = state["result"]
                        result.record(arrived - intended, status, arrived)
                        if sample_every and \
                                state["measured"] % sample_every == 0:
                            result.samples.append(
                                (state["bodies"][index], status, reply))
                        state["measured"] += 1
            if time.perf_counter() - last_progress > STALL_TIMEOUT:
                raise TimeoutError("no reply for {:.0f} s".format(
                    STALL_TIMEOUT))
    finally:
        for state in states:
            selector.unregister(state["sock"])
            state["sock"].close()
        selector.close()
    ended = time.perf_counter()
    for state in states:
        state["result"].ended = ended
    return [state["result"] for state in states]


def interleaved(bodies: Sequence[bytes], rate: float,
                connections: int) -> List[Tuple[Sequence[bytes], float,
                                                 float]]:
    """One stream at ``rate`` spread round-robin over
    ``connections`` lanes, each offset by one inter-arrival gap."""
    return [(bodies[lane::connections], rate / connections, lane / rate)
            for lane in range(connections)]


def combined(results: Sequence[LoadResult]) -> LoadResult:
    """Several lanes' results as one."""
    total = LoadResult(started=min(result.started for result in results),
                       ended=max(result.ended for result in results))
    for result in results:
        total.merge(result)
        total.late += result.late
    return total


def _flush(selector: selectors.BaseSelector, lane: Dict) -> None:
    """Send what the lane's socket accepts now; watch for writability
    only while anything is left."""
    out = lane["out"]
    if out:
        try:
            sent = lane["sock"].send(out)
        except BlockingIOError:
            sent = 0
        del out[:sent]
    waiting = bool(out)
    if waiting != lane["waiting"]:
        lane["waiting"] = waiting
        selector.modify(lane["sock"], selectors.EVENT_READ
                        | (selectors.EVENT_WRITE if waiting else 0),
                        lane)


#: One closed-loop operation: it receives ``call(body) -> (status,
#: reply)`` and issues one or more dependent requests through it.
Operation = Callable[[Callable[[bytes], Tuple[int, bytes]]], None]


def single(body: bytes) -> Operation:
    """The operation that sends ``body`` once."""
    return lambda call: call(body)


def closed_loop(port: int, operations: Iterable[Operation],
                connections: int = 1, sample_every: int = 0,
                seconds: Optional[float] = None) -> LoadResult:
    """Run ``operations`` back to back on ``connections`` threads.

    Each thread owns a connection and takes the next operation as
    soon as its previous one completed, until the operations run out
    or, with ``seconds``, until that long has passed.  Every
    ``sample_every``-th request is sampled.
    """
    result = LoadResult()
    lock = threading.Lock()
    source = iter(operations)
    next_request = itertools.count()
    errors: List[BaseException] = []

    def worker(connection: Connection, deadline: float) -> None:
        local = LoadResult()

        def call(body: bytes) -> Tuple[int, bytes]:
            index = next(next_request)
            started = time.perf_counter()
            status, reply = connection.call(body)
            ended = time.perf_counter()
            local.record(ended - started, status, ended)
            if sample_every and index % sample_every == 0:
                local.samples.append((body, status, reply))
            return status, reply

        try:
            while time.perf_counter() < deadline:
                with lock:
                    operation = next(source, None)
                if operation is None:
                    break
                operation(call)
        except BaseException as error:  # surfaced after the join
            errors.append(error)
        finally:
            with lock:
                result.merge(local)

    pool = [Connection(port) for _ in range(max(1, connections))]
    result.started = time.perf_counter()
    deadline = float("inf") if seconds is None \
        else result.started + seconds
    threads = [threading.Thread(target=worker,
                                args=(connection, deadline))
               for connection in pool]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for connection in pool:
            connection.close()
    result.ended = time.perf_counter()
    if errors:
        raise errors[0]
    return result


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``fraction`` in 0–1)."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1,
                max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[index]
