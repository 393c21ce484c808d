"""The wire boundary of the HTTP front-end.

:func:`execute_json` is the one bytes-in/``(status, bytes)``-out
implementation of ``POST /v1/call``: parse the body as a protocol
command, execute it on the :class:`~repro.service.executor.Engine`
(through :func:`~repro.service.executor.execute_safely`), map the
error code to an HTTP status, and
serialize the response to canonical JSON.  The asyncio server
(:mod:`repro.service.aserver`) calls it per request; it serializes
exactly as :meth:`LocalBinding.call_json
<repro.service.executor.LocalBinding.call_json>` does, which keeps
the socket and in-process transports byte-identical.

Read responses may be kept in a :class:`ResponseCache`: a bounded LRU
of full response payloads for *read* commands, keyed on the raw
request bytes and stamped with the engine's identity of the target
session (:meth:`Engine.cache_stamp
<repro.service.executor.Engine.cache_stamp>`: a registry's store
``(serial, version)``, a coordinator's session serial and ingest
generation).  Because stores are insert-only and every write changes
the stamp, a stamp match proves the cached bytes are exactly what
re-executing the command would produce — the cache can never
serve a stale page, only skip redundant work.  The front-end looks a
body up (:meth:`ResponseCache.get`) before it executes anything;
:func:`execute_json` only inserts.  On this service's hot path
(repeated dashboard/pagination queries against a corpus that changes
far less often than it is read) a hit turns ~1 ms of plan + execute +
serialize into a dictionary lookup.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro import __version__
from repro.service import protocol as P
from repro.service.executor import Engine, execute_safely

#: Error code → HTTP status of the reply carrying it.
STATUS_OF_CODE = {
    "bad_request": 400,
    "protocol": 400,
    "bad_cursor": 400,
    "unserializable": 400,
    "not_found": 404,
    "unknown_session": 404,
    "unknown_job": 404,
    "unknown_stream": 404,
    "persistence": 500,
    "internal": 500,
    # Front-end-generated (never by the executor): load shedding.
    "saturated": 503,
    # Stream back-pressure: an append exceeded the stream's
    # open-event bound; retry after the watermark advances.
    "overloaded": 503,
    # Resilience layer: every replica of a shard failed / the
    # propagated deadline ran out.
    "unavailable": 503,
    "deadline_exceeded": 504,
}

#: Commands whose responses are pure functions of one session's store
#: state — the only ones the response cache may hold.  Job/session
#: lifecycle commands (and anything mutating) are never cached.
CACHEABLE_KINDS = frozenset({
    "RunQuery", "Explain", "MinePatterns", "Similarity", "Flow",
    "Sequences", "Summary",
})


class ResponseCache:
    """Versioned LRU over serialized read-command responses.

    Entries are keyed on the **raw request bytes** (no parse needed on
    a hit) and carry the validity stamp captured *before* the command
    executed (:meth:`Engine.cache_stamp
    <repro.service.executor.Engine.cache_stamp>`).  A hit is served
    only while the live session still matches the stamp; any
    ingestion, session swap or space assignment invalidates
    transparently.

    Thread-safe; bounded by entry count and total payload bytes
    (oldest entries evicted first).
    """

    def __init__(self, max_entries: int = 256,
                 max_bytes: int = 64 * 1024 * 1024) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[bytes, Tuple]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    # -- stamping -------------------------------------------------------
    @staticmethod
    def stamp(engine: Engine, session: Optional[str]) -> Optional[Tuple]:
        """The validity stamp of ``session`` right now (None when the
        session does not resolve — such commands are not cached)."""
        if not isinstance(session, str):
            return None
        return engine.cache_stamp(session)

    # -- lookup/insert --------------------------------------------------
    def get(self, engine: Engine,
            raw: bytes) -> Optional[Tuple[int, bytes]]:
        """``(status, body)`` when ``raw`` is cached *and* still
        valid; ``None`` otherwise (stale entries are dropped)."""
        with self._lock:
            entry = self._entries.get(raw)
            if entry is not None:
                self._entries.move_to_end(raw)
        if entry is None:
            with self._lock:
                self.misses += 1
            return None
        stamp, status, body = entry
        if self.stamp(engine, stamp[0]) != stamp:
            with self._lock:
                held = self._entries.get(raw)
                if held is entry:
                    del self._entries[raw]
                    self._bytes -= len(raw) + len(held[2])
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return status, body

    def put(self, raw: bytes, stamp: Tuple, status: int,
            body: bytes) -> None:
        """Insert one response; evicts LRU entries past the bounds."""
        size = len(raw) + len(body)
        if size > self.max_bytes:
            return
        with self._lock:
            previous = self._entries.pop(raw, None)
            if previous is not None:
                self._bytes -= len(raw) + len(previous[2])
            self._entries[raw] = (stamp, status, body)
            self._bytes += size
            while (len(self._entries) > self.max_entries
                   or self._bytes > self.max_bytes):
                evicted_raw, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted_raw) + len(evicted[2])

    def clear(self) -> None:
        """Drop every entry (counters kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Occupancy and hit counters for ``/v1/health``."""
        with self._lock:
            return {"entries": len(self._entries),
                    "bytes": self._bytes, "hits": self.hits,
                    "misses": self.misses}


class Admission(threading.local):
    """A bridge thread's record of the request it is executing:
    ``queued_at``, when the HTTP front-end queued it for the bridge
    (``time.monotonic()``), and ``shed``, set when
    :func:`execute_json` answered it without executing.  Off the
    bridge ``queued_at`` stays None: no queue wait, nothing to shed.
    """

    queued_at: Optional[float] = None
    shed: bool = False


#: The calling thread's :class:`Admission` (the front-end fills it).
admission = Admission()


def execute_json(engine: Engine, raw: bytes,
                 cache: Optional[ResponseCache] = None
                 ) -> Tuple[int, bytes]:
    """One ``POST /v1/call`` body → ``(HTTP status, response bytes)``.

    Exactly the server semantics: protocol failures come back as a
    400 ``ErrorInfo``, expected command failures with their mapped
    status, unexpected exceptions as a 500 ``internal`` — the
    function never raises.  The body is always executed: the caller
    has already missed it in ``cache`` (when it has one), and a
    successful read response is inserted there under the
    versioned-stamp rules above; error responses are never cached.

    A command whose ``deadline_ms`` the bridge queue wait already
    spent (:data:`admission`) is shed: a ``deadline_exceeded`` 504,
    decided from the one decode of the body.
    """
    try:
        command = P.command_from_json(raw)
    except P.ProtocolError as error:
        return 400, P.ErrorInfo(code="protocol",
                                message=str(error)).to_json()
    queued_at = admission.queued_at
    if queued_at is not None and command.deadline_ms is not None:
        waited_ms = (time.monotonic() - queued_at) * 1000.0
        if waited_ms >= command.deadline_ms:
            admission.shed = True
            return STATUS_OF_CODE["deadline_exceeded"], P.ErrorInfo(
                code="deadline_exceeded",
                message="deadline_ms={} expired after {:.0f} ms "
                        "queued".format(command.deadline_ms,
                                        waited_ms)).to_json()
    stamp = None
    if cache is not None and command.kind in CACHEABLE_KINDS:
        # Captured *before* executing: a write racing the execution
        # leaves the entry stamped with the pre-write version, which
        # can only fail validation — never serve mixed-state bytes.
        stamp = cache.stamp(engine, getattr(command, "session", None))
    response = execute_safely(engine, command)
    status = 200
    if isinstance(response, P.ErrorInfo):
        status = STATUS_OF_CODE.get(response.code, 500)
    body = response.to_json()
    if stamp is not None and status == 200:
        cache.put(raw, stamp, status, body)
    return status, body


def health_payload(engine: Engine,
                   load: Optional[Dict] = None) -> Dict:
    """The ``GET /v1/health`` document.

    ``load`` is the front-end's saturation report (in-flight count,
    queue depth, rejection counter, cache stats) — keyed in only when
    given.  The engine supplies the session roster and, when it has
    them, a per-shard fan-out section (``"shards"``) and live-stream
    gauges (``"streams"``).
    """
    payload = {"ok": True, "version": __version__,
               "protocol": P.PROTOCOL_VERSION,
               "sessions": engine.health_roster()}
    shards = engine.shard_report()
    if shards is not None:
        payload["shards"] = shards
    streams = engine.stream_report()
    if streams is not None:
        payload["streams"] = streams
    if load is not None:
        payload["load"] = load
    return payload


def ready_payload(engine: Engine) -> Tuple[int, Dict]:
    """The ``GET /v1/ready`` document: ``(status, payload)``.

    Liveness (``/v1/health``) answers 200 whenever the process can
    answer at all; *readiness* is the load-balancer drain signal and
    goes 503 while the engine should not receive traffic:

    - sessions are still restoring from disk (``engine.restoring``) —
      a registry serving before its corpus is loaded would answer
      reads with wrong/empty results, or
    - more than half of the engine's replica targets have open
      circuit breakers (``engine.breaker_report()``) — the
      coordinator can no longer mask failures and this instance
      should be drained rather than trusted with traffic.
    """
    reasons = []
    if engine.restoring:
        reasons.append("sessions restoring from disk")
    breakers = engine.breaker_report()
    if breakers:
        open_count = sum(1 for entry in breakers
                         if entry.get("state") == "open")
        if open_count * 2 > len(breakers):
            reasons.append(
                "{} of {} shard targets have open circuit "
                "breakers".format(open_count, len(breakers)))
    payload: Dict = {"ready": not reasons, "reasons": reasons}
    if breakers is not None:
        payload["breakers"] = breakers
    return (200 if not reasons else 503), payload
