"""The wire boundary of the HTTP front-end.

:func:`execute_json` is the one bytes-in/``(status, bytes)``-out
implementation of ``POST /v1/call``: parse the body as a protocol
command, execute it through :func:`~repro.service.executor
.run_command_safely`, map the error code to an HTTP status, and
serialize the response to canonical JSON.  The asyncio server
(:mod:`repro.service.aserver`) calls it per request; it serializes
exactly as :meth:`LocalBinding.call_json
<repro.service.executor.LocalBinding.call_json>` does, which keeps
the socket and in-process transports byte-identical.

Read responses may be kept in a :class:`ResponseCache`: a bounded LRU
of full response payloads for *read* commands, keyed on the raw
request bytes and stamped with the target store's ``(serial,
version)`` identity (:attr:`~repro.storage.store.TrajectoryStore
.version`).  Because the store is insert-only and bumps its version
on every write, a stamp match proves the cached bytes are exactly
what re-executing the command would produce — the cache can never
serve a stale page, only skip redundant work.  The front-end looks a
body up (:meth:`ResponseCache.get`) before it executes anything;
:func:`execute_json` only inserts.  On this service's hot path
(repeated dashboard/pagination queries against a corpus that changes
far less often than it is read) a hit turns ~1 ms of plan + execute +
serialize into a dictionary lookup.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro import __version__
from repro.service import protocol as P
from repro.service.executor import run_command_safely
from repro.service.registry import SessionRegistry, UnknownSessionError

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
    executed: the target session's name plus its store's
    ``(serial, version)`` and the identity of its space model.  A hit
    is served only while the live session still matches the stamp;
    any ingestion (version bump), session swap (new store serial) or
    space assignment invalidates transparently.

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
    def stamp(registry: SessionRegistry,
              session: Optional[str]) -> Optional[Tuple]:
        """The validity stamp of ``session`` right now (None when the
        session does not resolve — such commands are not cached).

        The space component is the workbench's monotonic
        ``space_generation`` counter, not ``id(space)``: id values
        are reused after garbage collection, so a dropped session
        whose replacement space landed at the same address could
        otherwise revalidate stale bytes.  An engine carrying its own
        ``cache_stamp`` (the shard coordinator) stamps itself.
        """
        if not isinstance(session, str):
            return None
        stamper = getattr(registry, "cache_stamp", None)
        if stamper is not None:
            return stamper(session)
        try:
            held = registry.get(session)
        except UnknownSessionError:
            return None
        workbench = held.workbench
        store = workbench.store
        return (session, store.serial, store.version,
                getattr(workbench, "space_generation", 0))

    # -- lookup/insert --------------------------------------------------
    def get(self, registry: SessionRegistry,
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
        if self.stamp(registry, stamp[0]) != stamp:
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


def execute_json(registry: SessionRegistry, raw: bytes,
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
    """
    try:
        command = P.command_from_json(raw)
    except P.ProtocolError as error:
        return 400, P.ErrorInfo(code="protocol",
                                message=str(error)).to_json()
    stamp = None
    if cache is not None and command.kind in CACHEABLE_KINDS:
        # Captured *before* executing: a write racing the execution
        # leaves the entry stamped with the pre-write version, which
        # can only fail validation — never serve mixed-state bytes.
        stamp = cache.stamp(registry, getattr(command, "session",
                                              None))
    response = run_command_safely(registry, command)
    status = 200
    if isinstance(response, P.ErrorInfo):
        status = STATUS_OF_CODE.get(response.code, 500)
    body = response.to_json()
    if stamp is not None and status == 200:
        cache.put(raw, stamp, status, body)
    return status, body


def wal_report(wal) -> Dict:
    """Group-commit counters of one write-ahead log.

    ``coalescing`` is appends per physical flush — the fan-in the
    group-commit leader achieved (1.0 means every append paid its own
    fsync; ``None`` before the first flush).
    """
    appends = wal.appends
    flushes = wal.group_flushes
    return {"appends": appends, "group_flushes": flushes,
            "coalescing": (round(appends / flushes, 3)
                           if flushes else None)}


def health_payload(registry: SessionRegistry,
                   load: Optional[Dict] = None) -> Dict:
    """The ``GET /v1/health`` document.

    ``load`` is the front-end's saturation report (in-flight count,
    queue depth, rejection counter, cache stats) — keyed in only when
    given.
    Durable sessions additionally report their WAL group-commit
    counters, and a shard coordinator engine contributes a per-shard
    fan-out/saturation section under ``"shards"``.
    """
    roster_fn = getattr(registry, "health_roster", None)
    if roster_fn is not None:
        roster = roster_fn()
    else:
        roster = []
        for session in registry.sessions():
            entry = {"name": session.name, "state": session.state,
                     "trajectories": len(session.workbench.store),
                     "ingest": {
                         "accepted": session.ingest_accepted,
                         "rejected": session.ingest_rejected}}
            wal = session.workbench.store.wal
            if wal is not None:
                entry["wal"] = wal_report(wal)
            roster.append(entry)
    payload = {"ok": True, "version": __version__,
               "protocol": P.PROTOCOL_VERSION, "sessions": roster}
    shards_fn = getattr(registry, "shard_report", None)
    if shards_fn is not None:
        payload["shards"] = shards_fn()
    # Live-stream lag/watermark counters: present once the engine has
    # opened a stream (the manager attaches itself lazily), duck-typed
    # so the wire layer needs no stream import.
    streams = getattr(registry, "_stream_manager", None)
    if streams is not None:
        payload["streams"] = streams.report()
    if load is not None:
        payload["load"] = load
    return payload


def ready_payload(registry: SessionRegistry
                  ) -> Tuple[int, Dict]:
    """The ``GET /v1/ready`` document: ``(status, payload)``.

    Liveness (``/v1/health``) answers 200 whenever the process can
    answer at all; *readiness* is the load-balancer drain signal and
    goes 503 while the engine should not receive traffic:

    - sessions are still restoring from disk (``registry.restoring``,
      duck-typed — a registry serving before its corpus is loaded
      would answer reads with wrong/empty results), or
    - more than half of a shard coordinator's replica targets have
      open circuit breakers (``registry.breaker_report``) — the
      coordinator can no longer mask failures and this instance
      should be drained rather than trusted with traffic.
    """
    reasons = []
    if getattr(registry, "restoring", False):
        reasons.append("sessions restoring from disk")
    breakers_fn = getattr(registry, "breaker_report", None)
    breakers = breakers_fn() if breakers_fn is not None else None
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
