"""Durable server-side streams: journal, auto-checkpoint, recovery.

A :class:`StreamManager` owns the live streams of one engine — the
state behind the ``OpenStream`` / ``AppendEvents`` / ``StreamStatus``
/ ``CloseStream`` protocol family.  The engine is its
:class:`StreamHost`: a :class:`~repro.service.registry
.SessionRegistry` (one store) or a :class:`~repro.shard.coordinator
.ShardCoordinator` (the routed corpus of N shards), so a sharded
stream is the unsharded stream with another write path.  Each stream
pairs a :class:`~repro.stream.segmenter.WatermarkSegmenter` with a
sidecar **event journal** in the directory its host names::

    <session dir>/streams/<stream>/             (a registry)
    <coordinator root>/streams/<session>/<stream>/  (a coordinator)
      events.log          appended event batches (WAL records)
      stream-state.json   segmenter snapshot + journal watermark

**Durability contract.**  ``AppendEvents`` acks only after the batch
is fsynced to the journal; episodes the batch closes are stored
through the host's normal write path, so they ride the session WAL —
on a coordinator, the routed ``IngestDocuments`` fan-out to every
replica (the "piggy-back").  Every ``checkpoint_every`` closed
episodes the stream folds its journal: the segmenter snapshot is
written atomically with the journal's sequence watermark, then the
journal truncates.
After ``kill -9``, recovery is *snapshot + journal-tail replay* —
events still buffered in open episodes come back from the journal,
episodes already stored come back from the session WAL, and replayed
episodes that the session WAL already holds are deduplicated by
canonical content (replay is deterministic, so an already-stored
episode regenerates byte-identically).  Net effect: zero acked-event
loss, no double-stored episodes.

**Back-pressure.**  A stream bounds its open-episode memory with
``max_open_events``; an append that would exceed it is rejected with
:class:`StreamOverloadedError` (mapped to a typed ``overloaded`` 503)
rather than buffered — blocking server-side would deadlock, since the
only thing that drains open episodes is a *later* append or watermark.
"""

from __future__ import annotations

import json
import os
import threading
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
)

from repro.core.builder import TrajectoryBuilder
from repro.core.trajectory import SemanticTrajectory
from repro.persist.format import PersistError, write_atomic
from repro.persist.wal import RecordLog
from repro.service.protocol import canonical_json, splice_json
from repro.stream.segmenter import (
    NO_WATERMARK,
    WatermarkSegmenter,
    event_from_dict,
)

#: Subdirectory of a durable session holding its stream sidecars.
STREAMS_DIR = "streams"
STATE_NAME = "stream-state.json"
JOURNAL_NAME = "events.log"

DEFAULT_CHECKPOINT_EVERY = 64
DEFAULT_MAX_OPEN_EVENTS = 100_000


class UnknownStreamError(KeyError):
    """Lookup of a stream the session does not hold."""


class StreamOverloadedError(RuntimeError):
    """An append was rejected to bound open-episode memory."""


class StreamHost(Protocol):
    """What a :class:`StreamManager` needs of the engine it serves.

    :class:`~repro.service.registry.SessionRegistry` and
    :class:`~repro.shard.coordinator.ShardCoordinator` implement it.
    """

    def stream_session(self, session: str) -> object:
        """Create the named session on first use, or look it up."""

    def stream_directory(self, session: str,
                         stream: str) -> Optional[str]:
        """The stream's sidecar directory (None: memory-only)."""

    def stream_space(self, session: str) -> object:
        """The space model whose zone NRG the stream segments over."""

    def stream_fsync(self) -> bool:
        """Whether sidecar writes fsync."""

    def store_episodes(self, session: str,
                       episodes: List[SemanticTrajectory]) -> None:
        """Store closed episodes through the session's write path."""

    def stored_documents(self, session: str
                         ) -> Iterable[SemanticTrajectory]:
        """Every document the session holds, in doc-id order."""


class EventJournal(RecordLog):
    """A stream's event-batch log: the session WAL's record log with
    ``{"events": [...], "watermark": W}`` bodies, one per acked
    append::

        {"crc": "...", "events": [...], "seq": N, "watermark": W}

    Sequencing, group commit, torn-tail truncation and reset are the
    shared :class:`~repro.persist.wal.RecordLog`'s.
    """

    list_field = "events"

    def append(self, events: List[dict],
               watermark: Optional[float]) -> int:
        """Durably append one batch; returns its sequence number.

        Raises:
            PersistError: when the write or fsync fails (the batch is
                then *not* acked; the reopened sink truncates any torn
                bytes first).
        """
        return self.append_record({"events": events,
                                   "watermark": watermark})

    def records(self, after_seq: int = 0) -> Iterator[
            Tuple[int, List[dict], Optional[float]]]:
        """Valid records with ``seq > after_seq``, oldest first."""
        for seq, body in self.bodies(after_seq):
            yield seq, body["events"], body.get("watermark")


class ServerStream:
    """One live stream bound to a session (internal to the manager).

    All mutation happens under :attr:`lock`; the lock order is stream
    lock → the host's session write lock (never the reverse).
    """

    def __init__(self, host: Optional[StreamHost], session_name: str,
                 name: str, segmenter: WatermarkSegmenter,
                 directory: Optional[str],
                 fsync: bool = True,
                 checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
                 max_open_events: int = DEFAULT_MAX_OPEN_EVENTS
                 ) -> None:
        self.host = host
        self.session_name = session_name
        self.name = name
        self.segmenter = segmenter
        self.directory = directory
        self.fsync = fsync
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.max_open_events = max(1, int(max_open_events))
        self.lock = threading.Lock()
        self.journal: Optional[EventJournal] = None
        if directory is not None:
            self.journal = EventJournal(
                os.path.join(directory, JOURNAL_NAME), fsync=fsync)
        #: events durably acknowledged (journaled, or — memory-only
        #: streams — accepted into the segmenter).
        self.events_acked = 0
        #: episodes handed to the host's store (WAL-journaled).
        self.episodes_stored = 0
        self.checkpoints = 0
        self._episodes_at_checkpoint = 0

    # -- the ingest path ------------------------------------------------
    def append(self, events: List[Mapping],
               watermark: Optional[float]) -> Dict[str, object]:
        """Journal, segment and store one event batch.

        Raises:
            ValueError: malformed events (nothing is acked).
            StreamOverloadedError: accepting the batch would exceed
                ``max_open_events`` buffered events.
            PersistError: the journal write failed (nothing is acked).
        """
        records = [event_from_dict(event) for event in events]
        with self.lock:
            if self.segmenter.open_events + len(records) \
                    > self.max_open_events:
                raise StreamOverloadedError(
                    "stream {!r} has {} events open (cap {}); retry "
                    "after the watermark advances".format(
                        self.name, self.segmenter.open_events,
                        self.max_open_events))
            if self.journal is not None \
                    and (records or watermark is not None):
                # A pure poll (no events, no watermark) changes no
                # replayable state — don't grow the journal for it.
                self.journal.append([dict(e) for e in events],
                                    watermark)
            closed = []
            for record in records:
                closed.extend(self.segmenter.feed(record))
            if watermark is not None:
                closed.extend(self.segmenter.advance(watermark))
            if closed:
                self._store(closed)
            self.events_acked += len(records)
            if self.journal is not None \
                    and (self.segmenter.metrics.episodes
                         - self._episodes_at_checkpoint
                         >= self.checkpoint_every):
                self._checkpoint()
            return {"appended": len(records),
                    "episodes_closed": len(closed),
                    "seq": (self.journal.last_seq
                            if self.journal is not None else 0)}

    def _store(self, episodes) -> None:
        """Closed episodes enter through the host's write path — the
        session WAL journals them before indexing (caller holds the
        stream lock)."""
        self.host.store_episodes(self.session_name, episodes)
        self.episodes_stored += len(episodes)

    # -- checkpoint / recovery ------------------------------------------
    def state_payload(self) -> Dict[str, object]:
        """The checkpoint document :meth:`write_state` persists."""
        return {**self._state_fields(),
                "segmenter": self.segmenter.state_dict()}

    def _state_fields(self) -> Dict[str, object]:
        """Every :meth:`state_payload` field except ``segmenter``."""
        return {
            "format": 1,
            "session": self.session_name,
            "stream": self.name,
            "checkpoint_every": self.checkpoint_every,
            "max_open_events": self.max_open_events,
            "events_acked": self.events_acked,
            "episodes_stored": self.episodes_stored,
            "checkpoints": self.checkpoints,
            "journal_seq": (self.journal.last_seq
                            if self.journal is not None else 0),
        }

    def write_state(self) -> None:
        """Atomically persist :meth:`state_payload` (tmp + rename).

        The file holds exactly ``canonical_json(state_payload())``,
        built around the segmenter's incrementally encoded
        :meth:`~repro.stream.segmenter.WatermarkSegmenter.state_json`
        so a fold costs what is open, not what has streamed."""
        if self.directory is None:
            return
        path = os.path.join(self.directory, STATE_NAME)
        try:
            os.makedirs(self.directory, exist_ok=True)
            write_atomic(path, splice_json(
                self._state_fields(), "segmenter",
                self.segmenter.state_json()) + b"\n",
                fsync=self.fsync)
        except OSError as error:
            raise PersistError("cannot write stream state {}: {}"
                               .format(path, error))

    def checkpoint(self) -> None:
        """Fold the journal: snapshot the segmenter, truncate."""
        with self.lock:
            self._checkpoint()

    def _checkpoint(self) -> None:
        if self.directory is None:
            self._episodes_at_checkpoint = \
                self.segmenter.metrics.episodes
            return
        self.checkpoints += 1  # counted before the write so the
        self.write_state()     # persisted state includes this fold
        if self.journal is not None:
            self.journal.reset()
        self._episodes_at_checkpoint = self.segmenter.metrics.episodes

    def recover(self) -> None:
        """Replay the journal tail over the snapshot state.

        The state file (when present) restores the segmenter and
        counters as of the last checkpoint; journal records past its
        sequence watermark re-feed the segmenter.  Episodes the
        replay closes are stored *unless the session store already
        holds a byte-identical document* — replay is deterministic,
        so an episode stored (via the session WAL) before the crash
        regenerates byte-for-byte and is skipped, never duplicated.
        The stored corpus is walked only when the replay closes an
        episode.

        Raises:
            PersistError: the state was checkpointed by a shard's
                relay stream, whose episodes belong to a coordinator
                (recovering it here would store them in one shard's
                local store, outside the routed layout).
        """
        if self.directory is None:
            return
        state_path = os.path.join(self.directory, STATE_NAME)
        journal_seq = 0
        try:
            with open(state_path, "rb") as source:
                state = json.load(source)
        except (OSError, ValueError):
            state = None  # no (or torn) checkpoint: journal has all
        if state is not None:
            if state.get("relay"):
                raise PersistError(
                    "stream {!r} of session {!r} was written by a "
                    "shard relay stream; its episodes belong to the "
                    "coordinator that opened it, so this shard "
                    "refuses to recover it (sidecar: {})".format(
                        self.name, self.session_name,
                        self.directory))
            self.checkpoint_every = max(1, int(
                state.get("checkpoint_every", self.checkpoint_every)))
            self.max_open_events = max(1, int(
                state.get("max_open_events", self.max_open_events)))
            self.events_acked = int(state.get("events_acked", 0))
            self.episodes_stored = int(state.get("episodes_stored", 0))
            self.checkpoints = int(state.get("checkpoints", 0))
            journal_seq = int(state.get("journal_seq", 0))
            self.segmenter.load_state(state.get("segmenter") or {})
        self._episodes_at_checkpoint = self.segmenter.metrics.episodes
        if self.journal is None:
            return
        stored_bytes = None
        for _, events, watermark in self.journal.records(
                after_seq=journal_seq):
            closed = []
            for event in events:
                closed.extend(self.segmenter.feed(
                    event_from_dict(event)))
            if watermark is not None:
                closed.extend(self.segmenter.advance(watermark))
            self.events_acked += len(events)
            if not closed:
                continue
            if stored_bytes is None:
                stored_bytes = {canonical_json(t.to_dict())
                                for t in self.host.stored_documents(
                                    self.session_name)}
            fresh = [t for t in closed
                     if canonical_json(t.to_dict())
                     not in stored_bytes]
            if fresh:
                self._store(fresh)
            self.episodes_stored += len(closed) - len(fresh)

    # -- observation ----------------------------------------------------
    def status(self) -> Dict[str, object]:
        """JSON-native snapshot for ``StreamStatus`` and health."""
        with self.lock:
            metrics = self.segmenter.metrics
            watermark = self.segmenter.watermark
            return {
                "session": self.session_name,
                "stream": self.name,
                "watermark": (None if watermark == NO_WATERMARK
                              else watermark),
                "open_buffers": self.segmenter.open_buffers,
                "open_events": self.segmenter.open_events,
                "events_in": metrics.events_in,
                "accepted": metrics.accepted,
                "drops": dict(metrics.drops),
                "late_events": metrics.late_events,
                "dropped_late": metrics.dropped_late,
                "episodes": metrics.episodes,
                "events_acked": self.events_acked,
                "episodes_stored": self.episodes_stored,
                "checkpoints": self.checkpoints,
                "durable": self.journal is not None,
                "max_open_events": self.max_open_events,
            }

    def close(self) -> Dict[str, object]:
        """Flush every open episode and retire the sidecar files."""
        with self.lock:
            closed = self.segmenter.close()
            if closed:
                self._store(closed)
            summary = {"episodes_closed": len(closed),
                       "episodes_total": self.episodes_stored,
                       "events_acked": self.events_acked}
            if self.journal is not None:
                self.journal.close()
            if self.directory is not None:
                # A closed stream's episodes live in the host's
                # store/WAL; the sidecar has nothing left to say.
                for name in (JOURNAL_NAME, STATE_NAME):
                    try:
                        os.unlink(os.path.join(self.directory, name))
                    except OSError:
                        pass
                try:
                    os.rmdir(self.directory)
                except OSError:
                    pass
            return summary


class StreamManager:
    """The stream table of one :class:`StreamHost` (created lazily by
    :meth:`SessionRegistry.stream_manager
    <repro.service.registry.SessionRegistry.stream_manager>`, and by a
    shard coordinator on construction).

    Keyed by ``(session, stream)``.  Streams the host gives a
    directory get a journal + checkpoint sidecar and are **recovered
    lazily**: a stream found on disk but not in memory (the
    post-restart case) is rebuilt on first access, replaying its
    journal tail.
    """

    def __init__(self, host: StreamHost) -> None:
        self.host = host
        self._streams: Dict[Tuple[str, str], ServerStream] = {}
        self._lock = threading.Lock()

    def _new_stream(self, session_name: str, stream: str,
                    directory: Optional[str],
                    gap_seconds: Optional[float] = None,
                    **shape) -> ServerStream:
        space = self.host.stream_space(session_name)
        segmenter = WatermarkSegmenter(
            TrajectoryBuilder(space.dataset_zone_nrg()),
            gap_seconds=gap_seconds)
        return ServerStream(self.host, session_name, stream, segmenter,
                            directory, fsync=self.host.stream_fsync(),
                            **shape)

    # -- the protocol surface -------------------------------------------
    def open(self, session_name: str, stream: str,
             gap_seconds: Optional[float] = None,
             checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
             max_open_events: int = DEFAULT_MAX_OPEN_EVENTS
             ) -> ServerStream:
        """Open (or return the already-open) named stream.

        Creates the session on first use, like ingest does.  An
        existing open stream is returned as-is (idempotent) — the
        shape arguments of the first open win.

        Raises:
            PersistError: the sidecar cannot be written or recovered.
        """
        self.host.stream_session(session_name)
        key = (session_name, stream)
        with self._lock:
            existing = self._streams.get(key)
            if existing is not None:
                return existing
            recovered = self._recover_locked(session_name, stream)
            if recovered is not None:
                return recovered
            server_stream = self._new_stream(
                session_name, stream,
                self.host.stream_directory(session_name, stream),
                gap_seconds=gap_seconds,
                checkpoint_every=checkpoint_every,
                max_open_events=max_open_events)
            # The initial checkpoint records the stream's shape, so a
            # restart before the first fold still knows the stream.
            server_stream.write_state()
            self._streams[key] = server_stream
            return server_stream

    def get(self, session_name: str, stream: str) -> ServerStream:
        """The named stream, lazily recovered from disk.

        Raises:
            UnknownStreamError: never opened (or already closed).
            PersistError: the sidecar cannot be recovered.
        """
        with self._lock:
            held = self._streams.get((session_name, stream))
            if held is not None:
                return held
            recovered = self._recover_locked(session_name, stream)
            if recovered is not None:
                return recovered
            raise UnknownStreamError(stream)

    def _recover_locked(self, session_name: str,
                        stream: str) -> Optional[ServerStream]:
        """Rebuild a stream from its sidecar directory, if present."""
        directory = self.host.stream_directory(session_name, stream)
        if directory is None or not os.path.isdir(directory):
            return None
        # A stream that acked events but never closed an episode
        # leaves no session WAL, so a restarted host does not restore
        # the session — only the sidecar proves it existed.
        self.host.stream_session(session_name)
        server_stream = self._new_stream(session_name, stream,
                                         directory)
        try:
            server_stream.recover()
        except BaseException:
            server_stream.journal.close()
            raise
        self._streams[(session_name, stream)] = server_stream
        return server_stream

    def close(self, session_name: str, stream: str
              ) -> Dict[str, object]:
        """Flush and retire a stream.

        Raises:
            UnknownStreamError: never opened (or already closed).
        """
        server_stream = self.get(session_name, stream)
        with self._lock:
            self._streams.pop((session_name, stream), None)
        return server_stream.close()

    def drop(self, session_name: str) -> None:
        """Forget a dropped session's streams (the host deletes their
        sidecars with the session)."""
        with self._lock:
            dropped = [self._streams.pop(key)
                       for key in list(self._streams)
                       if key[0] == session_name]
        for server_stream in dropped:
            with server_stream.lock:
                if server_stream.journal is not None:
                    server_stream.journal.close()

    def streams(self) -> List[ServerStream]:
        """Every open stream, insertion-ordered."""
        with self._lock:
            return list(self._streams.values())

    def report(self) -> Dict[str, object]:
        """Aggregate stream counters for ``GET /v1/health``."""
        statuses = [s.status() for s in self.streams()]
        watermarks = [s["watermark"] for s in statuses
                      if s["watermark"] is not None]
        return {
            "open": len(statuses),
            "events_acked": sum(s["events_acked"] for s in statuses),
            "open_events": sum(s["open_events"] for s in statuses),
            "episodes_stored": sum(s["episodes_stored"]
                                   for s in statuses),
            "late_events": sum(s["late_events"] for s in statuses),
            "dropped_late": sum(s["dropped_late"] for s in statuses),
            "watermark_min": (min(watermarks) if watermarks
                              else None),
        }
