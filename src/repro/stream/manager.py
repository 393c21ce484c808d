"""Durable server-side streams: journal, auto-checkpoint, recovery.

A :class:`StreamManager` owns the live streams of one
:class:`~repro.service.registry.SessionRegistry` — the state behind
the ``OpenStream`` / ``AppendEvents`` / ``StreamStatus`` /
``CloseStream`` protocol family.  Each stream pairs a
:class:`~repro.stream.segmenter.WatermarkSegmenter` with a sidecar
**event journal** under the session's durable directory::

    <session dir>/streams/<stream>/
      events.log          appended event batches (WAL records)
      stream-state.json   segmenter snapshot + journal watermark

**Durability contract.**  ``AppendEvents`` acks only after the batch
is fsynced to the journal; episodes the batch closes are stored
through the session's normal write path, so they ride the session WAL
(the "piggy-back").  Every ``checkpoint_every`` closed episodes the
stream folds its journal: the segmenter snapshot is written atomically
with the journal's sequence watermark, then the journal truncates.
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
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.builder import TrajectoryBuilder
from repro.core.trajectory import SemanticTrajectory
from repro.persist.format import PersistError
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
    lock → session ``build_lock`` (never the reverse).
    """

    def __init__(self, registry, session_name: str, name: str,
                 segmenter: WatermarkSegmenter,
                 directory: Optional[str],
                 fsync: bool = True,
                 checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
                 max_open_events: int = DEFAULT_MAX_OPEN_EVENTS,
                 relay: bool = False) -> None:
        self.registry = registry
        self.session_name = session_name
        self.name = name
        self.segmenter = segmenter
        self.directory = directory
        self.fsync = fsync
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.max_open_events = max(1, int(max_open_events))
        #: Relay mode (coordinator shards): closed episodes queue in
        #: :attr:`pending` and leave through append/close acks instead
        #: of entering the local session store — the harvester routes
        #: them by global id.  ``pending`` rides the checkpoint state,
        #: so a fold never strands an undelivered episode.
        self.relay = bool(relay)
        self.pending: List[SemanticTrajectory] = []
        self.lock = threading.Lock()
        self.journal: Optional[EventJournal] = None
        if directory is not None:
            self.journal = EventJournal(
                os.path.join(directory, JOURNAL_NAME), fsync=fsync)
        #: events durably acknowledged (journaled, or — memory-only
        #: streams — accepted into the segmenter).
        self.events_acked = 0
        #: episodes handed to the session store (WAL-journaled).
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
            result = {"appended": len(records),
                      "episodes_closed": len(closed),
                      "seq": (self.journal.last_seq
                              if self.journal is not None else 0)}
            if self.relay:
                result["episodes"] = self._drain_pending()
            return result

    def _store(self, episodes) -> None:
        """Closed episodes enter through the session's write path —
        the store WAL-journals them before indexing (caller holds the
        stream lock).  Relay streams queue them for the harvester
        instead; durability then comes from the event journal plus
        the pending list riding every checkpoint state."""
        if self.relay:
            self.pending.extend(episodes)
        else:
            session = self.registry.get(self.session_name)
            with session.build_lock:
                session.workbench.store.extend(episodes)
        self.episodes_stored += len(episodes)

    def _drain_pending(self) -> List[Dict]:
        """Hand every undelivered episode to the caller (relay mode;
        caller holds the stream lock).  At-least-once: a crash after
        the drain but before the harvester ingests regenerates these
        from the journal (or the checkpointed pending list), so the
        harvester must deduplicate by canonical content."""
        drained = [episode.to_dict() for episode in self.pending]
        self.pending = []
        return drained

    # -- checkpoint / recovery ------------------------------------------
    def state_payload(self) -> Dict[str, object]:
        """The checkpoint document :meth:`write_state` persists."""
        return {**self._state_fields(),
                "segmenter": self.segmenter.state_dict()}

    def _state_fields(self) -> Dict[str, object]:
        """Every :meth:`state_payload` field except ``segmenter``."""
        payload = {
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
        if self.relay:
            payload["relay"] = True
            payload["pending"] = [episode.to_dict()
                                  for episode in self.pending]
        return payload

    def write_state(self) -> None:
        """Atomically persist :meth:`state_payload` (tmp + rename).

        The file holds exactly ``canonical_json(state_payload())``,
        built around the segmenter's incrementally encoded
        :meth:`~repro.stream.segmenter.WatermarkSegmenter.state_json`
        so a fold costs what is open, not what has streamed."""
        if self.directory is None:
            return
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, STATE_NAME)
        temp = path + ".tmp"
        try:
            with open(temp, "wb") as sink:
                sink.write(splice_json(self._state_fields(),
                                       "segmenter",
                                       self.segmenter.state_json()))
                sink.write(b"\n")
                sink.flush()
                if self.fsync:
                    os.fsync(sink.fileno())
            os.replace(temp, path)
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
            self.checkpoint_every = max(1, int(
                state.get("checkpoint_every", self.checkpoint_every)))
            self.max_open_events = max(1, int(
                state.get("max_open_events", self.max_open_events)))
            self.events_acked = int(state.get("events_acked", 0))
            self.episodes_stored = int(state.get("episodes_stored", 0))
            self.checkpoints = int(state.get("checkpoints", 0))
            journal_seq = int(state.get("journal_seq", 0))
            self.segmenter.load_state(state.get("segmenter") or {})
            self.relay = bool(state.get("relay", self.relay))
            self.pending = [SemanticTrajectory.from_dict(item)
                            for item in state.get("pending") or []]
        self._episodes_at_checkpoint = self.segmenter.metrics.episodes
        if self.journal is None:
            return
        if self.relay:
            # Relay replay: regenerated episodes queue for the
            # harvester again — at-least-once, deduplicated there.
            for _, events, watermark in self.journal.records(
                    after_seq=journal_seq):
                closed = []
                for event in events:
                    closed.extend(self.segmenter.feed(
                        event_from_dict(event)))
                if watermark is not None:
                    closed.extend(self.segmenter.advance(watermark))
                self.events_acked += len(events)
                if closed:
                    self._store(closed)
            return
        stored_bytes = None
        session = self.registry.get(self.session_name)
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
                                for t in session.workbench.store}
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
                "relay": self.relay,
                "pending": len(self.pending),
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
            if self.relay:
                summary["episodes"] = self._drain_pending()
            if self.journal is not None:
                self.journal.close()
            if self.directory is not None:
                # A closed stream's episodes live in the session
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
    """The registry's stream table (created lazily by
    :meth:`SessionRegistry.stream_manager
    <repro.service.registry.SessionRegistry.stream_manager>`).

    Keyed by ``(session, stream)``.  Streams of durable sessions get
    a journal + checkpoint sidecar and are **recovered lazily**: a
    stream found on disk but not in memory (the post-restart case) is
    rebuilt on first access, replaying its journal tail.
    """

    def __init__(self, registry) -> None:
        self.registry = registry
        self._streams: Dict[Tuple[str, str], ServerStream] = {}
        self._lock = threading.Lock()

    # -- plumbing -------------------------------------------------------
    def _directory_for(self, session, stream: str) -> Optional[str]:
        if session.durable is None:
            return None
        from urllib.parse import quote

        return os.path.join(session.durable.directory, STREAMS_DIR,
                            quote(stream, safe=""))

    def _builder_for(self, session) -> TrajectoryBuilder:
        space = session.workbench.space
        if space is None:
            from repro.louvre.space import LouvreSpace

            space = LouvreSpace()
            session.workbench.space = space
        return TrajectoryBuilder(space.dataset_zone_nrg())

    @staticmethod
    def _fsync(session) -> bool:
        """The fsync setting of the durable session whose directory
        holds the stream's sidecar (unused for memory-only ones)."""
        return session.durable.fsync if session.durable is not None \
            else True

    # -- the protocol surface -------------------------------------------
    def open(self, session_name: str, stream: str,
             gap_seconds: Optional[float] = None,
             checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
             max_open_events: int = DEFAULT_MAX_OPEN_EVENTS,
             relay: bool = False) -> ServerStream:
        """Open (or return the already-open) named stream.

        Creates the session on first use, like ingest does.  An
        existing open stream is returned as-is (idempotent) — the
        shape arguments of the first open win.
        """
        session = self.registry.create(session_name)
        key = (session_name, stream)
        with self._lock:
            existing = self._streams.get(key)
            if existing is not None:
                return existing
            recovered = self._recover_locked(session, stream,
                                             relay=relay)
            if recovered is not None:
                return recovered
            segmenter = WatermarkSegmenter(
                self._builder_for(session), gap_seconds=gap_seconds)
            server_stream = ServerStream(
                self.registry, session_name, stream, segmenter,
                self._directory_for(session, stream),
                fsync=self._fsync(session),
                checkpoint_every=checkpoint_every,
                max_open_events=max_open_events,
                relay=relay)
            # The initial checkpoint records the stream's shape, so a
            # restart before the first fold still knows the stream.
            server_stream.write_state()
            self._streams[key] = server_stream
            return server_stream

    def get(self, session_name: str, stream: str) -> ServerStream:
        """The named stream, lazily recovered from disk.

        Raises:
            UnknownStreamError: never opened (or already closed).
        """
        key = (session_name, stream)
        with self._lock:
            held = self._streams.get(key)
            if held is not None:
                return held
            try:
                session = self.registry.get(session_name)
            except KeyError:
                # A stream that acked events but never closed an
                # episode leaves no session WAL, so a restarted
                # registry does not restore the session — only the
                # stream sidecar proves it existed.  Recreate the
                # session iff the sidecar is on disk.
                if self._sidecar_path(session_name, stream) is None:
                    raise UnknownStreamError(stream)
                session = self.registry.create(session_name)
            recovered = self._recover_locked(session, stream)
            if recovered is not None:
                return recovered
            raise UnknownStreamError(stream)

    def _sidecar_path(self, session_name: str,
                      stream: str) -> Optional[str]:
        """The stream's on-disk sidecar directory, or ``None`` when
        absent (mirrors the registry's percent-quoted layout)."""
        persist_dir = self.registry.persist_dir
        if persist_dir is None:
            return None
        from urllib.parse import quote

        path = os.path.join(persist_dir, quote(session_name, safe=""),
                            STREAMS_DIR, quote(stream, safe=""))
        return path if os.path.isdir(path) else None

    def _recover_locked(self, session, stream: str,
                        relay: bool = False
                        ) -> Optional[ServerStream]:
        """Rebuild a stream from its sidecar directory, if present.

        ``relay`` is only the fallback for a sidecar whose state file
        is missing or torn — a checkpointed state overrides it."""
        directory = self._directory_for(session, stream)
        if directory is None or not os.path.isdir(directory):
            return None
        segmenter = WatermarkSegmenter(self._builder_for(session))
        server_stream = ServerStream(
            self.registry, session.name, stream, segmenter,
            directory, fsync=self._fsync(session), relay=relay)
        server_stream.recover()
        self._streams[(session.name, stream)] = server_stream
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
