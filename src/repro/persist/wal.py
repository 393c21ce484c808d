"""The append-only record log behind every durable write.

One log = one file of JSON lines, each line a *record*: a JSON body
plus its sequence number and a checksum over both::

    {**body, "crc": "<sha256[:16] of {**body, "seq": N}>", "seq": N}

(keys sorted, canonical JSON; every body key sorts after ``crc``, so
one encoding per append yields both the checksum and the line).  Two
record kinds share the format and all of the machinery below:

* :class:`WriteAheadLog` — a session's trajectory batches, bodies
  ``{"docs": [...]}`` of :meth:`SemanticTrajectory.to_dict
  <repro.core.trajectory.SemanticTrajectory.to_dict>` payloads;
* :class:`~repro.stream.manager.EventJournal` — a live stream's
  event batches, bodies ``{"events": [...], "watermark": W}``.

``seq`` increases strictly monotonically across the log's whole
lifetime — it never restarts, even across :meth:`RecordLog.reset` —
so a snapshot can record the highest sequence it folded in (its
``wal_seq`` watermark) and recovery replays exactly the records past
it, regardless of crashes between "snapshot written" and "log
truncated".

Durability and crash tolerance:

* ``append`` returns only after its record is written, flushed, and
  (by default) fsynced — an acknowledged append survives a process
  kill.
* A torn final write (partial line, bad JSON, checksum mismatch,
  non-monotonic sequence, a body without its list field) marks the
  *end* of the valid log: replay stops there, and the next append
  truncates the garbage tail first.  Every valid prefix of a log is
  itself a valid log, which is what the crash-recovery property tests
  exercise.

Group commit
------------

Appends are thread-safe, and concurrent appenders **share** fsyncs
rather than queueing behind them: each appender encodes its record
under the sequencing mutex, enqueues the line, and blocks on the
commit barrier; whichever thread finds no flush in progress becomes
the *leader*, writes every queued line in one ``write`` and one
``fsync``, then wakes the group.  An appender's ack still means "this
exact record is on stable storage" — durability semantics are
unchanged — but under N concurrent writers the per-record fsync cost
drops toward 1/N (:attr:`RecordLog.group_flushes` vs
:attr:`RecordLog.appends` shows the achieved coalescing).  A failed
flush fails exactly the appenders whose lines were in that group;
later appends retry on a reopened, truncated-to-valid sink.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import IO, Iterator, List, Optional, Sequence, Tuple

from repro.core.trajectory import SemanticTrajectory
from repro.persist.format import PersistError
from repro.service.protocol import canonical_json


def record_crc(body: dict, seq: int) -> str:
    """The checksum of one record: over its body plus ``seq``."""
    raw = canonical_json({**body, "seq": seq})
    return hashlib.sha256(raw).hexdigest()[:16]


def record_line(body: dict, seq: int) -> bytes:
    """The exact bytes one record occupies in a log file:
    ``canonical_json({**body, "crc": crc, "seq": seq})`` plus a
    newline, from one encoding of ``{**body, "seq": seq}`` — the
    bytes the checksum covers, with ``crc`` spliced in first.

    Raises:
        ValueError: for a body key sorting at or before ``"crc"``
            (the splice would put ``crc`` out of sorted order).
    """
    for key in body:
        if key <= "crc":
            raise ValueError("record body key {!r} does not sort after "
                             "'crc'".format(key))
    raw = canonical_json({**body, "seq": seq})
    crc = hashlib.sha256(raw).hexdigest()[:16].encode("ascii")
    # One join, no slice copy: a batch record can be megabytes.
    return b"".join((b'{"crc":"', crc, b'",', memoryview(raw)[1:],
                     b"\n"))


class RecordLog:
    """An append-only log of checksummed JSON records.

    The record kinds subclass it: each names the body field that must
    hold a list (:attr:`list_field`) and wraps :meth:`append_record`
    and :meth:`bodies` in its own typed ``append``/``records``.

    Args:
        path: the log file (created on first append).
        fsync: fsync after every append (the durability default);
            ``False`` trades an acknowledged-write guarantee for
            append throughput.
        start_seq: lowest sequence number the *next* append may use;
            the opener passes the current snapshot's watermark + 1 so
            sequences stay monotonic even when the log file itself
            was truncated away.
    """

    #: Body field every valid record carries as a JSON list.
    list_field = ""

    def __init__(self, path: str, fsync: bool = True,
                 start_seq: int = 1) -> None:
        self.path = path
        self.fsync = fsync
        self._sink: Optional[IO[bytes]] = None
        last_seq, valid_bytes = self._scan()
        self._next_seq = max(int(start_seq), last_seq + 1)
        self._valid_bytes = valid_bytes
        # Group-commit state: the condition's mutex orders sequence
        # allocation and the pending queue; the barrier fields track
        # which sequences are on stable storage (committed), being
        # flushed by a leader, or died with a failed flush.
        self._commit = threading.Condition(threading.Lock())
        self._pending: List[bytes] = []
        self._pending_last_seq = self._next_seq - 1
        self._committed_seq = self._next_seq - 1
        self._flushing = False
        self._failed_upto = 0
        self._flush_error: Optional[PersistError] = None
        #: Appends acknowledged over the log's lifetime.
        self.appends = 0
        #: Physical ``write``+fsync groups that carried them; the
        #: ratio to :attr:`appends` is the group-commit coalescing.
        self.group_flushes = 0

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _scan(self) -> Tuple[int, int]:
        """``(last valid seq, valid byte length)`` of the file."""
        last_seq = 0
        valid = 0
        for seq, _, end in self._iter_raw():
            last_seq = seq
            valid = end
        return last_seq, valid

    def _iter_raw(self) -> Iterator[Tuple[int, dict, int]]:
        """Yield ``(seq, body, end_offset)`` per valid record.

        Stops silently at the first torn/corrupt/non-monotonic
        record — the crash-recovery contract — so a truncated tail
        never poisons the valid prefix before it.
        """
        try:
            source = open(self.path, "rb")
        except FileNotFoundError:
            return
        with source:
            offset = 0
            last_seq = 0
            for line in source:
                end = offset + len(line)
                if not line.endswith(b"\n"):
                    return  # torn final write
                try:
                    body = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, ValueError):
                    return
                if not isinstance(body, dict):
                    return
                seq = body.pop("seq", None)
                crc = body.pop("crc", None)
                if not isinstance(seq, int) \
                        or not isinstance(body.get(self.list_field),
                                          list) \
                        or seq <= last_seq:
                    return
                if crc != record_crc(body, seq):
                    return
                yield seq, body, end
                last_seq = seq
                offset = end

    def bodies(self, after_seq: int = 0) -> Iterator[Tuple[int, dict]]:
        """``(seq, body)`` of every valid record past ``after_seq``,
        oldest first."""
        for seq, body, _ in self._iter_raw():
            if seq > after_seq:
                yield seq, body

    @property
    def last_seq(self) -> int:
        """Highest sequence number allocated so far (0 when none).

        This is the watermark a checkpoint records: every record at
        or below it is covered by the snapshot being written.
        """
        return self._next_seq - 1

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_raw())

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _open_sink(self) -> IO[bytes]:
        if self._sink is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            sink = open(self.path, "ab")
            # Drop a torn tail before the first new write, so the
            # file stays one valid prefix.
            if sink.tell() > self._valid_bytes:
                sink.truncate(self._valid_bytes)
                sink.seek(self._valid_bytes)
            self._sink = sink
        return self._sink

    def append_record(self, body: dict) -> int:
        """Durably append one record; returns its sequence number.

        Thread-safe: concurrent appenders are group-committed (one
        ``write`` + one ``fsync`` per group — see the module notes);
        the return still means the record is on stable storage.

        Raises:
            PersistError: when the flush carrying this record fails.
            ValueError: for a body :func:`record_line` cannot encode.
        """
        with self._commit:
            seq = self._next_seq
            # Encoded under the mutex: lines must enter the queue in
            # sequence order, or a flush could persist a gap-free
            # file whose sequences run backwards (replay would stop).
            # A body record_line rejects takes no sequence.
            self._pending.append(record_line(body, seq))
            self._next_seq = seq + 1
            self._pending_last_seq = seq
            while True:
                if self._committed_seq >= seq:
                    self.appends += 1
                    return seq
                if seq <= self._failed_upto:
                    raise self._flush_error
                if not self._flushing:
                    break  # become the flush leader
                self._commit.wait()
            self._flushing = True
            lines = self._pending
            self._pending = []
            flush_upto = self._pending_last_seq
        # Leader: one write + one fsync for the whole group, outside
        # the mutex so followers can keep enqueuing the next group.
        data = b"".join(lines)
        error: Optional[PersistError] = None
        try:
            sink = self._open_sink()
            sink.write(data)
            sink.flush()
            if self.fsync:
                os.fsync(sink.fileno())
        except OSError as os_error:
            # The write may have left torn bytes past _valid_bytes
            # (ENOSPC mid-line, failed fsync).  Close the sink so the
            # next flush reopens and truncates back to the valid
            # prefix — an unacknowledged record must never shadow a
            # later acknowledged one.
            try:
                self.close()
            except Exception:  # pragma: no cover
                pass
            error = PersistError(
                "cannot append to log {}: {}".format(self.path,
                                                     os_error))
        with self._commit:
            self._flushing = False
            if error is None:
                self._committed_seq = flush_upto
                self._valid_bytes += len(data)
                self.group_flushes += 1
            elif len(lines) == 1 and not self._pending \
                    and self._next_seq == flush_upto + 1:
                # The failed group was just this record and nothing
                # was allocated past it: reclaim the sequence, so a
                # retry reuses it (single-writer logs stay gap-free).
                self._next_seq = flush_upto
                self._pending_last_seq = flush_upto - 1
            else:
                # Exactly this group's sequences died; appenders past
                # flush_upto stay pending and elect the next leader
                # (the gap is fine — replay only needs sequences to
                # increase).
                self._failed_upto = flush_upto
                self._flush_error = error
            self._commit.notify_all()
            if error is not None:
                raise error
            self.appends += 1
            return seq

    def reset(self, next_seq: Optional[int] = None) -> None:
        """Truncate the log (after its records were folded into a
        snapshot).

        Sequence numbers keep climbing: the next append uses
        ``next_seq`` when given, else continues past the highest
        sequence ever written here.
        """
        with self._commit:
            # Let any in-flight commit group land before truncating:
            # a leader's write racing the truncate could resurrect
            # bytes past the new (empty) valid prefix.
            while self._flushing or self._pending:
                self._commit.wait()
        self.close()
        try:
            with open(self.path, "wb"):
                pass
        except FileNotFoundError:
            pass
        except OSError as error:
            raise PersistError(
                "cannot reset log {}: {}".format(self.path, error))
        self._valid_bytes = 0
        if next_seq is not None:
            self._next_seq = max(self._next_seq, int(next_seq))

    def close(self) -> None:
        """Close the underlying file handle (reopened on demand)."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return "{}({!r}, next_seq={})".format(
            type(self).__name__, self.path, self._next_seq)


class WriteAheadLog(RecordLog):
    """A session's trajectory log: records ``{"docs": [...]}``."""

    list_field = "docs"

    def append(self, trajectories: Sequence[SemanticTrajectory]
               ) -> int:
        """Durably append one batch; returns its sequence number.

        Empty batches are not logged (returns :attr:`last_seq`).

        Raises:
            PersistError: when the flush carrying this record fails.
        """
        batch = list(trajectories)
        if not batch:
            return self.last_seq
        # The expensive half of encoding stays outside the log mutex.
        return self.append_record(
            {"docs": [trajectory.to_dict() for trajectory in batch]})

    def records(self, after_seq: int = 0
                ) -> Iterator[Tuple[int, List[SemanticTrajectory]]]:
        """Valid records with ``seq > after_seq``, oldest first.

        Raises:
            PersistError: when a *checksum-valid* record fails to
                decode into trajectories (a format bug, not a torn
                write — this must not be silently skipped).
        """
        for seq, body in self.bodies(after_seq):
            try:
                yield seq, [SemanticTrajectory.from_dict(doc)
                            for doc in body["docs"]]
            except (KeyError, TypeError, ValueError) as error:
                raise PersistError(
                    "undecodable log record seq={}: {}".format(
                        seq, error))

    def replay_into(self, store, after_seq: int = 0) -> int:
        """Apply every record past ``after_seq`` to ``store``.

        The store must *not* have this log attached while replaying
        (it would re-log its own recovery).  Returns the highest
        sequence applied (``after_seq`` when none were).
        """
        last = after_seq
        for seq, batch in self.records(after_seq):
            store.extend(batch)
            last = seq
        return last
