"""The record log: append/replay, torn tails, sequence monotony.

The crash, failed-append and reset tests run over both record kinds
that share :class:`~repro.persist.wal.RecordLog` — the session
:class:`WriteAheadLog` and the stream :class:`EventJournal` — and the
golden-bytes tests pin the exact line of each kind on disk.
"""

from __future__ import annotations

import json

import pytest

from repro.persist.format import PersistError
from repro.persist.wal import WriteAheadLog
from repro.service.protocol import canonical_json
from repro.storage.store import TrajectoryStore
from repro.stream.manager import EventJournal
from tests.conftest import make_trajectory


def docs(count, offset=0):
    return [make_trajectory(mo_id="mo-{}".format(offset + i),
                            start=1000.0 + 13.0 * (offset + i))
            for i in range(count)]


def store_bytes(store):
    return canonical_json([t.to_dict() for t in store])


class WalRecords:
    """Session-WAL records: batch ``i`` is one trajectory ``mo-<i>``."""

    log = WriteAheadLog

    @staticmethod
    def append(log, i):
        return log.append(docs(1, offset=i))

    @staticmethod
    def ids(log):
        return [t.mo_id for _, batch in log.records() for t in batch]


class JournalRecords:
    """Stream-journal records: batch ``i`` is one event of ``mo-<i>``."""

    log = EventJournal

    @staticmethod
    def append(log, i):
        return log.append([{"mo_id": "mo-{}".format(i), "state": "z",
                            "t_start": 60.0 * i,
                            "t_end": 60.0 * i + 30.0}],
                          watermark=None)

    @staticmethod
    def ids(log):
        return [event["mo_id"] for _, events, _ in log.records()
                for event in events]


def seqs(log):
    return [record[0] for record in log.records()]


class TestAppendReplay:
    def test_round_trip(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        batch_a, batch_b = docs(3), docs(2, offset=3)
        assert wal.append(batch_a) == 1
        assert wal.append(batch_b) == 2
        store = TrajectoryStore()
        assert wal.replay_into(store) == 2
        reference = TrajectoryStore()
        reference.extend(batch_a + batch_b)
        assert store_bytes(store) == store_bytes(reference)

    def test_empty_batch_not_logged(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        wal.append([])
        assert wal.last_seq == 0
        assert len(wal) == 0

    def test_reopen_continues_sequence(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append(docs(1))
        wal.close()
        again = WriteAheadLog(path)
        assert again.append(docs(1, offset=1)) == 2
        assert [seq for seq, _ in again.records()] == [1, 2]

    def test_after_seq_filter(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        for i in range(4):
            wal.append(docs(1, offset=i))
        assert [seq for seq, _ in wal.records(after_seq=2)] == [3, 4]
        store = TrajectoryStore()
        wal.replay_into(store, after_seq=2)
        assert len(store) == 2

    def test_undecodable_record_raises(self, tmp_path):
        """A checksum-valid record whose docs do not decode is a
        format bug: it raises instead of ending the log quietly."""
        from repro.persist.wal import record_line

        path = tmp_path / "wal.log"
        path.write_bytes(record_line({"docs": [{"mo_id": "x"}]}, 1))
        with pytest.raises(PersistError, match="undecodable"):
            list(WriteAheadLog(str(path)).records())

    def test_store_attachment_journals_writes(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        store = TrajectoryStore()
        store.attach_wal(wal)
        store.insert(make_trajectory(mo_id="one"))
        store.extend(docs(2, offset=1))
        recovered = TrajectoryStore()
        WriteAheadLog(str(tmp_path / "wal.log")).replay_into(recovered)
        assert store_bytes(recovered) == store_bytes(store)
        assert store.detach_wal() is wal
        store.insert(make_trajectory(mo_id="untracked"))
        assert len(wal) == 2  # nothing logged after detach


class TestCrashTolerance:
    """Over the session WAL; the ``TestJournal*`` subclasses below
    rerun every case over the stream journal."""

    records = WalRecords

    def reopen(self, path):
        return self.records.log(str(path))

    def test_torn_tail_is_ignored(self, tmp_path):
        path = tmp_path / "records.log"
        log = self.reopen(path)
        self.records.append(log, 0)
        self.records.append(log, 1)
        log.close()
        raw = path.read_bytes()
        first_line_end = raw.index(b"\n") + 1
        # cut mid-way through the second record
        path.write_bytes(raw[: first_line_end + 25])
        assert seqs(self.reopen(path)) == [1]

    def test_append_after_torn_tail_truncates_it(self, tmp_path):
        path = tmp_path / "records.log"
        log = self.reopen(path)
        self.records.append(log, 0)
        log.close()
        raw = path.read_bytes()
        path.write_bytes(raw + b'{"crc": "torn", "seq": 2, [')
        reopened = self.reopen(path)
        assert self.records.append(reopened, 1) == 2
        assert seqs(reopened) == [1, 2]
        # the file itself is one valid prefix again
        for line in path.read_bytes().splitlines():
            json.loads(line)

    def test_checksum_mismatch_ends_valid_prefix(self, tmp_path):
        path = tmp_path / "records.log"
        log = self.reopen(path)
        self.records.append(log, 0)
        self.records.append(log, 1)
        log.close()
        lines = path.read_bytes().splitlines(keepends=True)
        tampered = lines[1].replace(b'"mo-1"', b'"mo-X"', 1)
        assert tampered != lines[1]
        path.write_bytes(lines[0] + tampered)
        assert seqs(self.reopen(path)) == [1]

    def test_non_monotonic_seq_rejected(self, tmp_path):
        path = tmp_path / "records.log"
        log = self.reopen(path)
        self.records.append(log, 0)
        log.close()
        raw = path.read_bytes()
        path.write_bytes(raw + raw)  # replayed duplicate of seq 1
        assert seqs(self.reopen(path)) == [1]

    def test_missing_list_field_ends_valid_prefix(self, tmp_path):
        """A checksum-valid record whose list field is not a list is
        the end of the log, not a record."""
        from repro.persist.wal import record_line

        path = tmp_path / "records.log"
        log = self.reopen(path)
        self.records.append(log, 0)
        log.close()
        field = self.records.log.list_field
        with open(path, "ab") as sink:
            sink.write(record_line({field: "not-a-list"}, 2))
        assert seqs(self.reopen(path)) == [1]


class TestFailedAppend:
    records = WalRecords

    def test_failed_fsync_does_not_shadow_later_appends(
            self, tmp_path, monkeypatch):
        """A failed append may leave bytes on disk, but the next
        successful append must truncate them — an unacknowledged
        record never hides an acknowledged one from replay."""
        import os as os_module

        path = tmp_path / "records.log"
        log = self.records.log(str(path), fsync=True)
        self.records.append(log, 0)

        real_fsync = os_module.fsync

        def exploding_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr("repro.persist.wal.os.fsync",
                            exploding_fsync)
        with pytest.raises(PersistError):
            self.records.append(log, 1)
        monkeypatch.setattr("repro.persist.wal.os.fsync", real_fsync)

        # the failed record's sequence is reused: no gap, no ghost
        assert self.records.append(log, 2) == 2
        reopened = self.records.log(str(path))
        assert seqs(reopened) == [1, 2]
        assert self.records.ids(reopened) == ["mo-0", "mo-2"]


class TestReset:
    records = WalRecords

    def test_reset_truncates_but_sequence_climbs(self, tmp_path):
        log = self.records.log(str(tmp_path / "records.log"))
        self.records.append(log, 0)
        self.records.append(log, 1)
        log.reset()
        assert len(log) == 0
        assert list(log.records()) == []
        assert self.records.append(log, 2) == 3

    def test_start_seq_floor_survives_truncation(self, tmp_path):
        # A checkpointed session whose log was truncated must not
        # reuse sequence numbers at or below the snapshot watermark.
        log = self.records.log(str(tmp_path / "records.log"),
                               start_seq=11)
        assert self.records.append(log, 0) == 11


class TestJournalCrashTolerance(TestCrashTolerance):
    records = JournalRecords


class TestJournalFailedAppend(TestFailedAppend):
    records = JournalRecords


class TestJournalReset(TestReset):
    records = JournalRecords


class TestGoldenBytes:
    """The exact bytes of each record kind: ``{**body, "crc", "seq"}``
    with the CRC over ``{**body, "seq"}``.  Logs and stream sidecars
    written in this format must keep opening unchanged."""

    def test_wal_record_line(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(str(path), fsync=False)
        assert wal.append([make_trajectory(mo_id="mo-0")]) == 1
        wal.close()
        assert path.read_bytes() == (
            b'{"crc":"b360607cee31b432","docs":[{"annotations":[{'
            b'"confidence":null,"kind":"goal","link":null,'
            b'"source":null,"value":"visit"}],"mo_id":"mo-0",'
            b'"t_end":1320.0,"t_start":1000.0,"trace":[{'
            b'"annotations":[],"state":"a","t_end":1100.0,'
            b'"t_start":1000.0,"transition":null,'
            b'"transition_annotations":[]},{"annotations":[],'
            b'"state":"b","t_end":1210.0,"t_start":1110.0,'
            b'"transition":"door-a-b","transition_annotations":[]},'
            b'{"annotations":[],"state":"c","t_end":1320.0,'
            b'"t_start":1220.0,"transition":"door-b-c",'
            b'"transition_annotations":[]}]}],"seq":1}\n')
        assert WalRecords.ids(WriteAheadLog(str(path))) == ["mo-0"]

    def test_journal_record_lines(self, tmp_path):
        path = tmp_path / "events.log"
        journal = EventJournal(str(path), fsync=False)
        first = [{"mo_id": "a", "state": "z", "t_start": 0.0,
                  "t_end": 1.0}]
        second = [{"mo_id": "a", "state": "z", "t_start": 5.0,
                   "t_end": 6.0}]
        assert journal.append(first, watermark=None) == 1
        assert journal.append(second, watermark=9.5) == 2
        journal.close()
        assert path.read_bytes() == (
            b'{"crc":"409aa884d1ac905f","events":[{"mo_id":"a",'
            b'"state":"z","t_end":1.0,"t_start":0.0}],"seq":1,'
            b'"watermark":null}\n'
            b'{"crc":"5021ed578051f8c9","events":[{"mo_id":"a",'
            b'"state":"z","t_end":6.0,"t_start":5.0}],"seq":2,'
            b'"watermark":9.5}\n')
        reopened = EventJournal(str(path), fsync=False)
        assert list(reopened.records()) == [(1, first, None),
                                            (2, second, 9.5)]
        assert reopened.last_seq == 2

    def test_wal_record_with_non_ascii_and_float_times(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(str(path), fsync=False)
        trajectory = make_trajectory(
            mo_id="visiteur-é中", states=("salle-Å", "b"),
            start=1000.25, dwell=0.1, gap=1e-7)
        assert wal.append([trajectory]) == 1
        wal.close()
        assert path.read_bytes() == (
            b'{"crc":"2197d254174ecaf9","docs":[{"annotations":[{'
            b'"confidence":null,"kind":"goal","link":null,'
            b'"source":null,"value":"visit"}],'
            b'"mo_id":"visiteur-\\u00e9\\u4e2d","t_end":1000.4500001,'
            b'"t_start":1000.25,"trace":[{"annotations":[],'
            b'"state":"salle-\\u00c5","t_end":1000.35,'
            b'"t_start":1000.25,"transition":null,'
            b'"transition_annotations":[]},{"annotations":[],'
            b'"state":"b","t_end":1000.4500001,'
            b'"t_start":1000.3500001,'
            b'"transition":"door-salle-\\u00c5-b",'
            b'"transition_annotations":[]}]}],"seq":1}\n')
        assert WalRecords.ids(WriteAheadLog(str(path))) \
            == ["visiteur-é中"]

    def test_journal_watermarks_none_int_and_float(self, tmp_path):
        path = tmp_path / "events.log"
        journal = EventJournal(str(path), fsync=False)
        first = [{"mo_id": "é", "state": "z", "t_start": 0.1,
                  "t_end": 2, "visit_id": "vø"}]
        third = [{"mo_id": "b", "state": "z", "t_start": 1e-9,
                  "t_end": 1e16}]
        assert journal.append(first, watermark=None) == 1
        assert journal.append([], watermark=7) == 2
        assert journal.append(third, watermark=1234.5678) == 3
        journal.close()
        assert path.read_bytes() == (
            b'{"crc":"2f1c2b9a86ee3df5","events":[{"mo_id":"\\u00e9",'
            b'"state":"z","t_end":2,"t_start":0.1,'
            b'"visit_id":"v\\u00f8"}],"seq":1,"watermark":null}\n'
            b'{"crc":"e91decd1332ccb35","events":[],"seq":2,'
            b'"watermark":7}\n'
            b'{"crc":"e444deab65ccd6e7","events":[{"mo_id":"b",'
            b'"state":"z","t_end":1e+16,"t_start":1e-09}],"seq":3,'
            b'"watermark":1234.5678}\n')
        assert list(EventJournal(str(path)).records()) == [
            (1, first, None), (2, [], 7), (3, third, 1234.5678)]

    def test_line_is_the_one_encoding_with_crc_spliced_in(self):
        from repro.persist.wal import record_crc, record_line

        body = {"events": [{"mo_id": "é"}], "watermark": 0.5}
        assert record_line(body, 9) == canonical_json(
            {**body, "crc": record_crc(body, 9), "seq": 9}) + b"\n"

    @pytest.mark.parametrize("key", ["crc", "aaa", "Z", "cr"])
    def test_body_key_sorting_before_crc_raises(self, tmp_path, key):
        from repro.persist.wal import record_line

        with pytest.raises(ValueError):
            record_line({key: 1, "docs": []}, 1)
        log = WriteAheadLog(str(tmp_path / "wal.log"), fsync=False)
        with pytest.raises(ValueError):
            log.append_record({key: 1, "docs": []})
        assert log.append_record({"docs": []}) == 1  # no seq taken
