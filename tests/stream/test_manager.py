"""Durable stream manager tests: checkpoint, crash recovery.

The event journal's own log tests (torn tails, failed fsyncs, reset,
its exact bytes) run in ``tests/persist/test_wal.py``.

``kill -9`` is simulated the same way the persistence tests do it:
abandon the live :class:`SessionRegistry`/:class:`StreamManager` pair
without any shutdown and build fresh ones over the same persist
directory — whatever survives is exactly what fsync'd state survives
a real crash (the CI ``stream-smoke`` job does the genuine SIGKILL).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.builder import TrajectoryBuilder
from repro.service.protocol import canonical_json
from repro.service.registry import SessionRegistry
from repro.stream.manager import (
    StreamManager,
    StreamOverloadedError,
    UnknownStreamError,
)
from repro.stream.segmenter import event_to_dict
from tests.stream.test_segmenter import content_bytes, interleave

# Real dataset-NRG zones (the manager builds from LouvreSpace).
ZONES = ["zone60886", "zone60887", "zone60888"]
GAP = 4 * 3600.0  # the builder's default visit gap

SESSION = "stream-session"
STREAM = "feed"


def ev(mo_id, state, t_start, duration=60.0, visit_id=None):
    event = {"mo_id": mo_id, "state": state, "t_start": t_start,
             "t_end": t_start + duration}
    if visit_id is not None:
        event["visit_id"] = visit_id
    return event


def walk(mo_id, t0, zones=ZONES, dwell=60.0, visit_id=None):
    """One visitor's dwell sequence through ``zones``."""
    return [ev(mo_id, zone, t0 + i * dwell, dwell, visit_id=visit_id)
            for i, zone in enumerate(zones)]


@pytest.fixture
def persist_dir(tmp_path):
    return str(tmp_path / "data")


def make_manager(persist_dir=None):
    registry = SessionRegistry(persist_dir=persist_dir, fsync=False)
    return registry, registry.stream_manager()


class TestLifecycle:
    def test_open_append_close_stores_episodes(self, persist_dir):
        registry, manager = make_manager(persist_dir)
        stream = manager.open(SESSION, STREAM)
        result = stream.append(walk("alice", 0.0), watermark=None)
        assert result["appended"] == 3
        assert result["episodes_closed"] == 0
        # the watermark passing the gap closes alice's episode
        stream.append([], watermark=3 * 60.0 + GAP + 1.0)
        store = registry.get(SESSION).workbench.store
        assert len(store) == 1
        summary = manager.close(SESSION, STREAM)
        assert summary["events_acked"] == 3
        assert summary["episodes_total"] == 1

    def test_open_is_idempotent(self, persist_dir):
        _, manager = make_manager(persist_dir)
        first = manager.open(SESSION, STREAM)
        assert manager.open(SESSION, STREAM) is first

    def test_close_flushes_open_episodes(self, persist_dir):
        registry, manager = make_manager(persist_dir)
        stream = manager.open(SESSION, STREAM)
        stream.append(walk("alice", 0.0), watermark=None)
        summary = manager.close(SESSION, STREAM)
        assert summary["episodes_closed"] == 1
        assert len(registry.get(SESSION).workbench.store) == 1

    def test_unknown_stream_raises(self, persist_dir):
        _, manager = make_manager(persist_dir)
        with pytest.raises(UnknownStreamError):
            manager.get(SESSION, "nope")
        with pytest.raises(UnknownStreamError):
            manager.close(SESSION, "nope")

    def test_closed_stream_is_gone_for_good(self, persist_dir):
        registry, manager = make_manager(persist_dir)
        stream = manager.open(SESSION, STREAM)
        stream.append(walk("alice", 0.0), watermark=None)
        manager.close(SESSION, STREAM)
        with pytest.raises(UnknownStreamError):
            manager.get(SESSION, STREAM)
        # ... including across a restart (the sidecar was retired)
        registry2, manager2 = make_manager(registry.persist_dir)
        with pytest.raises(UnknownStreamError):
            manager2.get(SESSION, STREAM)
        # but the episodes it stored are still there
        assert len(registry2.get(SESSION).workbench.store) == 1

    def test_dropped_session_forgets_its_streams(self, persist_dir):
        from repro.service import protocol as P

        registry, manager = make_manager(persist_dir)
        manager.open(SESSION, STREAM).append(walk("alice", 0.0),
                                             watermark=None)
        registry.drop(SESSION)
        # the next append would close alice into a dropped session
        response = registry.execute_command(P.AppendEvents(
            session=SESSION, stream=STREAM, watermark=GAP * 2))
        assert isinstance(response, P.ErrorInfo)
        assert response.code == "unknown_stream"

    def test_memory_only_registry_streams_work(self):
        registry, manager = make_manager(None)
        stream = manager.open(SESSION, STREAM)
        stream.append(walk("alice", 0.0), watermark=None)
        assert stream.status()["durable"] is False
        summary = manager.close(SESSION, STREAM)
        assert summary["episodes_closed"] == 1
        assert len(registry.get(SESSION).workbench.store) == 1

    def test_status_shape(self, persist_dir):
        _, manager = make_manager(persist_dir)
        stream = manager.open(SESSION, STREAM)
        stream.append(walk("alice", 0.0), watermark=100.0)
        status = stream.status()
        assert status["watermark"] == 100.0
        assert status["open_buffers"] == 1
        assert status["open_events"] == 3
        assert status["events_acked"] == 3
        assert status["durable"] is True

    def test_manager_report_aggregates(self, persist_dir):
        _, manager = make_manager(persist_dir)
        manager.open(SESSION, "a").append(walk("alice", 0.0),
                                          watermark=50.0)
        manager.open(SESSION, "b").append(walk("bob", 10.0),
                                          watermark=90.0)
        report = manager.report()
        assert report["open"] == 2
        assert report["events_acked"] == 6
        assert report["watermark_min"] == 50.0


class TestBackpressure:
    def test_overload_rejects_before_ack(self, persist_dir):
        _, manager = make_manager(persist_dir)
        stream = manager.open(SESSION, STREAM, max_open_events=4)
        stream.append(walk("alice", 0.0), watermark=None)
        with pytest.raises(StreamOverloadedError):
            stream.append(walk("bob", 0.0), watermark=None)
        # nothing of the rejected batch was acked or journaled
        assert stream.events_acked == 3
        assert stream.journal.last_seq == 1

    def test_watermark_drains_the_overload(self, persist_dir):
        _, manager = make_manager(persist_dir)
        stream = manager.open(SESSION, STREAM, max_open_events=4)
        stream.append(walk("alice", 0.0), watermark=None)
        # the watermark closes alice's episode, freeing the buffer
        stream.append([], watermark=3 * 60.0 + GAP + 1.0)
        assert stream.append(walk("bob", GAP * 2),
                             watermark=None)["appended"] == 3

    def test_malformed_event_acks_nothing(self, persist_dir):
        _, manager = make_manager(persist_dir)
        stream = manager.open(SESSION, STREAM)
        with pytest.raises(ValueError):
            stream.append([ev("alice", ZONES[0], 0.0),
                           {"mo_id": "x"}], watermark=None)
        assert stream.events_acked == 0
        assert stream.journal.last_seq == 0


class TestRecovery:
    def test_restart_recovers_open_stream(self, persist_dir):
        registry, manager = make_manager(persist_dir)
        stream = manager.open(SESSION, STREAM)
        stream.append(walk("alice", 0.0), watermark=None)
        # crash: no close, no checkpoint — only journal + state v0
        registry2, manager2 = make_manager(persist_dir)
        stream2 = manager2.get(SESSION, STREAM)
        assert stream2.events_acked == 3
        assert stream2.segmenter.open_events == 3
        summary = manager2.close(SESSION, STREAM)
        assert summary["episodes_closed"] == 1
        assert len(registry2.get(SESSION).workbench.store) == 1

    def test_restart_before_any_episode_closed(self, persist_dir):
        """Acked events with no session WAL yet still survive —
        the sidecar alone is enough to resurrect the session."""
        registry, manager = make_manager(persist_dir)
        manager.open(SESSION, STREAM).append(walk("alice", 0.0),
                                             watermark=None)
        session_dir = registry.get(SESSION).durable.directory
        assert not os.path.exists(os.path.join(session_dir,
                                               "wal.log"))
        _, manager2 = make_manager(persist_dir)
        assert manager2.get(SESSION, STREAM).events_acked == 3

    def test_no_double_store_when_crash_precedes_checkpoint(
            self, persist_dir):
        """The nasty window: episodes stored (session WAL has them),
        journal not yet folded.  Replay regenerates them; the content
        dedup must skip every one."""
        registry, manager = make_manager(persist_dir)
        stream = manager.open(SESSION, STREAM)  # checkpoint_every=64
        stream.append(walk("alice", 0.0), watermark=None)
        stream.append(walk("bob", 100.0), watermark=None)
        stream.append([], watermark=GAP * 2)  # closes both episodes
        assert len(registry.get(SESSION).workbench.store) == 2
        assert stream.journal.last_seq == 3  # journal NOT folded
        registry2, manager2 = make_manager(persist_dir)
        stream2 = manager2.get(SESSION, STREAM)
        store = registry2.get(SESSION).workbench.store
        assert len(store) == 2  # deduped, not doubled
        assert stream2.episodes_stored == 2
        assert stream2.events_acked == 6

    def test_checkpoint_folds_journal(self, persist_dir):
        registry, manager = make_manager(persist_dir)
        stream = manager.open(SESSION, STREAM, checkpoint_every=1)
        stream.append(walk("alice", 0.0), watermark=None)
        stream.append([], watermark=GAP * 2)  # close → checkpoint
        assert stream.checkpoints == 1
        assert list(stream.journal.records()) == []  # folded
        state = json.load(open(os.path.join(stream.directory,
                                            "stream-state.json")))
        assert state["events_acked"] == 3
        # restart restores from the snapshot alone
        registry2, manager2 = make_manager(persist_dir)
        stream2 = manager2.get(SESSION, STREAM)
        assert stream2.events_acked == 3
        assert stream2.checkpoints == 1
        assert len(registry2.get(SESSION).workbench.store) == 1

    def test_recovery_replays_only_past_the_checkpoint(
            self, persist_dir):
        registry, manager = make_manager(persist_dir)
        stream = manager.open(SESSION, STREAM, checkpoint_every=1)
        stream.append(walk("alice", 0.0), watermark=None)
        stream.append([], watermark=GAP * 2)  # checkpoint here
        stream.append(walk("bob", GAP * 2), watermark=None)  # tail
        registry2, manager2 = make_manager(persist_dir)
        stream2 = manager2.get(SESSION, STREAM)
        assert stream2.events_acked == 6
        assert stream2.segmenter.open_events == 3  # bob's buffer
        manager2.close(SESSION, STREAM)
        assert len(registry2.get(SESSION).workbench.store) == 2

    def test_stream_options_survive_restart(self, persist_dir):
        _, manager = make_manager(persist_dir)
        manager.open(SESSION, STREAM, gap_seconds=120.0,
                     checkpoint_every=7, max_open_events=11)
        _, manager2 = make_manager(persist_dir)
        stream2 = manager2.get(SESSION, STREAM)
        assert stream2.segmenter.gap_seconds == 120.0
        assert stream2.checkpoint_every == 7
        assert stream2.max_open_events == 11


class TestCrashReplayIdentity:
    def test_kill9_midstream_matches_batch(self, persist_dir,
                                           louvre_space,
                                           small_corpus):
        """The acceptance gate at unit level: replay the 2% Louvre
        corpus as an interleaved stream, crash at an arbitrary point,
        recover, finish — the store must be content-identical to the
        batch build and lose zero acked events."""
        _, records = small_corpus
        by_visitor = {}
        for record in sorted(records,
                             key=lambda r: (r.mo_id, r.t_start,
                                            r.t_end)):
            by_visitor.setdefault(record.mo_id, []).append(record)
        events = interleave(list(by_visitor.values()), seed=7)
        batch, _ = TrajectoryBuilder(
            louvre_space.dataset_zone_nrg()).build_all(records)

        registry, manager = make_manager(persist_dir)
        stream = manager.open(SESSION, STREAM, checkpoint_every=5)
        cut = len(events) // 2
        consumed = 0
        while consumed < cut:
            batch_events = events[consumed:consumed + 50]
            consumed += len(batch_events)
            rest = events[consumed:]
            watermark = (min(e.t_start for e in rest) if rest
                         else None)
            stream.append([event_to_dict(e) for e in batch_events],
                          watermark=watermark)
        # kill -9: abandon registry + manager mid-stream
        registry2, manager2 = make_manager(persist_dir)
        stream2 = manager2.get(SESSION, STREAM)
        assert stream2.events_acked == consumed  # zero acked loss
        while consumed < len(events):
            batch_events = events[consumed:consumed + 50]
            consumed += len(batch_events)
            rest = events[consumed:]
            watermark = (min(e.t_start for e in rest) if rest
                         else None)
            stream2.append([event_to_dict(e) for e in batch_events],
                           watermark=watermark)
        manager2.close(SESSION, STREAM)
        store = registry2.get(SESSION).workbench.store
        streamed = list(store)
        assert len(streamed) == len(batch)
        assert content_bytes(streamed) == content_bytes(batch)
        assert stream2.segmenter.metrics.dropped_late == 0

    def test_recovered_store_serves_identical_bytes(
            self, persist_dir):
        """Canonical document bytes before and after the crash
        match — what the CI smoke checks over HTTP."""
        registry, manager = make_manager(persist_dir)
        stream = manager.open(SESSION, STREAM)
        stream.append(walk("alice", 0.0)
                      + walk("bob", 50.0, list(reversed(ZONES))),
                      watermark=None)
        stream.append([], watermark=GAP * 2)
        before = sorted(canonical_json(t.to_dict())
                        for t in registry.get(SESSION)
                        .workbench.store)
        registry2, manager2 = make_manager(persist_dir)
        manager2.get(SESSION, STREAM)
        after = sorted(canonical_json(t.to_dict())
                       for t in registry2.get(SESSION)
                       .workbench.store)
        assert before == after
