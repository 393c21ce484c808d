"""Sharded streams: the coordinator runs the unsharded stream — the
executor's stream handlers over the coordinator's own
:class:`~repro.stream.manager.StreamManager` — journals it under the
shard set's root, and stores the episodes it closes through the same
routed ``IngestDocuments`` fan-out batch ingest uses.  No shard ever
sees a stream command, replica sets included.
"""

import glob
import os

import pytest

from repro.core.builder import TrajectoryBuilder
from repro.service import protocol as P
from repro.service.executor import LocalBinding
from repro.service.protocol import canonical_json
from repro.service.registry import SessionRegistry
from repro.shard import ShardCoordinator
from repro.stream.segmenter import event_to_dict

ZONES = ["zone60886", "zone60887", "zone60888"]
GAP = 4 * 3600.0
SESSION = "live"
STREAM = "gates"
STREAM_KINDS = (P.OpenStream, P.AppendEvents, P.StreamStatus,
                P.CloseStream)


def ev(mo_id, state, t_start, duration=60.0):
    return {"mo_id": mo_id, "state": state, "t_start": t_start,
            "t_end": t_start + duration}


def walk(mo_id, t0, zones=ZONES, dwell=60.0):
    return [ev(mo_id, zone, t0 + i * dwell, dwell)
            for i, zone in enumerate(zones)]


def call(engine, command):
    response = engine.execute_command(command)
    assert not isinstance(response, P.ErrorInfo), response
    return response


def open_stream(engine, **kwargs):
    return call(engine, P.OpenStream(session=SESSION, stream=STREAM,
                                     **kwargs))


def append(engine, events=(), watermark=None):
    return call(engine, P.AppendEvents(
        session=SESSION, stream=STREAM, events=list(events),
        watermark=watermark))


def status(engine):
    return call(engine, P.StreamStatus(session=SESSION,
                                       stream=STREAM)).status


def stored_content(engine, limit):
    page = call(engine, P.RunQuery(session=SESSION, limit=limit))
    return sorted(canonical_json(hit.trajectory.to_dict())
                  for hit in page.hits)


def corpus_events(small_corpus):
    """The 2% corpus in ``repro stream replay`` order."""
    _, records = small_corpus
    return sorted(records, key=lambda r: (r.t_start, r.t_end, r.mo_id))


def replay(engine, events, chunk=100):
    """Append ``events`` in chunks, each watermarked by the next
    unsent event (the ``repro stream replay`` producer)."""
    for start in range(0, len(events), chunk):
        batch = events[start:start + chunk]
        rest = start + chunk
        ack = append(engine, [event_to_dict(e) for e in batch],
                     watermark=(events[rest].t_start
                                if rest < len(events) else None))
        assert ack.appended == len(batch)


@pytest.fixture
def batch_content(louvre_space, small_corpus):
    _, records = small_corpus
    batch, _ = TrajectoryBuilder(
        louvre_space.dataset_zone_nrg()).build_all(records)
    return sorted(canonical_json(t.to_dict()) for t in batch)


@pytest.fixture
def shard_calls(monkeypatch):
    """Every command type an in-process shard replica executes."""
    seen = []
    real = LocalBinding.call

    def recording(self, command):
        seen.append(type(command))
        return real(self, command)

    monkeypatch.setattr(LocalBinding, "call", recording)
    return seen


@pytest.fixture(params=[1, 2, 4])
def coordinator(request):
    coordinator = ShardCoordinator.local(request.param)
    yield coordinator
    coordinator.close()


class TestShardedStreamLifecycle:
    def test_open_append_close(self, coordinator):
        info = open_stream(coordinator)
        assert info.status["watermark"] is None
        for gone in ("relay", "pending", "shard_watermarks"):
            assert gone not in info.status

        ack = append(coordinator, walk("alice", 0.0)
                     + walk("bob", 10.0))
        assert ack.appended == 6
        assert ack.episodes_closed == 0
        # acks carry counters, never episode payloads
        assert "episodes" not in ack.to_dict()

        ack = append(coordinator, watermark=3 * 60.0 + GAP + 11.0)
        assert ack.episodes_closed == 2
        assert ack.open_events == 0

        closed = call(coordinator, P.CloseStream(session=SESSION,
                                                 stream=STREAM))
        assert "episodes" not in closed.to_dict()
        assert closed.events_acked == 6
        assert closed.episodes_total == 2

        page = call(coordinator, P.RunQuery(session=SESSION))
        assert page.total == 2
        assert sorted(h.trajectory.mo_id for h in page.hits) \
            == ["alice", "bob"]

    def test_watermark_is_the_streams_own(self, coordinator):
        open_stream(coordinator)
        ack = append(coordinator, walk("alice", 0.0), watermark=42.0)
        assert ack.watermark == 42.0
        assert status(coordinator)["watermark"] == 42.0

    def test_shards_receive_no_stream_command(self, coordinator,
                                              shard_calls):
        open_stream(coordinator)
        for index in range(8):
            append(coordinator, walk("v{}".format(index), 0.0))
        append(coordinator, watermark=3 * 60.0 + GAP + 1.0)
        status(coordinator)
        call(coordinator, P.CloseStream(session=SESSION,
                                        stream=STREAM))
        assert P.IngestDocuments in shard_calls
        assert not set(shard_calls) & set(STREAM_KINDS)
        for binding in coordinator.backends:
            with pytest.raises(P.ServiceError) as caught:
                binding.call(P.StreamStatus(session=SESSION,
                                            stream=STREAM))
            assert caught.value.code == "unknown_stream"

    def test_unknown_stream_relays_404(self, coordinator):
        response = coordinator.execute_command(P.AppendEvents(
            session="nowhere", stream=STREAM, events=[]))
        assert isinstance(response, P.ErrorInfo)
        assert response.code == "unknown_stream"

    def test_bad_event_acks_nothing_anywhere(self, coordinator):
        open_stream(coordinator)
        response = coordinator.execute_command(P.AppendEvents(
            session=SESSION, stream=STREAM,
            events=[ev("ok", ZONES[0], 0.0), {"mo_id": "broken"}]))
        assert isinstance(response, P.ErrorInfo)
        assert response.code == "bad_request"
        assert status(coordinator)["events_acked"] == 0

    @pytest.mark.parametrize("watermark", [
        True, "10", float("nan"), float("inf"), float("-inf"),
        10 ** 400])
    def test_bad_watermark_changes_nothing_anywhere(self, coordinator,
                                                    watermark):
        open_stream(coordinator)
        append(coordinator, walk("alice", 0.0), watermark=30.0)
        before = status(coordinator)
        response = coordinator.execute_command(P.AppendEvents(
            session=SESSION, stream=STREAM, events=[],
            watermark=watermark))
        assert isinstance(response, P.ErrorInfo)
        assert response.code == "bad_request"
        assert status(coordinator) == before
        ack = append(coordinator, walk("bob", 1000.0))
        assert ack.appended == 3
        after = status(coordinator)
        assert after["accepted"] == before["accepted"] + 3
        assert after["dropped_late"] == 0

    @pytest.mark.parametrize("field", ["t_start", "t_end"])
    @pytest.mark.parametrize("value", [
        True, "10", float("nan"), float("inf"), 10 ** 400])
    def test_bad_event_time_acks_nothing_anywhere(self, coordinator,
                                                  field, value):
        open_stream(coordinator)
        append(coordinator, walk("alice", 0.0))
        before = status(coordinator)
        response = coordinator.execute_command(P.AppendEvents(
            session=SESSION, stream=STREAM,
            events=[ev("bob", ZONES[0], 10.0),
                    dict(ev("carol", ZONES[0], 10.0), **{field: value})]))
        assert isinstance(response, P.ErrorInfo)
        assert response.code == "bad_request"
        assert status(coordinator) == before

    def test_overload_rejects_before_anything_is_acked(
            self, coordinator):
        open_stream(coordinator, max_open_events=2)
        response = coordinator.execute_command(P.AppendEvents(
            session=SESSION, stream=STREAM,
            events=walk("alice", 0.0)))
        assert isinstance(response, P.ErrorInfo)
        assert response.code == "overloaded"
        assert status(coordinator)["events_acked"] == 0

    def test_health_hook_reports_streams(self, coordinator):
        from repro.service.wire import health_payload

        open_stream(coordinator)
        append(coordinator, walk("alice", 0.0), watermark=30.0)
        payload = health_payload(coordinator)
        assert payload["streams"]["open"] == 1
        assert payload["streams"]["events_acked"] == 3
        assert payload["streams"]["watermark_min"] == 30.0

    def test_drop_session_forgets_its_streams(self, tmp_path):
        root = str(tmp_path / "shards")
        coordinator = ShardCoordinator.local(2, persist_dir=root,
                                             fsync=False)
        try:
            open_stream(coordinator)
            append(coordinator, walk("alice", 0.0))
            assert os.path.isdir(os.path.join(root, "streams",
                                              SESSION))
            call(coordinator, P.DropSession(session=SESSION))
            assert not os.path.exists(os.path.join(root, "streams",
                                                   SESSION))
            response = coordinator.execute_command(P.StreamStatus(
                session=SESSION, stream=STREAM))
            assert response.code == "unknown_stream"
        finally:
            coordinator.close()


class TestReplicaSets:
    """Stream commands never reach a replica set: the coordinator
    segments and journals, and only ``IngestDocuments`` — fanned to
    every replica — leaves it."""

    @pytest.mark.parametrize("durable", [False, True],
                             ids=["memory", "durable"])
    def test_replica_sets_stream_the_corpus(self, tmp_path, durable,
                                            small_corpus,
                                            batch_content,
                                            shard_calls):
        root = str(tmp_path / "shards") if durable else None
        coordinator = ShardCoordinator.local(
            2, persist_dir=root, fsync=False, replicas_per_shard=2)
        events = corpus_events(small_corpus)
        try:
            open_stream(coordinator)
            replay(coordinator, events)
            if durable:
                sidecar = os.path.join(root, "streams", SESSION,
                                       STREAM)
                assert sorted(os.listdir(sidecar)) \
                    == ["events.log", "stream-state.json"]
                assert glob.glob(os.path.join(
                    root, "shard-*", "*", "streams")) == []
            closed = call(coordinator, P.CloseStream(
                session=SESSION, stream=STREAM))
            assert closed.events_acked == len(events)
            assert not set(shard_calls) & set(STREAM_KINDS)
            assert stored_content(coordinator, len(batch_content)
                                  + 10) == batch_content
            # every replica holds its shard's slice
            for target in coordinator.targets:
                counts = {len(binding.registry.get(SESSION)
                              .workbench.store)
                          for binding in target.replicas}
                assert len(counts) == 1
        finally:
            coordinator.close()


class TestShardedStreamIdentity:
    """The layout invariant: streamed episodes are routed by global
    id exactly like batch ingest, so a coordinator reopened over the
    same shards adopts the session without a layout error."""

    def test_streamed_corpus_matches_batch_content(self, tmp_path,
                                                   small_corpus,
                                                   batch_content):
        from tests.stream.test_segmenter import interleave

        _, records = small_corpus
        by_visitor = {}
        for record in sorted(records, key=lambda r: (r.mo_id,
                                                     r.t_start,
                                                     r.t_end)):
            by_visitor.setdefault(record.mo_id, []).append(record)
        events = interleave(list(by_visitor.values()), seed=3)

        persist = str(tmp_path / "shards")
        coordinator = ShardCoordinator.local(2, persist_dir=persist,
                                             fsync=False)
        try:
            open_stream(coordinator, checkpoint_every=10)
            consumed = 0
            while consumed < len(events):
                chunk = events[consumed:consumed + 200]
                consumed += len(chunk)
                rest = events[consumed:]
                append(coordinator,
                       [event_to_dict(e) for e in chunk],
                       watermark=(min(e.t_start for e in rest)
                                  if rest else None))
            closed = call(coordinator, P.CloseStream(
                session=SESSION, stream=STREAM))
            assert closed.events_acked == len(events)
            assert stored_content(coordinator, len(batch_content)
                                  + 10) == batch_content
            call(coordinator, P.SaveSession(session=SESSION))
        finally:
            coordinator.close()

        # reopening the shard set must adopt the streamed session
        # without a ShardStateError — proof the streamed episodes were
        # routed exactly like batch ingest
        reopened = ShardCoordinator.local(2, persist_dir=persist,
                                          fsync=False)
        try:
            assert SESSION in reopened.names()
            page = call(reopened, P.RunQuery(
                session=SESSION, limit=len(batch_content) + 10))
            assert page.total == len(batch_content)
        finally:
            reopened.close()


class TestCoordinatorRestart:
    """``kill -9`` of the coordinator: abandon it mid-stream and build
    a fresh ``local()`` over the same directories — only what reached
    disk (the shard WALs, the coordinator's stream sidecar)
    survives."""

    def test_replay_stores_no_episode_twice(self, tmp_path):
        root = str(tmp_path / "shards")
        coordinator = ShardCoordinator.local(2, persist_dir=root,
                                             fsync=False)
        try:
            open_stream(coordinator)  # checkpoint_every=64: no fold
            append(coordinator, walk("alice", 0.0)
                   + walk("bob", 20.0))
            ack = append(coordinator, watermark=3 * 60.0 + GAP + 21.0)
            assert ack.episodes_closed == 2
        finally:
            coordinator.close()

        reopened = ShardCoordinator.local(2, persist_dir=root,
                                          fsync=False)
        try:
            # the journal replay closes alice and bob again; both are
            # already in the shards' WALs, so neither is stored twice
            recovered = status(reopened)
            assert recovered["events_acked"] == 6
            assert recovered["episodes_stored"] == 2
            assert call(reopened, P.RunQuery(session=SESSION)).total \
                == 2
            append(reopened, walk("carol", 2 * GAP))
            closed = call(reopened, P.CloseStream(session=SESSION,
                                                  stream=STREAM))
            assert closed.events_acked == 9
            assert closed.episodes_total == 3
            page = call(reopened, P.RunQuery(session=SESSION))
            assert sorted(h.trajectory.mo_id for h in page.hits) \
                == ["alice", "bob", "carol"]
        finally:
            reopened.close()

    def test_recovery_that_closes_nothing_queries_no_shard(
            self, tmp_path, shard_calls):
        root = str(tmp_path / "shards")
        coordinator = ShardCoordinator.local(2, persist_dir=root,
                                             fsync=False)
        try:
            open_stream(coordinator)
            append(coordinator, walk("alice", 0.0), watermark=30.0)
        finally:
            coordinator.close()

        reopened = ShardCoordinator.local(2, persist_dir=root,
                                          fsync=False)
        try:
            del shard_calls[:]
            recovered = status(reopened)
            assert recovered["events_acked"] == 3
            assert recovered["open_events"] == 3
            assert P.RunQuery not in shard_calls
            ack = append(reopened, watermark=3 * 60.0 + GAP + 1.0)
            assert ack.episodes_closed == 1
            assert call(reopened, P.RunQuery(session=SESSION)).total \
                == 1
        finally:
            reopened.close()


class TestRelaySidecars:
    """A shard stream checkpointed by the relay mode of earlier
    releases (``"relay": true`` in its state) holds episodes that
    belong to a coordinator's routed corpus.  The shard refuses to
    recover it rather than store them in its own local store."""

    @staticmethod
    def write_relay_sidecar(home, louvre_space):
        from repro.stream.manager import EventJournal
        from repro.stream.segmenter import (
            WatermarkSegmenter,
            event_from_dict,
        )

        directory = os.path.join(home, SESSION, "streams", STREAM)
        os.makedirs(directory)
        journal = EventJournal(os.path.join(directory, "events.log"),
                               fsync=False)
        journal.append(walk("alice", 0.0), None)
        journal.append([], 3 * 60.0 + GAP + 1.0)  # closes alice
        journal.close()
        segmenter = WatermarkSegmenter(
            TrajectoryBuilder(louvre_space.dataset_zone_nrg()))
        for event in walk("bob", 0.0):
            segmenter.feed(event_from_dict(event))
        pending = [episode.to_dict() for episode in segmenter.close()]
        state = {"format": 1, "session": SESSION, "stream": STREAM,
                 "checkpoint_every": 64, "max_open_events": 100000,
                 "events_acked": 3, "episodes_stored": 1,
                 "checkpoints": 0, "journal_seq": 0,
                 "relay": True, "pending": pending,
                 "segmenter": WatermarkSegmenter(
                     segmenter.builder).state_dict()}
        with open(os.path.join(directory, "stream-state.json"),
                  "wb") as sink:
            sink.write(canonical_json(state) + b"\n")
        return directory

    def test_shard_refuses_a_relay_sidecar(self, tmp_path,
                                           louvre_space):
        home = str(tmp_path / "shards" / "shard-0")
        sidecar = self.write_relay_sidecar(home, louvre_space)
        files = sorted(os.listdir(sidecar))
        registry = SessionRegistry(persist_dir=home, fsync=False)
        for command in (
                P.StreamStatus(session=SESSION, stream=STREAM),
                P.AppendEvents(session=SESSION, stream=STREAM,
                               events=walk("carol", 0.0)),
                P.OpenStream(session=SESSION, stream=STREAM),
                P.CloseStream(session=SESSION, stream=STREAM)):
            response = registry.execute_command(command)
            assert isinstance(response, P.ErrorInfo), response
            assert response.code == "persistence"
            assert repr(STREAM) in response.message
            assert "relay" in response.message
        assert len(registry.get(SESSION).workbench.store) == 0
        assert sorted(os.listdir(sidecar)) == files

    def test_coordinator_streams_beside_old_relay_sidecars(
            self, tmp_path, louvre_space):
        root = str(tmp_path / "shards")
        self.write_relay_sidecar(os.path.join(root, "shard-0"),
                                 louvre_space)
        coordinator = ShardCoordinator.local(2, persist_dir=root,
                                             fsync=False)
        try:
            info = open_stream(coordinator)
            assert info.status["events_acked"] == 0
            append(coordinator, walk("carol", 0.0),
                   watermark=3 * 60.0 + GAP + 1.0)
            page = call(coordinator, P.RunQuery(session=SESSION))
            assert [h.trajectory.mo_id for h in page.hits] \
                == ["carol"]
        finally:
            coordinator.close()
