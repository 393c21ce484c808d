"""Sharded streams: events bucketed by the ring, relayed episodes
routed by global id, min-over-shards watermarks, and content identity
between a sharded stream replay and the single-process batch build.
"""

import pytest

from repro.service import protocol as P
from repro.service.protocol import canonical_json
from repro.shard import ShardCoordinator
from repro.shard.ring import HashRing

ZONES = ["zone60886", "zone60887", "zone60888"]
GAP = 4 * 3600.0
SESSION = "live"
STREAM = "gates"


def ev(mo_id, state, t_start, duration=60.0):
    return {"mo_id": mo_id, "state": state, "t_start": t_start,
            "t_end": t_start + duration}


def walk(mo_id, t0, zones=ZONES, dwell=60.0):
    return [ev(mo_id, zone, t0 + i * dwell, dwell)
            for i, zone in enumerate(zones)]


def call(coordinator, command):
    response = coordinator.execute_command(command)
    assert not isinstance(response, P.ErrorInfo), response
    return response


def open_stream(coordinator, **kwargs):
    return call(coordinator, P.OpenStream(session=SESSION,
                                          stream=STREAM, **kwargs))


def append(coordinator, events=(), watermark=None):
    return call(coordinator, P.AppendEvents(
        session=SESSION, stream=STREAM, events=list(events),
        watermark=watermark))


@pytest.fixture(params=[1, 2, 4])
def coordinator(request):
    coordinator = ShardCoordinator.local(request.param)
    yield coordinator
    coordinator.close()


class TestShardedStreamLifecycle:
    def test_open_append_close(self, coordinator):
        info = open_stream(coordinator)
        assert info.status["relay"] is True
        assert info.status["watermark"] is None

        ack = append(coordinator, walk("alice", 0.0)
                     + walk("bob", 10.0))
        assert ack.appended == 6
        assert ack.episodes_closed == 0
        # the client-facing ack never carries episode payloads
        assert ack.episodes == []

        ack = append(coordinator, watermark=3 * 60.0 + GAP + 11.0)
        assert ack.episodes_closed == 2
        assert ack.open_events == 0

        closed = call(coordinator, P.CloseStream(session=SESSION,
                                                 stream=STREAM))
        assert closed.events_acked == 6
        assert closed.episodes_total == 2

        page = call(coordinator, P.RunQuery(session=SESSION))
        assert page.total == 2
        assert sorted(h.trajectory.mo_id for h in page.hits) \
            == ["alice", "bob"]

    def test_watermark_is_min_over_shards(self, coordinator):
        open_stream(coordinator)
        # the watermark broadcast reaches every shard — even those
        # with empty buckets — so the merged minimum is exact
        ack = append(coordinator, walk("alice", 0.0), watermark=42.0)
        assert ack.watermark == 42.0
        status = call(coordinator, P.StreamStatus(session=SESSION,
                                                  stream=STREAM))
        assert status.status["watermark"] == 42.0
        assert len(status.status["shard_watermarks"]) \
            == coordinator.shard_count
        assert all(mark == 42.0
                   for mark in status.status["shard_watermarks"])

    def test_events_bucket_by_ring_key(self, coordinator):
        open_stream(coordinator)
        visitors = ["v{}".format(i) for i in range(8)]
        for visitor in visitors:
            append(coordinator, walk(visitor, 0.0))
        expected = [0] * coordinator.shard_count
        ring = HashRing(coordinator.shard_count)
        for visitor in visitors:
            expected[ring.shard_of_key(visitor)] += 3
        statuses = [
            shard_binding.call(P.StreamStatus(session=SESSION,
                                              stream=STREAM)).status
            for shard_binding in coordinator.backends]
        assert [s["events_acked"] for s in statuses] == expected

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
        status = call(coordinator, P.StreamStatus(session=SESSION,
                                                  stream=STREAM))
        assert status.status["events_acked"] == 0

    @pytest.mark.parametrize("watermark", [
        True, "10", float("nan"), float("inf"), float("-inf"),
        10 ** 400])
    def test_bad_watermark_changes_nothing_anywhere(self, coordinator,
                                                    watermark):
        open_stream(coordinator)
        append(coordinator, walk("alice", 0.0), watermark=30.0)
        before = call(coordinator, P.StreamStatus(
            session=SESSION, stream=STREAM)).status
        response = coordinator.execute_command(P.AppendEvents(
            session=SESSION, stream=STREAM, events=[],
            watermark=watermark))
        assert isinstance(response, P.ErrorInfo)
        assert response.code == "bad_request"
        assert call(coordinator, P.StreamStatus(
            session=SESSION, stream=STREAM)).status == before
        ack = append(coordinator, walk("bob", 1000.0))
        assert ack.appended == 3
        after = call(coordinator, P.StreamStatus(
            session=SESSION, stream=STREAM)).status
        assert after["accepted"] == before["accepted"] + 3
        assert after["dropped_late"] == 0

    @pytest.mark.parametrize("field", ["t_start", "t_end"])
    @pytest.mark.parametrize("value", [
        True, "10", float("nan"), float("inf"), 10 ** 400])
    def test_bad_event_time_acks_nothing_anywhere(self, coordinator,
                                                  field, value):
        open_stream(coordinator)
        append(coordinator, walk("alice", 0.0))
        before = call(coordinator, P.StreamStatus(
            session=SESSION, stream=STREAM)).status
        response = coordinator.execute_command(P.AppendEvents(
            session=SESSION, stream=STREAM,
            events=[ev("bob", ZONES[0], 10.0),
                    dict(ev("carol", ZONES[0], 10.0), **{field: value})]))
        assert isinstance(response, P.ErrorInfo)
        assert response.code == "bad_request"
        assert call(coordinator, P.StreamStatus(
            session=SESSION, stream=STREAM)).status == before

    def test_overload_precheck_rejects_before_any_shard_acks(
            self, coordinator):
        open_stream(coordinator, max_open_events=2)
        response = coordinator.execute_command(P.AppendEvents(
            session=SESSION, stream=STREAM,
            events=walk("alice", 0.0)))
        assert isinstance(response, P.ErrorInfo)
        assert response.code == "overloaded"
        status = call(coordinator, P.StreamStatus(session=SESSION,
                                                  stream=STREAM))
        assert status.status["events_acked"] == 0

    def test_health_hook_reports_streams(self, coordinator):
        from repro.service.wire import health_payload

        open_stream(coordinator)
        append(coordinator, walk("alice", 0.0), watermark=30.0)
        payload = health_payload(coordinator)
        assert payload["streams"]["open"] == 1
        assert payload["streams"]["events_acked"] == 3
        assert payload["streams"]["watermark_min"] == 30.0


class TestShardedStreamIdentity:
    """The layout invariant: streamed episodes are routed by global
    id exactly like batch ingest, so a coordinator reopened over the
    same shards adopts the session without a layout error."""

    def test_streamed_corpus_matches_batch_content(self, tmp_path,
                                                   louvre_space,
                                                   small_corpus):
        from repro.core.builder import TrajectoryBuilder
        from repro.stream.segmenter import event_to_dict
        from tests.stream.test_segmenter import interleave

        _, records = small_corpus
        batch, _ = TrajectoryBuilder(
            louvre_space.dataset_zone_nrg()).build_all(records)
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
            page = call(coordinator, P.RunQuery(
                session=SESSION, limit=len(batch) + 10))
            assert page.total == len(batch)
            assert (sorted(canonical_json(h.trajectory.to_dict())
                           for h in page.hits)
                    == sorted(canonical_json(t.to_dict())
                              for t in batch))
            call(coordinator, P.SaveSession(session=SESSION))
        finally:
            coordinator.close()

        # reopening the shard set must adopt the streamed session
        # without a ShardStateError — proof the relayed episodes were
        # routed exactly like batch ingest
        reopened = ShardCoordinator.local(2, persist_dir=persist,
                                          fsync=False)
        try:
            assert SESSION in reopened.names()
            page = call(reopened, P.RunQuery(
                session=SESSION, limit=len(batch) + 10))
            assert page.total == len(batch)
        finally:
            reopened.close()

    def test_shard_crash_recovery_redelivers_without_duplicates(
            self, tmp_path):
        """Kill the shard set after an acked append, rebuild over the
        same directories: the relayed stream recovers shard-side,
        pending episodes are re-harvested once, and a retried append
        does not double-ingest."""
        persist = str(tmp_path / "shards")
        coordinator = ShardCoordinator.local(2, persist_dir=persist,
                                             fsync=False)
        try:
            open_stream(coordinator)
            append(coordinator, walk("alice", 0.0)
                   + walk("bob", 20.0))
            # the episodes close on the shards but the coordinator
            # "crashes" before harvesting this watermark's output:
            # send it straight to the shards, bypassing the harvest
            for binding in coordinator.backends:
                binding.call(P.AppendEvents(
                    session=SESSION, stream=STREAM,
                    watermark=3 * 60.0 + GAP + 21.0))
        finally:
            coordinator.close()

        # a fresh coordinator over the same shard directories (the
        # in-memory shard registries died unflushed — only journaled
        # state survives, like kill -9)
        reopened = ShardCoordinator.local(2, persist_dir=persist,
                                          fsync=False)
        try:
            info = open_stream(reopened)
            # reopen harvested the recovered pending episodes
            assert info.status["pending"] == 0
            assert info.status["events_acked"] == 6
            closed = call(reopened, P.CloseStream(session=SESSION,
                                                  stream=STREAM))
            assert closed.events_acked == 6
            page = call(reopened, P.RunQuery(session=SESSION))
            assert page.total == 2
            assert sorted(h.trajectory.mo_id for h in page.hits) \
                == ["alice", "bob"]
        finally:
            reopened.close()
