"""End-to-end stream tests: the ``StreamDataset`` command family
over both HTTP front-ends, durability across a server restart, and
the Louvre replay content-identity gate over the wire.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.builder import TrajectoryBuilder
from repro.service import protocol as P
from repro.service.client import ServiceClient
from repro.service.protocol import canonical_json
from repro.service.registry import SessionRegistry
from repro.stream.segmenter import event_to_dict
from tests.service.conftest import make_server
from tests.stream.test_segmenter import interleave

ZONES = ["zone60886", "zone60887", "zone60888"]
GAP = 4 * 3600.0


def ev(mo_id, state, t_start, duration=60.0):
    return {"mo_id": mo_id, "state": state, "t_start": t_start,
            "t_end": t_start + duration}


def walk(mo_id, t0, zones=ZONES, dwell=60.0):
    return [ev(mo_id, zone, t0 + i * dwell, dwell)
            for i, zone in enumerate(zones)]


class TestStreamCommands:
    """Open → append → status → close over each front-end."""

    def test_stream_lifecycle(self, service):
        _, client, registry = service
        info = client.open_stream("live", "feed")
        assert info.status["durable"] is False  # in-memory registry
        assert info.status["watermark"] is None

        ack = client.append_events("live", "feed", walk("alice", 0.0))
        assert ack.appended == 3
        assert ack.episodes_closed == 0
        assert ack.open_events == 3

        # heartbeat: empty batch, watermark past the gap → episode
        ack = client.append_events("live", "feed",
                                   watermark=3 * 60.0 + GAP + 1.0)
        assert ack.appended == 0
        assert ack.episodes_closed == 1
        assert ack.open_events == 0

        status = client.stream_status("live", "feed")
        assert status.status["events_acked"] == 3
        assert status.status["episodes_stored"] == 1

        closed = client.close_stream("live", "feed")
        assert closed.events_acked == 3
        assert closed.episodes_total == 1
        assert len(registry.get("live").workbench.store) == 1
        client.call(P.DropSession(session="live"))

    def test_streamed_episodes_are_queryable(self, service):
        _, client, _ = service
        client.open_stream("live-q", "feed")
        client.append_events("live-q", "feed", walk("alice", 0.0))
        client.close_stream("live-q", "feed")  # flush
        page = client.run_query("live-q")
        assert page.total == 1
        assert page.hits[0].trajectory.mo_id == "alice"
        client.call(P.DropSession(session="live-q"))

    def test_unknown_stream_is_404(self, service):
        _, client, _ = service
        with pytest.raises(P.ServiceError) as info:
            client.append_events("nowhere", "feed", [])
        assert info.value.code == "unknown_stream"
        assert info.value.http_status == 404

    def test_overload_is_typed_503(self, service):
        _, client, _ = service
        client.open_stream("live-o", "feed", max_open_events=2)
        with pytest.raises(P.ServiceError) as info:
            client.append_events("live-o", "feed", walk("alice", 0.0))
        assert info.value.code == "overloaded"
        assert info.value.http_status == 503
        client.close_stream("live-o", "feed")
        client.call(P.DropSession(session="live-o"))

    def test_bad_event_is_400(self, service):
        _, client, _ = service
        client.open_stream("live-b", "feed")
        with pytest.raises(P.ServiceError) as info:
            client.append_events("live-b", "feed", [{"mo_id": "x"}])
        assert info.value.code == "bad_request"
        assert info.value.http_status == 400
        client.close_stream("live-b", "feed")
        client.call(P.DropSession(session="live-b"))

    def test_reopen_returns_existing_stream(self, service):
        _, client, _ = service
        client.open_stream("live-r", "feed")
        client.append_events("live-r", "feed", walk("alice", 0.0))
        info = client.open_stream("live-r", "feed")  # idempotent
        assert info.status["events_acked"] == 3
        client.close_stream("live-r", "feed")
        client.call(P.DropSession(session="live-r"))

    def test_health_reports_stream_counters(self, service):
        _, client, _ = service
        client.open_stream("live-h", "feed")
        client.append_events("live-h", "feed", walk("alice", 0.0),
                             watermark=30.0)
        health = client.health()
        streams = health["streams"]
        assert streams["open"] >= 1
        assert streams["events_acked"] >= 3
        assert streams["watermark_min"] is not None
        client.close_stream("live-h", "feed")
        client.call(P.DropSession(session="live-h"))


def _strict_json(raw: bytes):
    """Parse ``raw`` refusing the non-JSON ``NaN``/``Infinity``."""
    def refuse(token):
        raise ValueError("non-JSON constant " + token)
    return json.loads(raw.decode("utf-8"), parse_constant=refuse)


def post_raw(server, body: bytes):
    """``(http status, reply)`` for a hand-written request body."""
    request = urllib.request.Request(server.url + "/v1/call",
                                     data=body, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, _strict_json(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, _strict_json(error.read())


#: JSON tokens that are not a finite number (``Infinity``/``NaN``
#: are what Python's encoder writes for them; ``1e400`` parses to inf).
NOT_FINITE = ["true", '"10"', "NaN", "Infinity", "-Infinity", "1e400"]


@pytest.fixture()
def fresh_stream(service):
    """``(server, client)`` with stream ``feed`` open on a session of
    its own, closed and dropped afterwards whatever the outcome."""
    server, client, _ = service
    client.open_stream("live-v", "feed")
    try:
        yield server, client
    finally:
        client.close_stream("live-v", "feed")
        client.call(P.DropSession(session="live-v"))


def append_raw(server, tail: str):
    """POST an ``AppendEvents`` to ``live-v``/``feed`` whose body ends
    in the hand-written JSON ``tail``."""
    return post_raw(server, (
        '{"v":1,"command":"AppendEvents","session":"live-v",'
        '"stream":"feed",' + tail + '}').encode())


class TestStreamInputValidation:
    """A rejected append changes nothing: no watermark move, no
    counter, and the reply stays strict JSON."""

    @pytest.mark.parametrize("token", NOT_FINITE)
    def test_bad_watermark_is_400_and_changes_nothing(self, fresh_stream,
                                                      token):
        server, client = fresh_stream
        client.append_events("live-v", "feed", walk("alice", 0.0),
                             watermark=30.0)
        before = client.stream_status("live-v", "feed").status
        status, reply = append_raw(
            server, '"events":[],"watermark":' + token)
        assert status == 400 and reply["code"] == "bad_request", reply
        assert client.stream_status("live-v", "feed").status == before
        # The stream still accepts events after its last watermark.
        ack = client.append_events("live-v", "feed",
                                   walk("bob", 1000.0))
        assert ack.appended == 3
        after = client.stream_status("live-v", "feed").status
        assert after["accepted"] == before["accepted"] + 3
        assert after["dropped_late"] == 0

    @pytest.mark.parametrize("field", ["t_start", "t_end"])
    @pytest.mark.parametrize("token", NOT_FINITE)
    def test_bad_event_time_is_400_and_changes_nothing(
            self, fresh_stream, field, token):
        server, client = fresh_stream
        client.append_events("live-v", "feed", walk("alice", 0.0))
        before = client.stream_status("live-v", "feed").status
        times = {"t_start": "10.0", "t_end": "20.0", field: token}
        event = ('{{"mo_id":"bob","state":"{}","t_start":{t_start},'
                 '"t_end":{t_end}}}'.format(ZONES[0], **times))
        status, reply = append_raw(server,
                                   '"events":[' + event + ']')
        assert status == 400 and reply["code"] == "bad_request", reply
        assert client.stream_status("live-v", "feed").status == before


class TestDurableStreams:
    """Restart the server process state (fresh registry over the same
    persist dir) mid-stream: zero acked-event loss, identical bytes."""

    def test_restart_midstream_loses_nothing(self, tmp_path):
        persist = str(tmp_path / "data")
        registry = SessionRegistry(persist_dir=persist, fsync=False)
        server = make_server(registry).start()
        client = ServiceClient(server.url)
        try:
            client.open_stream("museum", "gates")
            ack = client.append_events("museum", "gates",
                                       walk("alice", 0.0))
            assert ack.seq == 1  # journaled before the ack
        finally:
            client.close()
            server.stop()
        # "kill -9": nothing flushed beyond what the ack promised
        registry2 = SessionRegistry(persist_dir=persist, fsync=False)
        server2 = make_server(registry2).start()
        client2 = ServiceClient(server2.url)
        try:
            status = client2.stream_status("museum", "gates")
            assert status.status["events_acked"] == 3  # zero loss
            client2.append_events("museum", "gates",
                                  walk("bob", GAP * 2))
            closed = client2.close_stream("museum", "gates")
            assert closed.events_acked == 6
            page = client2.run_query("museum")
            assert page.total == 2
            mo_ids = sorted(h.trajectory.mo_id for h in page.hits)
            assert mo_ids == ["alice", "bob"]
        finally:
            client2.close()
            server2.stop()


class TestLouvreReplayOverWire:
    """The acceptance gate over HTTP: the 2% corpus replayed as an
    interleaved stream yields a store content-identical to the batch
    build."""

    def test_streamed_corpus_matches_batch(self, louvre_space,
                                           small_corpus, tmp_path):
        _, records = small_corpus
        batch, _ = TrajectoryBuilder(
            louvre_space.dataset_zone_nrg()).build_all(records)
        by_visitor = {}
        for record in sorted(records,
                             key=lambda r: (r.mo_id, r.t_start,
                                            r.t_end)):
            by_visitor.setdefault(record.mo_id, []).append(record)
        events = interleave(list(by_visitor.values()), seed=11)

        registry = SessionRegistry(
            persist_dir=str(tmp_path / "data"), fsync=False)
        server = make_server(registry).start()
        client = ServiceClient(server.url)
        try:
            client.open_stream("replay", "gates",
                               checkpoint_every=10)
            consumed = 0
            while consumed < len(events):
                chunk = events[consumed:consumed + 100]
                consumed += len(chunk)
                rest = events[consumed:]
                client.append_events(
                    "replay", "gates",
                    [event_to_dict(e) for e in chunk],
                    watermark=(min(e.t_start for e in rest)
                               if rest else None))
            closed = client.close_stream("replay", "gates")
            assert closed.events_acked == len(events)
            streamed = list(registry.get("replay").workbench.store)
            assert len(streamed) == len(batch)
            assert (sorted(canonical_json(t.to_dict())
                           for t in streamed)
                    == sorted(canonical_json(t.to_dict())
                              for t in batch))
        finally:
            client.close()
            server.stop()
