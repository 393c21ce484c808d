"""Engine conformance: the session registry and the shard coordinator
implement one explicit :class:`~repro.service.executor.Engine`
protocol, and every front-end surface reads both through it alone."""

import pytest

from repro.service import protocol as P
from repro.service.executor import Engine, LocalBinding
from repro.service.registry import SessionRegistry
from repro.service.wire import ResponseCache, health_payload, ready_payload


def make_registry():
    return SessionRegistry()


def make_coordinator():
    from repro.shard import ShardCoordinator

    return ShardCoordinator.local(2)


@pytest.fixture(scope="module")
def docs():
    registry = SessionRegistry()
    registry.build("s", scale=0.01, wait=True)
    return [t.to_dict() for t in registry.get("s").workbench.store]


@pytest.fixture(params=[make_registry, make_coordinator],
                ids=["registry", "coordinator"])
def engine(request, docs):
    engine = request.param()
    response = engine.execute_command(
        P.IngestDocuments(session="s", docs=docs[:10]))
    assert isinstance(response, P.Ingested), response
    yield engine
    if not isinstance(engine, SessionRegistry):
        engine.close()


def test_implements_the_protocol(engine):
    assert isinstance(engine, Engine)


def test_health_payload(engine):
    payload = health_payload(engine, load={"inflight": 0})
    assert payload["ok"] is True
    assert payload["protocol"] == P.PROTOCOL_VERSION
    assert [entry["name"] for entry in payload["sessions"]] == ["s"]
    assert payload["sessions"][0]["trajectories"] == 10
    assert payload["load"] == {"inflight": 0}
    sharded = engine.shard_report() is not None
    assert ("shards" in payload) == sharded
    if sharded:
        assert [entry["shard"] for entry in payload["shards"]] == [0, 1]


def test_ready_payload(engine):
    status, payload = ready_payload(engine)
    assert status == 200
    assert payload["ready"] is True
    assert payload["reasons"] == []
    assert ("breakers" in payload) \
        == (engine.breaker_report() is not None)


def test_cache_stamp_tracks_ingest(engine, docs):
    assert ResponseCache.stamp(engine, "ghost") is None
    assert ResponseCache.stamp(engine, None) is None
    before = ResponseCache.stamp(engine, "s")
    assert before is not None
    assert ResponseCache.stamp(engine, "s") == before
    engine.execute_command(P.IngestDocuments(session="s",
                                             docs=docs[10:12]))
    assert ResponseCache.stamp(engine, "s") != before


def test_local_binding_call_json(engine):
    """The in-process wire path answers the same bytes on both
    engines, errors and protocol failures included."""
    binding = LocalBinding(engine)
    reference = LocalBinding(SessionRegistry())
    reference.call(P.IngestDocuments(
        session="s", docs=[hit.trajectory.to_dict() for hit in
                           binding.call(P.RunQuery(session="s",
                                                   limit=50)).hits]))
    for raw in (P.Summary(session="s").to_json(),
                P.Flow(session="s").to_json(),
                P.RunQuery(session="s", limit=3,
                           order_by="duration").to_json(),
                P.Summary(session="ghost").to_json(),
                b"not json"):
        assert binding.call_json(raw) == reference.call_json(raw)
