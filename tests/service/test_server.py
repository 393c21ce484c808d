"""End-to-end: the embedded server over a real socket.

Drives the whole lifecycle — build, query with ``explain``, cursor
pagination, mining — through :class:`ServiceClient` against an
ephemeral-port server, asserting the acceptance bar: pure-JSON
payloads whose bytes are identical to the in-process
``Workbench``/:class:`LocalBinding` path.  The ``service`` fixture
(``tests/service/conftest.py``) serves it over the asyncio front-end.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from tests.service.conftest import SESSION

from repro.service import protocol as P
from repro.service.aserver import AsyncServiceServer
from repro.service.client import ServiceError
from repro.service.executor import LocalBinding
from repro.service.registry import SessionRegistry

QUERY = {"expr": {"op": "state", "state": "zone60853"}}


class TestLifecycle:
    def test_health(self, service):
        _, client, _ = service
        health = client.health()
        assert health["ok"] is True
        assert health["protocol"] == P.PROTOCOL_VERSION
        assert health["sessions"][0]["name"] == SESSION

    def test_build_query_mine_over_http(self, service):
        _, client, _ = service
        info = client.build("second", scale=0.01, wait=True)
        assert info.state == "done"
        page = client.run_query("second", limit=10)
        assert page.total > 0
        assert page.hits
        patterns = client.mine_patterns("second", min_support=0.5)
        assert patterns.patterns
        client.drop_session("second")
        names = [s.name for s in client.sessions().sessions]
        assert "second" not in names

    def test_background_build_with_polling(self, service):
        _, client, _ = service
        info = client.build("bg", scale=0.01)
        assert info.state in ("pending", "running", "done")
        final = client.wait_for_job(info.job_id)
        assert final.state == "done"
        assert final.metrics["stages"][0]["name"] == "clean"
        client.drop_session("bg")

    def test_explain_over_http(self, service):
        _, client, _ = service
        explanation = client.explain(SESSION, QUERY)
        assert "zone60853" in explanation.plan

    def test_analytics_commands(self, service):
        _, client, _ = service
        sequences = client.sequences(SESSION, QUERY).sequences
        assert sequences
        matrix = client.similarity(SESSION, QUERY).matrix
        assert len(matrix) == len(sequences)
        balances = client.flow(SESSION, QUERY).balances
        assert balances
        stats = client.summary(SESSION).stats
        assert stats["visits"] == page_total(client)


def page_total(client):
    return client.run_query(SESSION, limit=1).total


class TestByteIdentical:
    """The acceptance criterion: wire bytes == in-process bytes."""

    def test_query_page(self, service):
        _, client, registry = service
        wire = client.run_query(SESSION, QUERY, limit=5)
        local = LocalBinding(registry).call(
            P.RunQuery(session=SESSION, query=QUERY, limit=5))
        assert wire.to_json() == local.to_json()

    def test_patterns(self, service):
        _, client, registry = service
        wire = client.mine_patterns(SESSION, QUERY, min_support=0.2)
        local = LocalBinding(registry).call(P.MinePatterns(
            session=SESSION, query=QUERY, min_support=0.2))
        assert wire.to_json() == local.to_json()

    def test_wire_matches_workbench_objects(self, service):
        """The HTTP results deserialize to exactly what the library
        facade computes in process."""
        _, client, registry = service
        workbench = registry.get(SESSION).workbench
        query = workbench.load_query(QUERY)

        wire_hits = [h for page in client.iter_pages(SESSION, QUERY,
                                                     limit=3)
                     for h in page.hits]
        direct = query.execute().to_list()
        assert [h.doc_id for h in wire_hits] \
            == [h.doc_id for h in direct]
        assert [h.trajectory.to_dict() for h in wire_hits] \
            == [h.trajectory.to_dict() for h in direct]

        wire_patterns = client.mine_patterns(
            SESSION, QUERY, min_support=0.2).patterns
        assert wire_patterns == workbench.patterns(query,
                                                   min_support=0.2)

    def test_raw_payload_is_pure_json(self, service):
        server, _, _ = service
        body = P.RunQuery(session=SESSION, query=QUERY,
                          limit=2).to_json()
        request = urllib.request.Request(
            server.url + "/v1/call", data=body,
            headers={"Content-Type": "application/json"},
            method="POST")
        with urllib.request.urlopen(request, timeout=30) as reply:
            assert reply.headers["Content-Type"] == "application/json"
            payload = json.loads(reply.read().decode("utf-8"))
        assert payload["response"] == "QueryPage"
        assert all(isinstance(h["doc_id"], int)
                   for h in payload["hits"])


class TestPagination:
    def test_cursor_walk_is_complete_and_disjoint(self, service):
        _, client, registry = service
        seen = []
        for page in client.iter_pages(SESSION, QUERY, limit=2):
            seen.extend(h.doc_id for h in page.hits)
        store = registry.get(SESSION).workbench.store
        from repro.storage.query import Query

        expected = [h.doc_id for h in
                    Query.from_dict(store, QUERY).execute()]
        assert seen == expected
        assert len(set(seen)) == len(seen)

    def test_cursor_stable_under_concurrent_ingestion(self, service):
        """A cursor taken before an ingest resumes exactly after the
        hits it saw — appended documents surface at the tail, never
        shifted into or out of earlier pages."""
        _, client, _ = service
        binding = LocalBinding(SessionRegistry())
        binding.call(P.BuildDataset(session="grow", scale=0.01,
                                    wait=True))
        first = binding.call(P.RunQuery(session="grow", limit=3,
                                        include_total=False))
        boundary = [h.doc_id for h in first.hits]
        # ingest more matching documents mid-pagination
        binding.call(P.BuildDataset(session="grow", scale=0.01,
                                    wait=True))
        rest = []
        cursor = first.next_cursor
        while cursor is not None:
            page = binding.call(P.RunQuery(session="grow", limit=3,
                                           cursor=cursor,
                                           include_total=False))
            rest.extend(h.doc_id for h in page.hits)
            cursor = page.next_cursor
        total = binding.call(P.RunQuery(
            session="grow", limit=1)).total
        assert boundary + rest == list(range(total))

    def test_order_by_pagination(self, service):
        _, client, _ = service
        seen = []
        for page in client.iter_pages(SESSION, QUERY, limit=2,
                                      order_by="duration",
                                      descending=True):
            seen.extend(h.trajectory.duration for h in page.hits)
        assert seen == sorted(seen, reverse=True)

    def test_offset_first_page(self, service):
        _, client, _ = service
        full = client.run_query(SESSION, QUERY, limit=100)
        shifted = client.run_query(SESSION, QUERY, limit=100,
                                   offset=2)
        assert [h.doc_id for h in shifted.hits] \
            == [h.doc_id for h in full.hits][2:]

    def test_cursor_rejected_on_different_query(self, service):
        _, client, _ = service
        page = client.run_query(SESSION, QUERY, limit=1)
        if page.next_cursor is None:
            pytest.skip("corpus too small for a second page")
        with pytest.raises(ServiceError) as excinfo:
            client.run_query(SESSION, None, limit=1,
                             cursor=page.next_cursor)
        assert excinfo.value.code == "bad_cursor"


class TestHttpErrors:
    def test_unknown_session_is_404(self, service):
        server, _, _ = service
        body = P.RunQuery(session="ghost").to_json()
        request = urllib.request.Request(
            server.url + "/v1/call", data=body, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 404

    def test_bad_json_is_400(self, service):
        server, _, _ = service
        request = urllib.request.Request(
            server.url + "/v1/call", data=b"{nope", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unknown_path_is_404(self, service):
        server, client, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/v2/nope",
                                   timeout=30)
        assert excinfo.value.code == 404

    def test_client_raises_typed_errors(self, service):
        _, client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.run_query("ghost")
        assert excinfo.value.code == "unknown_session"
        with pytest.raises(ServiceError) as excinfo:
            client.run_query(SESSION, limit=0)
        assert excinfo.value.code == "bad_request"

    def test_concurrent_requests(self, service):
        """Thread-pooled handler: parallel calls all succeed."""
        _, client, _ = service
        errors = []

        def hammer():
            try:
                for _ in range(5):
                    assert client.run_query(SESSION, QUERY,
                                            limit=3).hits
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class TestReviewRegressions:
    """Pinned fixes from the PR 4 code review."""

    def test_total_only_on_first_page(self, service):
        _, client, _ = service
        first = client.run_query(SESSION, QUERY, limit=2)
        assert first.total is not None
        if first.next_cursor is not None:
            follow = client.run_query(SESSION, QUERY, limit=2,
                                      cursor=first.next_cursor)
            assert follow.total is None

    def test_non_integer_cursor_position_is_bad_cursor(self, service):
        _, client, _ = service
        fingerprint = P.page_fingerprint(QUERY, None, False)
        forged = P.encode_cursor({"f": fingerprint, "k": "abc"})
        with pytest.raises(ServiceError) as excinfo:
            client.run_query(SESSION, QUERY, cursor=forged)
        assert excinfo.value.code == "bad_cursor"

    def test_descending_natural_order_is_honored(self, service):
        _, client, _ = service
        ascending = client.run_query(SESSION, QUERY, limit=100)
        descending = client.run_query(SESSION, QUERY, limit=100,
                                      descending=True)
        assert [h.doc_id for h in descending.hits] \
            == [h.doc_id for h in ascending.hits][::-1]

    def test_unknown_path_code_is_not_found(self, service):
        server, _, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/v2/nope",
                                   timeout=30)
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert body["code"] == "not_found"

    def test_forged_negative_cursor_is_bad_cursor(self, service):
        _, client, _ = service
        fp = P.page_fingerprint(QUERY, "doc_id", False)
        forged = P.encode_cursor({"f": fp, "o": -3})
        with pytest.raises(ServiceError) as excinfo:
            client.run_query(SESSION, QUERY, order_by="doc_id",
                             cursor=forged)
        assert excinfo.value.code == "bad_cursor"

    def test_stop_without_start_does_not_hang(self):
        server = AsyncServiceServer(SessionRegistry(), port=0)
        server.stop()  # must return, not deadlock

    def test_hit_hash_consistent_with_eq(self, service):
        _, client, _ = service
        page_a = client.run_query(SESSION, QUERY, limit=2)
        page_b = client.run_query(SESSION, QUERY, limit=2)
        assert set(page_a.hits) == set(page_b.hits)
        assert len({*page_a.hits, *page_b.hits}) == len(page_a.hits)
