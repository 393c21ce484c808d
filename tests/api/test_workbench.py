"""Tests for the Workbench facade (generate → build → store → query
→ mine)."""

import pytest

from repro.api import Workbench
from repro.storage import Query, ResultSet, expr as E
from repro.storage.csvio import write_detections_csv
from tests.conftest import make_trajectory


@pytest.fixture(scope="module")
def workbench(request):
    """A 2 %-scale Louvre workbench shared by the read-only tests."""
    space = request.getfixturevalue("louvre_space")
    return Workbench.louvre(scale=0.02, space=space)


class TestConstruction:
    def test_louvre_builds_store(self, workbench):
        assert len(workbench) > 0
        assert workbench.metrics is not None
        assert workbench.metrics["clean"].items_in > 0

    def test_from_trajectories(self):
        wb = Workbench.from_trajectories(
            [make_trajectory(mo_id="m1"),
             make_trajectory(mo_id="m2", start=9000.0)])
        assert len(wb.store) == 2
        assert wb.query(E.moving_object("m1")).count() == 1

    def test_from_csv(self, tmp_path, louvre_space, small_corpus):
        _, records = small_corpus
        path = str(tmp_path / "detections.csv")
        write_detections_csv(records, path)
        wb = Workbench.from_csv(path, space=louvre_space)
        assert len(wb.store) > 0

    def test_build_without_space_raises(self):
        with pytest.raises(ValueError):
            Workbench().build([])


class TestQuerySurface:
    def test_query_and_find(self, workbench):
        query = workbench.query(E.goal("visit"))
        assert isinstance(query, Query)
        results = workbench.find(E.goal("visit"))
        assert isinstance(results, ResultSet)
        assert results.count() == query.count() == len(workbench)

    def test_explain(self, workbench):
        text = workbench.explain(E.state("zone60853")
                                 & E.goal("visit"))
        assert "intersect" in text
        assert "index-scan" in text

    def test_load_query_round_trip(self, workbench):
        query = workbench.query(E.state("zone60853")
                                | E.state("zone60886"))
        restored = workbench.load_query(query.to_dict())
        assert restored.execute().ids() == query.execute().ids()


class TestMiningOverCorpora:
    def test_corpus_forms_are_equivalent(self, workbench):
        expression = E.min_entries(2)
        query = workbench.query(expression)
        as_query = workbench.sequences(query)
        as_results = workbench.sequences(query.execute())
        as_hits = workbench.sequences(query.execute().to_list())
        as_plain = workbench.sequences(
            list(query.execute().trajectories()))
        assert as_query == as_results == as_hits == as_plain
        assert 0 < len(as_query) < len(workbench)

    def test_none_means_whole_store(self, workbench):
        assert len(workbench.sequences()) == len(workbench)
        assert workbench.summary()["visits"] == len(workbench)

    def test_patterns_over_query(self, workbench):
        patterns = workbench.patterns(
            workbench.query(E.min_entries(2)), min_support=0.2,
            max_length=3)
        assert patterns
        assert patterns[0].support >= patterns[-1].support

    def test_patterns_empty_corpus(self, workbench):
        assert workbench.patterns(
            workbench.query(E.state("no-such-zone"))) == []

    def test_flow_over_result_set(self, workbench):
        balances = workbench.flow(
            workbench.find(E.min_entries(2)))
        assert balances
        assert {b.state for b in balances} <= set(
            workbench.store.state_cardinalities())

    def test_similarity_uses_space_hierarchy(self, workbench):
        results = workbench.find(E.min_entries(2)).limit(4)
        matrix = workbench.similarity(results)
        size = results.count()
        assert len(matrix) == size
        assert all(matrix[i][i] == 1.0 for i in range(size))

    def test_similarity_without_hierarchy(self):
        wb = Workbench.from_trajectories(
            [make_trajectory(mo_id="m1", states=("a", "b")),
             make_trajectory(mo_id="m2", states=("a", "b"),
                             start=9000.0)])
        matrix = wb.similarity()
        assert matrix[0][1] == 1.0


class TestServiceBinding:
    """Workbench is sugar over the service protocol's local
    binding."""

    def test_binding_registers_the_workbench(self, workbench):
        from repro.api import LOCAL_SESSION

        session = workbench.binding.registry.get(LOCAL_SESSION)
        assert session.workbench is workbench

    def test_protocol_path_matches_direct_path(self, workbench):
        """The delegated (command) result equals the direct miner
        call on the same corpus."""
        from repro.service.executor import CorpusReads, mine_patterns

        query = workbench.query(E.min_entries(2))
        via_protocol = workbench.patterns(query, min_support=0.2)
        direct = mine_patterns(CorpusReads(list(query.execute())),
                               min_support=0.2, max_length=4)
        assert via_protocol == direct

    def test_unserializable_query_falls_back(self, workbench):
        """A where() callable cannot cross the protocol; the direct
        path serves it."""
        query = workbench.query().where(
            lambda t: len(t.trace) >= 2, label="fat")
        patterns = workbench.patterns(query, min_support=0.2)
        assert patterns == workbench.patterns(
            workbench.query(E.min_entries(2)), min_support=0.2)

    def test_foreign_store_query_falls_back(self, workbench):
        other = Workbench.from_trajectories(
            [make_trajectory(mo_id="m1", states=("a", "b")),
             make_trajectory(mo_id="m2", states=("a", "b"),
                             start=9000.0)])
        query = other.query(E.state("a"))
        # mined against the *query's* store, not the workbench's
        assert workbench.sequences(query) == [["a", "b"], ["a", "b"]]

    def test_serve_exposes_the_corpus(self, workbench):
        from repro.api import LOCAL_SESSION
        from repro.service.client import ServiceClient

        server = workbench.serve(port=0)
        try:
            client = ServiceClient(server.url)
            page = client.run_query(LOCAL_SESSION, limit=3)
            assert page.total == len(workbench)
        finally:
            server.stop()

    def test_binding_survives_drop_session(self, workbench):
        """DropSession('local') must not brick the facade — the
        binding re-adopts the workbench on next access."""
        from repro.api import LOCAL_SESSION
        from repro.service import protocol as P

        baseline = workbench.summary()["visits"]
        workbench.binding.call(P.DropSession(session=LOCAL_SESSION))
        assert workbench.summary()["visits"] == baseline
