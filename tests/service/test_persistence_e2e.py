"""End-to-end durability: a restarted registry serves the same
sessions, byte-for-byte, over HTTP.

The ISSUE acceptance bar: build a session through the service, kill
the server, start a fresh registry over the same ``persist_dir``, and
get a byte-identical ``RunQuery`` (and mining output) from the
restored corpus — plus the new ``SaveSession``/``RestoreSession``
protocol commands on both transports.
"""

import os

import pytest

from repro.service import protocol as P
from repro.service.aserver import AsyncServiceServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.executor import LocalBinding
from repro.service.registry import SessionRegistry

SESSION = "louvre@persist"
QUERY = {"expr": {"op": "annotation", "kind": "goal",
                  "value": "visit"}}


@pytest.fixture(scope="module")
def persist_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("registry"))


@pytest.fixture(scope="module")
def first_run(persist_dir):
    """Server #1: durable registry, one built session, then killed.

    Yields the wire bytes captured before the shutdown.
    """
    registry = SessionRegistry(persist_dir=persist_dir)
    server = AsyncServiceServer(registry, port=0).start()
    client = ServiceClient(server.url)
    info = client.build(SESSION, scale=0.02, wait=True)
    assert info.state == "done"
    captured = {
        "query": client.run_query(SESSION, QUERY,
                                  limit=10).to_json(),
        "patterns": client.mine_patterns(
            SESSION, min_support=0.3).to_json(),
        "summary": client.summary(SESSION).to_json(),
        "saved": client.save_session(SESSION),
    }
    server.stop()
    return captured


class TestRestartByteIdentity:
    @pytest.fixture(scope="class")
    def second_run(self, persist_dir, first_run):
        registry = SessionRegistry(persist_dir=persist_dir)
        server = AsyncServiceServer(registry, port=0).start()
        try:
            yield server, ServiceClient(server.url), registry
        finally:
            server.stop()

    def test_sessions_restored(self, second_run, first_run):
        _, client, registry = second_run
        assert SESSION in registry.names()
        roster = client.sessions().sessions
        assert [s.name for s in roster] == [SESSION]
        assert roster[0].state == "ready"
        assert roster[0].space == "LouvreSpace"

    def test_run_query_byte_identical(self, second_run, first_run):
        _, client, _ = second_run
        again = client.run_query(SESSION, QUERY, limit=10)
        assert again.to_json() == first_run["query"]

    def test_mining_byte_identical(self, second_run, first_run):
        _, client, _ = second_run
        assert client.mine_patterns(
            SESSION, min_support=0.3).to_json() \
            == first_run["patterns"]
        assert client.summary(SESSION).to_json() \
            == first_run["summary"]

    def test_save_over_http_reports_snapshot(self, second_run,
                                             first_run):
        _, client, _ = second_run
        saved = client.save_session(SESSION)
        assert saved.session == SESSION
        assert saved.trajectories \
            == first_run["saved"].trajectories
        assert saved.snapshot > first_run["saved"].snapshot

    def test_restore_over_http(self, second_run, first_run):
        _, client, _ = second_run
        info = client.restore_session(SESSION)
        assert info.trajectories == first_run["saved"].trajectories
        again = client.run_query(SESSION, QUERY, limit=10)
        assert again.to_json() == first_run["query"]


class TestAutosaveRecoversUnsavedSessions:
    def test_build_alone_is_durable(self, tmp_path):
        """No explicit SaveSession: the auto-checkpoint after the
        build already made the session durable."""
        directory = str(tmp_path / "auto")
        registry = SessionRegistry(persist_dir=directory)
        registry.build("auto@1", scale=0.01, wait=True)
        count = len(registry.get("auto@1").workbench.store)
        assert count > 0

        reborn = SessionRegistry(persist_dir=directory)
        assert "auto@1" in reborn.names()
        assert len(reborn.get("auto@1").workbench.store) == count

    def test_wal_covers_crash_before_checkpoint(self, tmp_path):
        """Ingestion that never checkpointed still recovers: the
        store journals batches as they stream."""
        from tests.conftest import make_trajectory

        directory = str(tmp_path / "crash")
        registry = SessionRegistry(persist_dir=directory)
        session = registry.create("crashy")
        session.workbench.store.extend(
            [make_trajectory(mo_id="m{}".format(i))
             for i in range(7)])
        # no checkpoint, no clean shutdown — just a new registry
        reborn = SessionRegistry(persist_dir=directory)
        assert len(reborn.get("crashy").workbench.store) == 7


class TestDropAndCorruption:
    def test_drop_purges_disk_so_rebuild_starts_fresh(self,
                                                      tmp_path):
        """DropSession + BuildDataset must yield one corpus, not the
        restored-plus-rebuilt double."""
        directory = str(tmp_path / "reg")
        registry = SessionRegistry(persist_dir=directory)
        binding = LocalBinding(registry)
        binding.call(P.BuildDataset(session="louvre", scale=0.01,
                                    wait=True))
        count = len(registry.get("louvre").workbench.store)
        binding.call(P.DropSession(session="louvre"))
        assert not os.listdir(directory)  # disk home removed too
        binding.call(P.BuildDataset(session="louvre", scale=0.01,
                                    wait=True))
        assert len(registry.get("louvre").workbench.store) == count

    def test_dropped_session_stays_dropped_after_restart(self,
                                                         tmp_path):
        directory = str(tmp_path / "reg")
        registry = SessionRegistry(persist_dir=directory)
        registry.build("gone", scale=0.01, wait=True)
        registry.drop("gone")
        assert "gone" not in SessionRegistry(
            persist_dir=directory).names()

    def test_one_corrupt_session_does_not_break_construction(
            self, tmp_path):
        directory = str(tmp_path / "reg")
        registry = SessionRegistry(persist_dir=directory)
        registry.build("healthy", scale=0.01, wait=True)
        registry.build("rotten", scale=0.01, wait=True)
        current = open(os.path.join(directory, "rotten",
                                    "CURRENT")).read().strip()
        manifest = os.path.join(directory, "rotten", current,
                                "MANIFEST.json")
        raw = bytearray(open(manifest, "rb").read())
        raw[len(raw) // 2] ^= 0x01
        open(manifest, "wb").write(bytes(raw))

        reborn = SessionRegistry(persist_dir=directory)
        assert "healthy" in reborn.names()
        assert "rotten" not in reborn.names()
        assert "rotten" in reborn.restore_errors


class TestPersistenceErrors:
    def test_save_without_persist_dir_is_persistence_error(self):
        binding = LocalBinding(SessionRegistry())
        binding.call(P.BuildDataset(session="ephemeral", scale=0.01,
                                    wait=True))
        with pytest.raises(ServiceError) as excinfo:
            binding.call(P.SaveSession(session="ephemeral"))
        assert excinfo.value.code == "persistence"

    def test_save_unknown_session_is_unknown_session(self):
        binding = LocalBinding(SessionRegistry())
        with pytest.raises(ServiceError) as excinfo:
            binding.call(P.SaveSession(session="nope"))
        assert excinfo.value.code == "unknown_session"

    def test_restore_unknown_name_is_404_not_500(self, tmp_path):
        binding = LocalBinding(
            SessionRegistry(persist_dir=str(tmp_path / "empty")))
        with pytest.raises(ServiceError) as excinfo:
            binding.call(P.RestoreSession(session="ghost"))
        assert excinfo.value.code == "unknown_session"

    def test_restore_in_memory_session_never_persisted(self,
                                                       tmp_path):
        registry = SessionRegistry(persist_dir=str(tmp_path / "p"),
                                   autosave=False)
        registry.create("fresh")  # exists in memory, empty on disk
        # remove its (empty) durable home to simulate nothing written
        import shutil as shutil_module

        shutil_module.rmtree(str(tmp_path / "p"), ignore_errors=True)
        binding = LocalBinding(registry)
        with pytest.raises(ServiceError) as excinfo:
            binding.call(P.RestoreSession(session="fresh"))
        assert excinfo.value.code == "persistence"

    def test_persistence_error_is_http_500(self, tmp_path):
        registry = SessionRegistry()  # no persist_dir
        registry.build("x", scale=0.01, wait=True)
        server = AsyncServiceServer(registry, port=0).start()
        try:
            client = ServiceClient(server.url)
            with pytest.raises(ServiceError) as excinfo:
                client.save_session("x")
            assert excinfo.value.code == "persistence"
            assert excinfo.value.http_status == 500
            assert "[HTTP 500]" in str(excinfo.value)
        finally:
            server.stop()

    def test_corrupt_snapshot_surfaces_on_restore(self, tmp_path):
        directory = str(tmp_path / "corrupt")
        registry = SessionRegistry(persist_dir=directory)
        registry.build("fragile", scale=0.01, wait=True)
        # flip one byte in the current snapshot's manifest
        session_dir = os.path.join(directory, "fragile")
        current = open(os.path.join(session_dir, "CURRENT")).read()
        manifest = os.path.join(session_dir, current.strip(),
                                "MANIFEST.json")
        raw = bytearray(open(manifest, "rb").read())
        raw[len(raw) // 2] ^= 0x01
        open(manifest, "wb").write(bytes(raw))

        binding = LocalBinding(registry)
        with pytest.raises(ServiceError) as excinfo:
            binding.call(P.RestoreSession(session="fragile"))
        assert excinfo.value.code == "persistence"
