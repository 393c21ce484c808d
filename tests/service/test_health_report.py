"""Health-document reporting: WAL group-commit counters and the
per-shard saturation section."""

from repro.service import protocol as P
from repro.service.registry import SessionRegistry, wal_report
from repro.service.wire import health_payload


class _FakeWal:
    def __init__(self, appends, group_flushes):
        self.appends = appends
        self.group_flushes = group_flushes


class TestWalReport:
    def test_coalescing_is_appends_per_flush(self):
        report = wal_report(_FakeWal(appends=12, group_flushes=4))
        assert report == {"appends": 12, "group_flushes": 4,
                          "coalescing": 3.0}

    def test_no_flush_yet_reports_none(self):
        report = wal_report(_FakeWal(appends=0, group_flushes=0))
        assert report["coalescing"] is None


class TestHealthPayload:
    def test_durable_sessions_carry_wal_counters(self, tmp_path):
        registry = SessionRegistry(persist_dir=str(tmp_path),
                                   fsync=False)
        registry.build("s", scale=0.01, wait=True)
        payload = health_payload(registry)
        entry = payload["sessions"][0]
        assert entry["name"] == "s"
        assert entry["wal"]["appends"] > 0
        assert entry["wal"]["group_flushes"] > 0
        assert entry["wal"]["coalescing"] >= 1.0

    def test_memory_sessions_have_no_wal_section(self):
        registry = SessionRegistry()
        registry.build("s", scale=0.01, wait=True)
        payload = health_payload(registry)
        assert "wal" not in payload["sessions"][0]
        assert "shards" not in payload

    def test_coordinator_reports_per_shard_saturation(self):
        from repro.shard import ShardCoordinator

        coordinator = ShardCoordinator.local(2)
        coordinator.execute_command(P.BuildDataset(
            session="s", scale=0.01, wait=True))
        payload = health_payload(coordinator)
        assert payload["sessions"][0]["name"] == "s"
        assert payload["sessions"][0]["trajectories"] > 0
        shards = payload["shards"]
        assert [entry["shard"] for entry in shards] == [0, 1]
        assert all(entry["requests"] > 0 for entry in shards)
        assert all(entry["inflight"] == 0 for entry in shards)
