"""Coordinator error paths under injected wire failures: hangs become
typed deadline errors, mid-pagination death degrades or fails typed,
corrupt bytes fail over, and nothing leaks threads."""

import threading
import time

import pytest

from repro.resilience import FaultSchedule, RetryPolicy
from repro.service import protocol as P

from tests.resilience.conftest import SESSION, FaultyCluster


@pytest.fixture()
def cluster_factory(corpus_docs):
    built = []

    def build(**kwargs):
        cluster = FaultyCluster(corpus_docs, **kwargs)
        built.append(cluster)
        return cluster

    yield build
    for cluster in built:
        cluster.close()


class TestHangs:
    def test_hung_shard_times_out_typed_not_forever(
            self, cluster_factory):
        cluster = cluster_factory(
            shard_count=2, replicas=1,
            schedules={(1, 0): FaultSchedule(
                seed=5, hang_rate=1.0, hang_seconds=30.0)})
        command = P.RunQuery(session=SESSION,
                             limit=3).with_deadline(400)
        start = time.monotonic()
        response = cluster.coordinator.execute_command(command)
        elapsed = time.monotonic() - start
        assert isinstance(response, P.ErrorInfo), response
        assert response.code == "deadline_exceeded"
        # Bounded by deadline + scatter grace, nowhere near the
        # 30s injected hang.
        assert elapsed < 3.0, elapsed

    def test_hung_replica_fails_over_within_the_deadline(
            self, cluster_factory, single):
        cluster = cluster_factory(
            shard_count=2, replicas=2,
            schedules={(1, 0): FaultSchedule(
                seed=5, hang_rate=1.0, hang_seconds=30.0)})
        command = P.RunQuery(session=SESSION,
                             limit=5).with_deadline(2000)
        response = cluster.coordinator.execute_command(command)
        assert response.to_dict() == single.call(
            P.RunQuery(session=SESSION, limit=5)).to_dict()


class TestDeathBetweenPages:
    def _first_page(self, cluster, allow_partial):
        page = cluster.coordinator.execute_command(P.RunQuery(
            session=SESSION, limit=4, allow_partial=allow_partial))
        assert isinstance(page, P.QueryPage), page
        assert page.next_cursor
        return page

    def test_partial_pagination_degrades_explicitly(
            self, cluster_factory):
        cluster = cluster_factory(shard_count=2, replicas=1)
        page = self._first_page(cluster, allow_partial=True)
        cluster.wires[1][0].kill()
        follow = cluster.coordinator.execute_command(P.RunQuery(
            session=SESSION, limit=4, cursor=page.next_cursor,
            allow_partial=True))
        assert isinstance(follow, P.QueryPage), follow
        assert follow.degraded == {"missing_shards": [1]}

    def test_strict_pagination_fails_typed(self, cluster_factory):
        cluster = cluster_factory(shard_count=2, replicas=1)
        page = self._first_page(cluster, allow_partial=False)
        cluster.wires[1][0].kill()
        follow = cluster.coordinator.execute_command(P.RunQuery(
            session=SESSION, limit=4, cursor=page.next_cursor))
        assert isinstance(follow, P.ErrorInfo), follow
        assert follow.code == "unavailable"

    def test_mining_commands_degrade_too(self, cluster_factory,
                                         single):
        cluster = cluster_factory(shard_count=2, replicas=1)
        cluster.wires[0][0].kill()
        strict = cluster.coordinator.execute_command(
            P.Summary(session=SESSION))
        assert isinstance(strict, P.ErrorInfo)
        assert strict.code == "unavailable"
        partial = cluster.coordinator.execute_command(
            P.Summary(session=SESSION, allow_partial=True))
        assert isinstance(partial, P.SummaryStats), partial
        assert partial.degraded == {"missing_shards": [0]}
        reference = single.call(P.Summary(session=SESSION))
        assert partial.stats["visits"] < reference.stats["visits"]


class TestCorruptBytes:
    def test_corrupt_response_fails_over_to_the_twin(
            self, cluster_factory, single):
        cluster = cluster_factory(
            shard_count=2, replicas=2,
            schedules={(0, 0): FaultSchedule(
                seed=5, corrupt_rate=1.0)})
        for _ in range(6):
            response = cluster.coordinator.execute_command(
                P.RunQuery(session=SESSION, limit=3))
            assert response.to_dict() == single.call(
                P.RunQuery(session=SESSION, limit=3)).to_dict()
        assert cluster.wires[0][0].injected["corrupt"] > 0

    def test_transient_corruption_is_absorbed_by_retry(
            self, cluster_factory, single):
        cluster = cluster_factory(
            shard_count=2, replicas=1,
            schedules={(0, 0): FaultSchedule.scripted(["corrupt"])})
        response = cluster.coordinator.execute_command(
            P.RunQuery(session=SESSION, limit=3))
        assert response.to_dict() == single.call(
            P.RunQuery(session=SESSION, limit=3)).to_dict()
        assert cluster.wires[0][0].injected["corrupt"] == 1

    def test_persistent_corruption_fails_typed(self, cluster_factory):
        cluster = cluster_factory(
            shard_count=2, replicas=1,
            schedules={(0, 0): FaultSchedule(seed=5,
                                             corrupt_rate=1.0)},
            retry=RetryPolicy(attempts=2, base=0.001, cap=0.01,
                              seed=3))
        response = cluster.coordinator.execute_command(
            P.RunQuery(session=SESSION, limit=3))
        assert isinstance(response, P.ErrorInfo), response
        assert response.code == "unavailable"


class TestThreadHygiene:
    def test_failure_storms_do_not_leak_threads(self, corpus_docs):
        baseline = threading.active_count()
        for _ in range(3):
            cluster = FaultyCluster(
                corpus_docs, shard_count=2, replicas=2,
                schedules={(0, 0): FaultSchedule(
                    seed=9, drop_rate=0.5),
                    (1, 1): FaultSchedule(
                        seed=10, hang_rate=0.3, hang_seconds=2.0)})
            for _ in range(10):
                cluster.coordinator.execute_command(P.RunQuery(
                    session=SESSION, limit=2,
                    allow_partial=True).with_deadline(500))
            cluster.close()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if threading.active_count() <= baseline + 4:
                break
            time.sleep(0.1)
        assert threading.active_count() <= baseline + 4, \
            [thread.name for thread in threading.enumerate()]


class _ResetOnIngest:
    """A primary binding whose connection resets on every non-empty
    ``IngestDocuments`` (reads and empty writes pass through)."""

    def __init__(self, binding) -> None:
        self.binding = binding

    def call(self, command):
        if isinstance(command, P.IngestDocuments) and command.docs:
            raise ConnectionResetError("reset")
        return self.binding.call(command)


class TestPrimaryTransportErrors:
    """A write primary's transport failure answers ``unavailable``,
    chained to the raw error, never ``internal``."""

    @pytest.fixture()
    def coordinator(self):
        from repro.shard import ShardCoordinator

        coordinator = ShardCoordinator.local(2)
        for target in coordinator.targets:
            target.replicas[0] = _ResetOnIngest(target.replicas[0])
        yield coordinator
        coordinator.close()

    def test_ingest_answers_unavailable(self, coordinator, corpus_docs):
        from repro.service.executor import execute_safely

        response = execute_safely(coordinator, P.IngestDocuments(
            session=SESSION, docs=corpus_docs[:8]))
        assert isinstance(response, P.ErrorInfo), response
        assert response.code == "unavailable", response

    def test_primary_error_is_chained(self, coordinator, corpus_docs):
        from repro.resilience import ReplicaUnavailable

        with pytest.raises(ReplicaUnavailable) as raised:
            coordinator.targets[0].call_write(P.IngestDocuments(
                session=SESSION, docs=corpus_docs[:1]))
        assert isinstance(raised.value.__cause__, ConnectionResetError)

    def test_stream_append_answers_unavailable(self, coordinator):
        from repro.service.executor import execute_safely

        opened = execute_safely(coordinator, P.OpenStream(
            session=SESSION, stream="gates"))
        assert not isinstance(opened, P.ErrorInfo), opened
        events = [{"mo_id": mo_id, "state": state,
                   "t_start": t0 + 60.0 * step,
                   "t_end": t0 + 60.0 * (step + 1)}
                  for mo_id, t0 in (("alice", 0.0), ("bob", 10.0))
                  for step, state in enumerate(
                      ["zone60886", "zone60887"])]
        # The watermark passes the visits' gap, so both close and are
        # stored through the resetting primaries.
        response = execute_safely(coordinator, P.AppendEvents(
            session=SESSION, stream="gates", events=events,
            watermark=10 * 3600.0))
        assert isinstance(response, P.ErrorInfo), response
        assert response.code == "unavailable", response
