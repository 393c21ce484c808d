"""The versioned response cache: validity, bounds, and what may
never be cached.

The invariant under test: a cache hit returns exactly the bytes that
re-executing the command would produce.  Staleness is impossible by
construction — entries are stamped with the store's
``(serial, version)`` captured before execution and validated against
the live session on every hit — so these tests attack the stamp
logic: ingestion, session drop/rebuild, space swaps, and the error
paths that must bypass the cache entirely.
"""

import json

from repro.service import protocol as P
from repro.service.registry import SessionRegistry
from repro.service.wire import (
    CACHEABLE_KINDS,
    ResponseCache,
    execute_json,
)


def build_registry(name="s", scale=0.01):
    registry = SessionRegistry()
    registry.build(name, scale=scale, wait=True)
    return registry


def raw_query(session="s", **kwargs):
    return P.RunQuery(session=session, **kwargs).to_json()


def serve(engine, raw, cache):
    """What the front-end does with one body: look it up, and only on
    a miss execute it (which inserts a cacheable reply)."""
    held = cache.get(engine, raw)
    if held is not None:
        return held
    return execute_json(engine, raw, cache)


class TestHitSemantics:
    def test_second_call_is_a_hit_with_identical_bytes(self):
        registry = build_registry()
        cache = ResponseCache()
        raw = raw_query(limit=5)
        first = serve(registry, raw, cache)
        second = serve(registry, raw, cache)
        assert first == second
        assert cache.hits == 1
        assert len(cache) == 1

    def test_execute_json_only_inserts(self):
        """The lookup is the caller's: ``execute_json`` executes every
        body it is given and never counts a hit or a miss."""
        registry = build_registry()
        cache = ResponseCache()
        raw = raw_query(limit=5)
        assert execute_json(registry, raw, cache) \
            == execute_json(registry, raw, cache)
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 1)

    def test_ingest_invalidates(self):
        registry = build_registry()
        cache = ResponseCache()
        raw = raw_query(limit=500)
        status, before = serve(registry, raw, cache)
        assert status == 200
        registry.build("s", scale=0.01, wait=True)  # more documents
        status, after = serve(registry, raw, cache)
        assert status == 200
        assert cache.hits == 0
        assert len(json.loads(after)["hits"]) \
            > len(json.loads(before)["hits"])

    def test_rebuilt_session_does_not_serve_old_bytes(self):
        registry = build_registry()
        cache = ResponseCache()
        raw = raw_query(limit=5)
        serve(registry, raw, cache)
        registry.drop("s")
        registry.build("s", scale=0.01, wait=True)
        serve(registry, raw, cache)
        # the rebuilt store has a different serial: never a hit
        assert cache.hits == 0

    def test_unknown_session_errors_are_not_cached(self):
        registry = SessionRegistry()
        cache = ResponseCache()
        status, body = serve(registry, raw_query("ghost"), cache)
        assert status == 404
        assert len(cache) == 0

    def test_bad_request_errors_are_not_cached(self):
        registry = build_registry()
        cache = ResponseCache()
        status, _ = serve(registry, raw_query(limit=0), cache)
        assert status == 400
        assert len(cache) == 0

    def test_mutating_and_lifecycle_kinds_are_not_cached(self):
        registry = build_registry()
        cache = ResponseCache()
        assert "ListSessions" not in CACHEABLE_KINDS
        assert "BuildDataset" not in CACHEABLE_KINDS
        status, _ = serve(registry, P.ListSessions().to_json(), cache)
        assert status == 200
        assert len(cache) == 0


class TestBounds:
    def test_entry_count_eviction_is_lru(self):
        registry = build_registry()
        cache = ResponseCache(max_entries=2)
        first = raw_query(limit=1)
        second = raw_query(limit=2)
        third = raw_query(limit=3)
        serve(registry, first, cache)
        serve(registry, second, cache)
        serve(registry, first, cache)   # refresh first
        serve(registry, third, cache)   # evicts second
        assert len(cache) == 2
        serve(registry, first, cache)
        assert cache.hits == 2  # first survived both evictions
        serve(registry, second, cache)
        assert cache.hits == 2  # second was the LRU victim

    def test_byte_bound_eviction(self):
        registry = build_registry()
        cache = ResponseCache(max_bytes=1)  # nothing fits
        serve(registry, raw_query(limit=5), cache)
        assert len(cache) == 0

    def test_clear_drops_entries(self):
        registry = build_registry()
        cache = ResponseCache()
        serve(registry, raw_query(limit=5), cache)
        cache.clear()
        assert len(cache) == 0
        serve(registry, raw_query(limit=5), cache)
        assert cache.hits == 0

    def test_stats_shape(self):
        cache = ResponseCache()
        stats = cache.stats()
        assert set(stats) == {"entries", "bytes", "hits", "misses"}


class TestStoreVersioning:
    def test_version_bumps_only_on_growth(self):
        registry = build_registry()
        store = registry.get("s").workbench.store
        before = store.version
        store.extend([])
        assert store.version == before
        registry.build("s", scale=0.01, wait=True)
        assert store.version > before

    def test_serials_are_unique_across_stores(self):
        from repro.storage.store import TrajectoryStore

        assert TrajectoryStore().serial != TrajectoryStore().serial

class TestSpaceGeneration:
    """The stamp's space component: a monotonic generation counter,
    not ``id(space)`` (ids are reused after garbage collection)."""

    def test_space_reassignment_bumps_generation(self):
        registry = build_registry()
        workbench = registry.get("s").workbench
        before = workbench.space_generation
        workbench.space = workbench.space
        assert workbench.space_generation > before

    def test_generations_are_unique_across_workbenches(self):
        from repro.api import Workbench

        a = Workbench()
        b = Workbench()
        a.space = None
        b.space = None
        assert a.space_generation != b.space_generation

    def test_space_swap_invalidates_cached_reads(self):
        registry = build_registry()
        cache = ResponseCache()
        raw = raw_query(limit=5)
        first = serve(registry, raw, cache)
        workbench = registry.get("s").workbench
        workbench.space = workbench.space  # same object, new epoch
        second = serve(registry, raw, cache)
        assert first == second  # recomputed, not served stale
        assert cache.hits == 0


class TestCoordinatorStamp:
    """The coordinator's ``Engine.cache_stamp``: a shard coordinator's
    responses cache and invalidate like a registry's."""

    def test_coordinator_reads_hit_until_ingest(self):
        from repro.shard import ShardCoordinator

        coordinator = ShardCoordinator.local(2)
        doc_source = build_registry()
        docs = [t.to_dict()
                for t in doc_source.get("s").workbench.store]
        coordinator.execute_command(
            P.IngestDocuments(session="s", docs=docs[:5]))
        cache = ResponseCache()
        raw = raw_query(limit=50)
        first = serve(coordinator, raw, cache)
        again = serve(coordinator, raw, cache)
        assert first == again
        assert cache.hits == 1
        coordinator.execute_command(
            P.IngestDocuments(session="s", docs=docs[5:]))
        status, after = serve(coordinator, raw, cache)
        assert cache.hits == 1  # stamp changed: recomputed
        assert len(json.loads(after)["hits"]) \
            > len(json.loads(first[1])["hits"])

    def test_unknown_session_stamp_is_none(self):
        from repro.shard import ShardCoordinator

        coordinator = ShardCoordinator.local(1)
        assert coordinator.cache_stamp("ghost") is None

    def test_replaced_session_does_not_serve_old_bytes(self):
        """A dropped and re-created session restarts its ingest
        generation; its process-wide serial must still change the
        stamp."""
        from repro.shard import ShardCoordinator

        docs = [t.to_dict() for t in
                build_registry(scale=0.03).get("s").workbench.store]
        coordinator = ShardCoordinator.local(2)
        coordinator.execute_command(
            P.IngestDocuments(session="s", docs=docs[:40]))
        cache = ResponseCache()
        raw = P.Summary(session="s").to_json()
        status, before = serve(coordinator, raw, cache)
        assert status == 200
        coordinator.execute_command(P.DropSession(session="s"))
        coordinator.execute_command(
            P.IngestDocuments(session="s", docs=docs[40:100]))
        status, after = serve(coordinator, raw, cache)
        assert cache.hits == 0
        assert json.loads(before)["stats"]["visits"] == 40
        assert json.loads(after)["stats"]["visits"] == 60

    def test_restored_session_does_not_serve_old_bytes(self, tmp_path):
        """A restore adopts a new session object whose stamp differs
        from every stamp the replaced one issued."""
        from repro.shard import ShardCoordinator

        docs = [t.to_dict() for t in
                build_registry(scale=0.03).get("s").workbench.store]
        coordinator = ShardCoordinator.local(
            2, persist_dir=str(tmp_path), fsync=False)
        coordinator.execute_command(
            P.IngestDocuments(session="s", docs=docs[:20]))
        cache = ResponseCache()
        raw = P.Summary(session="s").to_json()
        status, before = serve(coordinator, raw, cache)
        assert status == 200
        coordinator.execute_command(
            P.IngestDocuments(session="s", docs=docs[20:40]))
        coordinator.execute_command(P.SaveSession(session="s"))
        restored = coordinator.execute_command(
            P.RestoreSession(session="s"))
        assert restored.trajectories == 40
        status, after = serve(coordinator, raw, cache)
        assert cache.hits == 0
        assert json.loads(before)["stats"]["visits"] == 20
        assert json.loads(after)["stats"]["visits"] == 40
