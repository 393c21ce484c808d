"""Concurrent read + single-writer ingestion on the store.

The service layer ingests via a background build job while HTTP
worker threads query the same :class:`TrajectoryStore`.  Without the
read-write lock, a posting-list copy racing a posting-list ``add``
dies with ``RuntimeError: set changed size during iteration``, and an
iteration racing ``extend`` can observe half a batch.  These tests
hammer exactly those interleavings.
"""

import threading
import time

import pytest

from repro.core.annotations import AnnotationSet
from repro.storage.locks import ReadWriteLock
from repro.storage.query import Query
from repro.storage.store import TrajectoryStore
from tests.conftest import make_trajectory

STATES = ("a", "b", "c", "d")


def _batch(index, size=20):
    return [make_trajectory(
        mo_id="mo{}".format(index * size + j),
        states=STATES[(index + j) % 3:][:2] or ("a",),
        start=1000.0 * index + j,
        annotations=AnnotationSet.goals("visit"))
        for j in range(size)]


class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        held = threading.Event()
        release = threading.Event()

        def reader():
            with lock.read_locked():
                held.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=reader)
        thread.start()
        assert held.wait(timeout=5)
        # a second reader gets in while the first still holds
        acquired = []
        with lock.read_locked():
            acquired.append(True)
        release.set()
        thread.join()
        assert acquired == [True]

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order = []
        in_write = threading.Event()
        done_write = threading.Event()

        def writer():
            with lock.write_locked():
                in_write.set()
                time.sleep(0.05)
                order.append("write")
            done_write.set()

        thread = threading.Thread(target=writer)
        thread.start()
        assert in_write.wait(timeout=5)
        with lock.read_locked():
            order.append("read")
        thread.join()
        assert order == ["write", "read"]

    def test_writer_preference_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        writer_waiting = threading.Event()
        wrote = threading.Event()

        def writer():
            writer_waiting.set()
            with lock.write_locked():
                wrote.set()

        thread = threading.Thread(target=writer)
        thread.start()
        assert writer_waiting.wait(timeout=5)
        time.sleep(0.05)  # let the writer reach its wait()
        # a new reader must now queue behind the waiting writer
        reader_got_in = threading.Event()

        def late_reader():
            with lock.read_locked():
                reader_got_in.set()

        late = threading.Thread(target=late_reader)
        late.start()
        time.sleep(0.05)
        assert not reader_got_in.is_set()
        assert not wrote.is_set()
        lock.release_read()
        thread.join(timeout=5)
        late.join(timeout=5)
        assert wrote.is_set() and reader_got_in.is_set()


class TestConcurrentStore:
    def test_single_writer_many_readers_stress(self):
        """Queries hammering every index while a writer ingests."""
        store = TrajectoryStore()
        store.extend(_batch(0))
        stop = threading.Event()
        errors = []

        def writer():
            try:
                for index in range(1, 40):
                    store.extend(_batch(index))
            except Exception as error:  # pragma: no cover
                errors.append(error)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    # posting-list copies racing posting-list adds
                    ids = store.ids_visiting_state("a")
                    assert all(isinstance(i, int) for i in ids)
                    # a full planned query (plan + fetch + residual)
                    hits = Query(store).visiting_state("b") \
                        .min_entries(1).execute().to_list()
                    assert all(h.trajectory.trace.visits_state("b")
                               for h in hits)
                    # interval-index rebuild racing invalidation
                    store.ids_active_between(0.0, 1e9)
                    store.time_span()
                    store.state_cardinalities()
            except Exception as error:  # pragma: no cover
                errors.append(error)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        writer_thread = threading.Thread(target=writer)
        for thread in readers:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=60)
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
        assert not errors, errors[:3]
        assert len(store) == 40 * 20

    def test_iteration_snapshots_against_extend(self):
        """An in-flight scan never sees documents appended after it
        began (the iteration-during-extend hazard)."""
        store = TrajectoryStore()
        store.extend(_batch(0, size=50))
        started = len(store)

        iterator = iter(store)
        first = next(iterator)  # snapshot taken
        store.extend(_batch(1, size=50))

        remaining = sum(1 for _ in iterator)
        assert 1 + remaining == started
        assert first.mo_id == "mo0"
        # a fresh iteration sees everything
        assert sum(1 for _ in store) == 100

    def test_query_scan_snapshots_against_extend(self):
        """A streamed query scan started before an ``extend`` yields
        exactly the matches from before it, taking the read lock once
        for its fetches."""
        store = TrajectoryStore()
        store.extend(_batch(0, size=50))
        query = Query(store).min_entries(2)
        expected = [hit.doc_id for hit in query.execute()]
        assert expected

        acquired = []
        real_acquire = ReadWriteLock.acquire_read

        def counted(lock, *args, **kwargs):
            acquired.append(1)
            return real_acquire(lock, *args, **kwargs)

        scan = query.plan().iter_results()
        first = next(scan)  # candidates and the fetch snapshot taken
        store.extend(_batch(1, size=50))
        try:
            ReadWriteLock.acquire_read = counted
            rest = [hit.doc_id for hit in scan]
        finally:
            ReadWriteLock.acquire_read = real_acquire
        assert [first.doc_id] + rest == expected
        assert acquired == []
        assert len([hit.doc_id for hit in query.execute()]) \
            > len(expected)

    def test_id_scan_rejects_ids_stored_after_it_started(self):
        store = TrajectoryStore()
        store.extend(_batch(0, size=5))
        scan = store.iter_ids([0, 6])
        assert next(scan).mo_id == "mo0"
        store.extend(_batch(1, size=5))
        with pytest.raises(IndexError):
            next(scan)

    def test_reads_see_whole_batches_eventually(self):
        """After the writer finishes, every index agrees."""
        store = TrajectoryStore()

        def writer():
            for index in range(10):
                store.extend(_batch(index, size=10))

        thread = threading.Thread(target=writer)
        thread.start()
        thread.join(timeout=60)
        assert len(store) == 100
        assert len(store.all_ids()) == 100
        assert Query(store).visiting_state("a").count() \
            == len(store.ids_visiting_state("a"))
        assert len(store.moving_objects()) == 100

    def test_concurrent_temporal_queries_rebuild_once_each(self):
        """Interval-index lazy rebuild is safe under reader races."""
        store = TrajectoryStore()
        store.extend(_batch(0, size=30))
        results = []
        errors = []

        def stab():
            try:
                results.append(store.states_occupied_at(1005.0))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=stab) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert all(r == results[0] for r in results)

    def test_windowed_reads_race_extend(self):
        """Windowed lookups and stabs racing a writer's ``extend``:
        every answer is the brute-force answer over some document
        prefix between the store's length before and after the call
        (the index and its doc-id column come from one build)."""
        batches = [_batch(index, size=10) for index in range(30)]
        corpus = [doc for batch in batches for doc in batch]
        windows = [(0.0, 1e9), (5000.0, 12000.0), (20005.0, 20005.0),
                   (29100.0, 29150.0), (-5.0, -1.0)]
        active = {window: sorted(
            doc_id for doc_id, doc in enumerate(corpus)
            if doc.trace.entries_overlapping(*window))
            for window in windows}
        stab_times = [1050.0, 15005.0, 28110.0]
        occupied = {t: {doc_id: doc.trace.entry_at(t).state
                        for doc_id, doc in enumerate(corpus)
                        if doc.trace.entry_at(t) is not None}
                    for t in stab_times}
        store = TrajectoryStore()
        store.extend(batches[0])
        stop = threading.Event()
        errors = []
        checked = []

        def some_prefix(before, after, expected):
            return any(expected(length)
                       for length in range(before, after + 1))

        def writer():
            try:
                for batch in batches[1:]:
                    store.extend(batch)
            except Exception as error:  # pragma: no cover
                errors.append(error)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    for window in windows:
                        before = len(store)
                        got = store.ids_active_between(*window)
                        after = len(store)
                        assert some_prefix(
                            before, after,
                            lambda n: got == {i for i in active[window]
                                              if i < n}), window
                    for t in stab_times:
                        before = len(store)
                        got = store.states_occupied_at(t)
                        after = len(store)
                        assert some_prefix(
                            before, after,
                            lambda n: got == {
                                i: state for i, state
                                in occupied[t].items() if i < n}), t
                    checked.append(1)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        writer_thread = threading.Thread(target=writer)
        for thread in readers:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=60)
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
        assert not errors, errors[:3]
        assert checked
        assert len(store) == len(corpus)
        for window in windows:
            assert sorted(store.ids_active_between(*window)) \
                == active[window]


class TestSequenceColumn:
    def test_column_reads_race_extend(self):
        """Mining reads racing a writer's ``extend``: a whole-store
        corpus has exactly as many rows as its column snapshot has
        documents, a query's rows are its matches over some prefix
        its column covers, and both decode to the documents' distinct
        sequences."""
        from repro.mining.corpus import SequenceCorpus

        batches = [_batch(index, size=10) for index in range(30)]
        corpus = [doc for batch in batches for doc in batch]
        expected = [list(doc.distinct_states) for doc in corpus]
        store = TrajectoryStore()
        store.extend(batches[0])
        stop = threading.Event()
        errors = []
        checked = []

        def writer():
            try:
                for batch in batches[1:]:
                    store.extend(batch)
            except Exception as error:  # pragma: no cover
                errors.append(error)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    before = len(store)
                    whole = SequenceCorpus.of(store)
                    rows = whole.lists()
                    after = len(store)
                    assert len(whole) == len(whole.column)
                    assert before <= len(rows) <= after
                    assert rows == expected[:len(rows)]
                    # A query's column is read after its plan, so it
                    # covers every id the plan saw (and maybe more).
                    matched = SequenceCorpus.of(
                        Query(store).visiting_state("b"))
                    rows = matched.lists()
                    seen = len(matched.column)
                    assert any(rows == [sequence for sequence
                                        in expected[:length]
                                        if "b" in sequence]
                               for length in range(before, seen + 1))
                    checked.append(seen)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        writer_thread = threading.Thread(target=writer)
        for thread in readers:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=60)
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
        assert not errors, errors[:3]
        assert checked
        assert len(store.sequence_column()) == len(corpus)

    def test_racing_catch_ups_publish_equal_columns(self):
        """Readers catching the column up at once build and publish
        equal snapshots."""
        store = TrajectoryStore()
        for index in range(5):
            store.extend(_batch(index))
        barrier = threading.Barrier(8)
        columns = []
        errors = []

        def catch_up():
            try:
                barrier.wait(timeout=10)
                columns.append(store.sequence_column())
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=catch_up) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors[:3]
        published = store.sequence_column()
        assert len(columns) == 8
        for column in columns:
            assert len(column) == len(store)
            assert column.sequences == published.sequences
            assert column.alphabet == published.alphabet
            for name in ("ids", "codes", "start", "length", "end",
                         "previous"):
                assert getattr(column, name).tolist() \
                    == getattr(published, name).tolist(), name
