"""Property test: sharded keyset pagination == unsharded, always.

Hypothesis drives the whole cursor-translation surface — random
corpus slices, shard counts, *adversarial* routers (any function of
the doc id, not just the hash ring), orderings, directions and page
sizes — and asserts that a full cursor walk over the sharded engine
yields byte-identical pages to the single-process executor, and both
the pages of the test-side reference (:mod:`tests.service
.reference_reads`).  A second property checks the hard case: a cursor
issued before more documents arrive must resume identically after
every engine ingests them.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import protocol as P
from repro.service.executor import LocalBinding
from repro.service.registry import SessionRegistry
from repro.service.wire import execute_json
from repro.shard import ShardCoordinator
from repro.storage.store import TrajectoryStore
from tests.service import reference_reads

SESSION = "s"
ORDERINGS = [None, "doc_id", "mo_id", "t_start", "t_end",
             "duration", "entries"]

_DOCS = None


def reference_docs():
    """The seeded corpus, built once per process."""
    global _DOCS
    if _DOCS is None:
        registry = SessionRegistry()
        registry.build(SESSION, source="louvre", scale=0.03,
                       wait=True)
        store = registry.get(SESSION).workbench.store
        _DOCS = [trajectory.to_dict() for trajectory in store]
    return _DOCS


def engines(docs, shard_count, seed):
    """(unsharded, sharded) engines holding the same documents,
    the sharded one routed by a seeded arbitrary function."""
    single = LocalBinding(SessionRegistry())
    single.call(P.IngestDocuments(session=SESSION, docs=docs))
    coordinator = ShardCoordinator.local(
        shard_count,
        router=lambda doc_id: (doc_id * 2654435761 + seed)
        % shard_count)
    coordinator.execute_command(P.IngestDocuments(
        session=SESSION, docs=docs))
    return single.registry, coordinator


def walk(engine, order_by, descending, limit, offset=0,
         cursor=None):
    """The page bodies of a whole walk; ``engine`` is an engine or a
    reference store."""
    pages = []
    while True:
        command = P.RunQuery(session=SESSION, limit=limit,
                             cursor=cursor, offset=offset,
                             order_by=order_by,
                             descending=descending)
        if isinstance(engine, TrajectoryStore):
            status, body = reference_reads.wire(engine, command)
        else:
            status, body = execute_json(engine, command.to_json())
        assert status == 200, body
        pages.append(body)
        cursor = json.loads(body)["next_cursor"]
        if cursor is None:
            return pages


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sharded_walk_equals_unsharded_walk(data):
    docs = reference_docs()
    count = data.draw(st.integers(min_value=0,
                                  max_value=len(docs)))
    shard_count = data.draw(st.integers(min_value=1, max_value=5))
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 32))
    order_by = data.draw(st.sampled_from(ORDERINGS))
    descending = data.draw(st.booleans())
    limit = data.draw(st.integers(min_value=1, max_value=9))
    offset = data.draw(st.integers(min_value=0, max_value=5))

    single, sharded = engines(docs[:count], shard_count, seed)
    expected = walk(reference_reads.store_of(docs[:count]), order_by,
                    descending, limit, offset)
    assert walk(single, order_by, descending, limit, offset) == expected
    assert walk(sharded, order_by, descending, limit, offset) == expected


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_cursor_survives_concurrent_ingest(data):
    docs = reference_docs()
    split = data.draw(st.integers(min_value=1,
                                  max_value=len(docs) - 1))
    shard_count = data.draw(st.integers(min_value=1, max_value=4))
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 32))
    order_by = data.draw(st.sampled_from(ORDERINGS))
    descending = data.draw(st.booleans())
    limit = data.draw(st.integers(min_value=1, max_value=7))

    single, sharded = engines(docs[:split], shard_count, seed)
    oracle = reference_reads.store_of(docs[:split])
    first = P.RunQuery(session=SESSION, limit=limit,
                       order_by=order_by, descending=descending)
    page_single = execute_json(single, first.to_json())
    assert page_single == reference_reads.wire(oracle, first)
    assert execute_json(sharded, first.to_json()) == page_single
    cursor = json.loads(page_single[1])["next_cursor"]

    late = docs[split:]
    LocalBinding(single).call(P.IngestDocuments(session=SESSION,
                                                docs=late))
    sharded.execute_command(P.IngestDocuments(session=SESSION,
                                              docs=late))
    reference_reads.extend(oracle, late)
    if cursor is not None:
        expected = walk(oracle, order_by, descending, limit,
                        cursor=cursor)
        assert walk(single, order_by, descending, limit,
                    cursor=cursor) == expected
        assert walk(sharded, order_by, descending, limit,
                    cursor=cursor) == expected
