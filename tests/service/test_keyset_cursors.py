"""Ordered pagination: keyset cursors under concurrent ingestion.

Offset cursors were only stable for quiescent sessions (documented in
``docs/service.md`` before this change): an ingest between two pages
shifted the sorted view under the walker, repeating or skipping hits.
Keyset cursors encode the last hit's ``(order-key value, doc id)``
and resume strictly past that boundary, so every document present at
walk start is served exactly once regardless of concurrent appends.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import protocol as P
from repro.service.client import ServiceError
from repro.service.executor import LocalBinding, parse_query
from repro.service.registry import SessionRegistry
from repro.storage.results import ORDER_KEYS, ResultSet

SESSION = "keyset"


@pytest.fixture()
def binding():
    binding = LocalBinding(SessionRegistry())
    binding.call(P.BuildDataset(session=SESSION, scale=0.02,
                                wait=True))
    return binding


def walk(binding, order_by, descending=False, limit=3,
         session=SESSION, grow_after=None):
    """Full cursor walk; optionally ingest after the first page."""
    pages = 0
    seen = []
    cursor = None
    while True:
        page = binding.call(P.RunQuery(
            session=session, limit=limit, cursor=cursor,
            order_by=order_by, descending=descending,
            include_total=False))
        seen.extend(page.hits)
        pages += 1
        if pages == 1 and grow_after is not None:
            grow_after()
        if page.next_cursor is None:
            return seen
        cursor = page.next_cursor


def store_of(binding, session=SESSION):
    return binding.registry.get(session).workbench.store


class TestQuiescentOrderings:
    @pytest.mark.parametrize("order_by", ["duration", "mo_id",
                                          "t_start", "entries",
                                          "doc_id"])
    def test_walk_matches_full_sort(self, binding, order_by):
        from repro.storage.results import ORDER_KEYS
        from repro.storage.store import StoredTrajectory

        hits = walk(binding, order_by)
        store = store_of(binding)
        expected = sorted(
            (StoredTrajectory(i, store.get(i))
             for i in range(len(store))),
            key=lambda h: (ORDER_KEYS[order_by](h), h.doc_id))
        assert [h.doc_id for h in hits] \
            == [h.doc_id for h in expected]

    def test_descending_walk(self, binding):
        hits = walk(binding, "duration", descending=True)
        durations = [h.trajectory.duration for h in hits]
        assert durations == sorted(durations, reverse=True)
        assert len({h.doc_id for h in hits}) == len(hits)

    def test_ties_break_on_doc_id(self, binding):
        # every document matches; entries has heavy ties
        hits = walk(binding, "entries", limit=2)
        composite = [(len(h.trajectory.trace), h.doc_id)
                     for h in hits]
        assert composite == sorted(composite)


class TestConcurrentIngestion:
    def test_no_repeat_no_skip_of_initial_documents(self, binding):
        """Every document present at walk start appears exactly once,
        even though an ingest doubled the corpus after page one."""
        initial = len(store_of(binding))

        def grow():
            binding.call(P.BuildDataset(session=SESSION, scale=0.02,
                                        wait=True))

        hits = walk(binding, "duration", limit=2, grow_after=grow)
        doc_ids = [h.doc_id for h in hits]
        assert len(set(doc_ids)) == len(doc_ids), "repeated a hit"
        missing = set(range(initial)) - set(doc_ids)
        assert not missing, "skipped pre-existing documents"

    def test_late_documents_follow_global_order(self, binding):
        """Whatever the walk serves is ordered — newly ingested
        documents may join, but only in their sorted place past the
        boundary."""
        def grow():
            binding.call(P.BuildDataset(session=SESSION, scale=0.01,
                                        wait=True))

        hits = walk(binding, "duration", limit=2, grow_after=grow)
        composite = [(h.trajectory.duration, h.doc_id) for h in hits]
        assert composite == sorted(composite)


class TestCursorValidation:
    def first_cursor(self, binding, **kwargs):
        page = binding.call(P.RunQuery(session=SESSION, limit=2,
                                       include_total=False, **kwargs))
        assert page.next_cursor is not None
        return page.next_cursor

    def test_cursor_carries_keyset_boundary(self, binding):
        token = P.decode_cursor(
            self.first_cursor(binding, order_by="duration"))
        assert "okv" in token and "k" in token

    def test_legacy_offset_cursor_rejected(self, binding):
        fingerprint = P.page_fingerprint(None, "duration", False)
        legacy = P.encode_cursor({"f": fingerprint, "o": 2, "k": 1})
        with pytest.raises(ServiceError) as excinfo:
            binding.call(P.RunQuery(session=SESSION, limit=2,
                                    order_by="duration",
                                    cursor=legacy))
        assert excinfo.value.code == "bad_cursor"

    def test_unorderable_boundary_rejected(self, binding):
        fingerprint = P.page_fingerprint(None, "duration", False)
        forged = P.encode_cursor({"f": fingerprint,
                                  "okv": [1, 2], "k": 1})
        with pytest.raises(ServiceError) as excinfo:
            binding.call(P.RunQuery(session=SESSION, limit=2,
                                    order_by="duration",
                                    cursor=forged))
        assert excinfo.value.code == "bad_cursor"

    def test_type_mismatched_boundary_rejected(self, binding):
        # a str boundary against a float key must be bad_cursor, not
        # an internal TypeError
        fingerprint = P.page_fingerprint(None, "duration", False)
        forged = P.encode_cursor({"f": fingerprint,
                                  "okv": "not-a-duration", "k": 1})
        with pytest.raises(ServiceError) as excinfo:
            binding.call(P.RunQuery(session=SESSION, limit=2,
                                    order_by="duration",
                                    cursor=forged))
        assert excinfo.value.code == "bad_cursor"

    def test_cursor_bound_to_ordering(self, binding):
        cursor = self.first_cursor(binding, order_by="duration")
        with pytest.raises(ServiceError) as excinfo:
            binding.call(P.RunQuery(session=SESSION, limit=2,
                                    order_by="mo_id", cursor=cursor))
        assert excinfo.value.code == "bad_cursor"


# ----------------------------------------------------------------------
# The bounded keyset page against the full-sort definition
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shared_binding():
    binding = LocalBinding(SessionRegistry())
    binding.call(P.BuildDataset(session=SESSION, scale=0.02,
                                wait=True))
    return binding


def window_query(store, first, last):
    """A window over fractions ``first..last`` of the corpus span."""
    lo, hi = store.time_span()
    return {"op": "window", "start": lo + (hi - lo) * first,
            "end": lo + (hi - lo) * last}


QUERY_SHAPES = ["all", "window", "zone-and-day", "residual", "empty"]


def query_of(store, shape):
    if shape == "all":
        return None
    window = window_query(store, 0.3, 0.6)
    if shape == "window":
        return {"expr": window}
    if shape == "zone-and-day":
        stay = store.get(0).trace[0]
        return {"expr": {"op": "and", "children": [
            {"op": "state", "state": stay.state},
            {"op": "window", "start": stay.t_start,
             "end": stay.t_start + 86400.0}]}}
    if shape == "residual":
        return {"expr": {"op": "and", "children": [
            window, {"op": "min-duration", "seconds": 600.0}]}}
    return {"expr": window_query(store, 2.0, 3.0)}


def full_sort_page(store, query, order_by, descending, offset, limit,
                   boundary):
    """The page by definition: sort everything on the composite key,
    keep what lies strictly past the boundary, slice.  Returns the
    page's doc ids and whether a next page exists; raises TypeError
    for a boundary that does not order against the key."""
    key_fn = ORDER_KEYS[order_by]

    def composite(hit):
        return (key_fn(hit), hit.doc_id)

    ordered = sorted(parse_query(store, query).execute().to_list(),
                     key=composite, reverse=descending)
    if boundary is not None:
        if descending:
            ordered = [hit for hit in ordered if composite(hit) < boundary]
        else:
            ordered = [hit for hit in ordered if composite(hit) > boundary]
    page = ordered[offset:offset + limit]
    return [hit.doc_id for hit in page], len(ordered) > offset + limit


@st.composite
def boundaries(draw, order_by):
    """``None``, a real hit's key, a same-typed value anywhere, or a
    value of the wrong type (which must surface as ``bad_cursor``)."""
    kind = draw(st.sampled_from(["none", "same-type", "wrong-type"]))
    if kind == "none":
        return None
    doc_id = draw(st.integers(0, 600))
    if kind == "wrong-type":
        value = 7 if order_by == "mo_id" else draw(st.text(max_size=4))
    elif order_by == "mo_id":
        value = draw(st.text(alphabet="MOmo-0123456789", max_size=8))
    elif order_by in ("doc_id", "entries"):
        value = draw(st.integers(-1, 600))
    else:
        value = draw(st.floats(-1e10, 2e9, allow_nan=False))
    return value, doc_id


@settings(max_examples=120, deadline=None)
@given(order_by=st.sampled_from(sorted(ORDER_KEYS)),
       descending=st.booleans(),
       shape=st.sampled_from(QUERY_SHAPES),
       offset=st.one_of(st.integers(0, 40), st.just(2 ** 70)),
       limit=st.integers(1, 30),
       data=st.data())
def test_keyset_page_matches_full_sort(shared_binding, order_by,
                                       descending, shape, offset, limit,
                                       data):
    store = store_of(shared_binding)
    query = query_of(store, shape)
    boundary = data.draw(boundaries(order_by))
    if data.draw(st.booleans()) and boundary is not None:
        # a boundary on a real hit of this stream
        hits = parse_query(store, query).execute().to_list()
        if hits:
            hit = data.draw(st.sampled_from(hits))
            boundary = (ORDER_KEYS[order_by](hit), hit.doc_id)
    cursor = None
    if boundary is not None:
        cursor = P.encode_cursor({
            "f": P.page_fingerprint(query, order_by, descending),
            "okv": boundary[0], "k": boundary[1]})
    command = P.RunQuery(session=SESSION, query=query, limit=limit,
                         offset=offset, cursor=cursor, order_by=order_by,
                         descending=descending, include_total=False)
    try:
        expected, more = full_sort_page(store, query, order_by,
                                        descending, offset, limit,
                                        boundary)
    except TypeError:
        with pytest.raises(ServiceError) as excinfo:
            shared_binding.call(command)
        assert excinfo.value.code == "bad_cursor"
        return
    page = shared_binding.call(command)
    assert [hit.doc_id for hit in page.hits] == expected
    assert (page.next_cursor is not None) == (more and bool(expected))
    if page.next_cursor is not None:
        token = P.decode_cursor(page.next_cursor)
        last = page.hits[-1]
        assert (token["okv"], token["k"]) \
            == (ORDER_KEYS[order_by](last), last.doc_id)


# ----------------------------------------------------------------------
# No hidden counts: one window lookup per page
# ----------------------------------------------------------------------
def test_to_list_never_counts():
    counts = []

    def fast_count():
        counts.append(1)
        return 3

    results = ResultSet(lambda: iter([10, 11, 12]), fast_count)
    assert results.to_list() == [10, 11, 12]
    assert results.limit(2).to_list() == [10, 11]
    assert results.offset(1).to_list() == [11, 12]
    assert counts == []


def count_window_lookups(monkeypatch, store):
    calls = []
    real = store.ids_active_between

    def spy(start, end):
        calls.append((start, end))
        return real(start, end)

    monkeypatch.setattr(store, "ids_active_between", spy)
    return calls


@pytest.mark.parametrize("order_by", [None, "duration", "t_start"])
def test_windowed_pages_probe_the_index_once_each(binding, monkeypatch,
                                                  order_by):
    store = store_of(binding)
    query = {"expr": window_query(store, 0.2, 0.5)}
    calls = count_window_lookups(monkeypatch, store)
    first = binding.call(P.RunQuery(session=SESSION, query=query,
                                    limit=3, order_by=order_by,
                                    include_total=True))
    assert first.total is not None and first.next_cursor is not None
    assert len(calls) == 2  # the page and the total
    del calls[:]
    binding.call(P.RunQuery(session=SESSION, query=query, limit=3,
                            order_by=order_by, include_total=True,
                            cursor=first.next_cursor))
    assert len(calls) == 1
