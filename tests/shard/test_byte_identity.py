"""The sharding regression gate: byte-identity with the executor.

Every read command against a sharded session (N ∈ {1, 2, 4}) must
produce *exactly* the bytes the single-process executor produces —
same hits, same order, same cursors, same totals, same error
payloads.  Comparison happens at the wire layer
(:func:`~repro.service.wire.execute_json`), so serialization and
HTTP-status mapping are part of the contract, not just the Python
values.
"""

import json

import pytest

from repro.service import protocol as P
from repro.service.wire import execute_json
from tests.shard.conftest import SESSION, ingested_coordinator

SHARD_COUNTS = [1, 2, 4]


@pytest.fixture(scope="module", params=SHARD_COUNTS)
def sharded(request, corpus_docs):
    return ingested_coordinator(request.param, corpus_docs)


@pytest.fixture(scope="module")
def reference(corpus_docs):
    from repro.service.executor import LocalBinding
    from repro.service.registry import SessionRegistry

    binding = LocalBinding(SessionRegistry())
    binding.call(P.IngestDocuments(session=SESSION,
                                   docs=corpus_docs))
    return binding.registry


#: A query no document matches, and a time window matching some.
NO_MATCH = {"expr": {"op": "state", "state": "no-such-zone"}}
WINDOW = {"expr": {"op": "window", "start": 1488000000.0,
                   "end": 1492000000.0}}


def wire(engine, command):
    """(status, body) for one command at the wire layer."""
    return execute_json(engine, command.to_json())


COMMANDS = [
    P.ListSessions(),
    P.Summary(session=SESSION),
    P.Summary(session=SESSION,
              query={"expr": {"op": "state", "state": "zone60886"}}),
    P.Flow(session=SESSION),
    P.Sequences(session=SESSION),
    P.Similarity(session=SESSION),
    P.MinePatterns(session=SESSION, min_support=0.2, max_length=3),
    P.MinePatterns(session=SESSION, min_support=3, max_length=4),
    P.Explain(session=SESSION),
    P.Explain(session=SESSION,
              query={"expr": {"op": "state", "state": "zone60886"}}),
    P.RunQuery(session=SESSION, limit=7),
    P.RunQuery(session=SESSION, limit=7, order_by="duration"),
    P.RunQuery(session=SESSION, limit=7, order_by="duration",
               descending=True),
    P.RunQuery(session=SESSION, limit=5, order_by="doc_id",
               descending=True),
    P.RunQuery(session=SESSION, limit=5, offset=3,
               order_by="t_start"),
    P.RunQuery(session=SESSION, limit=4, offset=2),
    P.RunQuery(session=SESSION, limit=500),
    P.RunQuery(session=SESSION, limit=6, include_total=False),
    # Error paths must relay byte-identically too.
    P.Summary(session="nope"),
    P.RunQuery(session=SESSION, limit=0),
    P.RunQuery(session=SESSION, order_by="bogus"),
    P.RunQuery(session=SESSION, cursor="not-a-cursor"),
    P.MinePatterns(session=SESSION, min_support=0.2, max_length=0),
    P.RunQuery(session=SESSION,
               query={"expr": {"op": "no-such-op"}}),
    # The single-scatter reads' partials and merges, the shared
    # validators and the shared dispatch, each pinned by name.
    pytest.param(P.StoreStats(session=SESSION), id="StoreStats"),
    pytest.param(P.SummaryParts(session=SESSION, query=WINDOW),
                 id="SummaryParts-windowed"),
    pytest.param(P.CountPatterns(session=SESSION, patterns=[
        ["zone60886"], ["zone60886", "zone60887"], ["no-such-zone"]]),
        id="CountPatterns"),
    pytest.param(P.Summary(session=SESSION, query=NO_MATCH),
                 id="Summary-no-match"),
    pytest.param(P.Flow(session=SESSION, query=NO_MATCH),
                 id="Flow-no-match"),
    pytest.param(P.Sequences(session=SESSION, query=NO_MATCH),
                 id="Sequences-no-match"),
    pytest.param(P.Similarity(session=SESSION, query=NO_MATCH),
                 id="Similarity-no-match"),
    pytest.param(P.MinePatterns(session=SESSION, query=NO_MATCH,
                                max_length=0),
                 id="MinePatterns-no-match-max-length-0"),
    pytest.param(P.MinePatterns(session=SESSION, min_support=-1,
                                max_length=2),
                 id="MinePatterns-negative-support"),
    pytest.param(P.Explain(session=SESSION,
                           query={"expr": {"op": "no-such-op"}}),
                 id="Explain-bad-expression"),
    pytest.param(P.Explain(session="nope"), id="Explain-unknown-session"),
    pytest.param(P.Flow(session="nope"), id="Flow-unknown-session"),
    pytest.param(P.Similarity(session="nope"),
                 id="Similarity-unknown-session"),
    pytest.param(P.MinePatterns(session="nope"),
                 id="MinePatterns-unknown-session"),
    pytest.param(P.SimilarityBlock(session=SESSION,
                                   sequences=[["zone60886"]],
                                   row_start=0, row_end=2),
                 id="SimilarityBlock-out-of-range"),
    pytest.param(P.OpenStream(session=SESSION, stream="feed",
                              checkpoint_every=0),
                 id="OpenStream-checkpoint-every-0"),
    pytest.param(P.StreamStatus(session=SESSION, stream="no-such-stream"),
                 id="StreamStatus-unknown-stream"),
    pytest.param(P.JobStatus(job_id="job-999"), id="JobStatus-unknown-job"),
    pytest.param(P.DropSession(session="nope"),
                 id="DropSession-unknown-session"),
    pytest.param(P.SaveSession(session="nope"),
                 id="SaveSession-unknown-session"),
    pytest.param(P.Summary(session=SESSION).with_deadline(0),
                 id="Summary-spent-deadline"),
    pytest.param(P.RunQuery(session=SESSION, offset=-1),
                 id="RunQuery-negative-offset"),
    pytest.param(P.RunQuery(session=SESSION, query=NO_MATCH),
                 id="RunQuery-no-match"),
    pytest.param(P.CountPatterns(session=SESSION, query=NO_MATCH,
                                 patterns=[["zone60886"]]),
                 id="CountPatterns-no-match"),
]


@pytest.mark.parametrize("command", COMMANDS,
                         ids=lambda c: type(c).__name__)
def test_command_bytes_match(reference, sharded, command):
    assert wire(sharded, command) == wire(reference, command)


def raw(kind, **fields):
    """A command's wire bytes with each field value spliced in as
    literal JSON text — ``NaN``, ``Infinity`` and ``1e400`` included,
    which no encoder emits."""
    body = ['"v":1', '"command":"{}"'.format(kind),
            '"session":"{}"'.format(SESSION)]
    body += ['"{}":{}'.format(name, text) for name, text in fields.items()]
    return ("{" + ",".join(body) + "}").encode("utf-8")


#: Numeric fields that are not finite or not integers, and malformed
#: pattern lists: each a 400 ``bad_request`` with the same bytes on
#: every engine.
MALFORMED = [
    pytest.param(raw("MinePatterns", min_support=text),
                 id="MinePatterns-min_support-" + text)
    for text in ("NaN", "Infinity", "-Infinity", "1e400", '"0.1"',
                 "true")
] + [
    pytest.param(raw("MinePatterns", max_length=text),
                 id="MinePatterns-max_length-" + text)
    for text in ("NaN", "Infinity")
] + [
    pytest.param(raw("RunQuery", limit=text),
                 id="RunQuery-limit-" + text)
    for text in ("NaN", "2.5", '"5"', "Infinity")
] + [
    pytest.param(raw("RunQuery", offset="Infinity"),
                 id="RunQuery-offset-Infinity"),
] + [
    pytest.param(raw("CountPatterns", patterns=text),
                 id="CountPatterns-patterns-" + text)
    for text in ('["ab"]', "[[1,2]]", '[["zone60886",["a"]]]', '"ab"')
]


@pytest.mark.parametrize("body", MALFORMED)
def test_malformed_numbers_and_patterns_match(reference, sharded, body):
    status, reply = execute_json(reference, body)
    assert status == 400
    assert json.loads(reply)["code"] == "bad_request"
    assert execute_json(sharded, body) == (status, reply)


def test_offset_past_maxsize_is_an_empty_page(reference, sharded):
    body = raw("RunQuery", limit=2, offset=str(10 ** 30))
    status, reply = execute_json(reference, body)
    assert status == 200
    assert json.loads(reply)["hits"] == []
    assert execute_json(sharded, body) == (status, reply)


ORDERINGS = [(None, False), ("doc_id", False), ("doc_id", True),
             ("mo_id", False), ("t_start", False), ("t_end", True),
             ("duration", False), ("duration", True),
             ("entries", True)]


@pytest.mark.parametrize("order_by,descending", ORDERINGS)
def test_full_cursor_walk_matches(reference, sharded, order_by,
                                  descending):
    def walk(engine):
        pages = []
        cursor = None
        while True:
            status, body = wire(engine, P.RunQuery(
                session=SESSION, limit=4, cursor=cursor,
                order_by=order_by, descending=descending))
            assert status == 200
            pages.append(body)
            cursor = json.loads(body)["next_cursor"]
            if cursor is None:
                return pages

    assert walk(sharded) == walk(reference)


def test_filtered_walk_matches(reference, sharded):
    query = {"expr": {"op": "min-entries", "count": 3}}

    def walk(engine):
        pages = []
        cursor = None
        while True:
            status, body = wire(engine, P.RunQuery(
                session=SESSION, limit=3, cursor=cursor, query=query,
                order_by="duration", descending=True))
            pages.append((status, body))
            cursor = json.loads(body)["next_cursor"]
            if cursor is None:
                return pages

    assert walk(sharded) == walk(reference)


def test_resume_after_ingest_matches(corpus_docs):
    """A cursor issued before more documents arrive must resume to
    the same bytes on both engines."""
    from repro.service.executor import LocalBinding
    from repro.service.registry import SessionRegistry

    half = len(corpus_docs) // 2
    reference = LocalBinding(SessionRegistry())
    reference.call(P.IngestDocuments(session=SESSION,
                                     docs=corpus_docs[:half]))
    sharded = ingested_coordinator(3, corpus_docs[:half])

    for order_by, descending in [(None, False), ("duration", False),
                                 ("duration", True),
                                 ("doc_id", True)]:
        first = P.RunQuery(session=SESSION, limit=5,
                           order_by=order_by, descending=descending)
        page_r = wire(reference.registry, first)
        page_s = wire(sharded, first)
        assert page_s == page_r
        cursor = json.loads(page_r[1])["next_cursor"]

        reference.call(P.IngestDocuments(session=SESSION,
                                         docs=corpus_docs[half:]))
        sharded.execute_command(P.IngestDocuments(
            session=SESSION, docs=corpus_docs[half:]))
        while cursor is not None:
            resume = P.RunQuery(session=SESSION, limit=5,
                                cursor=cursor, order_by=order_by,
                                descending=descending)
            page_r = wire(reference.registry, resume)
            page_s = wire(sharded, resume)
            assert page_s == page_r
            cursor = json.loads(page_r[1])["next_cursor"]

        # reset both engines for the next ordering
        reference.call(P.DropSession(session=SESSION))
        reference.call(P.IngestDocuments(session=SESSION,
                                         docs=corpus_docs[:half]))
        sharded.execute_command(P.DropSession(session=SESSION))
        sharded.execute_command(P.IngestDocuments(
            session=SESSION, docs=corpus_docs[:half]))


def test_http_frontends_serve_the_coordinator(corpus_docs):
    """The HTTP front-end over a 2-shard coordinator returns the
    same bytes it returns over a plain registry."""
    from repro.service.client import ServiceClient
    from repro.service.registry import SessionRegistry
    from tests.service.conftest import make_server

    registry = SessionRegistry()
    reference = make_server(registry)

    coordinator = ingested_coordinator(2, corpus_docs)
    probes = [P.Summary(session=SESSION),
              P.RunQuery(session=SESSION, limit=6,
                         order_by="duration", descending=True),
              P.Summary(session="nope")]

    import urllib.error
    import urllib.request

    def fetch(url, command):
        request = urllib.request.Request(
            url + "/v1/call", data=command.to_json(),
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request) as reply:
                return reply.status, reply.read()
        except urllib.error.HTTPError as error:
            return error.code, error.read()

    reference.start()
    try:
        client = ServiceClient(reference.url)
        client.call(P.IngestDocuments(session=SESSION,
                                      docs=corpus_docs))
        expected = [fetch(reference.url, probe) for probe in probes]
    finally:
        reference.stop()

    server = make_server(coordinator)
    server.start()
    try:
        got = [fetch(server.url, probe) for probe in probes]
        assert got == expected
        health = ServiceClient(server.url).health()
        assert len(health["shards"]) == 2
        assert health["shards"][0]["requests"] > 0
    finally:
        server.stop()


def test_build_dataset_fans_out(corpus_docs):
    """A build through the coordinator yields the same session bytes
    as the same build through a registry."""
    from repro.service.registry import SessionRegistry
    from repro.shard import ShardCoordinator

    registry = SessionRegistry()
    registry.build("b", source="louvre", scale=0.02, wait=True)

    coordinator = ShardCoordinator.local(2)
    info = coordinator.execute_command(P.BuildDataset(
        session="b", source="louvre", scale=0.02, wait=True))
    assert isinstance(info, P.JobInfo) and info.state == "done"

    for probe in (P.Summary(session="b"),
                  P.RunQuery(session="b", limit=9,
                             order_by="duration"),
                  P.Flow(session="b")):
        assert wire(coordinator, probe) == wire(registry, probe)

    status = coordinator.execute_command(
        P.JobStatus(job_id=info.job_id))
    assert isinstance(status, P.JobInfo)
    assert status.state == "done"


def stream_script(events, chunk=60):
    """One stream's lifecycle as commands — appends watermarked by the
    next unsent event, a status after each, and the error paths."""
    from repro.stream.segmenter import event_to_dict

    def on(stream, kind, **fields):
        return kind(session="live", stream=stream, **fields)

    yield on("gates", P.StreamStatus)  # unknown_stream
    yield on("gates", P.OpenStream, checkpoint_every=3)
    yield on("gates", P.OpenStream)  # idempotent: first shape wins
    for start in range(0, len(events), chunk):
        rest = start + chunk
        yield on("gates", P.AppendEvents,
                 events=[event_to_dict(e) for e in
                         events[start:rest]],
                 watermark=(events[rest].t_start
                            if rest < len(events) else None))
        yield on("gates", P.StreamStatus)
    yield on("gates", P.AppendEvents, events=[{"mo_id": "broken"}])
    yield on("gates", P.AppendEvents, watermark=True)
    yield on("tight", P.OpenStream, max_open_events=2)
    yield on("tight", P.AppendEvents,
             events=[event_to_dict(e) for e in events[:3]])
    yield on("tight", P.CloseStream)
    yield on("gates", P.CloseStream)
    yield on("gates", P.CloseStream)  # unknown_stream
    yield P.ListSessions()
    yield P.Summary(session="live")
    yield P.RunQuery(session="live", limit=500)
    yield P.RunQuery(session="live", limit=9, order_by="duration",
                     descending=True)


@pytest.mark.parametrize("durable", [False, True],
                         ids=["memory", "durable"])
@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_stream_bytes_match(tmp_path, small_corpus, shard_count,
                            durable):
    """A stream run on a sharded engine answers every command —
    open, appends, statuses, errors, close — and then serves its
    episodes with the unsharded engine's bytes."""
    from repro.service.registry import SessionRegistry
    from repro.shard import ShardCoordinator

    _, records = small_corpus
    events = sorted(records, key=lambda r: (r.t_start, r.t_end,
                                            r.mo_id))
    reference = SessionRegistry(
        persist_dir=str(tmp_path / "single") if durable else None,
        fsync=False)
    sharded = ShardCoordinator.local(
        shard_count,
        persist_dir=str(tmp_path / "shards") if durable else None,
        fsync=False)
    try:
        for command in stream_script(events):
            assert wire(sharded, command) == wire(reference, command), \
                command.kind
    finally:
        sharded.close()
