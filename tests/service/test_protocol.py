"""Property tests: every protocol message round-trips through JSON.

The wire contract is bytes → object → bytes identity: parsing a
message's canonical JSON and re-serializing it must reproduce the
exact bytes, for every command and every response type, under
arbitrary field values.  Cursors get the same treatment.
"""

import dataclasses
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.annotations import AnnotationSet
from repro.mining.flow import FlowBalance
from repro.mining.prefixspan import SequentialPattern
from repro.service import protocol as P
from tests.conftest import make_trajectory

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
names = st.text(
    st.characters(whitelist_categories=("Ll", "Lu", "Nd"),
                  whitelist_characters="-_@."),
    min_size=1, max_size=20)
floats = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e9, max_value=1e9)
counts = st.integers(0, 10_000)

query_dicts = st.one_of(
    st.none(),
    st.builds(lambda s: {"expr": {"op": "state", "state": s}}, names),
    st.builds(lambda k: {"expr": {"op": "annotation", "kind": "goal",
                                  "value": k}}, names),
)
cursors = st.one_of(
    st.none(),
    st.builds(P.encode_cursor,
              st.fixed_dictionaries({"f": names, "k": counts})))


def trajectories():
    return st.builds(
        lambda states, start, dwell: make_trajectory(
            mo_id="mo-x", states=tuple(states), start=float(start),
            dwell=float(dwell),
            annotations=AnnotationSet.goals("visit")),
        st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1,
                 max_size=4, unique=True),
        st.integers(0, 10_000), st.integers(1, 500))


def hits():
    return st.builds(P.Hit, doc_id=counts, trajectory=trajectories())


COMMAND_STRATEGIES = {
    P.BuildDataset: st.builds(
        P.BuildDataset, session=names,
        source=st.sampled_from(["louvre", "csv"]),
        scale=st.floats(0.01, 1.0), path=st.none() | names,
        workers=st.integers(0, 8),
        executor=st.sampled_from(["thread", "process"]),
        batch_size=st.integers(1, 2048), streaming=st.booleans(),
        cache=st.booleans(), wait=st.booleans()),
    P.JobStatus: st.builds(P.JobStatus, job_id=names),
    P.ListSessions: st.just(P.ListSessions()),
    P.DropSession: st.builds(P.DropSession, session=names),
    P.RunQuery: st.builds(
        P.RunQuery, session=names, query=query_dicts,
        limit=st.integers(1, 1000), cursor=cursors,
        offset=counts,
        order_by=st.none() | st.sampled_from(["doc_id", "duration"]),
        descending=st.booleans(), include_total=st.booleans()),
    P.Explain: st.builds(P.Explain, session=names, query=query_dicts),
    P.MinePatterns: st.builds(
        P.MinePatterns, session=names, query=query_dicts,
        min_support=st.floats(0.01, 100.0),
        max_length=st.integers(1, 8)),
    P.Similarity: st.builds(P.Similarity, session=names,
                            query=query_dicts),
    P.Flow: st.builds(P.Flow, session=names, query=query_dicts),
    P.Sequences: st.builds(P.Sequences, session=names,
                           query=query_dicts),
    P.Summary: st.builds(P.Summary, session=names, query=query_dicts),
    P.SaveSession: st.builds(P.SaveSession, session=names),
    P.RestoreSession: st.builds(P.RestoreSession, session=names),
    P.IngestDocuments: st.builds(
        P.IngestDocuments, session=names,
        docs=st.lists(trajectories().map(
            lambda t: t.to_dict()), max_size=3),
        space=st.none() | names),
    P.CountPatterns: st.builds(
        P.CountPatterns, session=names, query=query_dicts,
        patterns=st.lists(st.lists(names, min_size=1, max_size=3),
                          max_size=3)),
    P.SimilarityBlock: st.builds(
        P.SimilarityBlock, session=names,
        sequences=st.lists(st.lists(names, max_size=3), max_size=3),
        row_start=counts, row_end=counts),
    P.SummaryParts: st.builds(P.SummaryParts, session=names,
                              query=query_dicts),
    P.StoreStats: st.builds(P.StoreStats, session=names),
    P.OpenStream: st.builds(
        P.OpenStream, session=names, stream=names,
        gap_seconds=st.none() | st.floats(1.0, 1e6),
        checkpoint_every=st.integers(1, 1000),
        max_open_events=st.integers(1, 10 ** 6)),
    P.AppendEvents: st.builds(
        P.AppendEvents, session=names, stream=names,
        events=st.lists(st.fixed_dictionaries(
            {"mo_id": names, "state": names,
             "t_start": floats, "t_end": floats}), max_size=3),
        watermark=st.none() | floats),
    P.StreamStatus: st.builds(P.StreamStatus, session=names,
                              stream=names),
    P.CloseStream: st.builds(P.CloseStream, session=names,
                             stream=names),
}

RESPONSE_STRATEGIES = {
    P.ErrorInfo: st.builds(P.ErrorInfo, code=names, message=names),
    P.JobInfo: st.builds(
        P.JobInfo, job_id=names, session=names,
        state=st.sampled_from(["pending", "running", "done",
                               "failed"]),
        error=st.none() | names,
        metrics=st.none() | st.fixed_dictionaries(
            {"total_seconds": floats, "stages": st.just([])})),
    P.SessionInfo: st.builds(
        P.SessionInfo, name=names, trajectories=counts,
        state=st.sampled_from(["empty", "building", "ready",
                               "failed"]),
        space=st.none() | names),
    P.SessionList: st.builds(
        P.SessionList,
        sessions=st.lists(st.builds(
            P.SessionInfo, name=names, trajectories=counts,
            state=st.just("ready"), space=st.none()), max_size=3)),
    P.Dropped: st.builds(P.Dropped, session=names),
    P.SessionSaved: st.builds(
        P.SessionSaved, session=names,
        snapshot=st.sampled_from(["snapshot-000001",
                                  "snapshot-000042"]),
        trajectories=counts, total_bytes=counts),
    P.Hit: hits(),
    P.QueryPage: st.builds(
        P.QueryPage, hits=st.lists(hits(), max_size=3),
        total=st.none() | counts, next_cursor=cursors),
    P.Explanation: st.builds(P.Explanation, plan=names),
    P.PatternList: st.builds(
        P.PatternList,
        patterns=st.lists(st.builds(
            lambda seq, sup: SequentialPattern(tuple(seq), sup),
            st.lists(names, min_size=1, max_size=4),
            st.integers(1, 1000)), max_size=4)),
    P.SimilarityMatrix: st.builds(
        P.SimilarityMatrix,
        matrix=st.lists(st.lists(st.floats(0, 1), min_size=2,
                                 max_size=2), max_size=2)),
    P.FlowList: st.builds(
        P.FlowList,
        balances=st.lists(st.builds(
            FlowBalance, state=names, inflow=counts, outflow=counts,
            started_here=counts, ended_here=counts), max_size=4)),
    P.SequenceList: st.builds(
        P.SequenceList,
        sequences=st.lists(st.lists(names, max_size=4), max_size=4)),
    P.SummaryStats: st.builds(
        P.SummaryStats,
        stats=st.dictionaries(names, floats, max_size=4)),
    P.Ingested: st.builds(P.Ingested, session=names, count=counts,
                          total=counts),
    P.PatternSupports: st.builds(
        P.PatternSupports, supports=st.lists(counts, max_size=4),
        sequences=counts),
    P.SimilarityRows: st.builds(
        P.SimilarityRows,
        rows=st.lists(st.lists(st.floats(0, 1), min_size=2,
                               max_size=2), max_size=2)),
    P.SummaryPartsInfo: st.builds(
        P.SummaryPartsInfo, visits=counts,
        mo_ids=st.lists(names, max_size=3), detections=counts,
        transitions=counts,
        max_visit_duration=st.none() | floats,
        min_visit_duration=st.none() | floats),
    P.StreamInfo: st.builds(
        P.StreamInfo, session=names, stream=names,
        status=st.fixed_dictionaries(
            {"watermark": st.none() | floats,
             "open_events": counts, "events_acked": counts})),
    P.EventsAppended: st.builds(
        P.EventsAppended, session=names, stream=names,
        appended=counts, episodes_closed=counts,
        watermark=st.none() | floats, open_events=counts,
        seq=counts),
    P.StreamClosed: st.builds(
        P.StreamClosed, session=names, stream=names,
        episodes_closed=counts, episodes_total=counts,
        events_acked=counts),
    P.StoreStatsInfo: st.builds(
        P.StoreStatsInfo, doc_count=counts,
        states=st.dictionaries(names, counts, max_size=3),
        annotations=st.lists(
            st.tuples(st.sampled_from(["goal", "means", "weather"]),
                      names, counts).map(list), max_size=3),
        mos=st.dictionaries(names, counts, max_size=3),
        time_span=st.none() | st.tuples(floats, floats).map(list)),
}


def test_every_registered_command_has_a_strategy():
    assert set(COMMAND_STRATEGIES) == set(P.COMMANDS.values())


def test_every_registered_response_has_a_strategy():
    assert set(RESPONSE_STRATEGIES) == set(P.RESPONSES.values())


@settings(max_examples=25, deadline=None)
@given(st.data())
@pytest.mark.parametrize("command_type",
                         sorted(COMMAND_STRATEGIES,
                                key=lambda t: t.kind))
def test_property_command_roundtrip(command_type, data):
    command = data.draw(COMMAND_STRATEGIES[command_type])
    raw = command.to_json()
    parsed = P.command_from_json(raw)
    assert type(parsed) is command_type
    assert parsed == command
    assert parsed.to_json() == raw  # bytes → object → bytes


@settings(max_examples=25, deadline=None)
@given(st.data())
@pytest.mark.parametrize("response_type",
                         sorted(RESPONSE_STRATEGIES,
                                key=lambda t: t.kind))
def test_property_response_roundtrip(response_type, data):
    response = data.draw(RESPONSE_STRATEGIES[response_type])
    raw = response.to_json()
    parsed = P.response_from_json(raw)
    assert type(parsed) is response_type
    assert parsed.to_json() == raw  # bytes → object → bytes


@settings(max_examples=50, deadline=None)
@given(st.fixed_dictionaries(
    {"f": names},
    optional={"k": counts, "o": counts}))
def test_property_cursor_roundtrip(payload):
    token = P.encode_cursor(payload)
    assert token.isascii() and "=" not in token
    assert P.decode_cursor(token) == payload


# ----------------------------------------------------------------------
# matrix encoding
# ----------------------------------------------------------------------
#: Floats whose spelling is special or sits on a repr boundary.
EDGE_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
               5e-324, 2.2250738585072014e-308, 1e16, 9999999999999998.0,
               1e-5, 0.0001, 1e22, 0.1, 1.0, 2.0 / 3.0]
matrix_floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
#: A parsed reply may hold ints and bools where floats were sent.
matrix_entries = st.one_of(matrix_floats, st.integers(), st.booleans())


def matrices(entries):
    """Ragged matrices, often drawn from a small pool so values
    repeat (as similarity matrices' do), empty ones and empty rows
    included."""
    pooled = st.lists(entries, min_size=1, max_size=5).flatmap(
        lambda pool: st.lists(st.lists(st.sampled_from(pool),
                                       max_size=9), max_size=9))
    return st.one_of(pooled,
                     st.lists(st.lists(entries, max_size=6), max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices(matrix_floats), matrices(matrix_entries)))
@example([])
@example([[]])
@example([[], []])
@example([[0.0, -0.0], [-0.0, 0.0]])
@example([[float("nan"), float("inf"), float("-inf"), 5e-324]])
@example([[1, 1.0, True], [False, 0, 0.0, -0.0]])
def test_matrix_json_is_canonical_json(matrix):
    assert P.matrix_json(matrix) == P.canonical_json(matrix)
    for reply in (P.SimilarityMatrix(matrix=matrix),
                  P.SimilarityRows(rows=matrix)):
        assert reply.to_json() == P.canonical_json(reply.to_dict())


def test_matrix_json_passes_other_shapes_through():
    for value in (None, 1.5, "x", [1.5], [[1.5], 2.5], ([1.5],),
                  [[1.5], (2.5,)], {"a": [[1.0]]}):
        assert P.matrix_json(value) == P.canonical_json(value)


# ----------------------------------------------------------------------
# adversarial parsing
# ----------------------------------------------------------------------
def test_rejects_wrong_version():
    data = P.ListSessions().to_dict()
    data["v"] = 99
    with pytest.raises(P.ProtocolError):
        P.command_from_dict(data)


def test_rejects_unknown_command():
    with pytest.raises(P.ProtocolError):
        P.command_from_dict({"v": 1, "command": "LaunchMissiles"})


def test_rejects_command_as_response():
    with pytest.raises(P.ProtocolError):
        P.response_from_dict({"v": 1, "response": "RunQuery",
                              "session": "s"})


def test_rejects_missing_required_field():
    with pytest.raises(P.ProtocolError):
        P.command_from_dict({"v": 1, "command": "RunQuery"})


def test_rejects_non_json_bytes():
    with pytest.raises(P.ProtocolError):
        P.command_from_json(b"\xff\xfe not json")


def test_rejects_malformed_cursor():
    import base64

    with pytest.raises(P.ProtocolError):
        P.decode_cursor("!!not-base64!!")
    # valid base64/JSON but no fingerprint field
    foreign = base64.urlsafe_b64encode(b'{"x":1}').decode().rstrip("=")
    with pytest.raises(P.ProtocolError):
        P.decode_cursor(foreign)


def test_ignores_unknown_extra_fields():
    data = json.loads(P.ListSessions().to_json())
    data["future_field"] = "ignored"
    assert isinstance(P.command_from_dict(data), P.ListSessions)


def test_all_messages_are_frozen():
    for cls in list(P.COMMANDS.values()) + list(P.RESPONSES.values()):
        assert dataclasses.is_dataclass(cls)
        params = getattr(cls, "__dataclass_params__")
        assert params.frozen, "{} must be frozen".format(cls.__name__)
