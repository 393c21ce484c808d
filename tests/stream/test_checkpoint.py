"""Stream checkpoints: exact bytes, bounded repair state, old sidecars.

A fold writes ``canonical_json(state_payload())`` byte for byte, but
builds it from each open event's cached canonical bytes
(:meth:`WatermarkSegmenter.state_json`), and the segmenter forgets the
repair state of visitors that can no longer affect any episode.  The
property test drives random interleavings against a reference
segmenter that never forgets; the bound and compatibility tests pin
the memory claim and the reopening of sidecars written before
forgetting existed.
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import DetectionRecord
from repro.service.protocol import canonical_json, splice_json
from repro.stream.manager import STATE_NAME, ServerStream
from repro.stream.segmenter import WatermarkSegmenter
from tests.stream.test_manager import (
    SESSION,
    STREAM,
    ZONES,
    ev,
    make_manager,
)
from tests.stream.test_segmenter import GAP, content_bytes, make_builder

STATES = ["a", "b", "c", "nowhere"]


class NeverForgets(WatermarkSegmenter):
    """The reference: every visitor's repair state is kept forever,
    as before finished visitors were forgotten."""

    def _forget(self) -> None:
        pass


def assert_bounded(segmenter: WatermarkSegmenter) -> None:
    """Every remembered visitor has an open episode or a last event
    ending at or past the watermark."""
    open_visitors = {mo_id for mo_id, _ in segmenter._buffers}
    for mo_id, end in segmenter._last_end.items():
        assert mo_id in open_visitors or end >= segmenter.watermark, (
            mo_id, end, segmenter.watermark)
    assert set(segmenter._last_key) <= set(segmenter._last_end)
    assert set(segmenter._last_start) <= set(segmenter._last_end)


def episode_bytes(episodes):
    return [canonical_json(episode.to_dict()) for episode in episodes]


feeds = st.tuples(
    st.just("feed"),
    st.integers(min_value=0, max_value=2),           # visitor
    st.sampled_from([None, None, "x"]),              # visit id
    st.sampled_from(STATES),
    # start relative to the clock: late, behind, in order, past gap
    st.sampled_from([-2 * GAP, -GAP - 1.0, -30.0, -5.0, 0.0, 0.0,
                     5.0, 30.0, GAP, GAP + 1.0, 2 * GAP]),
    # durations: negative, zero, short, overlapping, containing
    st.sampled_from([-5.0, 0.0, 8.0, 20.0, 60.0, 300.0]),
)
advances = st.tuples(
    st.just("advance"),
    st.sampled_from([-2 * GAP, -GAP - 1.0, -50.0, 0.0, 1.0, 10.0,
                     30.0]),
    # relative to the clock, or to the last fed event's end (so the
    # watermark often lands just past an episode that is still open)
    st.booleans())
reloads = st.tuples(st.just("reload"))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(feeds, feeds, advances, reloads),
                max_size=60),
       # under the overlap tolerance, a visitor with no open episode
       # may still end past the watermark (and must be remembered)
       st.sampled_from([GAP, 5.0]))
def test_checkpoints_match_a_segmenter_that_never_forgets(ops, gap):
    builder = make_builder()
    subject = WatermarkSegmenter(builder, gap_seconds=gap)
    reference = NeverForgets(builder, gap_seconds=gap)
    subject_out, reference_out = [], []
    clock = last_end = 0.0
    with tempfile.TemporaryDirectory() as directory:
        stream = ServerStream(None, "s", "live", subject, directory,
                              fsync=False)
        for op in ops:
            if op[0] == "feed":
                _, visitor, visit_id, state, offset, duration = op
                start = clock + offset
                clock = max(clock, start)
                last_end = start + duration
                record = DetectionRecord("v{}".format(visitor), state,
                                         start, start + duration,
                                         visit_id)
                subject_out.extend(subject.feed(record))
                reference_out.extend(reference.feed(record))
            elif op[0] == "advance":
                _, delta, after_last = op
                watermark = (last_end if after_last else clock) + delta
                subject_out.extend(subject.advance(watermark))
                reference_out.extend(reference.advance(watermark))
            else:
                # A restart from the bytes a fold writes.
                subject.load_state(json.loads(subject.state_json()))
                reference.load_state(json.loads(
                    canonical_json(reference.state_dict())))
            assert subject.state_json() \
                == canonical_json(subject.state_dict())
            assert episode_bytes(subject_out) \
                == episode_bytes(reference_out)
            assert subject.metrics.to_dict() \
                == reference.metrics.to_dict()
            assert_bounded(subject)
            stream.write_state()
            with open(os.path.join(directory, STATE_NAME), "rb") as f:
                assert f.read() \
                    == canonical_json(stream.state_payload()) + b"\n"
    subject_out.extend(subject.close())
    reference_out.extend(reference.close())
    assert episode_bytes(subject_out) == episode_bytes(reference_out)
    assert subject.metrics.to_dict() == reference.metrics.to_dict()


@pytest.mark.parametrize("fields", [
    {}, {"a": 1}, {"z": "é"}, {"a": [1.5, None], "z": {"y": 2}},
    {"m": 0, "é": 1}])
@pytest.mark.parametrize("key", ["b", "n", "zz"])
def test_splice_json_equals_canonical_json(fields, key):
    value = {"x": [1.5, "é", None]}
    assert splice_json(fields, key, canonical_json(value)) \
        == canonical_json({**fields, key: value})


class TestDropReasons:
    def test_late_without_open_episode_counts_as_late(self):
        """Late with no open episode wins over out of order, so the
        reason does not depend on whether the visitor is forgotten."""
        for segmenter in (WatermarkSegmenter(make_builder()),
                          NeverForgets(make_builder())):
            segmenter.feed(DetectionRecord("v1", "a", 100.0, 110.0))
            assert len(segmenter.advance(110.0 + GAP + 1.0)) == 1
            # behind the watermark AND behind v1's last event
            assert segmenter.feed(
                DetectionRecord("v1", "b", 50.0, 60.0)) == []
            assert segmenter.metrics.drops == {"late": 1}
            assert segmenter.metrics.dropped_late == 1
            assert segmenter.metrics.late_events == 1

    def test_a_visitor_is_forgotten_once_its_episode_closes(self):
        segmenter = WatermarkSegmenter(make_builder())
        segmenter.feed(DetectionRecord("v1", "a", 0.0, 10.0))
        segmenter.advance(50.0)  # past v1's last end, episode open
        assert "v1" in segmenter._last_end
        # late for the open episode and behind v1's last event
        assert segmenter.feed(
            DetectionRecord("v1", "b", -5.0, 3.0)) == []
        assert segmenter.metrics.drops == {"out_of_order": 1}
        assert len(segmenter.advance(10.0 + GAP + 1.0)) == 1
        assert segmenter._last_end == {} and segmenter._last_key == {}


def one_visit(index: int) -> dict:
    """Visitor ``index``'s single detection; times keep one width."""
    return ev("v{:06d}".format(index), ZONES[index % len(ZONES)],
              1_000_000.0 + index, duration=0.5)


class TestMemoryBound:
    def test_state_stays_flat_as_visitors_accumulate(self, tmp_path):
        """20k distinct short visits: the repair maps and the state
        file a fold writes are as large after 20k visitors as after
        5k — they follow what is open, not what has streamed."""
        _, manager = make_manager(str(tmp_path / "data"))
        stream = manager.open(SESSION, STREAM, gap_seconds=10.0)
        state_path = os.path.join(stream.directory, STATE_NAME)
        chunk = 500
        sizes = {}
        for start in range(0, 20_000, chunk):
            events = [one_visit(i) for i in range(start, start + chunk)]
            stream.append(events,
                          watermark=one_visit(start + chunk)["t_start"])
            visitors = start + chunk
            if visitors in (5_000, 20_000):
                sizes[visitors] = (len(stream.segmenter._last_end),
                                   len(stream.segmenter._last_key),
                                   os.path.getsize(state_path))
        assert stream.checkpoints >= 39  # a fold after every append
        ends_5k, keys_5k, bytes_5k = sizes[5_000]
        ends_20k, keys_20k, bytes_20k = sizes[20_000]
        assert ends_5k < 50 and keys_5k < 50
        assert ends_20k <= ends_5k and keys_20k <= keys_5k
        assert bytes_20k <= bytes_5k * 1.02


class TestOldSidecars:
    def test_sidecar_with_long_gone_visitors_reopens_and_shrinks(
            self, tmp_path):
        """A state file whose repair maps still hold every visitor
        ever seen reopens, replays its journal tail to the episodes
        an uninterrupted stream stores, and sheds the gone visitors
        on its first fold."""
        events = [ev("v{:03d}".format(i), ZONES[i % 3], 100.0 * i)
                  for i in range(60)]
        watermarks = [event["t_start"] for event in events[1:]] + [None]

        # The uninterrupted reference run.
        registry, manager = make_manager(str(tmp_path / "reference"))
        stream = manager.open(SESSION, STREAM, gap_seconds=30.0,
                              checkpoint_every=1000)
        for event, watermark in zip(events, watermarks):
            stream.append([event], watermark=watermark)
        manager.close(SESSION, STREAM)
        expected = content_bytes(registry.get(SESSION).workbench.store)

        # The crashed run: fold after 30 events, rewrite the state in
        # the shape that kept every visitor, journal 20 more, crash.
        data = str(tmp_path / "data")
        _, manager = make_manager(data)
        stream = manager.open(SESSION, STREAM, gap_seconds=30.0,
                              checkpoint_every=1000)
        for event, watermark in zip(events[:30], watermarks[:30]):
            stream.append([event], watermark=watermark)
        stream.checkpoint()
        state_path = os.path.join(stream.directory, STATE_NAME)
        with open(state_path, "rb") as source:
            state = json.load(source)
        segmenter = state["segmenter"]
        for event in events[:30]:
            segmenter["last_end"].setdefault(event["mo_id"],
                                             event["t_end"])
            segmenter["last_key"].setdefault(
                event["mo_id"], [event["t_start"], event["t_end"]])
        gone = set(segmenter["last_end"]) - set(
            entry["mo_id"] for entry in segmenter["buffers"])
        assert len(gone) >= 25
        with open(state_path, "wb") as sink:
            sink.write(canonical_json(state) + b"\n")
        for event, watermark in zip(events[30:50], watermarks[30:50]):
            stream.append([event], watermark=watermark)

        registry2, manager2 = make_manager(data)
        recovered = manager2.get(SESSION, STREAM)
        assert recovered.events_acked == 50
        assert not gone & set(recovered.segmenter._last_end)
        recovered.checkpoint()
        with open(state_path, "rb") as source:
            folded = json.load(source)["segmenter"]
        assert not gone & set(folded["last_end"])
        assert not gone & set(folded["last_key"])
        assert not gone & set(folded["last_start"])
        assert_bounded(recovered.segmenter)
        for event, watermark in zip(events[50:], watermarks[50:]):
            recovered.append([event], watermark=watermark)
        manager2.close(SESSION, STREAM)
        assert content_bytes(registry2.get(SESSION).workbench.store) \
            == expected
