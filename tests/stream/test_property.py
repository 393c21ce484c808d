"""Property suite: stream segmentation ≡ batch build, by construction.

Hypothesis drives random per-visitor record sequences (including
zero/negative durations, unknown states, overlaps, shared visit ids
and multi-gap silences), interleaves them arbitrarily across
visitors, and replays them through :class:`WatermarkSegmenter` with
an honest producer watermark — the emitted episodes must be
byte-identical (as a content multiset under canonical JSON) to
:meth:`TrajectoryBuilder.build_all` over the same records.  The
segmenter and ``build_all`` share one construction core, so every
batch build is first held equal to the test-side reference
(``tests/core/reference_build.py``), which shares none of it.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.builder import DetectionRecord
from repro.service.protocol import canonical_json
from tests.core import reference_build
from tests.stream.test_segmenter import (
    GAP,
    content_bytes,
    interleave,
    make_builder,
    stream_replay,
)

STATES = ["a", "b", "c", "nowhere"]


def reference_checked_build(builder, records):
    """``build_all``'s trajectories, once they equal the reference's
    in order and content."""
    batch, _ = builder.build_all(records)
    reference, _ = reference_build.build(builder, records)
    assert [t.to_dict() for t in batch] \
        == [t.to_dict() for t in reference]
    return batch


@st.composite
def visitor_records(draw, mo_id: str):
    """One visitor's in-order record sequence (may contain errors)."""
    count = draw(st.integers(min_value=1, max_value=8))
    t = draw(st.floats(min_value=0.0, max_value=50.0))
    records = []
    for _ in range(count):
        state = draw(st.sampled_from(STATES))
        # silence before this record: within-visit, exactly-gap (the
        # split boundary), or past-gap (a split).
        t += draw(st.sampled_from([0.0, 5.0, 30.0, GAP, GAP + 1.0,
                                   GAP * 2]))
        duration = draw(st.sampled_from([-5.0, 0.0, 8.0, 20.0, 60.0]))
        records.append(DetectionRecord(
            "v{}".format(mo_id), state, t, t + duration))
        # overlapping starts: the next record may begin before this
        # one ended (sensor echo) but never out of per-visitor order.
        t = max(t, t + duration - draw(st.sampled_from([0.0, 5.0,
                                                        15.0])))
    records.sort(key=lambda r: (r.t_start, r.t_end))
    return records


@st.composite
def corpora(draw):
    visitors = draw(st.integers(min_value=1, max_value=4))
    per_visitor = [draw(visitor_records(str(v)))
                   for v in range(visitors)]
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    return per_visitor, seed


@settings(max_examples=120, deadline=None)
@given(corpora())
# A clip moves a start past the next record's, which must then be
# clipped to it too (batch and stream once both failed here).
@example(([[DetectionRecord("v0", "a", 0.0, 20.0),
            DetectionRecord("v0", "a", 5.0, 25.0),
            DetectionRecord("v0", "a", 15.0, 23.0)]], 0))
def test_any_interleaving_matches_batch(corpus):
    per_visitor, seed = corpus
    builder = make_builder()
    records = [r for records in per_visitor for r in records]
    batch = reference_checked_build(builder, records)
    events = interleave(per_visitor, seed=seed)
    segmenter, streamed = stream_replay(builder, events, seed=seed)
    assert content_bytes(streamed) == content_bytes(batch)
    assert segmenter.metrics.dropped_late == 0


@settings(max_examples=60, deadline=None)
@given(corpora())
def test_interleaving_without_watermarks_matches_batch(corpus):
    """No watermark at all (close() flushes everything) must match
    batch too — the watermark only accelerates closure."""
    per_visitor, seed = corpus
    builder = make_builder()
    records = [r for records in per_visitor for r in records]
    batch = reference_checked_build(builder, records)
    events = interleave(per_visitor, seed=seed)
    _, streamed = stream_replay(builder, events, watermarks=False,
                                seed=seed)
    assert content_bytes(streamed) == content_bytes(batch)


@st.composite
def visit_id_corpora(draw):
    """Corpora where some visitors carry visit ids (never gap-split).

    Visit ids switch when the silence between *kept* records exceeds
    the gap — the streaming liveness contract: a visit that stays
    silent past the gap threshold is complete, so a producer must not
    reuse its id afterwards (``docs/streaming.md``).  Error records
    (zero duration, unknown state) are still injected; being dropped,
    they must not count as activity.
    """
    visitors = draw(st.integers(min_value=1, max_value=3))
    per_visitor = []
    for v in range(visitors):
        count = draw(st.integers(min_value=1, max_value=8))
        t = draw(st.floats(min_value=0.0, max_value=50.0))
        records = []
        run = 0
        last_kept_end = None
        for _ in range(count):
            state = draw(st.sampled_from(STATES))
            t += draw(st.sampled_from([0.0, 5.0, 30.0, GAP,
                                       GAP + 1.0, GAP * 2]))
            duration = draw(st.sampled_from([0.0, 8.0, 20.0, 60.0]))
            kept = duration > 0 and state != "nowhere"
            if kept and last_kept_end is not None \
                    and t - last_kept_end > GAP:
                run += 1
            records.append(DetectionRecord(
                "v{}".format(v), state, t, t + duration,
                visit_id="s{}".format(run)))
            if kept:
                last_kept_end = t + duration
            t += duration
        per_visitor.append(records)
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    return per_visitor, seed


@settings(max_examples=80, deadline=None)
@given(visit_id_corpora())
def test_visit_id_interleaving_matches_batch(corpus):
    per_visitor, seed = corpus
    builder = make_builder()
    records = [r for records in per_visitor for r in records]
    batch = reference_checked_build(builder, records)
    events = interleave(per_visitor, seed=seed)
    _, streamed = stream_replay(builder, events, seed=seed)
    assert content_bytes(streamed) == content_bytes(batch)


@settings(max_examples=60, deadline=None)
@given(corpora(), st.integers(min_value=1, max_value=6))
def test_resume_from_any_cut_matches_batch(corpus, cut_step):
    """Snapshot + resume at an arbitrary point changes nothing —
    the durability substrate the stream manager builds on."""
    import json

    from repro.service.protocol import canonical_json
    from repro.stream.segmenter import WatermarkSegmenter

    per_visitor, seed = corpus
    builder = make_builder()
    records = [r for records in per_visitor for r in records]
    batch = reference_checked_build(builder, records)
    events = interleave(per_visitor, seed=seed)
    cut = min(len(events), cut_step)

    segmenter = WatermarkSegmenter(builder)
    streamed = []
    for event in events[:cut]:
        streamed.extend(segmenter.feed(event))
    state = json.loads(canonical_json(segmenter.state_dict()))
    resumed = WatermarkSegmenter(builder)
    resumed.load_state(state)
    for event in events[cut:]:
        streamed.extend(resumed.feed(event))
    streamed.extend(resumed.close())
    assert content_bytes(streamed) == content_bytes(batch)


def buffered_events(segmenter) -> int:
    """Events held in open buffers, counted from the checkpoint."""
    return sum(len(entry["records"])
               for entry in segmenter.state_dict()["buffers"])


operations = st.lists(st.one_of(
    st.tuples(st.just("feed"), st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("advance"),
              st.floats(min_value=0.0, max_value=2000.0)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("round_trip"), st.booleans())), max_size=25)


@settings(max_examples=100, deadline=None)
@given(corpora(), operations)
def test_open_events_counts_the_open_buffers(corpus, steps):
    """The running ``open_events`` count equals the records in the
    open buffers after any interleaving of feeds, watermark advances,
    flushes and checkpoint round trips (through ``state_dict`` or
    ``state_json``)."""
    import json

    from repro.stream.segmenter import WatermarkSegmenter

    per_visitor, seed = corpus
    builder = make_builder()
    events = iter(interleave(per_visitor, seed=seed))
    segmenter = WatermarkSegmenter(builder)
    for step in steps:
        if step[0] == "feed":
            for event in itertools.islice(events, step[1]):
                segmenter.feed(event)
        elif step[0] == "advance":
            segmenter.advance(step[1])
        elif step[0] == "flush":
            segmenter.close()
        else:
            state = json.loads(segmenter.state_json() if step[1]
                               else canonical_json(segmenter.state_dict()))
            segmenter = WatermarkSegmenter(builder)
            segmenter.load_state(state)
        assert segmenter.open_events == buffered_events(segmenter)
