"""Tests for the built-in stage catalog (builder, storage, mining)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DetectionRecord, TrajectoryBuilder
from repro.pipeline import (
    JsonlSinkStage,
    Pipeline,
    PrefixSpanStage,
    SegmentStage,
    StateSequenceStage,
    StoreSinkStage,
)
from repro.storage import TrajectoryStore, read_trajectories_jsonl
from tests.core import reference_build
from tests.stream.test_segmenter import make_builder


@pytest.fixture()
def builder(louvre_space):
    return TrajectoryBuilder(louvre_space.dataset_zone_nrg())


def rec(mo, state, start, end, visit=None):
    return DetectionRecord(mo, state, start, end, visit_id=visit)


class TestBuilderStages:
    def test_clean_stage_counts_reasons(self, builder):
        pipeline = Pipeline([builder.stages()[0]])
        records = [
            rec("a", "zone60853", 0.0, 10.0),
            rec("a", "zone60853", 20.0, 20.0),    # zero duration
            rec("a", "zone60853", 40.0, 30.0),    # negative duration
            rec("a", "not-a-zone", 50.0, 60.0),   # unknown state
        ]
        out = pipeline.run(records)
        assert len(out) == 1
        metrics = pipeline.metrics["clean"]
        assert metrics.drops == {"zero_duration": 1,
                                 "negative_duration": 1,
                                 "unknown_state": 1}

    def test_exact_matches_legacy_methods(self, builder, small_corpus):
        _, records = small_corpus
        expected, _ = reference_build.build(builder, records)
        built = Pipeline(builder.stages(), batch_size=97).run(records)
        assert [t.to_dict() for t in built] \
            == [t.to_dict() for t in expected]

    def test_exact_mode_puts_a_visit_id_visit_first_on_a_tied_start(
            self):
        """The id-less visit opens first (its first record ends
        first), yet builds have always ordered the ``visit_id`` visit
        before it."""
        builder = make_builder()
        trajectories, _ = builder.build_all(
            [rec("m", "a", 0.0, 1.0), rec("m", "b", 0.0, 5.0, visit="v1")])
        assert [[(e.state, e.t_start, e.t_end) for e in t.trace]
                for t in trajectories] \
            == [[("b", 0.0, 5.0)], [("a", 0.0, 1.0)]]

    def test_contiguity_mode_repairs_each_group_on_its_own(self):
        """An overlap across two ``(mo_id, visit_id)`` groups is
        clipped by the exact mode but kept by the contiguity mode,
        whose repair state starts fresh with each group."""
        builder = make_builder()
        records = [rec("m", "a", 0.0, 100.0, visit="v1"),
                   rec("m", "b", 50.0, 200.0, visit="v2")]

        def spans(streaming):
            built = Pipeline(builder.stages(streaming=streaming)
                             ).run(records)
            return [(e.t_start, e.t_end) for t in built for e in t.trace]

        assert spans(False) == [(0.0, 100.0), (100.0, 200.0)]
        assert spans(True) == [(0.0, 100.0), (50.0, 200.0)]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.builds(
        lambda mo, state, start, length, visit: DetectionRecord(
            mo, state, float(start), float(start + length), visit),
        mo=st.sampled_from(["m1", "m2"]),
        state=st.sampled_from(["a", "b", "c", "nowhere"]),
        # a narrow clock against a 100 s gap: ties, overlaps,
        # containment and gap splits are all common
        start=st.integers(0, 400),
        length=st.sampled_from([-5, 0, 1, 5, 8, 20, 60, 150]),
        visit=st.sampled_from([None, None, "v1", "v2"])), max_size=30),
        st.integers(min_value=1, max_value=8))
    def test_both_modes_match_the_reference(self, records, batch_size):
        builder = make_builder()
        expected, counts = reference_build.build(builder, records)
        built, report = builder.build_all(records, batch_size=batch_size)
        assert [t.to_dict() for t in built] \
            == [t.to_dict() for t in expected]
        assert report.cleaning == counts

        expected, counts = reference_build.build_contiguous(builder,
                                                            records)
        pipeline = Pipeline(builder.stages(streaming=True),
                            batch_size=batch_size)
        built = pipeline.run(records)
        assert [t.to_dict() for t in built] \
            == [t.to_dict() for t in expected]
        segment = pipeline.metrics["segment"]
        assert segment.drops.get("overlap_contained", 0) \
            == counts.dropped_contained
        assert segment.counters.get("overlap_clipped", 0) \
            == counts.clipped_overlaps

    def test_batch_boundary_does_not_change_segmentation(self, builder):
        # One gap-segmented visit pair whose records straddle every
        # possible batch boundary must segment identically to the
        # materialized (exact, single-batch) path.
        records = [
            rec("a", "zone60853", 0.0, 100.0),
            rec("a", "zone60854", 110.0, 200.0),
            rec("a", "zone60853", 220.0, 300.0),
            # > 4 h inactivity gap: a second visit
            rec("a", "zone60854", 20000.0, 20100.0),
            rec("a", "zone60855", 20110.0, 20200.0),
        ]
        exact = Pipeline(builder.stages(),
                         batch_size=len(records)).run(records)
        assert len(exact) == 2
        for batch_size in range(1, len(records) + 1):
            for streaming in (False, True):
                out = Pipeline(builder.stages(streaming=streaming),
                               batch_size=batch_size).run(records)
                assert [t.to_dict() for t in out] \
                    == [t.to_dict() for t in exact], \
                    "batch_size={} streaming={}".format(batch_size,
                                                        streaming)

    def test_streaming_flushes_visits_before_end_of_stream(self,
                                                           builder):
        # With visit_id-contiguous input, a visit is emitted as soon
        # as the next key arrives — not held until the source ends.
        records = [rec("a", "zone60853", 0.0, 10.0, visit="v1"),
                   rec("a", "zone60854", 20.0, 30.0, visit="v1"),
                   rec("b", "zone60853", 0.0, 10.0, visit="v2")]
        stage = SegmentStage(builder, streaming=True)
        assert stage.process(records[:2]) == []
        emitted = stage.process(records[2:])
        assert len(emitted) == 1
        assert [r.visit_id for r in emitted[0]] == ["v1", "v1"]
        assert len(stage.finish()) == 1

    def test_empty_corpus(self, builder):
        trajectories, report = builder.build_all([])
        assert trajectories == []
        assert report.trajectories == 0
        assert report.cleaning.total == 0
        assert report.stage_metrics["annotate"].items_out == 0

    def test_single_record_corpus(self, builder):
        trajectories, report = builder.build_all(
            [rec("solo", "zone60853", 0.0, 60.0)])
        assert len(trajectories) == 1
        assert len(trajectories[0].trace) == 1
        assert report.entries == 1
        assert report.cleaning.kept == 1

    def test_build_all_reports_engine_drop_counts(self, builder,
                                                  small_corpus):
        _, records = small_corpus
        _, report = builder.build_all(records)
        clean = report.stage_metrics["clean"]
        assert clean.drops["zero_duration"] \
            == report.cleaning.dropped_zero_duration
        assert clean.items_in == report.cleaning.total
        share = clean.drops["zero_duration"] / clean.items_in
        assert share == pytest.approx(
            report.cleaning.zero_duration_share)


class TestStorageStages:
    def test_store_sink_extends_and_passes_through(self,
                                                   small_trajectories):
        sink = StoreSinkStage()
        pipeline = Pipeline([sink], batch_size=17)
        out = pipeline.run(small_trajectories)
        assert len(out) == len(small_trajectories)
        assert len(sink.store) == len(small_trajectories)
        assert list(sink.store)[0] is small_trajectories[0]

    def test_store_extend_matches_per_insert(self, small_trajectories):
        a, b = TrajectoryStore(), TrajectoryStore()
        for trajectory in small_trajectories:
            a.insert(trajectory)
        ids = b.extend(small_trajectories)
        assert ids == list(range(len(small_trajectories)))
        assert a.state_cardinalities() == b.state_cardinalities()
        assert a.moving_objects() == b.moving_objects()
        window = (small_trajectories[0].t_start,
                  small_trajectories[0].t_end)
        assert a.ids_active_between(*window) \
            == b.ids_active_between(*window)

    def test_store_extend_rebuild_interval(self, small_trajectories):
        store = TrajectoryStore()
        store.extend(small_trajectories[:3], rebuild_interval=True)
        # The interval index is already warm (private but load-bearing
        # for the batched-ingest contract).
        assert store._interval_index is not None
        store.extend(small_trajectories[3:5])
        assert store._interval_index is None

    def test_jsonl_sink_round_trip(self, small_trajectories, tmp_path):
        path = str(tmp_path / "out.jsonl")
        sink = JsonlSinkStage(path)
        Pipeline([sink], batch_size=7).run(small_trajectories[:10],
                                           collect=False)
        assert sink.written == 10
        loaded = read_trajectories_jsonl(path)
        assert [t.to_dict() for t in loaded] \
            == [t.to_dict() for t in small_trajectories[:10]]


class TestMiningStages:
    def test_state_sequences_then_prefixspan(self, small_trajectories):
        miner = PrefixSpanStage(min_support=2, max_length=3)
        pipeline = Pipeline([StateSequenceStage(), miner],
                            batch_size=31)
        patterns = pipeline.run(small_trajectories)
        assert patterns
        assert patterns == miner.patterns
        assert all(p.support >= 2 for p in patterns)

    def test_fractional_support_resolved_at_flush(self,
                                                  small_trajectories):
        miner = PrefixSpanStage(min_support=0.5, max_length=2)
        Pipeline([StateSequenceStage(), miner]).run(small_trajectories)
        expected = max(2, int(len(small_trajectories) * 0.5))
        assert miner.metrics.counters["min_support"] == expected

    def test_prefixspan_empty_input(self):
        miner = PrefixSpanStage(min_support=2)
        assert Pipeline([miner]).run([]) == []
        assert miner.patterns == []
