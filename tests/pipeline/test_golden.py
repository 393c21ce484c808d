"""Golden test: the engine equals the legacy hand-wired path.

The acceptance contract of the pipeline refactor: a `Pipeline` run
over the full Louvre corpus produces byte-identical trajectories and
store contents to the legacy chain (``clean`` → ``split_visits`` →
``build_trajectory`` per visit → per-trajectory ``insert``), kept as
the test-side reference in ``tests/core/reference_build.py``.
"""

import pytest

from repro.core import TrajectoryBuilder
from repro.louvre.dataset import DatasetParameters, LouvreDatasetGenerator
from repro.pipeline import Pipeline, StoreSinkStage, louvre_source
from repro.storage import TrajectoryStore
from tests.core import reference_build


@pytest.fixture(scope="module")
def full_corpus(louvre_space):
    """The paper-sized 20,245-record corpus."""
    generator = LouvreDatasetGenerator(louvre_space,
                                       DatasetParameters())
    return generator.detection_records()


@pytest.fixture(scope="module")
def legacy_result(louvre_space, full_corpus):
    """(trajectories, store) via the legacy hand-wired chain."""
    builder = TrajectoryBuilder(louvre_space.dataset_zone_nrg())
    trajectories, _ = reference_build.build(builder, full_corpus)
    store = TrajectoryStore()
    for trajectory in trajectories:
        store.insert(trajectory)
    return trajectories, store


class TestGoldenParity:
    def test_pipeline_equals_legacy_on_full_corpus(self, louvre_space,
                                                   full_corpus,
                                                   legacy_result):
        legacy_trajectories, legacy_store = legacy_result
        builder = TrajectoryBuilder(louvre_space.dataset_zone_nrg())
        sink = StoreSinkStage()
        pipeline = Pipeline(builder.stages() + [sink],
                            batch_size=1024)
        built = pipeline.run(full_corpus)

        assert [t.to_dict() for t in built] \
            == [t.to_dict() for t in legacy_trajectories]
        # Store contents and document order are identical too.
        assert len(sink.store) == len(legacy_store)
        assert [t.to_dict() for t in sink.store] \
            == [t.to_dict() for t in legacy_store]
        # Secondary indexes agree (doc ids are order-dependent).
        assert sink.store.state_cardinalities() \
            == legacy_store.state_cardinalities()
        assert sink.store.ids_visiting_state("zone60853") \
            == legacy_store.ids_visiting_state("zone60853")
        first = legacy_trajectories[0]
        assert sink.store.ids_active_between(first.t_start,
                                             first.t_end) \
            == legacy_store.ids_active_between(first.t_start,
                                               first.t_end)

    def test_build_all_facade_equals_legacy(self, louvre_space,
                                            full_corpus,
                                            legacy_result):
        legacy_trajectories, _ = legacy_result
        builder = TrajectoryBuilder(louvre_space.dataset_zone_nrg())
        built, report = builder.build_all(full_corpus)
        assert [t.to_dict() for t in built] \
            == [t.to_dict() for t in legacy_trajectories]
        assert report.trajectories == len(legacy_trajectories)
        # The Section 4.1 cleaning share surfaces through the engine.
        assert 0.08 <= report.cleaning.zero_duration_share <= 0.12

    def test_streaming_mode_same_corpus_content(self, louvre_space,
                                                legacy_result):
        """Streaming segmentation yields the same trajectory *set*.

        Visits come out in stream order rather than (mo, time) order,
        so compare under a canonical sort.
        """
        legacy_trajectories, _ = legacy_result
        builder = TrajectoryBuilder(louvre_space.dataset_zone_nrg())
        pipeline = Pipeline(builder.stages(streaming=True),
                            batch_size=256)
        built = pipeline.run(louvre_source(louvre_space))

        def canonical(trajectories):
            return sorted((t.to_dict() for t in trajectories),
                          key=lambda d: (d["mo_id"], d["t_start"],
                                         d["t_end"]))

        assert canonical(built) == canonical(legacy_trajectories)
