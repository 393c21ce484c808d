"""DiskStageCache: persistence across instances, eviction, gating."""

from __future__ import annotations

import json
import os

import pytest

from repro.persist.diskcache import DiskStageCache
from repro.pipeline.metrics import StageMetrics
from tests.conftest import make_trajectory

# A persistable prefix must end at a trajectory boundary — both of
# these do, so both the 1- and 2-deep prefixes may persist.
KEYS = [("annotate", "cfg-1"), ("store", "cfg-2")]


def batches(count=2):
    return [[make_trajectory(mo_id="mo-{}-{}".format(i, j))
             for j in range(2)] for i in range(count)]


def metrics():
    m = StageMetrics(name="clean", batches=2, items_in=4, items_out=4,
                     seconds=0.01)
    m.drop("zero_duration", 1)
    m.count("entries", 7)
    return m


class TestPersistence:
    def test_survives_new_instance(self, tmp_path):
        first = DiskStageCache(str(tmp_path))
        stored = batches()
        first.store("fp-1", KEYS, stored, [metrics(), metrics()])

        second = DiskStageCache(str(tmp_path))
        hit = second.lookup("fp-1", KEYS)
        assert hit is not None
        depth, got_batches, got_metrics = hit
        assert depth == 2
        assert second.disk_hits == 1 and second.hits == 1
        assert [[t.to_dict() for t in batch] for batch in got_batches] \
            == [[t.to_dict() for t in batch] for batch in stored]
        assert got_metrics[0].drops == {"zero_duration": 1}
        assert got_metrics[0].counters == {"entries": 7}

        # promoted to memory: a second lookup never re-reads disk
        second.lookup("fp-1", KEYS)
        assert second.disk_hits == 1 and second.hits == 2

    def test_longest_prefix_found_on_disk(self, tmp_path):
        first = DiskStageCache(str(tmp_path))
        first.store("fp-1", KEYS[:1], batches(), [metrics()])

        second = DiskStageCache(str(tmp_path))
        hit = second.lookup("fp-1", KEYS)  # asks for 2, finds 1
        assert hit is not None and hit[0] == 1

    def test_miss_on_other_fingerprint(self, tmp_path):
        first = DiskStageCache(str(tmp_path))
        first.store("fp-1", KEYS, batches(), [metrics(), metrics()])
        second = DiskStageCache(str(tmp_path))
        assert second.lookup("fp-2", KEYS) is None
        assert second.misses == 1 and second.disk_hits == 0

    def test_non_trajectory_items_stay_memory_only(self, tmp_path):
        cache = DiskStageCache(str(tmp_path))
        cache.store("fp-1", KEYS, [[{"not": "a trajectory"}]],
                    [metrics()])
        assert cache.lookup("fp-1", KEYS) is not None  # memory level
        assert not [name for name in os.listdir(str(tmp_path))
                    if name.endswith(".json")]

    @pytest.mark.parametrize("last", ["clean", "segment", "trace"])
    def test_mid_trajectory_prefixes_stay_memory_only(self, tmp_path,
                                                      last):
        """A prefix ending mid-trajectory is never persisted — not
        even with all-empty batches, which pass the per-item type
        gate vacuously."""
        cache = DiskStageCache(str(tmp_path))
        keys = [("clean", "cfg-1"), (last, "cfg-2")]
        cache.store("fp-1", keys, [[], []], [metrics(), metrics()])
        cache.store("fp-2", keys, batches(), [metrics(), metrics()])
        assert cache.lookup("fp-1", keys) is not None  # memory level
        assert not [name for name in os.listdir(str(tmp_path))
                    if name.endswith(".json")]

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        first = DiskStageCache(str(tmp_path))
        first.store("fp-1", KEYS, batches(), [metrics(), metrics()])
        (name,) = [n for n in os.listdir(str(tmp_path))
                   if n.endswith(".json")]
        path = os.path.join(str(tmp_path), name)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-20])  # truncate

        second = DiskStageCache(str(tmp_path))
        assert second.lookup("fp-1", KEYS) is None
        assert not os.path.exists(path)

    def test_checksum_mismatch_rejected(self, tmp_path):
        first = DiskStageCache(str(tmp_path))
        first.store("fp-1", KEYS, batches(), [metrics(), metrics()])
        (name,) = [n for n in os.listdir(str(tmp_path))
                   if n.endswith(".json")]
        path = os.path.join(str(tmp_path), name)
        document = json.loads(open(path, "rb").read())
        document["payload"]["fingerprint"] = "tampered"
        open(path, "w").write(json.dumps(document))

        second = DiskStageCache(str(tmp_path))
        assert second.lookup("fp-1", KEYS) is None


class TestBounds:
    def test_disk_eviction_cap(self, tmp_path):
        cache = DiskStageCache(str(tmp_path), max_disk_entries=3)
        for i in range(6):
            cache.store("fp-{}".format(i), KEYS, batches(1),
                        [metrics(), metrics()])
        files = [n for n in os.listdir(str(tmp_path))
                 if n.endswith(".json")]
        assert len(files) == 3

    def test_clear_drops_both_levels(self, tmp_path):
        cache = DiskStageCache(str(tmp_path))
        cache.store("fp-1", KEYS, batches(), [metrics(), metrics()])
        cache.clear()
        assert len(cache) == 0 and cache.disk_hits == 0
        assert not [n for n in os.listdir(str(tmp_path))
                    if n.endswith(".json")]

    def test_bad_max_disk_entries(self, tmp_path):
        with pytest.raises(ValueError):
            DiskStageCache(str(tmp_path), max_disk_entries=0)


class TestEndToEnd:
    def test_workbench_rebuild_across_processes(self, tmp_path):
        """Simulated restart: a fresh cache instance over the same
        directory replays yesterday's prefix byte-identically."""
        from repro.api import Workbench
        from repro.louvre.space import LouvreSpace
        from repro.pipeline.sources import louvre_source
        from repro.service.protocol import canonical_json

        def build(cache):
            workbench = Workbench(space=LouvreSpace())
            workbench.build(
                louvre_source(workbench.space, scale=0.01),
                cache=cache)
            return canonical_json(
                [t.to_dict() for t in workbench.store])

        cold = DiskStageCache(str(tmp_path))
        cold_bytes = build(cold)
        assert cold.disk_hits == 0

        warm = DiskStageCache(str(tmp_path))
        warm_bytes = build(warm)
        assert warm.disk_hits == 1
        assert warm_bytes == cold_bytes

    def test_entry_built_under_older_construction_rules_misses(
            self, tmp_path, monkeypatch):
        """The builder fingerprint carries the rules revision, so a
        build cached before a rule change is rebuilt, not replayed."""
        from repro.api import Workbench
        from repro.core import builder as builder_module
        from repro.louvre.space import LouvreSpace
        from repro.pipeline.sources import louvre_source

        def build(cache):
            workbench = Workbench(space=LouvreSpace())
            workbench.build(
                louvre_source(workbench.space, scale=0.01),
                cache=cache)

        revision = builder_module.CONSTRUCTION_RULES_REVISION
        monkeypatch.setattr(builder_module,
                            "CONSTRUCTION_RULES_REVISION", revision - 1)
        build(DiskStageCache(str(tmp_path)))
        assert [n for n in os.listdir(str(tmp_path))
                if n.endswith(".json")]

        monkeypatch.setattr(builder_module,
                            "CONSTRUCTION_RULES_REVISION", revision)
        current = DiskStageCache(str(tmp_path))
        build(current)
        assert current.disk_hits == 0
