"""A directory-backed stage cache: cached rebuilds survive restarts.

:class:`DiskStageCache` is a drop-in
:class:`~repro.pipeline.cache.StageCache` (``Workbench.build(cache=
DiskStageCache(dir))``, ``repro pipeline run --cache-dir DIR``) with a
second, persistent level: entries are keyed on the **same**
``(source fingerprint, ((stage name, config hash), ...))`` tuples the
in-memory cache uses, so a process restarted tomorrow replays the
clean→…→annotate prefix memoized today — the fingerprints derive from
source content and stage configuration, not from process state.

Entry files are JSON (one per prefix), named
``<fingerprint[:16]>-<key digest>.json`` so a lookup lists only the
files of its own source.  Each file records the prefix keys it covers,
the boundary batches (:meth:`SemanticTrajectory.to_dict
<repro.core.trajectory.SemanticTrajectory.to_dict>` payloads), the
replayed stage metrics, and a payload checksum; files that fail to
parse or verify are treated as misses and removed.  Only
**trajectory-boundary** prefixes are persisted: the prefix must not
end at a mid-trajectory stage (``clean``/``segment``/``trace``, whose
boundaries are records, visit groups and trace drafts) and every
boundary item must be a :class:`~repro.core.trajectory
.SemanticTrajectory` — anything else still caches in memory.

Memory stays the first level: a disk hit is promoted into the
in-memory LRU, so repeated rebuilds within one process never re-read
the file.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.trajectory import SemanticTrajectory
from repro.pipeline.cache import PrefixKey, StageCache
from repro.pipeline.metrics import StageMetrics
from repro.service.protocol import canonical_json

#: Entry-file format revision.
ENTRY_VERSION = 1

#: Build-chain stages whose boundary items are *not yet* trajectories
#: (detection records, visit groups, trace drafts).  Their prefixes
#: must never be persisted: the per-item isinstance gate below is
#: vacuously true for all-empty batches, and a replay would then hand
#: the next stage trajectory dicts where it expects records.
_MID_TRAJECTORY_STAGES = frozenset({"clean", "segment", "trace"})


def _metrics_to_dict(metrics: StageMetrics) -> dict:
    return {"name": metrics.name, "batches": metrics.batches,
            "items_in": metrics.items_in,
            "items_out": metrics.items_out,
            "seconds": metrics.seconds,
            "drops": dict(metrics.drops),
            "counters": dict(metrics.counters)}


def _metrics_from_dict(data: dict) -> StageMetrics:
    return StageMetrics(
        name=data["name"], batches=int(data["batches"]),
        items_in=int(data["items_in"]),
        items_out=int(data["items_out"]),
        seconds=float(data["seconds"]),
        drops={str(k): int(v)
               for k, v in data.get("drops", {}).items()},
        counters={str(k): int(v)
                  for k, v in data.get("counters", {}).items()})


class DiskStageCache(StageCache):
    """A stage cache whose entries survive process restarts.

    Args:
        directory: where entry files live (created lazily).
        max_entries: in-memory LRU size (first level).
        max_disk_entries: entry files retained on disk; the least
            recently *written or read* beyond this are removed.
    """

    def __init__(self, directory: str, max_entries: int = 4,
                 max_disk_entries: int = 32) -> None:
        super().__init__(max_entries=max_entries)
        if max_disk_entries < 1:
            raise ValueError("max_disk_entries must be >= 1")
        self.directory = directory
        self.max_disk_entries = max_disk_entries
        #: Disk-level hit counter (memory hits count in ``hits``).
        self.disk_hits = 0

    # ------------------------------------------------------------------
    # file naming
    # ------------------------------------------------------------------
    @staticmethod
    def _entry_name(fingerprint: str,
                    keys: Sequence[PrefixKey]) -> str:
        digest = hashlib.sha1(
            canonical_json([fingerprint, [list(k) for k in keys]])
        ).hexdigest()[:20]
        return "{}-{}.json".format(fingerprint[:16], digest)

    def _entry_files_for(self, fingerprint: str) -> List[str]:
        try:
            entries = os.listdir(self.directory)
        except OSError:
            return []
        prefix = fingerprint[:16] + "-"
        return [name for name in entries
                if name.startswith(prefix) and name.endswith(".json")]

    # ------------------------------------------------------------------
    # the StageCache surface
    # ------------------------------------------------------------------
    def lookup(self, fingerprint: str, keys: Sequence[PrefixKey]
               ) -> Optional[Tuple[int, List[List[Any]],
                                   List[StageMetrics]]]:
        hit = super().lookup(fingerprint, keys)
        if hit is not None:
            return hit
        disk = self._disk_lookup(fingerprint, keys)
        if disk is None:
            return None  # the memory miss above already counted
        depth, batches, metrics = disk
        with self._lock:
            self.misses -= 1  # reclassify: the lookup *did* hit
            self.hits += 1
            self.disk_hits += 1
        # Promote into the in-memory LRU for this process's lifetime.
        super().store(fingerprint, list(keys[:depth]), batches,
                      metrics)
        return disk

    def store(self, fingerprint: str, keys: Sequence[PrefixKey],
              batches: List[List[Any]],
              metrics: List[StageMetrics]) -> None:
        super().store(fingerprint, keys, batches, metrics)
        self._disk_store(fingerprint, keys, batches, metrics)

    def clear(self) -> None:
        """Drop both levels and reset all counters."""
        super().clear()
        self.disk_hits = 0
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if name.endswith(".json"):
                self._remove(name)

    # ------------------------------------------------------------------
    # the disk level
    # ------------------------------------------------------------------
    def _disk_lookup(self, fingerprint: str,
                     keys: Sequence[PrefixKey]
                     ) -> Optional[Tuple[int, List[List[Any]],
                                         List[StageMetrics]]]:
        """Longest persisted prefix of ``keys`` for this source."""
        for depth in range(len(keys), 0, -1):
            name = self._entry_name(fingerprint, keys[:depth])
            entry = self._load_entry(name)
            if entry is None:
                continue
            stored_keys, batches, metrics = entry
            if stored_keys != [list(k) for k in keys[:depth]]:
                continue  # digest collision; treat as a miss
            self._touch(name)
            return depth, batches, metrics
        return None

    def _load_entry(self, name: str
                    ) -> Optional[Tuple[List[List[str]],
                                        List[List[Any]],
                                        List[StageMetrics]]]:
        path = os.path.join(self.directory, name)
        try:
            with open(path, "rb") as source:
                raw = source.read()
        except OSError:
            return None
        try:
            data = json.loads(raw.decode("utf-8"))
            if data.get("version") != ENTRY_VERSION:
                raise ValueError("entry version mismatch")
            payload = data["payload"]
            digest = hashlib.sha256(
                canonical_json(payload)).hexdigest()[:16]
            if data.get("crc") != digest:
                raise ValueError("entry checksum mismatch")
            keys = [list(map(str, key)) for key in payload["keys"]]
            batches = [
                [SemanticTrajectory.from_dict(doc) for doc in batch]
                for batch in payload["batches"]]
            metrics = [_metrics_from_dict(item)
                       for item in payload["metrics"]]
        except (KeyError, TypeError, ValueError,
                UnicodeDecodeError):
            self._remove(name)  # corrupt entries are misses, once
            return None
        return keys, batches, metrics

    def _disk_store(self, fingerprint: str,
                    keys: Sequence[PrefixKey],
                    batches: List[List[Any]],
                    metrics: List[StageMetrics]) -> None:
        if not keys or keys[-1][0] in _MID_TRAJECTORY_STAGES:
            return  # the prefix boundary is not a trajectory batch
        if not all(isinstance(item, SemanticTrajectory)
                   for batch in batches for item in batch):
            return  # boundary items this format cannot round-trip
        payload = {
            "fingerprint": fingerprint,
            "keys": [list(key) for key in keys],
            "batches": [[item.to_dict() for item in batch]
                        for batch in batches],
            "metrics": [_metrics_to_dict(item) for item in metrics],
        }
        document = {
            "version": ENTRY_VERSION,
            "crc": hashlib.sha256(
                canonical_json(payload)).hexdigest()[:16],
            "payload": payload,
        }
        name = self._entry_name(fingerprint, keys)
        path = os.path.join(self.directory, name)
        try:
            # Imported here: format imports the service layer, whose
            # stream manager imports format while this package loads.
            from repro.persist.format import write_atomic

            os.makedirs(self.directory, exist_ok=True)
            write_atomic(path, canonical_json(document), fsync=False)
        except OSError:
            return  # disk persistence is an optimization, never fatal
        self._evict_disk()

    def _touch(self, name: str) -> None:
        try:
            os.utime(os.path.join(self.directory, name))
        except OSError:
            pass

    def _remove(self, name: str) -> None:
        try:
            os.unlink(os.path.join(self.directory, name))
        except OSError:
            pass

    def _evict_disk(self) -> None:
        try:
            names = [name for name in os.listdir(self.directory)
                     if name.endswith(".json")]
        except OSError:
            return
        if len(names) <= self.max_disk_entries:
            return

        def mtime(name: str) -> float:
            try:
                return os.stat(
                    os.path.join(self.directory, name)).st_mtime
            except OSError:
                return 0.0

        for name in sorted(names, key=mtime)[
                :len(names) - self.max_disk_entries]:
            self._remove(name)

    def __repr__(self) -> str:
        return "DiskStageCache({!r}, memory={}, disk_hits={})".format(
            self.directory, len(self), self.disk_hits)
