"""Offline resharding of a durable shard set (N → M shards).

A shard persist root looks like::

    <root>/shard.json          # {"shard_count": N, "replicas": R}
    <root>/shard-0/<session>/  # shard 0's DurableSession homes
    <root>/shard-1/<session>/
    ...

Routing is a pure function of the global document id, so resharding
never needs the coordinator: :func:`rebalance` reopens every old
shard's snapshot, reassembles the global ingest order by walking the
*old* ring (shard ``k``'s local order enumerates its global ids
ascending), routes each document through the *new* ring, and
checkpoints fresh per-shard stores.  New shards are written to
``shard-new-K`` staging directories first and swapped in only after
every session checkpointed, so a crash mid-rebalance leaves the old
layout intact.

Consistent hashing keeps the work proportional: growing N → N+1 moves
only ``~1/(N+1)`` of the corpus to the new shard; everything else is
rewritten in place but never crosses a shard boundary.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Dict, List, Optional, Tuple

from repro.persist.format import write_atomic
from repro.shard.ring import (
    DEFAULT_REPLICAS,
    HashRing,
    ShardStateError,
    ShardTopology,
)

#: Manifest file name inside a shard persist root.
MANIFEST = "shard.json"


def shard_home(root: str, shard: int) -> str:
    """Shard ``k``'s registry persist dir under a shard root."""
    return os.path.join(root, "shard-{}".format(shard))


def read_manifest(root: str) -> Optional[Dict]:
    """The shard root's manifest, or ``None`` when absent."""
    path = os.path.join(root, MANIFEST)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_manifest(root: str, shard_count: int,
                   replicas: int = DEFAULT_REPLICAS) -> None:
    """Atomically record the root's shard layout."""
    os.makedirs(root, exist_ok=True)
    payload = {"shard_count": shard_count, "replicas": replicas}
    write_atomic(os.path.join(root, MANIFEST),
                 json.dumps(payload).encode("utf-8"))


def check_manifest(root: str, shard_count: int,
                   replicas: int = DEFAULT_REPLICAS) -> None:
    """Validate (or establish) a root's manifest for a coordinator
    about to open it with ``shard_count`` shards."""
    manifest = read_manifest(root)
    if manifest is None:
        write_manifest(root, shard_count, replicas)
        return
    if manifest.get("shard_count") != shard_count \
            or manifest.get("replicas", DEFAULT_REPLICAS) != replicas:
        raise ShardStateError(
            "persist root {!r} was written with shard_count={} "
            "replicas={}, but was opened with shard_count={} "
            "replicas={}; run 'repro rebalance' to re-split the "
            "corpus".format(root, manifest.get("shard_count"),
                            manifest.get("replicas", DEFAULT_REPLICAS),
                            shard_count, replicas))


def _session_names(root: str, shard_count: int) -> List[str]:
    """Union of session dir names across the old shard homes, in
    shard-then-listing order (quoted form, as stored on disk)."""
    names: List[str] = []
    for shard in range(shard_count):
        home = shard_home(root, shard)
        if not os.path.isdir(home):
            continue
        for entry in sorted(os.listdir(home)):
            if os.path.isdir(os.path.join(home, entry)) \
                    and entry not in names:
                names.append(entry)
    return names


def rebalance(root: str, new_shard_count: int,
              replicas: int = DEFAULT_REPLICAS,
              fsync: bool = True) -> Dict:
    """Re-split a durable shard root onto ``new_shard_count`` shards.

    Offline only — no coordinator or worker may hold the root open.
    Returns a report dict: per-session document counts, the number of
    documents that moved shards, and the new layout.

    Raises:
        ShardStateError: when the root carries no manifest and no
            shard dirs, or the on-disk documents do not match the old
            ring's routing.
    """
    from urllib.parse import unquote

    from repro.persist.session import DurableSession

    manifest = read_manifest(root)
    if manifest is None:
        raise ShardStateError(
            "persist root {!r} has no {} manifest; nothing to "
            "rebalance".format(root, MANIFEST))
    old_count = int(manifest["shard_count"])
    old_replicas = int(manifest.get("replicas", DEFAULT_REPLICAS))
    old_ring = HashRing(old_count, replicas=old_replicas)
    new_ring = HashRing(new_shard_count, replicas=replicas)

    staged = [os.path.join(root, "shard-new-{}".format(shard))
              for shard in range(new_shard_count)]
    for path in staged:
        if os.path.exists(path):
            shutil.rmtree(path)

    report: Dict = {"root": root, "old_shard_count": old_count,
                    "new_shard_count": new_shard_count,
                    "sessions": {}, "moved": 0}
    for entry in _session_names(root, old_count):
        name = unquote(entry)
        stores: List = []
        space_name: Optional[str] = None
        opened: List[DurableSession] = []
        try:
            for shard in range(old_count):
                home = os.path.join(shard_home(root, shard), entry)
                durable = DurableSession(home, fsync=fsync)
                if durable.exists():
                    opened.append(durable)
                    store, space = durable.open()
                    stores.append(store)
                    if space_name is None:
                        space_name = space
                else:
                    stores.append(None)
            total = sum(len(store) for store in stores
                        if store is not None)
            topology = ShardTopology(old_count, old_ring.shard_of)
            expected = topology.counts(total)
            actual = [0 if store is None else len(store)
                      for store in stores]
            if expected != actual:
                raise ShardStateError(
                    "session {!r}: shard document counts {} do not "
                    "match the ring-derived layout {} for {} "
                    "shards".format(name, actual, expected, old_count))

            # Reassemble the global ingest order from the old layout,
            # then route every document through the new ring.
            cursors = [0] * old_count
            buckets: List[List] = [[] for _ in
                                   range(new_shard_count)]
            moved = 0
            for global_id in range(total):
                old_shard = old_ring.shard_of(global_id)
                document = stores[old_shard].get(cursors[old_shard])
                cursors[old_shard] += 1
                new_shard = new_ring.shard_of(global_id)
                if new_shard != old_shard:
                    moved += 1
                buckets[new_shard].append(document)
        finally:
            for durable in opened:
                durable.close()

        from repro.storage.store import TrajectoryStore

        for shard, bucket in enumerate(buckets):
            home = os.path.join(staged[shard], entry)
            durable = DurableSession(home, fsync=fsync)
            try:
                durable.checkpoint(
                    TrajectoryStore.from_documents(bucket),
                    space=space_name)
            finally:
                durable.close()
        report["sessions"][name] = {
            "documents": total,
            "per_shard": [len(bucket) for bucket in buckets]}
        report["moved"] += moved

    # Swap: drop the old homes, promote the staged ones, restamp.
    for shard in range(old_count):
        home = shard_home(root, shard)
        if os.path.isdir(home):
            shutil.rmtree(home)
    for shard, path in enumerate(staged):
        if os.path.isdir(path):
            os.replace(path, shard_home(root, shard))
        else:
            os.makedirs(shard_home(root, shard), exist_ok=True)
    write_manifest(root, new_shard_count, replicas)
    return report
