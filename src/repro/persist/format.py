"""The versioned on-disk snapshot format.

A snapshot is a directory::

    <snapshot>/
      MANIFEST.json       header: format/version, doc count, space,
                          wal_seq watermark, per-segment checksums,
                          and a self-checksum
      episodes.json       columnar trajectory-level records
      intervals.json      columnar presence-interval (trace) records
      annotations.json    dictionary-encoded annotation pool and sets
      indexes.json        (optional) serialized inverted indexes

Records are stored **columnar**: one JSON array per field, aligned by
position, with the trace segment flattened across documents through an
``entries_per_doc`` run-length column.  Annotation sets — heavily
repeated across stays — are dictionary-encoded twice: unique
annotations into a pool, unique sets into lists of pool indexes.

Every segment is serialized with the protocol's
:func:`~repro.service.protocol.canonical_json` (sorted keys, no
whitespace), so the same store always produces byte-identical
segments, and its SHA-256 is recorded in the manifest.  ``load``
verifies the manifest's self-checksum and every segment digest before
reconstructing anything, so truncation and bit rot surface as
:class:`CorruptSnapshotError`, never as a silently wrong corpus.

Indexes are *rebuilt-or-serialized*: ``save(include_indexes=True)``
writes the store's inverted-index posting lists as their own segment,
and ``load`` installs them directly (skipping the O(corpus) rebuild)
when the segment is present and verifies, falling back to a rebuild
otherwise.

Files are written to a temporary name and atomically renamed into
place; the manifest is written last, so a crashed ``save`` never
leaves a directory that passes verification.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.annotations import AnnotationKind, AnnotationSet
from repro.core.trajectory import SemanticTrajectory, Trace, TraceEntry
from repro.service.protocol import canonical_json
from repro.storage.store import TrajectoryStore

#: Snapshot format revision; bump on incompatible layout changes.
FORMAT_VERSION = 1

#: The manifest's ``format`` tag.
FORMAT_NAME = "repro-snapshot"

MANIFEST_NAME = "MANIFEST.json"
SEGMENT_EPISODES = "episodes.json"
SEGMENT_INTERVALS = "intervals.json"
SEGMENT_ANNOTATIONS = "annotations.json"
SEGMENT_INDEXES = "indexes.json"


class PersistError(RuntimeError):
    """Base failure of the durable storage subsystem."""


class CorruptSnapshotError(PersistError):
    """A snapshot that fails structural or checksum verification."""


@dataclass(frozen=True)
class SnapshotInfo:
    """What one ``save`` produced (or one ``read_manifest`` found).

    Attributes:
        path: the snapshot directory.
        doc_count: trajectories in the snapshot.
        total_bytes: sum of all segment sizes (manifest excluded).
        space: space-model class name recorded for restore, if any.
        wal_seq: highest write-ahead-log sequence number folded into
            this snapshot (0 when none) — replay starts past it.
    """

    path: str
    doc_count: int
    total_bytes: int
    space: Optional[str] = None
    wal_seq: int = 0


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_atomic(path: str, payload: bytes, fsync: bool = True) -> None:
    """Replace ``path`` with ``payload`` in one step: a temp file in
    the same directory, fsynced when ``fsync``, renamed over it.  A
    crash leaves the old file or the new one, never a torn mix.

    Raises:
        OSError: the write failed (the temp file is removed).
    """
    directory, name = os.path.split(path)
    handle, temp_path = tempfile.mkstemp(prefix=name + ".",
                                         suffix=".tmp",
                                         dir=directory or ".")
    try:
        with os.fdopen(handle, "wb") as sink:
            sink.write(payload)
            if fsync:
                sink.flush()
                os.fsync(sink.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# columnar encoding
# ----------------------------------------------------------------------
class _AnnotationCodec:
    """Dictionary-encodes annotation sets for the snapshot.

    Two levels: unique annotation dicts into ``pool``, unique sets
    into ``sets`` (lists of pool indexes, in the set's deterministic
    ``to_list`` order).  Sites then reference sets by index, so a
    corpus where every stay carries the same two annotations stores
    them once.
    """

    def __init__(self) -> None:
        self.pool: List[Dict] = []
        self.sets: List[List[int]] = []
        self._pool_ids: Dict[bytes, int] = {}
        self._set_ids: Dict[Tuple[int, ...], int] = {}

    def encode(self, annotations: AnnotationSet) -> int:
        """The set's dictionary index (interning it on first sight)."""
        members = []
        for item in annotations.to_list():
            key = canonical_json(item)
            index = self._pool_ids.get(key)
            if index is None:
                index = len(self.pool)
                self.pool.append(item)
                self._pool_ids[key] = index
            members.append(index)
        signature = tuple(members)
        set_id = self._set_ids.get(signature)
        if set_id is None:
            set_id = len(self.sets)
            self.sets.append(members)
            self._set_ids[signature] = set_id
        return set_id


class _AnnotationDecoder:
    """Inverse of :class:`_AnnotationCodec` (sets decoded once)."""

    def __init__(self, pool: List[Dict], sets: List[List[int]]) -> None:
        try:
            self._sets = [
                AnnotationSet.from_list([pool[index] for index in
                                         members])
                for members in sets
            ]
        except (IndexError, KeyError, TypeError, ValueError) as error:
            raise CorruptSnapshotError(
                "undecodable annotation segment: {}".format(error))

    def decode(self, set_id: int) -> AnnotationSet:
        try:
            return self._sets[set_id]
        except (IndexError, TypeError):
            raise CorruptSnapshotError(
                "annotation set reference {!r} out of range".format(
                    set_id))


def _encode_segments(docs: List[SemanticTrajectory]
                     ) -> Dict[str, Dict]:
    """The three columnar record segments of a document list."""
    codec = _AnnotationCodec()
    episodes: Dict[str, List] = {
        "mo_id": [], "t_start": [], "t_end": [], "annotations": []}
    intervals: Dict[str, List] = {
        "entries_per_doc": [], "transition": [], "state": [],
        "t_start": [], "t_end": [], "annotations": [],
        "transition_annotations": []}
    for trajectory in docs:
        episodes["mo_id"].append(trajectory.mo_id)
        episodes["t_start"].append(trajectory.t_start)
        episodes["t_end"].append(trajectory.t_end)
        episodes["annotations"].append(
            codec.encode(trajectory.annotations))
        intervals["entries_per_doc"].append(len(trajectory.trace))
        for entry in trajectory.trace:
            intervals["transition"].append(entry.transition)
            intervals["state"].append(entry.state)
            intervals["t_start"].append(entry.t_start)
            intervals["t_end"].append(entry.t_end)
            intervals["annotations"].append(
                codec.encode(entry.annotations))
            intervals["transition_annotations"].append(
                codec.encode(entry.transition_annotations))
    return {
        SEGMENT_EPISODES: episodes,
        SEGMENT_INTERVALS: intervals,
        SEGMENT_ANNOTATIONS: {"pool": codec.pool, "sets": codec.sets},
    }


def _decode_documents(episodes: Dict, intervals: Dict,
                      annotations: Dict) -> List[SemanticTrajectory]:
    """Columnar segments → trajectory objects."""
    decoder = _AnnotationDecoder(annotations.get("pool", []),
                                 annotations.get("sets", []))
    try:
        counts = intervals["entries_per_doc"]
        columns = (intervals["transition"], intervals["state"],
                   intervals["t_start"], intervals["t_end"],
                   intervals["annotations"],
                   intervals["transition_annotations"])
        doc_columns = (episodes["mo_id"], episodes["t_start"],
                       episodes["t_end"], episodes["annotations"])
    except (KeyError, TypeError) as error:
        raise CorruptSnapshotError(
            "segment misses column {}".format(error))
    try:
        total_entries = sum(counts)
    except TypeError as error:
        raise CorruptSnapshotError(
            "bad entries_per_doc column: {}".format(error))
    if any(len(column) != total_entries for column in columns):
        raise CorruptSnapshotError(
            "interval columns disagree on length")
    if any(len(column) != len(counts) for column in doc_columns):
        raise CorruptSnapshotError(
            "episode columns disagree on length")

    docs: List[SemanticTrajectory] = []
    cursor = 0
    try:
        for doc_index, entry_count in enumerate(counts):
            entries = [
                TraceEntry(
                    transition=columns[0][i], state=columns[1][i],
                    t_start=columns[2][i], t_end=columns[3][i],
                    annotations=decoder.decode(columns[4][i]),
                    transition_annotations=decoder.decode(
                        columns[5][i]))
                for i in range(cursor, cursor + entry_count)
            ]
            cursor += entry_count
            docs.append(SemanticTrajectory(
                mo_id=doc_columns[0][doc_index],
                trace=Trace(entries),
                annotations=decoder.decode(doc_columns[3][doc_index]),
                t_start=doc_columns[1][doc_index],
                t_end=doc_columns[2][doc_index]))
    except CorruptSnapshotError:
        raise
    except (IndexError, TypeError, ValueError) as error:
        raise CorruptSnapshotError(
            "undecodable record segments: {}".format(error))
    return docs


# ----------------------------------------------------------------------
# index (de)serialization
# ----------------------------------------------------------------------
def _encode_indexes(state_postings: Dict, annotation_postings: Dict,
                    mo_postings: Dict) -> Dict:
    return {
        "by_state": {str(state): sorted(ids)
                     for state, ids in state_postings.items()},
        "by_mo": {str(mo): sorted(ids)
                  for mo, ids in mo_postings.items()},
        # annotation keys are (kind, value) tuples with typed values —
        # JSON objects cannot key on them, so pairs it is.
        "by_annotation": [
            [kind.value, value, sorted(ids)]
            for (kind, value), ids in sorted(
                annotation_postings.items(),
                key=lambda item: (item[0][0].value, str(item[0][1]),
                                  type(item[0][1]).__name__))
        ],
    }


def _decode_indexes(data: Dict) -> Tuple[Dict, Dict, Dict]:
    try:
        by_state = {state: set(ids)
                    for state, ids in data["by_state"].items()}
        by_mo = {mo: set(ids) for mo, ids in data["by_mo"].items()}
        by_annotation = {
            (AnnotationKind(kind), value): set(ids)
            for kind, value, ids in data["by_annotation"]}
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise CorruptSnapshotError(
            "undecodable index segment: {}".format(error))
    return by_state, by_annotation, by_mo


# ----------------------------------------------------------------------
# save / load
# ----------------------------------------------------------------------
def save_store(store: TrajectoryStore, path: str,
               include_indexes: bool = True,
               space: Optional[str] = None,
               wal_seq: int = 0) -> SnapshotInfo:
    """Write one consistent snapshot of ``store`` to directory
    ``path``.

    The store's state is captured in one read-locked instant; the
    segments, then the manifest, are written atomically (temp file +
    rename), so a crash mid-save can only leave a snapshot that fails
    verification — never a half-readable one.

    Args:
        store: the corpus to persist.
        path: snapshot directory (created if missing).
        include_indexes: also serialize the inverted indexes so
            ``load`` can install instead of rebuild them.
        space: space-model class name to record for session restore.
        wal_seq: log watermark folded into this snapshot (see
            :class:`~repro.persist.wal.WriteAheadLog`).

    Raises:
        PersistError: when the directory cannot be written.
    """
    docs, state_postings, annotation_postings, mo_postings = \
        store.snapshot_state()
    segments = _encode_segments(docs)
    if include_indexes:
        segments[SEGMENT_INDEXES] = _encode_indexes(
            state_postings, annotation_postings, mo_postings)

    try:
        os.makedirs(path, exist_ok=True)
        manifest_segments = []
        total_bytes = 0
        for name, payload in segments.items():
            raw = canonical_json(payload)
            write_atomic(os.path.join(path, name), raw)
            manifest_segments.append({
                "name": name, "bytes": len(raw),
                "sha256": _sha256(raw)})
            total_bytes += len(raw)
        manifest = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "doc_count": len(docs),
            "space": space,
            "wal_seq": int(wal_seq),
            "segments": sorted(manifest_segments,
                               key=lambda item: item["name"]),
        }
        manifest["manifest_sha256"] = _sha256(canonical_json(manifest))
        write_atomic(os.path.join(path, MANIFEST_NAME),
                     canonical_json(manifest))
    except OSError as error:
        raise PersistError(
            "cannot write snapshot {}: {}".format(path, error))
    return SnapshotInfo(path=path, doc_count=len(docs),
                        total_bytes=total_bytes, space=space,
                        wal_seq=int(wal_seq))


def read_manifest(path: str, verify: bool = True) -> Dict:
    """Parse (and structurally verify) a snapshot's manifest.

    Args:
        path: the snapshot directory.
        verify: also check the manifest's self-checksum.

    Raises:
        CorruptSnapshotError: missing/undecodable/mismatched manifest
            or an unsupported format version.
    """
    manifest_path = os.path.join(path, MANIFEST_NAME)
    try:
        with open(manifest_path, "rb") as source:
            raw = source.read()
    except OSError as error:
        raise CorruptSnapshotError(
            "unreadable manifest {}: {}".format(manifest_path, error))
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise CorruptSnapshotError(
            "undecodable manifest {}: {}".format(manifest_path, error))
    if not isinstance(manifest, dict) \
            or manifest.get("format") != FORMAT_NAME:
        raise CorruptSnapshotError(
            "{} is not a {} manifest".format(manifest_path,
                                             FORMAT_NAME))
    if manifest.get("version") != FORMAT_VERSION:
        raise CorruptSnapshotError(
            "unsupported snapshot version {!r} (this build reads "
            "{})".format(manifest.get("version"), FORMAT_VERSION))
    if verify:
        recorded = manifest.get("manifest_sha256")
        unsigned = {key: value for key, value in manifest.items()
                    if key != "manifest_sha256"}
        if recorded != _sha256(canonical_json(unsigned)):
            raise CorruptSnapshotError(
                "manifest self-checksum mismatch in {}".format(
                    manifest_path))
    if not isinstance(manifest.get("segments"), list):
        raise CorruptSnapshotError(
            "manifest in {} lists no segments".format(manifest_path))
    return manifest


def _read_segment(path: str, spec: Dict, verify: bool) -> Dict:
    name = spec.get("name", "?")
    segment_path = os.path.join(path, str(name))
    try:
        with open(segment_path, "rb") as source:
            raw = source.read()
    except OSError as error:
        raise CorruptSnapshotError(
            "unreadable segment {}: {}".format(segment_path, error))
    if verify:
        if len(raw) != spec.get("bytes"):
            raise CorruptSnapshotError(
                "segment {} truncated: {} bytes on disk, manifest "
                "says {}".format(name, len(raw), spec.get("bytes")))
        if _sha256(raw) != spec.get("sha256"):
            raise CorruptSnapshotError(
                "segment {} checksum mismatch".format(name))
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise CorruptSnapshotError(
            "undecodable segment {}: {}".format(name, error))
    if not isinstance(data, dict):
        raise CorruptSnapshotError(
            "segment {} is not a JSON object".format(name))
    return data


def load_store(path: str, use_indexes: bool = True,
               verify: bool = True
               ) -> Tuple[TrajectoryStore, SnapshotInfo]:
    """Reconstruct a store from a snapshot directory.

    Args:
        path: the snapshot directory.
        use_indexes: install the serialized inverted indexes when the
            snapshot carries them (otherwise — or when absent —
            indexes are rebuilt from the documents).
        verify: check every segment's size and SHA-256 against the
            manifest before decoding (skipping this trades integrity
            for a faster cold load).

    Returns:
        ``(store, info)`` — the reconstructed store and the
        snapshot's headline metadata.

    Raises:
        CorruptSnapshotError: structural damage, truncation, or
            checksum mismatch anywhere in the snapshot.
    """
    manifest = read_manifest(path, verify=verify)
    specs = {spec.get("name"): spec
             for spec in manifest["segments"]
             if isinstance(spec, dict)}
    for required in (SEGMENT_EPISODES, SEGMENT_INTERVALS,
                     SEGMENT_ANNOTATIONS):
        if required not in specs:
            raise CorruptSnapshotError(
                "manifest misses required segment {}".format(required))

    episodes = _read_segment(path, specs[SEGMENT_EPISODES], verify)
    intervals = _read_segment(path, specs[SEGMENT_INTERVALS], verify)
    annotations = _read_segment(path, specs[SEGMENT_ANNOTATIONS],
                                verify)
    docs = _decode_documents(episodes, intervals, annotations)
    if len(docs) != manifest.get("doc_count"):
        raise CorruptSnapshotError(
            "decoded {} documents, manifest says {}".format(
                len(docs), manifest.get("doc_count")))

    indexes = None
    if use_indexes and SEGMENT_INDEXES in specs:
        indexes = _decode_indexes(
            _read_segment(path, specs[SEGMENT_INDEXES], verify))
    store = TrajectoryStore.from_documents(docs, indexes=indexes)
    info = SnapshotInfo(
        path=path, doc_count=len(docs),
        total_bytes=sum(int(spec.get("bytes", 0))
                        for spec in specs.values()),
        space=manifest.get("space"),
        wal_seq=int(manifest.get("wal_seq", 0)))
    return store, info
