"""Session persistence: snapshot + log + ``CURRENT`` pointer.

A :class:`DurableSession` owns one directory::

    <dir>/
      CURRENT             name of the active snapshot (atomic rename)
      snapshot-000001/    snapshot directories (repro.persist.format)
      snapshot-000002/
      wal.log             the write-ahead log since the active snapshot

Opening replays *snapshot + log*: load the snapshot ``CURRENT`` names,
then apply every log record whose sequence lies past the snapshot's
``wal_seq`` watermark, then attach the log to the store so further
ingestion is journaled as it happens.  :meth:`checkpoint` folds the
log back into a fresh snapshot: write ``snapshot-(N+1)`` completely,
flip ``CURRENT`` (one atomic rename — the commit point), truncate the
log, prune old snapshots.  A crash at *any* point between those steps
recovers correctly, because replay filters on the watermark rather
than trusting the log to have been truncated.

The module also provides the :class:`~repro.api.Workbench`-level sugar
(:func:`save_workbench` / :func:`open_workbench`) and the space-model
registry that maps the class name recorded in a manifest back to a
constructor on restore.
"""

from __future__ import annotations

import os
import re
from typing import Callable, Dict, Optional, Tuple

from repro.persist.format import (
    CorruptSnapshotError,
    PersistError,
    SnapshotInfo,
    load_store,
    save_store,
    write_atomic,
)
from repro.persist.wal import WriteAheadLog
from repro.storage.store import TrajectoryStore

CURRENT_NAME = "CURRENT"
LOG_NAME = "wal.log"
_SNAPSHOT_PATTERN = re.compile(r"^snapshot-(\d{6})$")

#: Space-model class name → zero-argument factory, used to revive the
#: space a session was built over.  Extend via :func:`register_space`.
_SPACE_FACTORIES: Dict[str, Callable[[], object]] = {}


def register_space(name: str,
                   factory: Callable[[], object]) -> None:
    """Teach restore how to rebuild a space model by class name."""
    _SPACE_FACTORIES[name] = factory


def space_token(space: Optional[object]) -> Optional[str]:
    """The revivable manifest token of a space model.

    A space exposing ``persist_token`` (parameterised spaces like the
    synthetic venues) records that; anything else records its class
    name, matching the registered factories.
    """
    if space is None:
        return None
    token = getattr(space, "persist_token", None)
    if token is not None:
        return str(token)
    return type(space).__name__


def revive_space(name: Optional[str]) -> Optional[object]:
    """A space model instance for a manifest-recorded class name.

    ``None`` when the name is unknown (queries still work; building
    and hierarchy-aware mining need a real space).
    """
    if name is None:
        return None
    factory = _SPACE_FACTORIES.get(name)
    if factory is not None:
        return factory()
    if name == "LouvreSpace":  # the built-in default, lazily imported
        from repro.louvre.space import LouvreSpace
        return LouvreSpace()
    if name.startswith("SyntheticVenue:"):
        # Parametric venues are revived from their generation token
        # (archetype + seeds fully determine the venue), so a session
        # built over a synthetic venue restores on any process.
        from repro.synth.venues import venue_from_token
        try:
            return venue_from_token(name)
        except ValueError:
            return None
    return None


class DurableSession:
    """One persisted corpus directory: snapshots + the append log.

    Args:
        directory: the session directory (created lazily).
        fsync: forwarded to the log — fsync every append.
        keep_snapshots: how many snapshot generations to retain after
            a checkpoint (at least 1, the active one).
    """

    def __init__(self, directory: str, fsync: bool = True,
                 keep_snapshots: int = 2) -> None:
        if keep_snapshots < 1:
            raise ValueError("keep_snapshots must be >= 1")
        self.directory = directory
        self.fsync = fsync
        self.keep_snapshots = keep_snapshots
        self._log: Optional[WriteAheadLog] = None

    # ------------------------------------------------------------------
    # layout helpers
    # ------------------------------------------------------------------
    @property
    def log_path(self) -> str:
        return os.path.join(self.directory, LOG_NAME)

    def exists(self) -> bool:
        """True when the directory holds any persisted state."""
        return (self._current_snapshot() is not None
                or os.path.exists(self.log_path))

    def _current_snapshot(self) -> Optional[str]:
        """Directory name the ``CURRENT`` pointer designates."""
        try:
            with open(os.path.join(self.directory, CURRENT_NAME),
                      "r", encoding="utf-8") as source:
                name = source.read().strip()
        except OSError:
            return None
        if not _SNAPSHOT_PATTERN.match(name):
            return None
        if not os.path.isdir(os.path.join(self.directory, name)):
            return None
        return name

    def _snapshot_names(self) -> list:
        try:
            entries = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(name for name in entries
                      if _SNAPSHOT_PATTERN.match(name))

    def _next_snapshot_name(self) -> str:
        names = self._snapshot_names()
        if not names:
            return "snapshot-000001"
        highest = int(_SNAPSHOT_PATTERN.match(names[-1]).group(1))
        return "snapshot-{:06d}".format(highest + 1)

    def log(self, start_seq: int = 1) -> WriteAheadLog:
        """The session's write-ahead log (opened once)."""
        if self._log is None:
            self._log = WriteAheadLog(self.log_path, fsync=self.fsync,
                                      start_seq=start_seq)
        return self._log

    # ------------------------------------------------------------------
    # open (recover) / checkpoint (fold)
    # ------------------------------------------------------------------
    def open(self, use_indexes: bool = True, verify: bool = True
             ) -> Tuple[TrajectoryStore, Optional[str]]:
        """Recover the store: snapshot + log replay, log attached.

        Returns ``(store, space_name)``.  A directory with no
        snapshot yet (possibly with a log — a session that crashed
        before its first checkpoint) recovers from an empty store.

        Raises:
            CorruptSnapshotError: when the active snapshot fails
                verification (the log alone cannot repair that).
        """
        current = self._current_snapshot()
        space_name: Optional[str] = None
        watermark = 0
        if current is not None:
            store, info = load_store(
                os.path.join(self.directory, current),
                use_indexes=use_indexes, verify=verify)
            space_name = info.space
            watermark = info.wal_seq
        else:
            store = TrajectoryStore()
        log = self.log(start_seq=watermark + 1)
        log.replay_into(store, after_seq=watermark)
        store.attach_wal(log)
        return store, space_name

    def checkpoint(self, store: TrajectoryStore,
                   space: Optional[str] = None) -> SnapshotInfo:
        """Fold the log into a fresh snapshot (the ``compact()``).

        Writes the next ``snapshot-N`` in full, atomically flips
        ``CURRENT`` to it (the commit point), truncates the log, and
        prunes snapshots beyond :attr:`keep_snapshots`.  The caller
        must hold whatever writer lock serializes ingestion into
        ``store`` — checkpointing concurrently with writes would
        truncate log records the snapshot never saw.

        Raises:
            PersistError: when the directory cannot be written.
        """
        try:
            os.makedirs(self.directory, exist_ok=True)
        except OSError as error:
            raise PersistError("cannot create session dir {}: {}"
                               .format(self.directory, error))
        log = self.log()
        name = self._next_snapshot_name()
        info = save_store(store, os.path.join(self.directory, name),
                          include_indexes=True, space=space,
                          wal_seq=log.last_seq)
        # The commit point: CURRENT names the new snapshot.
        current_path = os.path.join(self.directory, CURRENT_NAME)
        try:
            write_atomic(current_path, (name + "\n").encode("utf-8"))
        except OSError as error:
            raise PersistError("cannot update {}: {}".format(
                current_path, error))
        # Everything in the log is now covered by the watermark;
        # truncating is an optimization, not a correctness step.
        log.reset()
        self._prune_snapshots(keep=name)
        return info

    def _prune_snapshots(self, keep: str) -> None:
        """Drop old generations, never the one just committed."""
        names = self._snapshot_names()
        survivors = names[-self.keep_snapshots:]
        for name in names:
            if name in survivors or name == keep:
                continue
            snapshot_dir = os.path.join(self.directory, name)
            try:
                for entry in os.listdir(snapshot_dir):
                    os.unlink(os.path.join(snapshot_dir, entry))
                os.rmdir(snapshot_dir)
            except OSError:
                pass  # pruning is best-effort; replay stays correct

    def close(self) -> None:
        """Release the log's file handle."""
        if self._log is not None:
            self._log.close()
            self._log = None

    def __repr__(self) -> str:
        return "DurableSession({!r})".format(self.directory)


# ----------------------------------------------------------------------
# workbench sugar
# ----------------------------------------------------------------------
def save_workbench(directory: str, workbench,
                   fsync: bool = True) -> SnapshotInfo:
    """Persist a workbench's corpus as a durable session directory.

    The store's future writes are journaled too: the session's log is
    attached to the store after the checkpoint, so ``save`` once and
    every later ``build`` lands on disk as it streams.
    """
    session = DurableSession(directory, fsync=fsync)
    space = workbench.space
    space_name = space_token(space)
    info = session.checkpoint(workbench.store, space=space_name)
    workbench.store.attach_wal(session.log())
    return info


def open_workbench(directory: str, use_indexes: bool = True,
                   verify: bool = True, fsync: bool = True):
    """Recover a workbench from a durable session directory.

    Returns a :class:`~repro.api.Workbench` whose store is the
    snapshot-plus-log replay and whose space model is revived from
    the recorded class name (``None`` when unknown — queries still
    work; building and hierarchy-aware mining need a space).

    Raises:
        PersistError: when the directory holds no persisted session.
        CorruptSnapshotError: when the snapshot fails verification.
    """
    from repro.api import Workbench

    session = DurableSession(directory, fsync=fsync)
    if not session.exists():
        raise PersistError(
            "no persisted session under {!r}".format(directory))
    store, space_name = session.open(use_indexes=use_indexes,
                                     verify=verify)
    return Workbench(space=revive_space(space_name), store=store)
