"""Named, independently configured datasets with background builds.

A :class:`SessionRegistry` is the service's unit of multi-tenancy:
each :class:`Session` owns one :class:`~repro.api.Workbench` (space
model + store + last build metrics) under a caller-chosen name such
as ``louvre@0.1`` or ``museum-march-csv``.  Builds run as background
jobs on daemon threads through the PR 3 parallel pipeline engine; a
:class:`BuildJob` handle exposes the job's state and a live
:class:`~repro.pipeline.metrics.PipelineMetrics` snapshot while the
pipeline streams, which is what the ``JobStatus`` protocol command
reports.

Ingestion is safe against concurrent readers because
:class:`~repro.storage.store.TrajectoryStore` takes a read-write lock
around every index mutation; the registry additionally serializes
builds *per session* (single-writer), so two jobs never interleave
half-batches into one store.
"""

from __future__ import annotations

import enum
import itertools
import os
import shutil
import threading
from typing import Dict, Iterable, List, Optional, Tuple

from repro.api import Workbench
from repro.pipeline.engine import PipelineError
from repro.pipeline.metrics import PipelineMetrics


class UnknownSessionError(KeyError):
    """Lookup of a session name the registry does not hold."""


class UnknownJobError(KeyError):
    """Lookup of a job id the registry does not hold."""


class JobState(enum.Enum):
    """Lifecycle of a background build job."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


class BuildJob:
    """Handle on one background build.

    Attributes:
        job_id: registry-assigned id (``job-N``).
        session: the target session's name.
    """

    def __init__(self, job_id: str, session: str,
                 target) -> None:
        self.job_id = job_id
        self.session = session
        self._state = JobState.PENDING
        self.error: Optional[str] = None
        self._pipeline = None
        self._finished = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(target,),
            name="repro-build-{}".format(job_id), daemon=True)

    # -- lifecycle ------------------------------------------------------
    def _start(self) -> None:
        self._thread.start()

    def _run(self, target) -> None:
        self._state = JobState.RUNNING
        try:
            target(self)
            self._state = JobState.DONE
        except Exception as error:  # surfaced via the handle, not lost
            self.error = "{}: {}".format(type(error).__name__, error)
            self._state = JobState.FAILED
        finally:
            self._finished.set()

    # -- observation ----------------------------------------------------
    @property
    def state(self) -> JobState:
        """The job's current lifecycle state."""
        return self._state

    @property
    def metrics(self) -> Optional[PipelineMetrics]:
        """Live per-stage metrics of the running (or finished)
        pipeline; ``None`` before the pipeline starts."""
        pipeline = self._pipeline
        if pipeline is None:
            return None
        try:
            return pipeline.metrics
        except PipelineError:  # assembled but not yet running
            return None

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; True unless it timed out."""
        return self._finished.wait(timeout)

    def __repr__(self) -> str:
        return "BuildJob({}, session={!r}, state={})".format(
            self.job_id, self.session, self._state.value)


def session_state(building: int, failed: bool, size: int) -> str:
    """``building`` / ``ready`` / ``failed`` / ``empty``: the state of
    a session with ``building`` builds running, the last one
    ``failed`` or not, and ``size`` documents (either engine's)."""
    if building:
        return "building"
    if failed:
        return "failed"
    return "ready" if size else "empty"


class Session:
    """One named dataset: a workbench plus build bookkeeping.

    ``durable`` is the session's on-disk home
    (:class:`~repro.persist.session.DurableSession`) when the
    registry has a ``persist_dir`` — builds journal to its log as
    they stream, and :meth:`checkpoint` folds the log into a fresh
    snapshot.
    """

    def __init__(self, name: str, workbench: Workbench,
                 durable=None) -> None:
        self.name = name
        self.workbench = workbench
        self.durable = durable
        #: Serializes builds into this session (single writer).
        self.build_lock = threading.Lock()
        self._building = 0
        self._failed = False
        #: Documents accepted / rejected by ``IngestDocuments`` —
        #: surfaced in ``/v1/health`` so a load replayer can assert
        #: delivery without scraping logs.
        self.ingest_accepted = 0
        self.ingest_rejected = 0

    def checkpoint(self):
        """Fold the session's log into a fresh snapshot.

        Caller must hold :attr:`build_lock` (checkpoint races a
        concurrent build's log appends otherwise).  Returns the
        :class:`~repro.persist.format.SnapshotInfo`.

        Raises:
            PersistError: when the session has no durable home or
                the disk write fails.
        """
        from repro.persist import PersistError
        from repro.persist.session import space_token

        if self.durable is None:
            raise PersistError(
                "session {!r} has no durable home (registry has no "
                "persist_dir)".format(self.name))
        return self.durable.checkpoint(
            self.workbench.store,
            space=space_token(self.workbench.space))

    @property
    def state(self) -> str:
        """``building`` / ``ready`` / ``failed`` / ``empty``."""
        return session_state(self._building, self._failed,
                             len(self.workbench.store))

    def __repr__(self) -> str:
        return "Session({!r}, {} trajectories, {})".format(
            self.name, len(self.workbench.store), self.state)


#: Finished jobs retained for ``JobStatus`` polling; older ones are
#: pruned so a long-lived server's job table stays bounded.
MAX_FINISHED_JOBS = 64


class JobTable:
    """Build jobs by id (``job-N``), finished ones pruned past
    :data:`MAX_FINISHED_JOBS` — the one job table of every engine."""

    def __init__(self) -> None:
        self._jobs: Dict[str, BuildJob] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def start(self, session: str, target) -> BuildJob:
        """Register and start a job running ``target(job)``."""
        with self._lock:
            job = BuildJob("job-{}".format(next(self._ids)), session,
                           target)
            self._jobs[job.job_id] = job
            # Retention: drop the oldest finished handles (each pins
            # its pipeline and thread object) beyond the cap.
            finished = [job_id for job_id, held in self._jobs.items()
                        if held.state in (JobState.DONE,
                                          JobState.FAILED)]
            for job_id in finished[:max(0, len(finished)
                                        - MAX_FINISHED_JOBS)]:
                del self._jobs[job_id]
        job._start()
        return job

    def get(self, job_id: str) -> BuildJob:
        """Lookup a job by id (UnknownJobError for unknown ids)."""
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJobError(job_id)


def check_build_source(source: str, path: Optional[str]) -> None:
    """Raises ValueError for an unknown source kind or a csv source
    without a path."""
    if source not in ("louvre", "csv"):
        raise ValueError(
            "unknown source {!r}; one of: louvre, csv".format(source))
    if source == "csv" and not path:
        raise ValueError("csv source needs a path")


def wal_report(wal) -> Dict:
    """Group-commit counters of one write-ahead log.

    ``coalescing`` is appends per physical flush — the fan-in the
    group-commit leader achieved (1.0 means every append paid its own
    fsync; ``None`` before the first flush).
    """
    appends = wal.appends
    flushes = wal.group_flushes
    return {"appends": appends, "group_flushes": flushes,
            "coalescing": (round(appends / flushes, 3)
                           if flushes else None)}


class SessionRegistry:
    """Thread-safe map of session name → :class:`Session` plus the
    build-job table (finished jobs pruned past
    :data:`MAX_FINISHED_JOBS`).

    With a ``persist_dir`` the registry is **durable**: every session
    lives in its own subdirectory (snapshot generations + append
    log), sessions found on disk are restored on construction
    (snapshot + log replay), new sessions journal their ingestion to
    the log as it streams, and finished builds auto-checkpoint — so a
    restarted registry serves the same sessions it held when it died.

    Args:
        persist_dir: root directory for durable sessions (created
            lazily); ``None`` keeps the registry process-local.
        fsync: fsync every log append (the durability default).
        autosave: checkpoint a session after each successful build
            (folds the build's log records into a fresh snapshot).
        standby: open ``persist_dir`` **read-only**: sessions restore
            from the snapshots + journal the primary wrote, but this
            registry never attaches the WAL, never checkpoints and
            never autosaves — a read replica sharing the primary's
            directory must not double-journal its writes.
        defer_restore: skip the synchronous restore-on-construction;
            the owner binds its listener first and then calls
            :meth:`finish_restore`, with :attr:`restoring` True in
            between so ``GET /v1/ready`` reports 503 while the corpus
            loads.
    """

    def __init__(self, persist_dir: Optional[str] = None,
                 fsync: bool = True, autosave: bool = True,
                 standby: bool = False,
                 defer_restore: bool = False) -> None:
        self._sessions: Dict[str, Session] = {}
        self._jobs = JobTable()
        self._lock = threading.Lock()
        #: The live-stream table, created by :meth:`stream_manager`.
        self._streams = None
        self.persist_dir = persist_dir
        self._fsync = fsync
        self.standby = standby
        self._autosave = autosave and not standby
        #: Session name → error message for persisted sessions that
        #: failed to restore at construction (corrupt snapshots);
        #: healthy sessions are served regardless.
        self.restore_errors: Dict[str, str] = {}
        self._restore_pending = (persist_dir is not None
                                 and defer_restore)
        #: True while persisted sessions are still being loaded — the
        #: readiness probe's drain signal.
        self.restoring = self._restore_pending
        if persist_dir is not None and not defer_restore:
            self._restore_all()

    # ------------------------------------------------------------------
    # durability plumbing
    # ------------------------------------------------------------------
    def _durable_for(self, name: str):
        """The on-disk home of session ``name`` (None when the
        registry is process-local)."""
        if self.persist_dir is None:
            return None
        from urllib.parse import quote

        from repro.persist import DurableSession

        return DurableSession(
            os.path.join(self.persist_dir, quote(name, safe="")),
            fsync=self._fsync)

    def _load_session(self, name: str) -> Session:
        """Recover one session from disk (no registry lock needed —
        the caller swaps the result into ``_sessions``).

        A standby registry replays the snapshot + journal like the
        primary would, then detaches the log and keeps no durable
        handle: the restored corpus is read-only state, and two
        processes appending to one journal would corrupt it.
        """
        from repro.persist.session import revive_space

        durable = self._durable_for(name)
        store, space_name = durable.open()
        if self.standby:
            store.detach_wal()
            durable.close()
        workbench = Workbench(space=revive_space(space_name),
                              store=store)
        return Session(name, workbench,
                       durable=None if self.standby else durable)

    def _restore_session(self, name: str) -> Session:
        """Recover one session from disk (caller holds the lock)."""
        session = self._load_session(name)
        self._sessions[name] = session
        return session

    def _restore_all(self) -> None:
        from urllib.parse import unquote

        from repro.persist import PersistError

        try:
            entries = sorted(os.listdir(self.persist_dir))
        except OSError:
            return  # nothing persisted yet
        for entry in entries:
            if not os.path.isdir(os.path.join(self.persist_dir,
                                              entry)):
                continue
            name = unquote(entry)
            durable = self._durable_for(name)
            if durable is None or not durable.exists():
                continue
            try:
                with self._lock:
                    self._restore_session(name)
            except PersistError as error:
                # One rotten session must not take the whole
                # registry down — record it and keep serving the
                # healthy ones (the CLI surfaces this map).
                self.restore_errors[name] = str(error)

    def finish_restore(self) -> None:
        """Run the restore a ``defer_restore=True`` construction
        postponed; clears :attr:`restoring` (the readiness gate) when
        the corpus is loaded.  No-op otherwise."""
        if not self._restore_pending:
            return
        try:
            self._restore_all()
        finally:
            self.restoring = False
            self._restore_pending = False

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def create(self, name: str,
               space: Optional[object] = None) -> Session:
        """The named session, created empty on first use.

        An existing session is returned as-is (``space`` ignored).
        In a durable registry a brand-new session gets its on-disk
        home immediately: the log is attached before the first
        ingest, so nothing needs to be rebuilt after a crash.
        """
        with self._lock:
            session = self._sessions.get(name)
            if session is None:
                # A standby tracks live writes in memory only — it
                # must not restore from (or journal to) the shared
                # directory here, or a fan-out ingest would apply
                # both the primary's journal *and* the in-memory
                # write, double-counting documents.
                durable = None if self.standby \
                    else self._durable_for(name)
                if durable is not None and durable.exists():
                    return self._restore_session(name)
                workbench = Workbench(space=space)
                if durable is not None:
                    workbench.store.attach_wal(durable.log())
                session = Session(name, workbench, durable=durable)
                self._sessions[name] = session
            return session

    def adopt(self, name: str, workbench: Workbench) -> Session:
        """Register an existing workbench under ``name`` (replacing
        any previous session of that name)."""
        with self._lock:
            session = Session(name, workbench,
                              durable=None if self.standby
                              else self._durable_for(name))
            self._sessions[name] = session
            return session

    def save(self, name: str):
        """Checkpoint a session to its durable home.

        Serializes against builds (takes the session's writer lock),
        so a snapshot never misses log records of an in-flight batch.
        Returns the :class:`~repro.persist.format.SnapshotInfo`.

        Raises:
            UnknownSessionError: for names never created.
            PersistError: without a ``persist_dir``, on a standby
                registry (the primary owns the journal), or on disk
                failure.
        """
        if self.standby:
            from repro.persist import PersistError

            raise PersistError(
                "standby registry does not checkpoint — the primary "
                "owns session {!r}'s journal".format(name))
        session = self.get(name)
        with session.build_lock:
            return session.checkpoint()

    def restore(self, name: str) -> Session:
        """(Re)load a session from disk, replacing the in-memory one.

        Raises:
            UnknownSessionError: when the name is neither held in
                memory nor persisted on disk.
            PersistError: without a ``persist_dir``, or for a session
                that exists in memory but has nothing persisted.
            CorruptSnapshotError: when the snapshot fails
                verification.
        """
        from repro.persist import PersistError

        durable = self._durable_for(name)
        if durable is None:
            raise PersistError("registry has no persist_dir")
        with self._lock:
            previous = self._sessions.get(name)
        if not durable.exists():
            if previous is None:
                raise UnknownSessionError(name)
            raise PersistError(
                "nothing persisted for session {!r}".format(name))
        if previous is not None:
            # Hold the writer lock across load *and* swap: a build
            # queued on the old session object stays blocked until
            # the new session is installed, so it cannot ingest into
            # the orphaned store in between.
            with previous.build_lock:
                previous.workbench.store.detach_wal()
                if previous.durable is not None:
                    previous.durable.close()
                session = self._load_session(name)
                with self._lock:
                    self._sessions[name] = session
                return session
        session = self._load_session(name)
        with self._lock:
            self._sessions[name] = session
        return session

    def get(self, name: str) -> Session:
        """Lookup by name.

        Raises:
            UnknownSessionError: for names never created.
        """
        with self._lock:
            try:
                return self._sessions[name]
            except KeyError:
                raise UnknownSessionError(name)

    def drop(self, name: str) -> None:
        """Forget a session (its store becomes garbage).

        Raises:
            UnknownSessionError: for names never created.
        """
        with self._lock:
            if name not in self._sessions:
                raise UnknownSessionError(name)
            session = self._sessions.pop(name)
        if self._streams is not None:
            self._streams.drop(name)
        # Dropping a durable session removes its on-disk home too —
        # otherwise the next create() (or registry restart) would
        # silently resurrect the corpus and a follow-up build would
        # append onto it, doubling the dataset.
        session.workbench.store.detach_wal()
        if session.durable is not None:
            session.durable.close()
            shutil.rmtree(session.durable.directory,
                          ignore_errors=True)

    def names(self) -> List[str]:
        """Session names, insertion-ordered."""
        with self._lock:
            return list(self._sessions)

    def sessions(self) -> List[Session]:
        """Every session, insertion-ordered."""
        with self._lock:
            return list(self._sessions.values())

    def stream_manager(self):
        """The live-stream table (:class:`~repro.stream.manager
        .StreamManager`), created by the first stream command."""
        if self._streams is None:
            from repro.stream.manager import StreamManager

            with self._lock:
                if self._streams is None:
                    self._streams = StreamManager(self)
        return self._streams

    # ------------------------------------------------------------------
    # the stream host (repro.stream.manager.StreamHost)
    # ------------------------------------------------------------------
    def stream_session(self, session: str) -> Session:
        return self.create(session)

    def stream_directory(self, session: str,
                         stream: str) -> Optional[str]:
        """``<persist_dir>/<session>/streams/<stream>``, beside the
        session's snapshots and WAL; None on a memory-only or standby
        registry."""
        if self.persist_dir is None or self.standby:
            return None
        from urllib.parse import quote

        from repro.stream.manager import STREAMS_DIR

        return os.path.join(self.persist_dir, quote(session, safe=""),
                            STREAMS_DIR, quote(stream, safe=""))

    def stream_space(self, session: str):
        """The session's space, a Louvre model when it has none."""
        workbench = self.get(session).workbench
        if workbench.space is None:
            from repro.louvre.space import LouvreSpace

            workbench.space = LouvreSpace()
        return workbench.space

    def stream_fsync(self) -> bool:
        return self._fsync

    def store_episodes(self, session: str, episodes) -> None:
        held = self.get(session)
        with held.build_lock:
            held.workbench.store.extend(episodes)

    def stored_documents(self, session: str):
        return self.get(session).workbench.store

    # ------------------------------------------------------------------
    # the Engine surface (repro.service.executor.Engine)
    # ------------------------------------------------------------------
    def execute_command(self, command):
        """Run one protocol command against this registry
        (:func:`repro.service.executor.execute_command`)."""
        from repro.service.executor import execute_command

        return execute_command(self, command)

    def reads(self, session: str, query: Optional[Dict]):
        """One read command's :class:`~repro.service.executor.StoreReads`."""
        from repro.service.executor import StoreReads
        return StoreReads(self, session, query)

    def cache_stamp(self, session: str) -> Optional[Tuple]:
        """``(name, store serial, store version, space generation)``
        of ``session`` (None when unknown).  The space component is a
        monotonic counter, not ``id(space)``: ids are reused after
        garbage collection and could revalidate stale bytes."""
        with self._lock:
            held = self._sessions.get(session)
        if held is None:
            return None
        workbench = held.workbench
        store = workbench.store
        return (session, store.serial, store.version,
                workbench.space_generation)

    def health_roster(self) -> List[Dict]:
        """Per-session entries for ``GET /v1/health``; durable
        sessions carry their WAL group-commit counters."""
        roster = []
        for session in self.sessions():
            entry = {"name": session.name, "state": session.state,
                     "trajectories": len(session.workbench.store),
                     "ingest": {
                         "accepted": session.ingest_accepted,
                         "rejected": session.ingest_rejected}}
            wal = session.workbench.store.wal
            if wal is not None:
                entry["wal"] = wal_report(wal)
            roster.append(entry)
        return roster

    def shard_report(self) -> None:
        return None  # no shards behind a registry

    def breaker_report(self) -> None:
        return None  # no replicas behind a registry

    def stream_report(self) -> Optional[Dict]:
        """Live-stream gauges, once the stream table exists."""
        return None if self._streams is None else self._streams.report()

    # ------------------------------------------------------------------
    # build jobs
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> BuildJob:
        """Lookup a build job by id.

        Raises:
            UnknownJobError: for unknown ids.
        """
        return self._jobs.get(job_id)

    def build(self, name: str, source: str = "louvre",
              scale: float = 0.05, path: Optional[str] = None,
              workers: int = 0, executor: str = "thread",
              batch_size: int = 512, streaming: bool = True,
              cache: bool = False,
              wait: bool = False) -> BuildJob:
        """Start a (background) build into the named session.

        The session is created on first use with a
        :class:`~repro.louvre.space.LouvreSpace` model.  The job
        streams the source through clean → segment → trace → annotate
        → store on the parallel engine; its handle exposes live
        metrics while it runs.

        Args:
            name: target session.
            source: ``"louvre"`` or ``"csv"``.
            scale: louvre-source corpus scale.
            path: csv-source file path.
            workers / executor / batch_size / streaming / cache:
                engine knobs, as in :meth:`Workbench.build
                <repro.api.Workbench.build>`.
            wait: block until the job finishes before returning.

        Raises:
            ValueError: for an unknown source kind or a csv source
                without a path.
        """
        check_build_source(source, path)
        initial = self.create(name)
        if initial.workbench.space is None:
            from repro.louvre.space import LouvreSpace
            initial.workbench.space = LouvreSpace()

        def records(session: Session) -> Iterable:
            if source == "louvre":
                from repro.pipeline.sources import louvre_source
                return louvre_source(session.workbench.space,
                                     scale=scale)
            from repro.pipeline.sources import csv_source
            return csv_source(path)

        def target(job: BuildJob) -> None:
            # Resolve by name at run time: a RestoreSession between
            # submit and start swaps the Session object, and building
            # into the stale one would ingest into an orphaned,
            # un-journaled store.
            session = self.get(name)
            with session.build_lock:  # single writer per session
                session._building += 1
                try:
                    stream = records(session)
                    pipeline = session.workbench.prepare_build(
                        batch_size=batch_size, streaming=streaming,
                        workers=workers, executor=executor,
                        cache=cache)
                    job._pipeline = pipeline
                    pipeline.run(stream, collect=False)
                    session.workbench.metrics = pipeline.metrics
                    session._failed = False
                    if self._autosave and session.durable is not None:
                        # Fold the batches this build journaled into
                        # a fresh snapshot while we still hold the
                        # writer lock.  A failure here fails the job
                        # (the corpus is built but NOT yet compacted
                        # — the log still has it, so nothing is
                        # lost).
                        session.checkpoint()
                except BaseException:
                    session._failed = True
                    raise
                finally:
                    session._building -= 1

        job = self._jobs.start(name, target)
        if wait:
            job.wait()
        return job
