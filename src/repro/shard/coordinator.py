"""The scatter-gather coordinator over N shard executors.

:class:`ShardCoordinator` is the second implementation of the
:class:`~repro.service.executor.Engine` protocol (beside
:class:`~repro.service.registry.SessionRegistry`), so the asyncio
server, the wire layer and :class:`~repro.service.executor
.LocalBinding` serve a sharded corpus without a line of transport
change.

Behind that surface every session is split across N shard executors —
in-process registries or remote ``repro serve`` workers — by
consistent hashing of **global document ids** (:mod:`repro.shard
.ring`).  The coordinator runs the executor's dispatch, validators and
merges, and the executor's own handlers of ``RunQuery``,
``MinePatterns``, ``Explain`` (:data:`~repro.service.executor
.READ_HANDLERS`) and the stream commands, so validation, cursors,
page shapes and error strings are byte-identical to the single-process
engine by construction; only the execute phase differs:

* ``Summary`` / ``SummaryParts`` / ``Flow`` / ``CountPatterns`` /
  ``StoreStats`` — the declared single-scatter reads
  (:data:`~repro.service.executor.SCATTER_READS`): one partial per
  shard, combined by the same merge the executor's own results go
  through;
* ``RunQuery`` / ``MinePatterns`` / ``Explain`` — the read handle
  :class:`_ShardReads`: per-shard cursor-translated page streams,
  k-way merged on ``(order key, global doc id)``
  (:mod:`repro.shard.merge`); count-distribution PrefixSpan, mining
  every shard at a pigeonhole-lowered threshold, then an exact
  ``CountPatterns`` recount of each surviving candidate on only the
  shards that did not mine it; and the merged ``StoreStats`` of the
  logical corpus, planned against a stats-only store proxy;
* ``Similarity`` — the merged sequence list scattered as
  ``SimilarityBlock`` row ranges and stitched;
* ``BuildDataset`` — the pipeline runs once on the coordinator with a
  fan-out sink that routes each built batch to its shards as
  ``IngestDocuments``;
* ``OpenStream`` / ``AppendEvents`` / ``StreamStatus`` /
  ``CloseStream`` — the executor's own handlers over the
  coordinator's :class:`~repro.stream.manager.StreamManager`: the
  stream segments and journals here, and the episodes it closes take
  the same routed ``IngestDocuments`` fan-out.

Nothing about placement is persisted beyond the shard count: shard
``k`` ingests its documents in global order, so local↔global id
translation is re-derived from the router alone (see
:class:`~repro.shard.ring.ShardTopology`).

Each shard may be backed by a *replica set* rather than a single
binding (pass a list per shard): reads rotate across live replicas
behind per-replica circuit breakers and fail over on transport
faults, writes fan out primary-first, and an optional request
deadline (``deadline_ms`` on any command) is decremented and
forwarded so a hung replica costs bounded time instead of a hung
client (:mod:`repro.resilience`).  Read commands sent with
``allow_partial`` degrade instead of failing when a whole shard is
lost: the merged live-shard result carries a
``degraded: {"missing_shards": [...]}`` marker.
"""

from __future__ import annotations

import bisect
import itertools
import os
import shutil
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple
from urllib.parse import quote

from repro.mining.prefixspan import SequentialPattern
from repro.pipeline.engine import Stage
from repro.resilience.policy import Deadline, DeadlineExceeded, RetryPolicy
from repro.resilience.replicas import ShardTarget, is_shard_loss
from repro.service import protocol as P
from repro.service.executor import (
    MAX_PAGE_SIZE,
    READ_HANDLERS,
    SCATTER_READS,
    STREAM_HANDLERS,
    CommandError,
    PageSpec,
    check_row_block,
    degraded,
    dispatch,
    job_info,
    job_status,
    unknown_session,
)
from repro.service.registry import (
    BuildJob,
    JobTable,
    check_build_source,
    session_state,
)
from repro.shard.merge import merge_sorted
from repro.shard.ring import (
    DEFAULT_REPLICAS,
    HashRing,
    ShardStateError,
    ShardTopology,
)
from repro.storage.results import ORDER_KEYS
from repro.stream.manager import STREAMS_DIR, StreamManager

#: Process-wide session serials for response-cache stamps (the
#: :attr:`TrajectoryStore.serial <repro.storage.store.TrajectoryStore
#: .serial>` idiom): a dropped, re-created or restored session — or
#: the same name on another coordinator — never repeats a stamp.
_SESSION_SERIALS = itertools.count(1)


class _CoordSession:
    """Coordinator-side bookkeeping of one sharded session."""

    def __init__(self, name: str, shard_count: int,
                 router: Callable[[int], int],
                 space_name: Optional[str] = None) -> None:
        self.name = name
        self.space_name = space_name
        self.doc_count = 0
        self.topology = ShardTopology(shard_count, router)
        #: Unique per session object — the cache-stamp component
        #: standing in for the stores' serials.
        self.serial = next(_SESSION_SERIALS)
        #: Bumped per ingest batch — the cache-stamp component
        #: standing in for the stores' versions.
        self.generation = 0
        #: Serializes ingestion so global ids are assigned in order.
        self.ingest_lock = threading.Lock()
        self._building = 0
        self._failed = False

    @property
    def state(self) -> str:
        """The session's :func:`~repro.service.registry.session_state`."""
        return session_state(self._building, self._failed,
                             self.doc_count)


class _StatsProxy:
    """A stats-only stand-in for :class:`TrajectoryStore`.

    Carries exactly the store surface the query planner touches while
    *explaining* (cardinalities, corpus size, time span); the fetch
    closures the plan builds are lazy and never fire during
    ``explain()``, so no document access is needed — the coordinator
    plans the logical corpus from its merged ``StoreStats`` alone.
    """

    def __init__(self, stats: P.StoreStatsInfo) -> None:
        from repro.core.annotations import AnnotationKind

        self._doc_count = stats.doc_count
        self._states = stats.states
        self._annotations = {(AnnotationKind(kind), value): count
                             for kind, value, count in stats.annotations}
        self._mos = stats.mos
        self._time_span = None if stats.time_span is None \
            else tuple(stats.time_span)

    def __len__(self) -> int:
        return self._doc_count

    def state_cardinalities(self) -> Dict[str, int]:
        return dict(self._states)

    def annotation_cardinalities(self) -> Dict:
        return dict(self._annotations)

    def ids_of_mo(self, mo_id: str):
        return range(self._mos.get(str(mo_id), 0))

    def time_span(self) -> Optional[Tuple[float, float]]:
        return self._time_span


class ShardCoordinator:
    """Scatter-gather engine over N shard executors.

    Args:
        backends: one entry per shard — either a single protocol
            binding (anything with ``call(command) -> Response``
            raising :class:`~repro.service.protocol.ServiceError`,
            e.g. :class:`~repro.service.executor.LocalBinding` or
            :class:`~repro.service.client.ServiceClient`), or a
            **list** of bindings forming that shard's replica set
            (index 0 is the primary — it owns the shard's journal).
        router: global doc id → shard index; defaults to a
            :class:`~repro.shard.ring.HashRing` over ``len(backends)``
            shards.
        replicas: virtual nodes of the default ring.
        autosave: checkpoint every shard (``SaveSession``) after a
            successful build — on for durable shard sets.
        retry: per-shard read retry/backoff policy
            (:class:`~repro.resilience.policy.RetryPolicy`; a
            default one when None).
        breaker_factory: per-replica circuit-breaker constructor
            (:class:`~repro.resilience.breaker.CircuitBreaker` by
            default) — injectable for tests and tuning.
        stream_dir: the shard set's root, where the coordinator's
            streams keep their sidecars (``<stream_dir>/streams/
            <session>/<stream>/``); None keeps streams memory-only.

    Raises:
        ShardStateError: when sessions found on the shards do not
            match the routing-derived document layout.
    """

    def __init__(self, backends: List,
                 router: Optional[Callable[[int], int]] = None,
                 replicas: int = DEFAULT_REPLICAS,
                 autosave: bool = False,
                 retry: Optional[RetryPolicy] = None,
                 breaker_factory: Optional[Callable] = None,
                 stream_dir: Optional[str] = None) -> None:
        if not backends:
            raise ValueError("need at least one shard backend")
        groups = [list(group) if isinstance(group, (list, tuple))
                  else [group] for group in backends]
        #: Primaries, one per shard (the pre-replica surface).
        self.backends = [group[0] for group in groups]
        self.shard_count = len(groups)
        total_replicas = sum(len(group) for group in groups)
        # One shared guard pool for every deadline-bounded replica
        # call: sized so a full scatter with one hung replica per
        # shard still has threads for the failover tries.
        self._guard = ThreadPoolExecutor(
            max_workers=2 * total_replicas + 4,
            thread_name_prefix="repro-shard-guard")
        self.targets = [ShardTarget(shard, group, retry=retry,
                                    breaker_factory=breaker_factory,
                                    executor=self._guard)
                        for shard, group in enumerate(groups)]
        self.ring = HashRing(self.shard_count, replicas=replicas)
        self.router = router if router is not None \
            else self.ring.shard_of
        self.autosave = autosave
        self._sessions: Dict[str, _CoordSession] = {}
        self._lock = threading.Lock()
        self.stream_dir = stream_dir
        #: Whether stream sidecar writes fsync: the shard set's own
        #: setting, copied by :meth:`local` and
        #: :meth:`ShardWorkerPool.coordinator
        #: <repro.shard.workers.ShardWorkerPool.coordinator>`.
        self.fsync = True
        #: The live streams: segmented here, stored through the
        #: routed ingest (this coordinator is their host).
        self._streams = StreamManager(self)
        self._jobs = JobTable()
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, self.shard_count),
            thread_name_prefix="repro-shard")
        # The request deadline travels by thread-local so the twenty
        # call sites below need no signature change; _scatter captures
        # it before hopping threads.
        self._deadlines = threading.local()
        self._stats_lock = threading.Lock()
        self._shard_stats = [{"requests": 0, "errors": 0,
                              "inflight": 0}
                             for _ in range(self.shard_count)]
        #: "shard-k/name" → restore failure message (local shards).
        self.restore_errors: Dict[str, str] = {}
        #: Shards restore before the coordinator exists, so it is
        #: never restoring (the Engine readiness attribute).
        self.restoring = False
        self._discover_sessions()

    # ------------------------------------------------------------------
    # construction sugar
    # ------------------------------------------------------------------
    @classmethod
    def local(cls, shard_count: int,
              persist_dir: Optional[str] = None, fsync: bool = True,
              router: Optional[Callable[[int], int]] = None,
              replicas: int = DEFAULT_REPLICAS,
              replicas_per_shard: int = 1,
              retry: Optional[RetryPolicy] = None,
              breaker_factory: Optional[Callable] = None
              ) -> "ShardCoordinator":
        """A coordinator over ``shard_count`` in-process registries.

        With a ``persist_dir``, shard ``k`` journals to
        ``<persist_dir>/shard-k`` and the root carries a ``shard.json``
        manifest; reopening the root with a different shard count
        raises :class:`~repro.shard.ring.ShardStateError` (run
        ``repro rebalance`` to re-split).

        ``replicas_per_shard > 1`` adds standby registries per shard:
        each reads the same snapshot + WAL directory at boot but never
        writes it (:class:`SessionRegistry(standby=True)
        <repro.service.registry.SessionRegistry>`), staying current
        through the coordinator's write fan-out.
        """
        from repro.service.executor import LocalBinding
        from repro.service.registry import SessionRegistry
        from repro.shard.rebalance import check_manifest, shard_home

        if replicas_per_shard < 1:
            raise ValueError("replicas_per_shard must be >= 1")
        if persist_dir is not None:
            check_manifest(persist_dir, shard_count, replicas)
        backends = []
        registries = []
        for shard in range(shard_count):
            home = shard_home(persist_dir, shard) \
                if persist_dir is not None else None
            registry = SessionRegistry(persist_dir=home, fsync=fsync)
            registries.append(registry)
            group: List = [LocalBinding(registry)]
            for _ in range(1, replicas_per_shard):
                standby = SessionRegistry(persist_dir=home,
                                          fsync=fsync, standby=True)
                group.append(LocalBinding(standby))
            backends.append(group if replicas_per_shard > 1
                            else group[0])
        coordinator = cls(backends, router=router, replicas=replicas,
                          autosave=persist_dir is not None,
                          retry=retry,
                          breaker_factory=breaker_factory,
                          stream_dir=persist_dir)
        coordinator.fsync = fsync
        for shard, registry in enumerate(registries):
            for name, message in registry.restore_errors.items():
                coordinator.restore_errors[
                    "shard-{}/{}".format(shard, name)] = message
        return coordinator

    # ------------------------------------------------------------------
    # shard RPC plumbing
    # ------------------------------------------------------------------
    #: Mutating commands — fanned to every replica of the shard so
    #: in-memory standbys track the live corpus.
    _WRITE_ALL = (P.IngestDocuments, P.DropSession, P.RestoreSession)
    #: Commands only the journal owner may execute.
    _PRIMARY_ONLY = (P.SaveSession,)

    def _deadline(self) -> Optional[Deadline]:
        """The calling thread's request deadline (None outside a
        deadline-carrying command)."""
        return getattr(self._deadlines, "value", None)

    def _call(self, shard: int, command: P.Command,
              deadline: Optional[Deadline] = None) -> P.Response:
        """One shard call with saturation accounting, routed through
        the shard's replica set (balance/failover for reads, fan-out
        for writes, primary-only for checkpoints)."""
        if deadline is None:
            deadline = self._deadline()
        target = self.targets[shard]
        stats = self._shard_stats[shard]
        with self._stats_lock:
            stats["requests"] += 1
            stats["inflight"] += 1
        try:
            if isinstance(command, self._WRITE_ALL):
                return target.call_write(command, deadline)
            if isinstance(command, self._PRIMARY_ONLY):
                return target.call_primary(command, deadline)
            return target.call_read(command, deadline)
        except Exception:
            with self._stats_lock:
                stats["errors"] += 1
            raise
        finally:
            with self._stats_lock:
                stats["inflight"] -= 1

    def _scatter(self, commands: List[Optional[P.Command]],
                 partial: bool = False,
                 missing: Optional[List[int]] = None) -> List:
        """Run one command per shard concurrently (``None`` skips a
        shard).  Raises the lowest-indexed shard's failure, so error
        relay is deterministic regardless of completion order.

        With ``partial``, a shard lost to transport faults or an
        exhausted replica set (:func:`~repro.resilience.replicas
        .is_shard_loss`) yields ``None`` in its slot — and its index
        in ``missing`` — instead of failing the scatter; application
        errors still raise.
        """
        deadline = self._deadline()
        futures = [None if command is None
                   else self._pool.submit(self._call, shard, command,
                                          deadline)
                   for shard, command in enumerate(commands)]
        results: List = []
        failure: Optional[BaseException] = None
        for shard, future in enumerate(futures):
            if future is None:
                results.append(None)
                continue
            # The replica layer bounds each call; the grace window
            # only fires if a scatter worker itself wedges.
            grace = None if deadline is None \
                else max(0.0, deadline.remaining()) + 0.5
            try:
                results.append(future.result(timeout=grace))
                continue
            except FuturesTimeout:
                error: BaseException = DeadlineExceeded(
                    "shard {} did not answer within the "
                    "deadline".format(shard))
            except BaseException as caught:
                error = caught
            if partial and is_shard_loss(error):
                if missing is not None:
                    missing.append(shard)
                results.append(None)
                continue
            if failure is None:
                failure = error
            results.append(None)
        if failure is not None:
            raise failure
        return results

    def _scatter_same(self, command: P.Command) -> List:
        return self._scatter([command] * self.shard_count)

    # ------------------------------------------------------------------
    # session bookkeeping
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """Session names, insertion-ordered."""
        with self._lock:
            return list(self._sessions)

    def _held(self, name: str) -> _CoordSession:
        with self._lock:
            session = self._sessions.get(name)
        if session is None:
            raise unknown_session(name, self.names())
        return session

    def _create_session(self, name: str,
                        space: Optional[str] = None) -> _CoordSession:
        with self._lock:
            session = self._sessions.get(name)
            created = session is None
            if created:
                session = _CoordSession(name, self.shard_count,
                                        self.router, space)
                self._sessions[name] = session
            elif session.space_name is None and space is not None:
                session.space_name = space
        if created:
            # Materialize the session on *every* shard up front so
            # scattered reads never 404 on a shard that received no
            # documents yet.
            self._scatter_same(P.IngestDocuments(
                session=name, docs=[], space=session.space_name))
        return session

    def _adopt_layout(self, name: str,
                      infos: List[Optional[P.SessionInfo]]
                      ) -> _CoordSession:
        """Adopt a session the shards already hold (discovery or
        restore; one ``SessionInfo`` per shard, None where a shard
        lacks it), validating the counts against the routing."""
        per_shard = [0 if info is None else info.trajectories
                     for info in infos]
        space = next((info.space for info in infos
                      if info is not None and info.space is not None),
                     None)
        session = _CoordSession(name, self.shard_count, self.router,
                                space)
        session.doc_count = sum(per_shard)
        expected = session.topology.counts(session.doc_count)
        if expected != per_shard:
            raise ShardStateError(
                "session {!r}: shard document counts {} do not match "
                "the routing-derived layout {} for {} shards; run "
                "'repro rebalance' to re-split the corpus".format(
                    name, per_shard, expected, self.shard_count))
        return session

    def _discover_sessions(self) -> None:
        """Adopt sessions the shard set restored from disk."""
        listings = self._scatter_same(P.ListSessions())
        per_shard: List[Dict[str, P.SessionInfo]] = [
            {info.name: info for info in listing.sessions}
            for listing in listings]
        names: List[str] = []
        for shard_map in per_shard:
            for name in shard_map:
                if name not in names:
                    names.append(name)
        for name in names:
            infos = [shard_map.get(name) for shard_map in per_shard]
            session = self._adopt_layout(name, infos)
            with self._lock:
                self._sessions[name] = session
            missing = [shard for shard, info in enumerate(infos)
                       if info is None]
            if missing:
                self._scatter([
                    P.IngestDocuments(session=name, docs=[],
                                      space=session.space_name)
                    if shard in missing else None
                    for shard in range(self.shard_count)])

    # ------------------------------------------------------------------
    # the Engine surface (repro.service.executor.Engine)
    # ------------------------------------------------------------------
    def execute_command(self, command: P.Command) -> P.Response:
        """Run one command against the sharded engine through the
        executor's :func:`~repro.service.executor.dispatch`, with the
        command's deadline visible to every shard call it makes."""
        previous = self._deadline()
        self._deadlines.value = Deadline.of(command)
        try:
            return dispatch(_HANDLERS, self, command)
        finally:
            self._deadlines.value = previous

    def finish_restore(self) -> None:
        """Nothing to finish: the shards restored on construction."""

    def cache_stamp(self, session: str) -> Optional[Tuple]:
        """Response-cache validity stamp: the session's name, its
        process-wide serial and its ingest generation."""
        with self._lock:
            held = self._sessions.get(session)
        if held is None:
            return None
        return (session, held.serial, held.generation)

    def health_roster(self) -> List[Dict]:
        """Per-session roster for ``GET /v1/health``."""
        with self._lock:
            sessions = list(self._sessions.values())
        return [{"name": session.name, "state": session.state,
                 "trajectories": session.doc_count}
                for session in sessions]

    def shard_report(self) -> List[Dict]:
        """Per-shard fan-out and saturation counters for
        ``GET /v1/health``."""
        with self._stats_lock:
            return [{"shard": shard, "requests": stats["requests"],
                     "errors": stats["errors"],
                     "inflight": stats["inflight"]}
                    for shard, stats in enumerate(self._shard_stats)]

    def breaker_report(self) -> List[Dict]:
        """Per-replica circuit-breaker states for ``GET /v1/ready``
        (one entry per shard×replica)."""
        report: List[Dict] = []
        for target in self.targets:
            report.extend(target.report())
        return report

    def stream_report(self) -> Dict:
        """Aggregate stream gauges for ``GET /v1/health``."""
        return self._streams.report()

    def job(self, job_id: str) -> BuildJob:
        """Lookup a build job by id (``JobStatus``).

        Raises:
            UnknownJobError: for unknown ids.
        """
        return self._jobs.get(job_id)

    def heal_replica(self, shard: int, replica: int) -> None:
        """Re-admit a replica to its shard's read rotation (called by
        the supervisor after a restarted process replayed its
        journal, or by tests after reviving a faulty wire)."""
        self.targets[shard].heal(replica)

    def close(self) -> None:
        """Shut the scatter and guard pools down (no more calls)."""
        self._pool.shutdown(wait=False)
        self._guard.shutdown(wait=False)
        for target in self.targets:
            target.close()

    # ------------------------------------------------------------------
    # the stream host (repro.stream.manager.StreamHost): the executor's
    # stream commands run here, and closed episodes take the routed
    # ingest below — no shard ever sees a stream command
    # ------------------------------------------------------------------
    def stream_manager(self) -> StreamManager:
        """The coordinator's stream table."""
        return self._streams

    def stream_session(self, session: str) -> _CoordSession:
        return self._create_session(session)

    def _session_streams(self, session: str) -> str:
        """``<stream_dir>/streams/<session>``: beside the ``shard-K/``
        homes and ``shard.json``, never inside them."""
        return os.path.join(self.stream_dir, STREAMS_DIR,
                            quote(session, safe=""))

    def stream_directory(self, session: str,
                         stream: str) -> Optional[str]:
        if self.stream_dir is None:
            return None
        return os.path.join(self._session_streams(session),
                            quote(stream, safe=""))

    def stream_space(self, session: str):
        """The session's space, a Louvre model when it has none (the
        name then rides the session's next ingest to the shards)."""
        from repro.persist.session import revive_space

        held = self._held(session)
        if held.space_name is None:
            held.space_name = "LouvreSpace"
        return revive_space(held.space_name)

    def stream_fsync(self) -> bool:
        return self.fsync

    def store_episodes(self, session: str, episodes) -> None:
        held = self._held(session)
        with held.ingest_lock:
            self._ingest_locked(held, [episode.to_dict()
                                       for episode in episodes])

    def stored_documents(self, session: str):
        return (hit.trajectory for hit
                in self._merged_hits(self._held(session), None)[0])

    # ------------------------------------------------------------------
    # ingestion (global-id assignment + routed fan-out)
    # ------------------------------------------------------------------
    def _ingest_locked(self, session: _CoordSession,
                       docs: List[Dict]) -> None:
        """Route one already-validated batch (caller holds the
        session's ingest lock)."""
        if not docs:
            return
        start = session.doc_count
        session.topology.extend_to(start + len(docs))
        buckets: List[List[Dict]] = [[] for _ in
                                     range(self.shard_count)]
        for offset, doc in enumerate(docs):
            buckets[self.router(start + offset)].append(doc)
        self._scatter([
            P.IngestDocuments(session=session.name, docs=bucket,
                              space=session.space_name)
            if bucket else None
            for bucket in buckets])
        session.doc_count += len(docs)
        session.generation += 1

    def _ingest_documents(self,
                          command: P.IngestDocuments) -> P.Response:
        from repro.core.trajectory import SemanticTrajectory

        session = self._create_session(command.session,
                                       space=command.space)
        try:  # validate before any shard mutates
            for item in command.docs:
                SemanticTrajectory.from_dict(item)
        except (KeyError, TypeError, ValueError) as error:
            raise CommandError(
                "bad_request",
                "unparseable document: {}".format(error))
        with session.ingest_lock:
            self._ingest_locked(session, list(command.docs))
        return P.Ingested(session=command.session,
                          count=len(command.docs),
                          total=session.doc_count)

    # ------------------------------------------------------------------
    # builds (pipeline once, fan the sink out)
    # ------------------------------------------------------------------
    def _build(self, command: P.BuildDataset) -> P.Response:
        try:
            check_build_source(command.source, command.path)
        except ValueError as error:
            raise CommandError("bad_request", str(error))
        session = self._create_session(command.session,
                                       space="LouvreSpace")
        name = command.session

        def target(job: BuildJob) -> None:
            from repro.core.builder import TrajectoryBuilder
            from repro.persist.session import revive_space
            from repro.pipeline import Pipeline
            from repro.pipeline.cache import DEFAULT_CACHE

            with session.ingest_lock:
                session._building += 1
                try:
                    space = revive_space(session.space_name)
                    if command.source == "louvre":
                        from repro.pipeline.sources import louvre_source
                        stream = louvre_source(space,
                                               scale=command.scale)
                    else:
                        from repro.pipeline.sources import csv_source
                        stream = csv_source(command.path)
                    builder = TrajectoryBuilder(
                        space.dataset_zone_nrg())
                    sink = _FanoutSinkStage(self, session)
                    pipeline = Pipeline(
                        builder.stages(streaming=command.streaming)
                        + [sink],
                        batch_size=command.batch_size,
                        workers=command.workers,
                        executor=command.executor,
                        cache=DEFAULT_CACHE if command.cache
                        else None)
                    job._pipeline = pipeline
                    pipeline.run(stream, collect=False)
                    session._failed = False
                    if self.autosave:
                        self._scatter_same(
                            P.SaveSession(session=name))
                except BaseException:
                    session._failed = True
                    raise
                finally:
                    session._building -= 1

        job = self._jobs.start(name, target)
        if command.wait:
            job.wait()
        return job_info(job)

    # ------------------------------------------------------------------
    # session lifecycle commands
    # ------------------------------------------------------------------
    def _list_sessions(self, command: P.ListSessions) -> P.Response:
        with self._lock:
            sessions = list(self._sessions.values())
        return P.SessionList(sessions=[
            P.SessionInfo(name=session.name,
                          trajectories=session.doc_count,
                          state=session.state,
                          space=session.space_name)
            for session in sessions])

    def _drop_session(self, command: P.DropSession) -> P.Response:
        with self._lock:
            if command.session not in self._sessions:
                raise CommandError(
                    "unknown_session",
                    "no session named {!r}".format(command.session))
        for shard in range(self.shard_count):
            try:
                self._call(shard,
                           P.DropSession(session=command.session))
            except P.ServiceError as error:
                if error.code != "unknown_session":
                    raise
        with self._lock:
            self._sessions.pop(command.session, None)
        self._streams.drop(command.session)
        if self.stream_dir is not None:
            shutil.rmtree(self._session_streams(command.session),
                          ignore_errors=True)
        return P.Dropped(session=command.session)

    def _save_session(self, command: P.SaveSession) -> P.Response:
        self._held(command.session)
        saved = self._scatter_same(
            P.SaveSession(session=command.session))
        return P.SessionSaved(
            session=command.session,
            snapshot=saved[0].snapshot,
            trajectories=sum(info.trajectories for info in saved),
            total_bytes=sum(info.total_bytes for info in saved))

    def _restore_session(self,
                         command: P.RestoreSession) -> P.Response:
        restored = self._scatter_same(
            P.RestoreSession(session=command.session))
        try:
            session = self._adopt_layout(command.session, restored)
        except ShardStateError as error:
            raise CommandError("persistence", str(error))
        with self._lock:
            self._sessions[command.session] = session
        return P.SessionInfo(name=command.session,
                             trajectories=session.doc_count,
                             state=session.state,
                             space=session.space_name)

    # ------------------------------------------------------------------
    # RunQuery: translated cursors + k-way merge
    # ------------------------------------------------------------------
    def _shard_boundary(self, spec: PageSpec, globals_list: List[int]
                        ) -> Tuple[Optional[str], Optional[Callable]]:
        """Translate the global resume boundary into shard terms.

        Returns ``(cursor, gid_filter)``: a forged shard cursor token
        (``None`` to stream the shard from the start) plus an optional
        coordinator-side filter over ``(hit, global id)`` for the one
        boundary shape a strict shard-local keyset cannot express.

        The translation leans on the local↔global order isomorphism:
        shard-local ids enumerate the shard's global ids in ascending
        order, so a global boundary maps to the local index bracketing
        it (``bisect``) — documents ingested after the cursor was
        issued only ever extend the mapping past the boundary.
        """
        if spec.order_by is None:
            if spec.last_doc_id is None:
                return None, None
            # Natural order: resume past the last *global* id served.
            local = bisect.bisect_right(globals_list,
                                        spec.last_doc_id) - 1
            if local < 0:
                return None, None  # every shard doc is past the boundary
            return P.encode_cursor({"f": spec.fingerprint,
                                    "k": local}), None
        if spec.boundary is None:
            return None, None
        value, gid = spec.boundary
        if spec.order_by == "doc_id":
            if value == gid:
                # A genuine doc_id keyset token (okv == id): localize
                # both components so the shard's composite (id, id)
                # comparison lands on the same split.
                if spec.descending:
                    local = bisect.bisect_left(globals_list, gid)
                    if local >= len(globals_list):
                        return None, None  # all shard docs precede it
                else:
                    local = bisect.bisect_right(globals_list, gid) - 1
                    if local < 0:
                        return None, None
                return P.encode_cursor({"f": spec.fingerprint,
                                        "okv": local,
                                        "k": local}), None
            # Forged token (okv diverges from the id): no local
            # composite reproduces it — filter coordinator-side.
            if spec.descending:
                return None, (lambda hit, g: (g, g) < (value, gid))
            return None, (lambda hit, g: (g, g) > (value, gid))
        key_fn = ORDER_KEYS[spec.order_by]
        if spec.descending:
            # Ties on the order value must keep exactly g < gid:
            # local index bisect_left(gid) splits them identically.
            local = bisect.bisect_left(globals_list, gid)
            return P.encode_cursor({"f": spec.fingerprint,
                                    "okv": value, "k": local}), None
        local = bisect.bisect_right(globals_list, gid) - 1
        if local < 0:
            # Every shard doc sorts after the boundary id; "order
            # value strictly greater, or equal value" has no strict
            # local keyset — filter on the global composite instead.
            return None, (lambda hit, g:
                          (key_fn(hit), g) > (value, gid))
        return P.encode_cursor({"f": spec.fingerprint, "okv": value,
                                "k": local}), None

    def _merge_key(self, spec: Optional[PageSpec]) -> Callable:
        """``(hit, global id) -> sort key`` for the k-way merge."""
        if spec is None or spec.order_by is None:
            return lambda hit, gid: gid
        if spec.order_by == "doc_id":
            return lambda hit, gid: (gid, gid)
        key_fn = ORDER_KEYS[spec.order_by]
        return lambda hit, gid: (key_fn(hit), gid)

    def _shard_stream(self, shard: int, first_page: P.QueryPage,
                      command: P.RunQuery, session: _CoordSession,
                      key_of: Callable,
                      gid_filter: Optional[Callable],
                      totals: List[Optional[int]],
                      missing: Optional[List[int]] = None
                      ) -> Iterator[Tuple]:
        """One shard's hit stream as ``(merge key, global Hit)``
        pairs, following the shard's own ``next_cursor`` chain
        lazily.  With a ``missing`` list (the *allow_partial* mode),
        losing the shard mid-walk ends the stream and records the
        shard instead of raising."""
        page = first_page
        while True:
            if page.total is not None:
                totals[shard] = page.total
            for hit in page.hits:
                gid = session.topology.global_for(shard, hit.doc_id)
                if gid_filter is not None \
                        and not gid_filter(hit, gid):
                    continue
                promoted = P.Hit(doc_id=gid,
                                 trajectory=hit.trajectory)
                yield key_of(hit, gid), promoted
            if page.next_cursor is None:
                return
            try:
                page = self._call(shard,
                                  replace(command,
                                          cursor=page.next_cursor,
                                          include_total=False))
            except Exception as error:
                if missing is not None and is_shard_loss(error):
                    missing.append(shard)
                    return
                raise

    def _scatter_pages(self, session: _CoordSession, first: P.RunQuery,
                       spec: Optional[PageSpec] = None,
                       partial: bool = False
                       ) -> Tuple[Iterator[P.Hit], Callable, List[int]]:
        """Send every shard the page ``first`` from its translated
        cursor: the k-way merged hits, then a callable summing their
        totals and the missing shards (both filled as the merge is
        consumed)."""
        session.topology.extend_to(session.doc_count)
        commands: List[P.RunQuery] = []
        filters: List[Optional[Callable]] = []
        for shard in range(self.shard_count):
            cursor, gid_filter = (None, None) if spec is None \
                else self._shard_boundary(
                    spec, session.topology.globals_of(shard))
            commands.append(replace(first, cursor=cursor))
            filters.append(gid_filter)
        missing: List[int] = []
        first_pages = self._scatter(commands, partial=partial,
                                    missing=missing)
        totals: List[Optional[int]] = [None] * self.shard_count
        key_of = self._merge_key(spec)
        streams = [
            self._shard_stream(shard, first_pages[shard],
                               commands[shard], session, key_of,
                               filters[shard], totals,
                               missing=missing if partial else None)
            for shard in range(self.shard_count)
            if first_pages[shard] is not None]
        return (merge_sorted(streams, descending=first.descending),
                lambda: sum(count or 0 for count in totals)
                if first.include_total else None, missing)

    def _merged_hits(self, session: _CoordSession,
                     query: Optional[Dict],
                     partial: bool = False
                     ) -> Tuple[Iterator[P.Hit], Callable, List[int]]:
        """Every matching hit in global doc-id order (the corpus
        stream behind ``Similarity``, ``Sequences`` and stream
        recovery)."""
        return self._scatter_pages(session, P.RunQuery(
            session=session.name, query=query, limit=MAX_PAGE_SIZE,
            include_total=False), partial=partial)

    # ------------------------------------------------------------------
    # the single-scatter reads, the read handle, Similarity, Sequences
    # ------------------------------------------------------------------
    def _scatter_read(self, command: P.Command) -> P.Response:
        """A declared single-scatter read: the command's partial on
        every shard, then the shared merge
        (:data:`~repro.service.executor.SCATTER_READS`).  Under
        ``allow_partial`` a lost shard degrades the merge instead of
        failing it."""
        self._held(command.session)
        partial, merge = SCATTER_READS[type(command)]
        missing: List[int] = []
        replies = self._scatter(
            [partial(command)] * self.shard_count,
            partial=command.allow_partial,
            missing=missing)
        response = merge([reply for reply in replies
                          if reply is not None])
        if missing:
            response = replace(response, degraded=degraded(missing))
        return response

    def reads(self, session: str, query: Optional[Dict]) -> "_ShardReads":
        """One read command's handle on the shards."""
        return _ShardReads(self, self._held(session), query)

    def _similarity(self, command: P.Similarity) -> P.Response:
        session = self._held(command.session)
        sequences = [hit.trajectory.distinct_state_sequence() for hit
                     in self._merged_hits(session, command.query)[0]]
        size = len(sequences)
        if size == 0:
            return P.SimilarityMatrix(matrix=[])
        # Contiguous row blocks, one per shard; each pair's score
        # depends only on the two sequences + the shared hierarchy,
        # so stitched rows are bit-identical to the full matrix.
        chunk = -(-size // self.shard_count)
        commands = []
        for shard in range(self.shard_count):
            row_start = min(size, shard * chunk)
            row_end = min(size, (shard + 1) * chunk)
            commands.append(P.SimilarityBlock(
                session=command.session, sequences=sequences,
                row_start=row_start, row_end=row_end))
        blocks = self._scatter(commands)
        matrix: List[List[float]] = []
        for block in blocks:
            matrix.extend(block.rows)
        return P.SimilarityMatrix(matrix=matrix)

    def _similarity_block(self,
                          command: P.SimilarityBlock) -> P.Response:
        self._held(command.session)
        check_row_block(command)
        # The sequences are explicit and the hierarchy identical on
        # every shard — any one shard computes the exact block.
        return self._call(0, command)

    def _sequences(self, command: P.Sequences) -> P.Response:
        session = self._held(command.session)
        hits, _, missing = self._merged_hits(
            session, command.query, partial=command.allow_partial)
        sequences = [hit.trajectory.distinct_state_sequence()
                     for hit in hits]
        return P.SequenceList(sequences=sequences,
                              degraded=degraded(missing))


class _ShardReads:
    """The coordinator's :class:`~repro.service.executor.Reads`: pages
    k-way merged from the shards' translated page streams, the size
    from a ``CountPatterns`` round, patterns mined at the pigeonhole
    threshold and recounted, and plans over the shards' merged
    ``StoreStats``."""

    def __init__(self, coordinator: ShardCoordinator,
                 session: _CoordSession, query: Optional[Dict]) -> None:
        self._coordinator = coordinator
        self._session = session
        self._query = query
        self._count = P.CountPatterns(session=session.name, query=query)

    def pages(self, command: P.RunQuery, spec: PageSpec, needed: int,
              want_total: bool
              ) -> Tuple[Iterator[P.Hit], Callable, List[int]]:
        return self._coordinator._scatter_pages(self._session, P.RunQuery(
            session=self._session.name, query=self._query,
            limit=min(MAX_PAGE_SIZE, needed), order_by=command.order_by,
            descending=command.descending, include_total=want_total),
            spec, command.allow_partial)

    def size(self) -> int:
        return self._coordinator._scatter_read(self._count).sequences

    def patterns(self, support: int,
                 max_length: int) -> List[SequentialPattern]:
        coordinator = self._coordinator
        # Pigeonhole: a pattern with global support >= S has local
        # support >= ceil(S / N) on at least one shard, so mining
        # every shard at the lowered threshold finds every candidate.
        local_support = -(-support // coordinator.shard_count)
        mined = [{tuple(pattern.sequence): pattern.support
                  for pattern in reply.patterns}
                 for reply in coordinator._scatter_same(P.MinePatterns(
                     session=self._session.name, query=self._query,
                     min_support=local_support,
                     max_length=max_length))]
        # Each shard's list is complete at the lowered threshold: a
        # mined support is exact, and a candidate a shard did not mine
        # has at most local_support - 1 there (none when that is 0).
        # A candidate whose ceiling falls short of S is dropped; the
        # rest are recounted only on the shards that did not mine
        # them.
        ceiling = local_support - 1
        supports = {candidate: sum(found.get(candidate, 0)
                                   for found in mined)
                    for candidate in sorted(set().union(*mined))
                    if sum(found.get(candidate, ceiling)
                           for found in mined) >= support}
        recounts = [[candidate for candidate in supports
                     if candidate not in found] if ceiling else []
                    for found in mined]
        replies = coordinator._scatter([
            replace(self._count, patterns=[list(candidate)
                                           for candidate in todo])
            if todo else None for todo in recounts])
        for todo, reply in zip(recounts, replies):
            if todo:
                for candidate, found in zip(todo, reply.supports):
                    supports[candidate] += found
        patterns = [SequentialPattern(sequence=candidate, support=found)
                    for candidate, found in supports.items()
                    if found >= support]
        patterns.sort(key=lambda p: (-p.support, p.sequence))
        return patterns

    def planning_view(self) -> _StatsProxy:
        return _StatsProxy(self._coordinator._scatter_read(
            P.StoreStats(session=self._session.name)))


class _FanoutSinkStage(Stage):
    """Pipeline sink routing built trajectories to the shards.

    Takes the store sink's place at the end of the build chain;
    batches arrive in stream order, so global ids are assigned exactly
    as a single-process store sink would.
    """

    name = "shard-fanout"

    def __init__(self, coordinator: ShardCoordinator,
                 session: _CoordSession) -> None:
        super().__init__()
        self._coordinator = coordinator
        self._session = session

    def process(self, batch):
        self._coordinator._ingest_locked(
            self._session, [trajectory.to_dict() for trajectory in batch])
        return list(batch)


_HANDLERS: Dict[type, Callable] = {
    **{kind: ShardCoordinator._scatter_read for kind in SCATTER_READS},
    P.BuildDataset: ShardCoordinator._build,
    P.JobStatus: job_status,
    P.ListSessions: ShardCoordinator._list_sessions,
    P.DropSession: ShardCoordinator._drop_session,
    P.Similarity: ShardCoordinator._similarity,
    P.Sequences: ShardCoordinator._sequences,
    P.IngestDocuments: ShardCoordinator._ingest_documents,
    P.SimilarityBlock: ShardCoordinator._similarity_block,
    P.SaveSession: ShardCoordinator._save_session,
    P.RestoreSession: ShardCoordinator._restore_session,
    **READ_HANDLERS,
    **STREAM_HANDLERS,
}
