"""The workbench facade: generate → build → store → query → mine.

:class:`Workbench` unifies the reproduction's layers behind one
object.  A workbench owns a space model, a
:class:`~repro.storage.store.TrajectoryStore`, and the metrics of its
last build; it ingests detection records through the streaming
pipeline engine, exposes the declarative planned query API, and feeds
query results straight into the mining layer::

    from repro.api import Workbench
    from repro.storage import expr as E

    wb = Workbench.louvre(scale=0.1)
    salle = wb.query().matching(E.state("zone60853") & E.goal("visit"))
    print(salle.explain())
    patterns = wb.patterns(salle, min_support=0.1)
    balances = wb.flow(salle.execute().limit(500))

Every mining entry point (:meth:`sequences`, :meth:`similarity`,
:meth:`flow`, :meth:`patterns`) accepts a corpus in any form — a
query, a lazy result set, stored hits, plain trajectories, or nothing
(meaning the whole store).

Since the service-layer redesign, :class:`Workbench` is *sugar over
the service protocol*: its query/mining operations compile to the
same typed commands (:mod:`repro.service.protocol`) that the embedded
HTTP server executes, dispatched through an in-process
:class:`~repro.service.executor.LocalBinding` — so library callers
and wire callers hit one code path and get byte-identical results.
See ``docs/service.md`` (the protocol reference) and ``docs/query.md``
(the query language).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.builder import DetectionRecord, TrajectoryBuilder
from repro.mining.corpus import Corpus, SequenceCorpus, iter_trajectories
from repro.mining.flow import FlowBalance, flow_balances
from repro.mining.prefixspan import SequentialPattern
from repro.mining.sequences import corpus_summary, state_sequences
from repro.pipeline import Pipeline, Stage, StoreSinkStage
from repro.pipeline.metrics import PipelineMetrics
from repro.storage.expr import Expr, ExprSerializationError
from repro.storage.query import Query
from repro.storage.results import ResultSet
from repro.storage.store import TrajectoryStore

#: The session name a workbench's corpus occupies in its private
#: service registry (the local binding's one tenant).
LOCAL_SESSION = "local"

#: Process-wide space-assignment counter backing
#: :attr:`Workbench.space_generation` — never reused, unlike
#: ``id(space)``, so response-cache stamps cannot collide with a
#: garbage-collected predecessor.
_SPACE_GENERATIONS = itertools.count(1)


class Workbench:
    """One handle over a corpus: build it, query it, mine it.

    Args:
        space: the indoor space model (needed for building from
            detection records and for hierarchy-aware mining); may be
            ``None`` for pre-built trajectory corpora.
        store: an existing store to adopt; a fresh one by default.
    """

    def __init__(self, space: Optional[object] = None,
                 store: Optional[TrajectoryStore] = None) -> None:
        self.space = space
        self.store = store if store is not None else TrajectoryStore()
        #: Metrics of the most recent :meth:`build` run.
        self.metrics: Optional[PipelineMetrics] = None
        self._binding = None

    @property
    def space(self) -> Optional[object]:
        """The indoor space model (settable; see
        :attr:`space_generation`)."""
        return self._space

    @space.setter
    def space(self, value: Optional[object]) -> None:
        self._space = value
        self._space_generation = next(_SPACE_GENERATIONS)

    @property
    def space_generation(self) -> int:
        """Monotonic stamp of space assignments.

        Bumped (from a process-wide counter) on every assignment to
        :attr:`space`, including construction.  The response cache
        keys on this instead of ``id(space)``: two distinct space
        objects can share an ``id`` across a garbage collection, but
        never a generation.
        """
        return self._space_generation

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def louvre(cls, scale: float = 1.0, space: Optional[object] = None,
               batch_size: int = 512,
               streaming: bool = True,
               workers: int = 0, executor: str = "thread",
               cache: object = None) -> "Workbench":
        """A workbench over the (scaled) synthetic Louvre corpus.

        ``workers``/``executor``/``cache`` are forwarded to
        :meth:`build` (parallel batch execution and inter-stage
        caching).
        """
        from repro.louvre.space import LouvreSpace
        from repro.pipeline.sources import louvre_source

        workbench = cls(space=space if space is not None
                        else LouvreSpace())
        workbench.build(louvre_source(workbench.space, scale=scale),
                        batch_size=batch_size, streaming=streaming,
                        workers=workers, executor=executor,
                        cache=cache)
        return workbench

    @classmethod
    def from_csv(cls, path: str, space: Optional[object] = None,
                 batch_size: int = 512,
                 streaming: bool = False,
                 workers: int = 0, executor: str = "thread",
                 cache: object = None) -> "Workbench":
        """A workbench built from a detection CSV (Louvre zones by
        default)."""
        from repro.louvre.space import LouvreSpace
        from repro.pipeline.sources import csv_source

        workbench = cls(space=space if space is not None
                        else LouvreSpace())
        workbench.build(csv_source(path), batch_size=batch_size,
                        streaming=streaming, workers=workers,
                        executor=executor, cache=cache)
        return workbench

    @classmethod
    def from_trajectories(cls,
                          trajectories: Corpus,
                          space: Optional[object] = None) -> "Workbench":
        """A workbench over already-built trajectories (no pipeline
        run)."""
        workbench = cls(space=space)
        workbench.store.extend(iter_trajectories(trajectories))
        return workbench

    @classmethod
    def synthetic(cls, archetype: str = "museum", seed: int = 0,
                  agents: int = 1000, crowd_seed: int = 0,
                  agents_per_day: int = 5000,
                  batch_size: int = 512) -> "Workbench":
        """A workbench over a parametric venue and synthetic crowd.

        Generates a seeded :mod:`repro.synth` venue of the requested
        archetype, synthesizes ``agents`` deterministic visitors over
        it, and builds the corpus through the standard pipeline.  The
        crowd stream is event-time interleaved (not visit-contiguous),
        so the build uses the batching segmenter.

        Raises:
            KeyError: for an unknown archetype.
        """
        from repro.synth import (CrowdSpec, CrowdSynthesizer,
                                 VenueSpec, generate_venue)

        venue = generate_venue(VenueSpec(archetype=archetype,
                                         seed=seed))
        crowd = CrowdSynthesizer(
            venue, CrowdSpec(agents=agents, seed=crowd_seed,
                             agents_per_day=agents_per_day))
        workbench = cls(space=venue)
        workbench.build(crowd.iter_events(), batch_size=batch_size,
                        streaming=False)
        return workbench

    # ------------------------------------------------------------------
    # durability (repro.persist)
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, directory: str, verify: bool = True) -> "Workbench":
        """Recover a workbench persisted with :meth:`save`.

        Loads the durable session directory's current snapshot,
        replays its append log, revives the recorded space model, and
        keeps the log attached — so the reopened workbench journals
        further builds to disk as they stream.

        Raises:
            repro.persist.PersistError: when ``directory`` holds no
                persisted session.
            repro.persist.CorruptSnapshotError: when the snapshot
                fails checksum verification.
        """
        from repro.persist import open_workbench

        return open_workbench(directory, verify=verify)

    def save(self, directory: str, fsync: bool = True):
        """Persist this workbench's corpus as a durable session
        directory (snapshot + append log; see
        ``docs/persistence.md``).

        Returns the :class:`~repro.persist.format.SnapshotInfo`.
        Afterwards the store journals every further insert to the
        directory's log, and calling :meth:`save` again folds the
        log back into a fresh snapshot.
        """
        from repro.persist import save_workbench

        return save_workbench(directory, self, fsync=fsync)

    # ------------------------------------------------------------------
    # build (the pipeline engine)
    # ------------------------------------------------------------------
    def prepare_build(self, batch_size: int = 512,
                      streaming: bool = True,
                      extra_stages: Sequence[Stage] = (),
                      workers: int = 0, executor: str = "thread",
                      cache: object = None) -> Pipeline:
        """Assemble (but do not run) the build pipeline.

        The clean → segment → trace → annotate → store chain over
        this workbench's space and store, ready for
        :meth:`Pipeline.run <repro.pipeline.engine.Pipeline.run>`.
        :meth:`build` is this plus the run; the service layer's
        background jobs call it directly so they can hold the
        pipeline and report live metrics while it streams.

        Raises:
            ValueError: when the workbench has no space model or the
                cache argument is malformed.
        """
        from repro.pipeline.cache import DEFAULT_CACHE, StageCache

        if self.space is None:
            raise ValueError(
                "building from detection records needs a space model; "
                "construct the Workbench with one or use "
                "from_trajectories()")
        if cache is True:
            cache = DEFAULT_CACHE
        elif cache is False:
            cache = None
        elif cache is not None and not isinstance(cache, StageCache):
            raise ValueError(
                "cache must be a StageCache, a bool or None")
        builder = TrajectoryBuilder(self.space.dataset_zone_nrg())
        sink = StoreSinkStage(store=self.store)
        return Pipeline(
            builder.stages(streaming=streaming) + list(extra_stages)
            + [sink],
            batch_size=batch_size, workers=workers, executor=executor,
            cache=cache)

    def build(self, records: Iterable[DetectionRecord],
              batch_size: int = 512, streaming: bool = True,
              extra_stages: Sequence[Stage] = (),
              workers: int = 0, executor: str = "thread",
              cache: object = None) -> PipelineMetrics:
        """Stream detection records through clean → segment → trace →
        annotate → store, appending to this workbench's store.

        Args:
            records: any detection-record iterable (a pipeline source).
            batch_size: engine batch size.
            streaming: use the O(longest-visit) streaming segmenter
                (requires visit-contiguous input, as the bundled
                sources produce).
            extra_stages: stages appended between ``annotate`` and the
                store sink (e.g. a gap-inference stage).
            workers: parallel-safe stages run their batches on a pool
                of this size (0/1 = serial; see ``docs/pipeline.md``).
            executor: ``"thread"`` or ``"process"`` pool kind.
            cache: inter-stage result cache — a
                :class:`~repro.pipeline.cache.StageCache`, ``True``
                for the process-wide default cache, or
                ``False``/``None`` for no caching.  Repeated builds
                of a fingerprinted source replay the memoized
                clean→…→annotate prefix instead of recomputing it.

        Raises:
            ValueError: when the workbench has no space model.
        """
        pipeline = self.prepare_build(
            batch_size=batch_size, streaming=streaming,
            extra_stages=extra_stages, workers=workers,
            executor=executor, cache=cache)
        pipeline.run(records, collect=False)
        self.metrics = pipeline.metrics
        return self.metrics

    # ------------------------------------------------------------------
    # query surface
    # ------------------------------------------------------------------
    def query(self, expression: Optional[Expr] = None) -> Query:
        """A planned query over the store (optionally pre-seeded)."""
        return Query(self.store, expression)

    def find(self, expression: Expr) -> ResultSet:
        """Plan and execute an expression; a lazy result stream."""
        return self.query(expression).execute()

    def explain(self, expression: Expr) -> str:
        """The selectivity-ordered plan an expression compiles to."""
        return self.query(expression).explain()

    def load_query(self, data: Mapping) -> Query:
        """Rebuild a serialized query (:meth:`Query.to_dict`) against
        this store."""
        return Query.from_dict(self.store, data)

    # ------------------------------------------------------------------
    # the service binding (one code path for library and wire callers)
    # ------------------------------------------------------------------
    @property
    def binding(self):
        """The workbench's in-process service endpoint.

        A :class:`~repro.service.executor.LocalBinding` over a
        private single-session registry holding this workbench under
        the name :data:`LOCAL_SESSION` — every protocol-expressible
        operation below routes through it, so the in-process path is
        the HTTP server's path minus the socket.
        """
        if self._binding is None:
            from repro.service.executor import LocalBinding
            from repro.service.registry import SessionRegistry

            self._binding = LocalBinding(SessionRegistry())
        registry = self._binding.registry
        if LOCAL_SESSION not in registry.names():
            # (Re-)adopt: resilient to a DropSession("local") issued
            # through the binding or a served endpoint — the store
            # lives on the workbench, so nothing is lost.
            registry.adopt(LOCAL_SESSION, self)
        return self._binding

    def _protocol_query(self, corpus: Optional[Corpus]
                        ) -> Tuple[bool, Optional[Dict]]:
        """``(expressible, query_dict)`` for a corpus argument.

        A corpus is protocol-expressible when it is the whole store
        (``None``) or a serializable :class:`Query` over *this*
        workbench's store; materialized iterables and foreign-store
        queries fall back to the direct mining path.
        """
        if corpus is None:
            return True, None
        if isinstance(corpus, Query) and corpus._store is self.store:
            try:
                return True, corpus.to_dict()
            except ExprSerializationError:
                return False, None  # holds a where() callable
        return False, None

    def _delegate(self, corpus: Optional[Corpus], make_command,
                  attribute: str, fallback):
        """Route through the protocol when the corpus allows it.

        ``make_command(query_dict)`` builds the command,
        ``attribute`` names the response field to return, and
        ``fallback()`` serves corpora the protocol cannot express
        (materialized iterables, foreign-store or ``where()``
        queries) via the same executor-level helpers.
        """
        expressible, query = self._protocol_query(corpus)
        if expressible:
            return getattr(self.binding.call(make_command(query)),
                           attribute)
        return fallback()

    # ------------------------------------------------------------------
    # mining over any corpus form
    # ------------------------------------------------------------------
    def _corpus(self, corpus: Optional[Corpus]) -> Corpus:
        return self.store if corpus is None else corpus

    def sequences(self, corpus: Optional[Corpus] = None
                  ) -> List[List[str]]:
        """Distinct state sequences (``None`` → the whole store)."""
        from repro.service import protocol as P

        return self._delegate(
            corpus,
            lambda q: P.Sequences(session=LOCAL_SESSION, query=q),
            "sequences",
            lambda: state_sequences(self._corpus(corpus)))

    def patterns(self, corpus: Optional[Corpus] = None,
                 min_support: float = 0.05,
                 max_length: int = 4) -> List[SequentialPattern]:
        """Sequential patterns (PrefixSpan) over a corpus.

        Args:
            corpus: any corpus form; ``None`` mines the whole store.
            min_support: absolute count when >= 1, else a fraction of
                the corpus (floored at 2).
            max_length: longest pattern to explore.
        """
        from repro.service import protocol as P
        from repro.service.executor import CorpusReads, mine_patterns

        return self._delegate(
            corpus,
            lambda q: P.MinePatterns(session=LOCAL_SESSION, query=q,
                                     min_support=min_support,
                                     max_length=max_length),
            "patterns",
            lambda: mine_patterns(CorpusReads(self._corpus(corpus)),
                                  min_support, max_length))

    def similarity(self, corpus: Optional[Corpus] = None,
                   hierarchy: Optional[object] = None
                   ) -> List[List[float]]:
        """Pairwise trajectory similarity matrix over a corpus.

        Uses the hierarchy-aware metric when a layer hierarchy is
        given — or the space's ``zone_hierarchy`` when it has one —
        and plain normalized edit similarity otherwise.
        """
        from repro.service import protocol as P
        from repro.service.executor import similarity_over

        # An explicit hierarchy cannot cross the protocol (it derives
        # the hierarchy from the session's space) — direct path only.
        direct = lambda: similarity_over(  # noqa: E731
            self.space, SequenceCorpus.of(self._corpus(corpus)),
            hierarchy)
        if hierarchy is not None:
            return direct()
        return self._delegate(
            corpus,
            lambda q: P.Similarity(session=LOCAL_SESSION, query=q),
            "matrix", direct)

    def flow(self, corpus: Optional[Corpus] = None
             ) -> List[FlowBalance]:
        """Per-cell flow balances over a corpus."""
        from repro.service import protocol as P

        return self._delegate(
            corpus,
            lambda q: P.Flow(session=LOCAL_SESSION, query=q),
            "balances",
            lambda: flow_balances(self._corpus(corpus)))

    def summary(self, corpus: Optional[Corpus] = None
                ) -> Dict[str, float]:
        """Section 4.1-style headline numbers over a corpus."""
        from repro.service import protocol as P

        return self._delegate(
            corpus,
            lambda q: P.Summary(session=LOCAL_SESSION, query=q),
            "stats",
            lambda: corpus_summary(self._corpus(corpus)))

    def serve(self, host: str = "127.0.0.1", port: int = 0):
        """Expose this workbench over HTTP (non-blocking).

        Starts an embedded :class:`~repro.service.aserver
        .AsyncServiceServer` over the binding's registry, so the
        corpus is addressable as session :data:`LOCAL_SESSION`.
        Returns the started server; call ``.stop()`` when done.
        """
        from repro.service.aserver import AsyncServiceServer

        return AsyncServiceServer(self.binding.registry,
                                  host=host, port=port).start()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.store)

    def __repr__(self) -> str:
        return "Workbench(store={} trajectories, space={})".format(
            len(self.store),
            type(self.space).__name__ if self.space is not None
            else None)
