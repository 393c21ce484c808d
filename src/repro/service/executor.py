"""The one implementation of every protocol command.

:func:`execute_command` maps a :class:`~repro.service.protocol.Command`
to a :class:`~repro.service.protocol.Response` against a
:class:`~repro.service.registry.SessionRegistry`.  It is the *single*
code path behind both transports: the HTTP server
(:mod:`repro.service.aserver`, through
:func:`~repro.service.wire.execute_json`) calls it per request, and
:class:`LocalBinding` calls it in-process — which is what
:class:`~repro.api.Workbench` delegates its protocol-expressible
operations to.  Anything this module computes is therefore guaranteed
to serialize identically whether it travelled over a socket or not.

The shard coordinator (:mod:`repro.shard.coordinator`) is the other
:class:`Engine`.  It shares this module's dispatch
(:func:`dispatch`), its validators, the RunQuery route/merge phases
and the merges of the single-scatter reads (:data:`SCATTER_READS`):
what the two engines compute alike is written once, here.

Failures never escape as raw exceptions: they come back as
:class:`~repro.service.protocol.ErrorInfo` with a machine-matchable
code (``unknown_session``, ``bad_cursor``, ...).
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    runtime_checkable,
)

from repro.mining.corpus import Corpus, SequenceCorpus
from repro.mining.flow import flow_balances, merge_flow_balances
from repro.mining.prefixspan import SequentialPattern, Sequences, \
    prefixspan
from repro.mining.sequences import (
    corpus_summary,
    merge_summary_parts,
    state_sequences,
    summary_parts,
    summary_stats,
)
from repro.mining.similarity import similarity_matrix
from repro.resilience.policy import DeadlineExceeded
from repro.resilience.replicas import ReplicaUnavailable
from repro.service import protocol as P
from repro.service.registry import (
    BuildJob,
    Session,
    SessionRegistry,
    UnknownJobError,
    UnknownSessionError,
)
from repro.storage.expr import ExprSerializationError
from repro.storage.query import Query
from repro.storage.results import ORDER_KEYS, ResultSet
from repro.stream.segmenter import finite_time

#: Hard page-size ceiling; RunQuery limits are clamped to it.
MAX_PAGE_SIZE = 1000


class CommandError(Exception):
    """Internal: a handler failure destined to become ``ErrorInfo``."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


# ----------------------------------------------------------------------
# shared corpus-level mining helpers (Workbench uses these too)
# ----------------------------------------------------------------------
def patterns_over(sequences: Sequences,
                  min_support: float = 0.05,
                  max_length: int = 4) -> List[SequentialPattern]:
    """PrefixSpan with the service's support convention
    (:func:`support_threshold`; an empty corpus mines nothing before
    any argument check).  The one implementation shared by the
    ``MinePatterns`` command and :meth:`Workbench.patterns
    <repro.api.Workbench.patterns>`.
    """
    return prefixspan(sequences,
                      functools.partial(support_threshold, min_support),
                      max_length)


def support_threshold(min_support: float, sequence_count: int) -> int:
    """The absolute support ``min_support`` asks for over
    ``sequence_count`` sequences: the count itself when >= 1, else
    that fraction of the corpus, floored at 2."""
    if min_support >= 1:
        return int(min_support)
    return max(2, int(math.ceil(min_support * sequence_count)))


def similarity_over(space: Optional[object],
                    sequences: Sequences,
                    hierarchy: Optional[object] = None
                    ) -> List[List[float]]:
    """Similarity matrix, hierarchy-aware when the space has one."""
    if hierarchy is None:
        hierarchy = getattr(space, "zone_hierarchy", None)
    return similarity_matrix(hierarchy, sequences)


# ----------------------------------------------------------------------
# validators and reply shapes shared by both engines
# ----------------------------------------------------------------------
def unknown_session(name: str, names: Sequence[str]) -> CommandError:
    """The ``unknown_session`` failure for a read of ``name``."""
    return CommandError(
        "unknown_session",
        "no session named {!r}; sessions: {}".format(
            name, ", ".join(names) or "(none)"))


def parse_query(store, query: Optional[Dict]) -> Query:
    """A query payload planned against ``store`` (parsing never
    touches the store: the coordinator passes statistics, or None to
    only validate).

    Raises:
        CommandError: ``bad_request`` for an unparseable payload.
    """
    if query is None:
        return Query(store)
    try:
        return Query.from_dict(store, query)
    except (KeyError, TypeError, ValueError) as error:
        raise CommandError(
            "bad_request", "unparseable query: {}".format(error))


def check_open_stream(command: P.OpenStream) -> None:
    """Validate an ``OpenStream``'s bounds before any stream opens."""
    if command.checkpoint_every < 1:
        raise CommandError("bad_request",
                           "checkpoint_every must be >= 1")
    if command.max_open_events < 1:
        raise CommandError("bad_request",
                           "max_open_events must be >= 1")
    if command.gap_seconds is not None and command.gap_seconds <= 0:
        raise CommandError("bad_request", "gap_seconds must be > 0")


def check_watermark(command: P.AppendEvents) -> None:
    """Validate an ``AppendEvents`` watermark before anything is
    journaled: absent, or a finite number.  An infinite watermark
    would close every open episode and drop each later event as
    late, and ``NaN``/``Infinity`` are not JSON."""
    if command.watermark is not None:
        try:
            finite_time(command.watermark)
        except ValueError as error:
            raise CommandError("bad_request",
                               "watermark: {}".format(error))


#: Command type → its numeric fields, each ``(name, integral)``:
#: what :func:`check_numbers` validates before any range rule.
_NUMERIC_FIELDS: Dict[Type[P.Command], Tuple[Tuple[str, bool], ...]] = {
    P.MinePatterns: (("min_support", False), ("max_length", True)),
    P.RunQuery: (("limit", True), ("offset", True)),
}


def check_numbers(command: P.Command) -> None:
    """Validate the types of a ``MinePatterns`` or ``RunQuery``'s
    numeric fields before any work: ``min_support`` a finite number,
    ``max_length``, ``limit`` and ``offset`` integers, none a bool.
    The range rules stay with the code that applies them, in their
    order.  ``NaN`` and ``Infinity`` would otherwise lift a length cap
    or a page size, or fail mid-mining as an ``internal`` error."""
    for name, integral in _NUMERIC_FIELDS[type(command)]:
        value = getattr(command, name)
        valid = isinstance(value, int) or (
            not integral and isinstance(value, float)
            and math.isfinite(value))
        if isinstance(value, bool) or not valid:
            raise CommandError(
                "bad_request", "{} must be {}, got {!r}".format(
                    name, "an integer" if integral
                    else "a finite number", value))


def check_patterns(command: P.CountPatterns) -> None:
    """Validate a ``CountPatterns``' candidates: a list of patterns,
    each a list of state strings."""
    patterns = command.patterns
    if not isinstance(patterns, list):
        raise CommandError("bad_request",
                           "patterns must be a list, got {!r}".format(
                               patterns))
    for index, pattern in enumerate(patterns):
        if not isinstance(pattern, list) \
                or not all(isinstance(item, str) for item in pattern):
            raise CommandError(
                "bad_request",
                "patterns[{}] must be a list of strings, got "
                "{!r}".format(index, pattern))


def check_row_block(command: P.SimilarityBlock) -> None:
    """Validate a ``SimilarityBlock``'s row range."""
    size = len(command.sequences)
    if not 0 <= command.row_start <= command.row_end <= size:
        raise CommandError(
            "bad_request",
            "row block [{}, {}) out of range for {} "
            "sequences".format(command.row_start, command.row_end,
                               size))


def job_info(job: BuildJob) -> P.JobInfo:
    """The ``JobInfo`` reply describing a build job."""
    return P.JobInfo(job_id=job.job_id, session=job.session,
                     state=job.state.value, error=job.error,
                     metrics=P.JobInfo.metrics_dict(job.metrics))


def job_status(engine, command: P.JobStatus) -> P.Response:
    """``JobStatus`` on either engine (both keep a
    :class:`~repro.service.registry.JobTable` behind ``job()``)."""
    try:
        job = engine.job(command.job_id)
    except UnknownJobError:
        raise CommandError("unknown_job",
                           "no job {!r}".format(command.job_id))
    return job_info(job)


# ----------------------------------------------------------------------
# per-command handlers
# ----------------------------------------------------------------------
def _session(registry: SessionRegistry, name: str) -> Session:
    try:
        return registry.get(name)
    except UnknownSessionError:
        raise unknown_session(name, registry.names())


def _corpus(session: Session, query: Optional[Dict]) -> Corpus:
    if query is None:
        return session.workbench.store
    return parse_query(session.workbench.store, query)


def _sequence_corpus(session: Session,
                     query: Optional[Dict]) -> SequenceCorpus:
    """The query's rows of the store's sequence column, resolved
    (the query run) by the first miner that reads them."""
    return SequenceCorpus.of(_corpus(session, query))


def _build(registry: SessionRegistry,
           command: P.BuildDataset) -> P.Response:
    try:
        job = registry.build(
            command.session, source=command.source,
            scale=command.scale, path=command.path,
            workers=command.workers, executor=command.executor,
            batch_size=command.batch_size,
            streaming=command.streaming, cache=command.cache,
            wait=command.wait)
    except ValueError as error:
        raise CommandError("bad_request", str(error))
    return job_info(job)


def _session_info(session: Session) -> P.SessionInfo:
    space = session.workbench.space
    return P.SessionInfo(
        name=session.name, trajectories=len(session.workbench.store),
        state=session.state,
        space=type(space).__name__ if space is not None else None)


def _list_sessions(registry: SessionRegistry,
                   command: P.ListSessions) -> P.Response:
    return P.SessionList(sessions=[_session_info(session)
                                   for session in registry.sessions()])


def _drop_session(registry: SessionRegistry,
                  command: P.DropSession) -> P.Response:
    try:
        registry.drop(command.session)
    except UnknownSessionError:
        raise CommandError(
            "unknown_session",
            "no session named {!r}".format(command.session))
    return P.Dropped(session=command.session)


# ----------------------------------------------------------------------
# RunQuery, split into route / execute / merge phases
#
# The *route* phase (validation, page shaping, cursor decoding) and
# the *merge* phase (page assembly, cursor issuing) are pure functions
# of the command, shared verbatim by the single-process path below and
# the shard coordinator (repro.shard.coordinator) — that sharing is
# what makes sharded pages byte-identical, error messages included.
# Only the *execute* phase differs: one store here, a k-way merged
# scatter there.
# ----------------------------------------------------------------------
class PageSpec:
    """The routed shape of one RunQuery page."""

    __slots__ = ("limit", "offset", "order_by", "descending",
                 "fingerprint")

    def __init__(self, limit: int, offset: int,
                 order_by: Optional[str], descending: bool,
                 fingerprint: str) -> None:
        self.limit = limit
        self.offset = offset
        self.order_by = order_by
        self.descending = descending
        self.fingerprint = fingerprint


def route_page(command: P.RunQuery) -> PageSpec:
    """Validate page shaping and resolve the effective ordering.

    Raises:
        CommandError: on an unusable limit/offset/order_by.
    """
    check_numbers(command)
    if command.limit < 1:
        raise CommandError("bad_request",
                           "limit must be >= 1, got {}".format(
                               command.limit))
    if command.offset < 0:
        raise CommandError("bad_request", "offset must be >= 0")
    if command.order_by is not None \
            and command.order_by not in ORDER_KEYS:
        raise CommandError(
            "bad_request",
            "unknown order_by {!r}; one of: {}".format(
                command.order_by, ", ".join(sorted(ORDER_KEYS))))
    limit = min(command.limit, MAX_PAGE_SIZE)
    # An offset past sys.maxsize skips every hit, and islice takes
    # no larger count.
    offset = min(command.offset, sys.maxsize)
    fingerprint = P.page_fingerprint(command.query, command.order_by,
                                     command.descending)
    # ``descending`` without an explicit key means newest-first
    # natural order: honor it as an explicit doc_id sort, never
    # silently ignore it.
    order_by = command.order_by
    if order_by is None and command.descending:
        order_by = "doc_id"
    return PageSpec(limit, offset, order_by,
                    command.descending, fingerprint)


def decode_page_cursor(command: P.RunQuery, spec: PageSpec
                       ) -> Tuple[Optional[Tuple], Optional[int]]:
    """Decode and validate a resume cursor against the routed page.

    Returns ``(boundary, last_doc_id)``: a keyset ``(order-key
    value, doc id)`` boundary for explicit orderings, a plain last
    doc id for natural order, both ``None`` without a cursor.

    Raises:
        CommandError: ``bad_cursor`` on any malformed/mismatched
            token.
    """
    if command.cursor is None:
        return None, None
    try:
        token = P.decode_cursor(command.cursor)
    except P.ProtocolError as error:
        raise CommandError("bad_cursor", str(error))
    if token.get("f") != spec.fingerprint:
        raise CommandError(
            "bad_cursor",
            "cursor belongs to a different query/ordering")
    try:
        doc_id = int(token.get("k", -1))
    except (TypeError, ValueError):
        raise CommandError("bad_cursor",
                           "cursor position is not an integer")
    if doc_id < 0:  # cursors are forgeable base64 — validate
        raise CommandError("bad_cursor",
                           "cursor position is negative")
    if spec.order_by is not None:
        # Keyset cursor: (order-key value, doc id) of the last hit
        # served.  The value's JSON type must match what the order
        # key yields — a forged/stale token surfaces as bad_cursor,
        # not as a TypeError mid-sort.
        if "okv" not in token:
            raise CommandError(
                "bad_cursor",
                "cursor carries no keyset boundary for ordered "
                "pagination (offset cursors are no longer "
                "issued)")
        value = token["okv"]
        if not isinstance(value, (str, int, float)) \
                or isinstance(value, bool):
            raise CommandError(
                "bad_cursor", "unorderable cursor boundary")
        return (value, doc_id), None
    return None, doc_id


def assemble_page(window: List, spec: PageSpec
                  ) -> Tuple[List, Optional[str]]:
    """Cut the probed window into a page and its resume cursor.

    ``window`` holds up to ``spec.limit + 1`` hits — a full probe
    means a next page exists and earns a cursor keyed on the last
    served hit.
    """
    page = window[:spec.limit]
    next_cursor: Optional[str] = None
    if len(window) > spec.limit and page:
        last = page[-1]
        if spec.order_by is not None:
            token = {"f": spec.fingerprint,
                     "okv": ORDER_KEYS[spec.order_by](last),
                     "k": last.doc_id}
        else:
            token = {"f": spec.fingerprint, "k": last.doc_id}
        next_cursor = P.encode_cursor(token)
    return page, next_cursor


def _keyset_view(results: ResultSet, order_by: str,
                 descending: bool, boundary: Optional[Tuple],
                 count: int) -> List:
    """The first ``count`` explicitly ordered hits strictly past a
    keyset boundary.

    The sort key is the composite ``(order-key value, doc_id)`` with
    *both* components following the sort direction, so the boundary —
    the composite key of the last hit served — splits the ordering
    into "already seen" and "still to serve" even when many documents
    share an order-key value.  Documents ingested mid-walk land on
    whichever side their composite key dictates: nothing already
    served repeats, nothing still ahead is skipped.  Composite keys
    are unique, so a bounded selection of ``count`` hits equals the
    same-length prefix of the full sort.

    Raises:
        TypeError: when the boundary value does not order against
            the key (a forged or stale cursor).
    """
    key_fn = ORDER_KEYS[order_by]
    keyed = [((key_fn(hit), hit.doc_id), hit) for hit in results]
    if boundary is not None:
        if descending:
            keyed = [pair for pair in keyed if pair[0] < boundary]
        else:
            keyed = [pair for pair in keyed if pair[0] > boundary]
    select = heapq.nlargest if descending else heapq.nsmallest
    return [hit for _, hit in select(count, keyed, key=itemgetter(0))]


def _run_query(registry: SessionRegistry,
               command: P.RunQuery) -> P.Response:
    # -- route: validate shape, resolve ordering, decode the cursor
    session = _session(registry, command.session)
    spec = route_page(command)
    query = parse_query(session.workbench.store, command.query)
    boundary, last_doc_id = decode_page_cursor(command, spec)

    # -- execute: one probed window from the single local store
    if last_doc_id is not None:
        # Resume below the result-set layer: the plan drops candidate
        # ids <= the boundary *before* fetching/residual-checking, so
        # a full cursor walk costs O(N), not O(N²/page).
        resume_after = last_doc_id
        view = ResultSet(
            lambda: query.plan().iter_results(
                start_after=resume_after))
    elif spec.order_by is not None:
        try:
            hits_past = _keyset_view(
                query.execute(), spec.order_by, command.descending,
                boundary, spec.offset + spec.limit + 1)
        except TypeError:
            raise CommandError(
                "bad_cursor",
                "cursor boundary does not order against this "
                "key")
        view = ResultSet(lambda: iter(hits_past))
        if spec.offset:
            view = view.offset(spec.offset)
    elif spec.offset:
        view = query.execute().offset(spec.offset)
    else:
        view = query.execute()
    # Probe one past the page: a full probe means a next page exists.
    window = view.limit(spec.limit + 1).to_list()

    # -- merge: assemble the page and its resume cursor
    page, next_cursor = assemble_page(window, spec)

    # The total costs a second plan execution when residuals remain,
    # so it is computed once per pagination stream (the cursor-less
    # first page), not per page.
    total = query.count() if command.include_total \
        and command.cursor is None else None
    hits = [P.Hit(doc_id=hit.doc_id, trajectory=hit.trajectory)
            for hit in page]
    return P.QueryPage(hits=hits, total=total,
                       next_cursor=next_cursor)


def _explain(registry: SessionRegistry,
             command: P.Explain) -> P.Response:
    session = _session(registry, command.session)
    return P.Explanation(plan=parse_query(
        session.workbench.store, command.query).explain())


def _mine_patterns(registry: SessionRegistry,
                   command: P.MinePatterns) -> P.Response:
    session = _session(registry, command.session)
    check_numbers(command)
    try:
        patterns = patterns_over(
            _sequence_corpus(session, command.query),
            command.min_support, command.max_length)
    except ValueError as error:
        raise CommandError("bad_request", str(error))
    return P.PatternList(patterns=patterns)


def _similarity(registry: SessionRegistry,
                command: P.Similarity) -> P.Response:
    session = _session(registry, command.session)
    matrix = similarity_over(session.workbench.space,
                             _sequence_corpus(session, command.query))
    return P.SimilarityMatrix(matrix=matrix)


def _flow(registry: SessionRegistry, command: P.Flow) -> P.Response:
    session = _session(registry, command.session)
    return P.FlowList(
        balances=flow_balances(_corpus(session, command.query)))


def _sequences(registry: SessionRegistry,
               command: P.Sequences) -> P.Response:
    session = _session(registry, command.session)
    return P.SequenceList(
        sequences=state_sequences(_corpus(session, command.query)))


def _summary(registry: SessionRegistry,
             command: P.Summary) -> P.Response:
    session = _session(registry, command.session)
    return P.SummaryStats(
        stats=corpus_summary(_corpus(session, command.query)))


def _ingest_documents(registry: SessionRegistry,
                      command: P.IngestDocuments) -> P.Response:
    from repro.core.trajectory import SemanticTrajectory
    from repro.persist.session import revive_space

    session = registry.create(command.session)
    workbench = session.workbench
    if workbench.space is None and command.space is not None:
        workbench.space = revive_space(command.space)
    try:
        docs = [SemanticTrajectory.from_dict(item)
                for item in command.docs]
    except (KeyError, TypeError, ValueError) as error:
        session.ingest_rejected += len(command.docs)
        raise CommandError(
            "bad_request", "unparseable document: {}".format(error))
    # The build lock serializes against checkpoints, exactly like a
    # pipeline build; the store's write lock covers the extend itself.
    with session.build_lock:
        if docs:
            workbench.store.extend(docs)
        session.ingest_accepted += len(docs)
    return P.Ingested(session=command.session, count=len(docs),
                      total=len(workbench.store))


def _count_patterns(registry: SessionRegistry,
                    command: P.CountPatterns) -> P.Response:
    from repro.mining.prefixspan import pattern_supports

    session = _session(registry, command.session)
    check_patterns(command)
    corpus = _sequence_corpus(session, command.query)
    supports = pattern_supports(corpus, command.patterns)
    return P.PatternSupports(supports=supports, sequences=len(corpus))


def _similarity_block(registry: SessionRegistry,
                      command: P.SimilarityBlock) -> P.Response:
    from repro.mining.similarity import similarity_block

    session = _session(registry, command.session)
    check_row_block(command)
    hierarchy = getattr(session.workbench.space, "zone_hierarchy",
                        None)
    rows = similarity_block(hierarchy, command.sequences,
                            command.row_start, command.row_end)
    return P.SimilarityRows(rows=rows)


def _summary_parts(registry: SessionRegistry,
                   command: P.SummaryParts) -> P.Response:
    session = _session(registry, command.session)
    return _parts_info(summary_parts(_corpus(session, command.query)))


def _store_stats(registry: SessionRegistry,
                 command: P.StoreStats) -> P.Response:
    store = _session(registry, command.session).workbench.store
    span = store.time_span()
    return merge_store_stats([P.StoreStatsInfo(
        doc_count=len(store),
        states=store.state_cardinalities(),
        annotations=[[kind.value, value, count]
                     for (kind, value), count
                     in store.annotation_cardinalities().items()],
        mos=store.mo_cardinalities(),
        time_span=None if span is None else list(span))])


# ----------------------------------------------------------------------
# single-scatter reads: declared partial/merge pairs
#
# Each of these reads is one partial per store and one merge of the
# partials' replies.  The executor answers a store's partial through
# the handlers above; the shard coordinator scatters the partial
# command to every shard and applies the merge below.  The executor's
# own results go through the same combines (corpus_summary and
# flow_balances build theirs with summary_stats and
# merge_flow_balances; _store_stats sorts through merge_store_stats),
# so sharded and unsharded bytes agree by construction.
# ----------------------------------------------------------------------
def _parts_info(parts) -> P.SummaryPartsInfo:
    return P.SummaryPartsInfo(
        **parts._replace(mo_ids=sorted(parts.mo_ids))._asdict())


def merge_pattern_supports(replies: Iterable[P.PatternSupports]
                           ) -> P.PatternSupports:
    """Exact supports over disjoint slices: per-pattern sums."""
    replies = list(replies)
    return P.PatternSupports(
        supports=[sum(column) for column in
                  zip(*(reply.supports for reply in replies))],
        sequences=sum(reply.sequences for reply in replies))


def merge_store_stats(replies: Iterable[P.StoreStatsInfo]
                      ) -> P.StoreStatsInfo:
    """Planner statistics of disjoint slices: cardinalities summed,
    the time span widened, annotations sorted by ``(kind,
    repr(value))``."""
    doc_count = 0
    states: Dict[str, int] = {}
    mos: Dict[str, int] = {}
    annotations: Dict[Tuple, int] = {}
    span: Optional[List[float]] = None
    for reply in replies:
        doc_count += reply.doc_count
        for state, count in reply.states.items():
            states[state] = states.get(state, 0) + count
        for mo, count in reply.mos.items():
            mos[mo] = mos.get(mo, 0) + count
        for kind, value, count in reply.annotations:
            annotations[kind, value] = \
                annotations.get((kind, value), 0) + count
        if reply.time_span is not None:
            if span is None:
                span = list(reply.time_span)
            else:
                span = [min(span[0], reply.time_span[0]),
                        max(span[1], reply.time_span[1])]
    triples = [[kind, value, count]
               for (kind, value), count in annotations.items()]
    triples.sort(key=lambda item: (item[0], repr(item[1])))
    return P.StoreStatsInfo(doc_count=doc_count, states=states,
                            annotations=triples, mos=mos,
                            time_span=span)


def _same(command: P.Command) -> P.Command:
    return command


#: Command type → ``(partial command each store answers, merge of
#: the partial replies)``.  ``Summary`` scatters as ``SummaryParts``,
#: whose reply carries visitor *sets*, so distinct counts stay exact.
SCATTER_READS: Dict[Type[P.Command], Tuple[Callable, Callable]] = {
    P.Summary: (
        lambda command: P.SummaryParts(session=command.session,
                                       query=command.query),
        lambda replies: P.SummaryStats(
            stats=summary_stats(merge_summary_parts(replies)))),
    P.SummaryParts: (
        _same, lambda replies: _parts_info(merge_summary_parts(replies))),
    P.Flow: (_same, lambda replies: P.FlowList(
        balances=merge_flow_balances(
            reply.balances for reply in replies))),
    P.CountPatterns: (_same, merge_pattern_supports),
    P.StoreStats: (_same, merge_store_stats),
}


# ----------------------------------------------------------------------
# live streams (repro.stream) — imported lazily so the service layer
# has no stream dependency until a stream command actually arrives.
# Both engines run these handlers over their own stream table
# (``engine.stream_manager()``): a sharded stream is this stream, with
# the coordinator's routed ingest as its write path.
# ----------------------------------------------------------------------
def unknown_stream(session: str, stream: str) -> CommandError:
    """The ``unknown_stream`` failure (never opened, or closed)."""
    return CommandError(
        "unknown_stream",
        "no stream {!r} on session {!r}".format(stream, session))


def _stream(engine, session: str, stream: str):
    from repro.persist.format import PersistError
    from repro.stream.manager import UnknownStreamError

    try:
        return engine.stream_manager().get(session, stream)
    except UnknownStreamError:
        raise unknown_stream(session, stream)
    except PersistError as error:
        raise CommandError("persistence", str(error))


def _open_stream(engine, command: P.OpenStream) -> P.Response:
    from repro.persist.format import PersistError

    check_open_stream(command)
    try:
        stream = engine.stream_manager().open(
            command.session, command.stream,
            gap_seconds=command.gap_seconds,
            checkpoint_every=command.checkpoint_every,
            max_open_events=command.max_open_events)
    except PersistError as error:
        raise CommandError("persistence", str(error))
    return P.StreamInfo(session=command.session,
                        stream=command.stream,
                        status=stream.status())


def _append_events(engine, command: P.AppendEvents) -> P.Response:
    from repro.persist.format import PersistError
    from repro.stream.manager import StreamOverloadedError
    from repro.stream.segmenter import NO_WATERMARK

    stream = _stream(engine, command.session, command.stream)
    check_watermark(command)
    try:
        result = stream.append(command.events,
                               watermark=command.watermark)
    except ValueError as error:
        raise CommandError("bad_request", str(error))
    except StreamOverloadedError as error:
        raise CommandError("overloaded", str(error))
    except PersistError as error:
        raise CommandError("persistence", str(error))
    watermark = stream.segmenter.watermark
    return P.EventsAppended(
        session=command.session, stream=command.stream,
        appended=result["appended"],
        episodes_closed=result["episodes_closed"],
        watermark=None if watermark == NO_WATERMARK else watermark,
        open_events=stream.segmenter.open_events,
        seq=result["seq"])


def _stream_status(engine, command: P.StreamStatus) -> P.Response:
    stream = _stream(engine, command.session, command.stream)
    return P.StreamInfo(session=command.session,
                        stream=command.stream,
                        status=stream.status())


def _close_stream(engine, command: P.CloseStream) -> P.Response:
    from repro.persist.format import PersistError
    from repro.stream.manager import UnknownStreamError

    try:
        summary = engine.stream_manager().close(command.session,
                                                command.stream)
    except UnknownStreamError:
        raise unknown_stream(command.session, command.stream)
    except PersistError as error:
        raise CommandError("persistence", str(error))
    return P.StreamClosed(
        session=command.session, stream=command.stream,
        episodes_closed=summary["episodes_closed"],
        episodes_total=summary["episodes_total"],
        events_acked=summary["events_acked"])


#: The stream commands, one implementation for both engines.
STREAM_HANDLERS: Dict[Type[P.Command], Callable] = {
    P.OpenStream: _open_stream,
    P.AppendEvents: _append_events,
    P.StreamStatus: _stream_status,
    P.CloseStream: _close_stream,
}


def _save_session(registry: SessionRegistry,
                  command: P.SaveSession) -> P.Response:
    import os

    from repro.persist import PersistError

    _session(registry, command.session)  # 404 before 500
    try:
        info = registry.save(command.session)
    except PersistError as error:
        raise CommandError("persistence", str(error))
    return P.SessionSaved(
        session=command.session,
        snapshot=os.path.basename(info.path),
        trajectories=info.doc_count,
        total_bytes=info.total_bytes)


def _restore_session(registry: SessionRegistry,
                     command: P.RestoreSession) -> P.Response:
    from repro.persist import PersistError

    try:
        session = registry.restore(command.session)
    except UnknownSessionError:
        # A name nobody ever created is the client's mistake (404),
        # not a storage failure (500).
        raise CommandError(
            "unknown_session",
            "no session named {!r} in memory or on disk".format(
                command.session))
    except PersistError as error:
        raise CommandError("persistence", str(error))
    return _session_info(session)


_HANDLERS: Dict[Type[P.Command], Callable] = {
    P.BuildDataset: _build,
    P.JobStatus: job_status,
    P.ListSessions: _list_sessions,
    P.DropSession: _drop_session,
    P.RunQuery: _run_query,
    P.Explain: _explain,
    P.MinePatterns: _mine_patterns,
    P.Similarity: _similarity,
    P.Flow: _flow,
    P.Sequences: _sequences,
    P.Summary: _summary,
    P.IngestDocuments: _ingest_documents,
    P.CountPatterns: _count_patterns,
    P.SimilarityBlock: _similarity_block,
    P.SummaryParts: _summary_parts,
    P.StoreStats: _store_stats,
    P.SaveSession: _save_session,
    P.RestoreSession: _restore_session,
    **STREAM_HANDLERS,
}


def dispatch(handlers: Mapping[Type[P.Command], Callable], engine,
             command: P.Command) -> P.Response:
    """The one command dispatch, shared by both engines.

    Runs ``handlers[type(command)](engine, command)``; *expected*
    failures become ``ErrorInfo`` — handler rejections, a spent
    deadline, an exhausted replica set, a shard's error reply
    (relayed verbatim), an unserializable expression, a protocol
    violation.  Unexpected exceptions (genuine bugs) propagate with
    their traceback intact: the in-process library path must not
    swallow them; :func:`execute_safely` is the wire boundary.
    """
    handler = handlers.get(type(command))
    if handler is None:
        return P.ErrorInfo(
            code="bad_request",
            message="unhandled command {!r}".format(command.kind))
    if command.deadline_ms is not None and command.deadline_ms <= 0:
        # The propagated budget was already spent in transit; answer
        # fast instead of doing work nobody is waiting for.
        return P.ErrorInfo(
            code="deadline_exceeded",
            message="deadline expired before execution began")
    try:
        return handler(engine, command)
    except CommandError as error:
        return P.ErrorInfo(code=error.code, message=error.message)
    except DeadlineExceeded as error:
        return P.ErrorInfo(code="deadline_exceeded", message=str(error))
    except ReplicaUnavailable as error:
        return P.ErrorInfo(code="unavailable", message=str(error))
    except P.ServiceError as error:
        return P.ErrorInfo(code=error.code, message=error.message)
    except ExprSerializationError as error:
        return P.ErrorInfo(code="unserializable", message=str(error))
    except P.ProtocolError as error:
        return P.ErrorInfo(code="protocol", message=str(error))


def execute_command(registry: SessionRegistry,
                    command: P.Command) -> P.Response:
    """Run one command against a registry (see :func:`dispatch`)."""
    return dispatch(_HANDLERS, registry, command)


def execute_safely(engine: "Engine", command: P.Command) -> P.Response:
    """``engine.execute_command`` with the wire-boundary catch-all:
    a genuine bug becomes an ``internal`` error, because a server
    must answer, not crash."""
    try:
        return engine.execute_command(command)
    except Exception as error:
        return P.ErrorInfo(
            code="internal",
            message="{}: {}".format(type(error).__name__, error))


@runtime_checkable
class Engine(Protocol):
    """The engine behind the service: everything the HTTP front-end,
    the wire layer, the CLI and :class:`LocalBinding` use of it.

    :class:`~repro.service.registry.SessionRegistry` (one process)
    and :class:`~repro.shard.coordinator.ShardCoordinator` (N shards)
    implement it:

    - ``execute_command`` runs one command; expected failures come
      back as ``ErrorInfo`` (:func:`dispatch`), bugs propagate;
    - ``cache_stamp`` is the response-cache validity stamp of a
      session now (None when it does not resolve) — equal stamps
      prove equal read results;
    - ``health_roster``, ``shard_report`` and ``stream_report`` feed
      ``GET /v1/health``; ``restoring`` and ``breaker_report`` feed
      ``GET /v1/ready`` (the reports are None where the engine has
      no shards, replicas or streams);
    - ``finish_restore`` runs a restore the construction deferred;
      ``restore_errors`` maps sessions that failed to restore to why.
    """

    restoring: bool
    restore_errors: Dict[str, str]

    def execute_command(self, command: P.Command) -> P.Response: ...

    def cache_stamp(self, session: str) -> Optional[Tuple]: ...

    def health_roster(self) -> List[Dict]: ...

    def shard_report(self) -> Optional[List[Dict]]: ...

    def stream_report(self) -> Optional[Dict]: ...

    def breaker_report(self) -> Optional[List[Dict]]: ...

    def finish_restore(self) -> None: ...


class LocalBinding:
    """The service protocol without sockets.

    Wraps an :class:`Engine` — a :class:`SessionRegistry` or a shard
    coordinator — so commands execute in-process through the exact
    code path the HTTP server uses.  :class:`~repro.api.Workbench` is
    sugar over one of these; tests use :meth:`call_json` to prove the
    wire form is byte-identical to the in-process form.
    """

    def __init__(self, registry: Optional[Engine] = None) -> None:
        self.registry = registry if registry is not None \
            else SessionRegistry()

    def call(self, command: P.Command) -> P.Response:
        """Execute a command; typed response or raised error.

        Expected service failures raise :class:`ServiceError`;
        genuine bugs propagate with their original traceback (this
        is the library path, not a wire boundary).

        Raises:
            ServiceError: when the service answers with ``Error``.
        """
        response = self.registry.execute_command(command)
        if isinstance(response, P.ErrorInfo):
            raise P.ServiceError(response.code, response.message)
        return response

    def call_json(self, raw: bytes) -> bytes:
        """Bytes-in/bytes-out variant (the wire path minus HTTP).

        Parses ``raw`` as a command, executes it, and returns the
        response's canonical JSON — errors included, exactly as the
        server would put them on the wire.
        """
        try:
            command = P.command_from_json(raw)
        except P.ProtocolError as error:
            return P.ErrorInfo(code="protocol",
                               message=str(error)).to_json()
        return execute_safely(self.registry, command).to_json()
