"""The typed wire protocol: dataclass commands and responses.

Every interaction with the service is one *command* — a frozen
dataclass that serializes to a JSON object via :meth:`to_dict` and
back via :func:`command_from_dict` — answered by one *response*
dataclass with the same symmetry.  The protocol reuses the
serializations the lower layers already define
(:meth:`Query.to_dict <repro.storage.query.Query.to_dict>` for query
expressions, :meth:`SemanticTrajectory.to_dict
<repro.core.trajectory.SemanticTrajectory.to_dict>` for hits,
:meth:`SequentialPattern.to_dict
<repro.mining.prefixspan.SequentialPattern.to_dict>` /
:meth:`FlowBalance.to_dict <repro.mining.flow.FlowBalance.to_dict>`
for mining results), so the wire form of a result is byte-identical
to serializing the in-process object.

Pagination is cursor-based and *stable*: a cursor for the natural
document-id order encodes the last id seen, so resuming never skips
or repeats hits even while a background build appends matching
trajectories (new documents only ever sort past the boundary).
Explicitly ordered pages use **keyset cursors** — the boundary is the
``(order-key value, doc id)`` pair of the last hit, and a page is
"everything strictly past the boundary in sort order" — so ordered
walks neither skip nor repeat a document under concurrent ingestion
either.  Cursors carry a fingerprint of ``(query, order)`` and are
rejected when replayed against a different query.

Wire framing (the HTTP server POSTs one JSON object per call)::

    {"v": 1, "command": "RunQuery", "session": "louvre", ...}
    {"v": 1, "response": "QueryPage", "hits": [...], ...}

See ``docs/service.md`` for the full reference with curl examples.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Mapping, Optional, Tuple, Type

import numpy as np

from repro.core.trajectory import SemanticTrajectory
from repro.mining.flow import FlowBalance
from repro.mining.prefixspan import SequentialPattern
from repro.pipeline.metrics import PipelineMetrics

#: Protocol revision; bump on incompatible message changes.
PROTOCOL_VERSION = 1


class ProtocolError(ValueError):
    """A message that does not parse as a protocol object."""


class ServiceError(RuntimeError):
    """A call that the service answered with an ``Error`` response.

    Raised identically by the in-process :class:`~repro.service
    .executor.LocalBinding` and the HTTP
    :class:`~repro.service.client.ServiceClient`, so callers handle
    failures the same way on both transports.

    Attributes:
        code: the machine-matchable error code.
        message: the human-readable detail.
        http_status: the HTTP status that carried the error, when it
            travelled over the wire (``None`` in-process) — surfaced
            in the exception text so a log line alone identifies
            both the service code and the transport status.
        attempts: how many transport attempts the client made before
            giving up (``None`` when the call did not involve a
            retrying client) — also surfaced in the text.
    """

    def __init__(self, code: str, message: str,
                 http_status: Optional[int] = None,
                 attempts: Optional[int] = None) -> None:
        if http_status is None:
            text = "{}: {}".format(code, message)
        else:
            text = "{} [HTTP {}]: {}".format(code, http_status,
                                             message)
        if attempts is not None:
            text += " (after {} attempt{})".format(
                attempts, "" if attempts == 1 else "s")
        super().__init__(text)
        self.code = code
        self.message = message
        self.http_status = http_status
        self.attempts = attempts


class ServiceUnavailable(ServiceError, ConnectionError):
    """The transport failed and every retry was exhausted.

    Subclasses both :class:`ServiceError` (it is a typed service
    failure, code ``unavailable``) and :class:`ConnectionError` (so
    pre-existing ``except OSError`` transport handling still catches
    it).  Raised by the retrying HTTP client, never by a server.
    """


def canonical_json(data: object) -> bytes:
    """The protocol's one JSON encoding: sorted keys, no whitespace.

    Both endpoints encode with this, which is what makes "byte
    identical results over the wire and in process" a meaningful
    guarantee (and cursors/fingerprints deterministic).
    """
    return json.dumps(data, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def splice_json(fields: Mapping, key: str, raw: bytes) -> bytes:
    """``canonical_json({**fields, key: value})`` for a ``value``
    whose canonical bytes are already ``raw``: the fields are encoded
    around it and ``raw`` goes in at ``key``'s sorted position."""
    before = canonical_json({k: v for k, v in fields.items() if k < key})
    after = canonical_json({k: v for k, v in fields.items() if k > key})
    # One join, so a large ``raw`` is copied once.
    return b"".join((before[:-1], b"," if len(before) > 2 else b"",
                     canonical_json(key), b":", raw,
                     b"," if len(after) > 2 else b"", after[1:]))


def matrix_json(rows: object) -> bytes:
    """``canonical_json(rows)`` for a list of lists of floats, with
    each distinct value encoded once rather than once per entry (a
    similarity matrix repeats few values many times).

    Values are told apart by their bits, so ``-0.0`` and ``0.0`` keep
    their own spellings.  Anything but a non-empty list of lists of
    exact floats goes to :func:`canonical_json` itself.
    """
    if type(rows) is not list or set(map(type, rows)) - {list}:
        return canonical_json(rows)
    flat = list(itertools.chain.from_iterable(rows))
    if not flat or set(map(type, flat)) - {float}:
        return canonical_json(rows)
    values = np.fromiter(flat, float, len(flat))
    bits = values.view(np.int64)
    order = bits.argsort(kind="stable")
    ranked = bits[order]
    first = np.empty(len(ranked), dtype=bool)
    first[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    # No float's JSON holds a comma.
    tokens = canonical_json(values[order[first]].tolist())[1:-1]
    text = np.array(tokens.split(b","), dtype=object)[inverse].tolist()
    ends = list(itertools.accumulate(map(len, rows)))
    return b"[[" + b"],[".join([
        b",".join(text[start:end])
        for start, end in zip([0] + ends[:-1], ends)]) + b"]]"


# ----------------------------------------------------------------------
# message plumbing
# ----------------------------------------------------------------------
COMMANDS: Dict[str, Type["Command"]] = {}
RESPONSES: Dict[str, Type["Response"]] = {}


class _Message:
    """Shared to_dict/from_dict over the subclass's dataclass fields.

    Field values must be JSON-native; messages holding richer objects
    (trajectories, patterns) override ``to_dict``/``_from_fields``.
    """

    kind: str = ""
    _tag: str = ""  # "command" or "response"
    #: A field holding a float matrix, encoded by :func:`matrix_json`
    #: and spliced into the object (``None``: no such field).
    _matrix_field: Optional[str] = None

    def to_dict(self) -> Dict:
        """JSON-safe plain-data form, tagged with kind and version."""
        data: Dict = {"v": PROTOCOL_VERSION, self._tag: self.kind}
        for spec in fields(self):  # type: ignore[arg-type]
            data[spec.name] = getattr(self, spec.name)
        return data

    def to_json(self) -> bytes:
        """Canonical JSON bytes of :meth:`to_dict`."""
        data = self.to_dict()
        if self._matrix_field is None:
            return canonical_json(data)
        return splice_json(data, self._matrix_field,
                           matrix_json(data[self._matrix_field]))

    @classmethod
    def _from_fields(cls, data: Mapping) -> "_Message":
        known = {spec.name for spec in fields(cls)}  # type: ignore[arg-type]
        kwargs = {key: value for key, value in data.items()
                  if key in known}
        try:
            return cls(**kwargs)  # type: ignore[call-arg]
        except TypeError as error:
            raise ProtocolError(
                "bad {} payload for {}: {}".format(cls._tag, cls.kind,
                                                   error))


def _parse(data: Mapping, tag: str,
           registry: Dict[str, Type["_Message"]]) -> "_Message":
    if not isinstance(data, Mapping):
        raise ProtocolError("a protocol message must be a JSON object")
    version = data.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported protocol version {!r} (this build speaks "
            "{})".format(version, PROTOCOL_VERSION))
    kind = data.get(tag)
    if kind not in registry:
        raise ProtocolError("unknown {} {!r}; one of: {}".format(
            tag, kind, ", ".join(sorted(registry))))
    return registry[kind]._from_fields(data)


def command_from_dict(data: Mapping) -> "Command":
    """Parse a command object from plain data.

    The ``deadline_ms`` envelope key — the remaining time budget, not
    a dataclass field — is re-applied after parsing so the budget
    survives the wire.

    Raises:
        ProtocolError: on version/kind/payload mismatch.
    """
    command = _parse(data, "command", COMMANDS)
    ms = data.get("deadline_ms")
    if ms is not None:
        if not isinstance(ms, int) or isinstance(ms, bool) or ms < 0:
            raise ProtocolError(
                "deadline_ms must be a non-negative integer, got "
                "{!r}".format(ms))
        object.__setattr__(command, "deadline_ms", ms)
    return command  # type: ignore[return-value]


def response_from_dict(data: Mapping) -> "Response":
    """Parse a response object from plain data.

    Raises:
        ProtocolError: on version/kind/payload mismatch.
    """
    return _parse(data, "response", RESPONSES)  # type: ignore[return-value]


def _from_json(raw: bytes, parse) -> "_Message":
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError("undecodable message: {}".format(error))
    return parse(data)


def command_from_json(raw: bytes) -> "Command":
    """Bytes → command (inverse of :meth:`Command.to_json`)."""
    return _from_json(raw, command_from_dict)  # type: ignore[return-value]


def response_from_json(raw: bytes) -> "Response":
    """Bytes → response (inverse of :meth:`Response.to_json`)."""
    return _from_json(raw, response_from_dict)  # type: ignore[return-value]


class Command(_Message):
    """Base class of every request message.

    ``idempotent`` marks commands that are safe to retry blindly on a
    dropped connection (reads, and persistence operations that
    converge): the HTTP client retries exactly those, within its
    attempt budget.  Mutating commands (``BuildDataset``,
    ``DropSession``) stay ``False`` — a retry could double-ingest or
    mask a real state change.

    ``deadline_ms`` is the command's remaining time budget in
    milliseconds — an *envelope* attribute, not a dataclass field, so
    ``dataclasses.replace`` derivatives (cursor follow-ups) do not
    inherit a stale budget; whoever forwards a command re-stamps the
    remaining time via :meth:`with_deadline`.  ``None`` (the default)
    means unbounded, and is not serialized, keeping deadline-less
    wire bytes identical to protocol revision 1 clients.

    ``allow_partial`` is False for every command but the reads that
    declare it as a field (opting into degraded sharded results).
    """

    _tag = "command"
    idempotent: bool = False
    deadline_ms: Optional[int] = None
    allow_partial: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        COMMANDS[cls.kind] = cls

    def to_dict(self) -> Dict:
        data = super().to_dict()
        if self.deadline_ms is not None:
            data["deadline_ms"] = self.deadline_ms
        return data

    def with_deadline(self, deadline_ms: Optional[int]) -> "Command":
        """A copy of this command carrying ``deadline_ms`` budget."""
        clone = replace(self)  # type: ignore[type-var]
        object.__setattr__(clone, "deadline_ms", deadline_ms)
        return clone


class Response(_Message):
    """Base class of every reply message.

    A ``degraded`` marker (reads a sharded engine merged from its live
    shards only) is serialized only when set, so a whole reply stays
    byte-identical to the unsharded executor's.
    """

    _tag = "response"

    def to_dict(self) -> Dict:
        data = super().to_dict()
        if "degraded" in data and data["degraded"] is None:
            del data["degraded"]
        return data

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        RESPONSES[cls.kind] = cls


# ----------------------------------------------------------------------
# cursors
# ----------------------------------------------------------------------
def page_fingerprint(query: Optional[Mapping], order_by: Optional[str],
                     descending: bool) -> str:
    """Digest identifying one (query, ordering) pagination stream."""
    raw = canonical_json({"q": query, "ob": order_by,
                          "d": bool(descending)})
    return hashlib.sha256(raw).hexdigest()[:12]


def encode_cursor(payload: Mapping) -> str:
    """Opaque, URL-safe cursor token from plain data."""
    return base64.urlsafe_b64encode(
        canonical_json(payload)).decode("ascii").rstrip("=")


def decode_cursor(token: str) -> Dict:
    """Inverse of :func:`encode_cursor`.

    Raises:
        ProtocolError: for a token that is not one of ours.
    """
    padded = token + "=" * (-len(token) % 4)
    try:
        data = json.loads(base64.urlsafe_b64decode(
            padded.encode("ascii")).decode("utf-8"))
    except (binascii.Error, UnicodeError, ValueError):
        raise ProtocolError("malformed cursor {!r}".format(token))
    if not isinstance(data, dict) or "f" not in data:
        raise ProtocolError("malformed cursor {!r}".format(token))
    return data


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BuildDataset(Command):
    """Create (or extend) a named session by running the build
    pipeline over a record source.

    Attributes:
        session: session name, e.g. ``louvre@0.1``.
        source: ``"louvre"`` (synthetic corpus) or ``"csv"``.
        scale: corpus scale for the louvre source.
        path: detection-CSV path for the csv source.
        workers / executor / batch_size / streaming / cache: forwarded
            to the parallel pipeline engine (PR 3 semantics).
        wait: block until the build finishes instead of returning a
            job handle immediately.
    """

    kind = "BuildDataset"

    session: str
    source: str = "louvre"
    scale: float = 0.05
    path: Optional[str] = None
    workers: int = 0
    executor: str = "thread"
    batch_size: int = 512
    streaming: bool = True
    cache: bool = False
    wait: bool = False


@dataclass(frozen=True)
class JobStatus(Command):
    """Poll a background build job by id."""

    kind = "JobStatus"
    idempotent = True

    job_id: str


@dataclass(frozen=True)
class ListSessions(Command):
    """Enumerate the registry's sessions."""

    kind = "ListSessions"
    idempotent = True


@dataclass(frozen=True)
class DropSession(Command):
    """Remove a session (and its store) from the registry.

    In a durable registry the session's on-disk home is removed as
    well — dropping means *gone*, not "resurrected on the next
    restart with a rebuild appended on top".
    """

    kind = "DropSession"

    session: str


@dataclass(frozen=True)
class RunQuery(Command):
    """Execute a planned query and return one page of hits.

    Attributes:
        session: the session to query.
        query: a serialized expression tree
            (:meth:`Query.to_dict <repro.storage.query.Query.to_dict>`
            payload, i.e. ``{"expr": {...}}``); ``None`` matches the
            whole corpus.
        limit: page size (server caps apply).
        cursor: resume token from a previous page's ``next_cursor``.
        offset: hits to skip (first page only; cursors already carry
            their position).
        order_by / descending: explicit ordering by a
            :data:`~repro.storage.results.ORDER_KEYS` field name;
            default is natural document-id order.  Both orderings
            paginate with ingestion-stable cursors: natural order
            resumes past the last doc id, explicit orderings resume
            past the last ``(order-key, doc id)`` keyset boundary.
        include_total: also count the full result (index-only when
            the plan allows).  Computed on the cursor-less first
            page only — follow-up pages always report ``total:
            null`` so paginating never re-executes the plan per
            page.
        allow_partial: on a sharded engine, opt into degraded
            results: when some shards are unreachable the reply
            merges the live shards and carries a ``degraded``
            annotation instead of failing (see
            ``docs/resilience.md``).  Ignored by a single-process
            executor, which has no shards to lose.
    """

    kind = "RunQuery"
    idempotent = True

    session: str
    query: Optional[Dict] = None
    limit: int = 50
    cursor: Optional[str] = None
    offset: int = 0
    order_by: Optional[str] = None
    descending: bool = False
    include_total: bool = True
    allow_partial: bool = False


@dataclass(frozen=True)
class Explain(Command):
    """The selectivity-ordered physical plan a query compiles to."""

    kind = "Explain"
    idempotent = True

    session: str
    query: Optional[Dict] = None


@dataclass(frozen=True)
class MinePatterns(Command):
    """PrefixSpan sequential patterns over a (queried) corpus."""

    kind = "MinePatterns"
    idempotent = True

    session: str
    query: Optional[Dict] = None
    min_support: float = 0.05
    max_length: int = 4


@dataclass(frozen=True)
class Similarity(Command):
    """Pairwise trajectory similarity matrix over a (queried)
    corpus."""

    kind = "Similarity"
    idempotent = True

    session: str
    query: Optional[Dict] = None


@dataclass(frozen=True)
class Flow(Command):
    """Per-cell flow balances over a (queried) corpus."""

    kind = "Flow"
    idempotent = True

    session: str
    query: Optional[Dict] = None
    allow_partial: bool = False


@dataclass(frozen=True)
class Sequences(Command):
    """Distinct state sequences of a (queried) corpus."""

    kind = "Sequences"
    idempotent = True

    session: str
    query: Optional[Dict] = None
    allow_partial: bool = False


@dataclass(frozen=True)
class Summary(Command):
    """Section 4.1-style corpus headline numbers."""

    kind = "Summary"
    idempotent = True

    session: str
    query: Optional[Dict] = None
    allow_partial: bool = False


@dataclass(frozen=True)
class SaveSession(Command):
    """Checkpoint a session's corpus to the server's persist
    directory: write a fresh snapshot and fold the append log into it
    (``compact``).  Idempotent — re-saving an unchanged session just
    writes an equivalent snapshot.

    The server chooses the path (its ``persist_dir``); clients never
    supply filesystem locations over the wire.
    """

    kind = "SaveSession"
    idempotent = True

    session: str


@dataclass(frozen=True)
class RestoreSession(Command):
    """(Re)load a session from the server's persist directory —
    snapshot plus append-log replay — replacing whatever the registry
    holds in memory under that name."""

    kind = "RestoreSession"
    idempotent = True

    session: str


@dataclass(frozen=True)
class IngestDocuments(Command):
    """Append already-built trajectories to a session's store.

    The shard coordinator's fan-out primitive: the coordinator runs
    the build pipeline once, routes each document by global id, and
    ships each shard its subset as serialized trajectories
    (:meth:`SemanticTrajectory.to_dict
    <repro.core.trajectory.SemanticTrajectory.to_dict>` payloads).
    An empty ``docs`` list is valid and creates the session (with
    ``space``, when given) without ingesting anything.

    Not idempotent: replaying an ingest duplicates documents.
    """

    kind = "IngestDocuments"

    session: str
    docs: List[Dict] = field(default_factory=list)
    space: Optional[str] = None


@dataclass(frozen=True)
class CountPatterns(Command):
    """Exact support counts for explicit patterns over a (queried)
    corpus.

    The combine half of distributed PrefixSpan: the coordinator mines
    per-shard candidates with a lowered local threshold, keeps the
    supports each shard mined, drops the candidates that cannot reach
    the global threshold, and sends each shard this command with only
    the surviving candidates it did not mine, so global supports are
    exact.  With ``patterns == []`` it degrades to a sequence-count
    probe (the denominator for fractional ``min_support``).  Each
    pattern must be a list of state strings.
    """

    kind = "CountPatterns"
    idempotent = True

    session: str
    query: Optional[Dict] = None
    patterns: List[List[str]] = field(default_factory=list)


@dataclass(frozen=True)
class SimilarityBlock(Command):
    """Rows ``[row_start, row_end)`` of the similarity matrix over an
    explicit sequence list.

    The partition unit of the sharded ``Similarity`` command: each
    pair's score depends only on the two sequences and the session's
    zone hierarchy, so a row block computed against the full column
    set is exactly the corresponding rows of the full matrix.
    """

    kind = "SimilarityBlock"
    idempotent = True

    session: str
    sequences: List[List[str]] = field(default_factory=list)
    row_start: int = 0
    row_end: int = 0


@dataclass(frozen=True)
class SummaryParts(Command):
    """The combinable pieces of ``Summary`` over a (queried) corpus.

    Unlike ``Summary`` itself, the reply carries the distinct
    moving-object ids, so a coordinator can union visitor sets across
    shards instead of incorrectly summing per-shard distinct counts.
    """

    kind = "SummaryParts"
    idempotent = True

    session: str
    query: Optional[Dict] = None


@dataclass(frozen=True)
class OpenStream(Command):
    """Open (or re-attach to) a live ingestion stream on a session.

    The session is created on first use, exactly like a build.  On a
    durable engine the stream gets an event journal + checkpoint
    sidecar (under the session's directory, or a shard coordinator's
    root), so acked events survive ``kill -9`` (see
    ``docs/streaming.md``).  Re-opening an existing
    stream returns its current state unchanged — the shape arguments
    of the first open win — which is what makes the command
    idempotent.

    Attributes:
        session: target session name.
        stream: stream name, unique within the session.
        gap_seconds: inactivity gap that closes an episode (default:
            the builder's 4-hour visit gap).
        checkpoint_every: fold the event journal into a state
            snapshot every N closed episodes.
        max_open_events: back-pressure bound — an append that would
            exceed this many buffered (not-yet-closed) events is
            rejected with ``overloaded``.
    """

    kind = "OpenStream"
    idempotent = True

    session: str
    stream: str
    gap_seconds: Optional[float] = None
    checkpoint_every: int = 64
    max_open_events: int = 100_000


@dataclass(frozen=True)
class AppendEvents(Command):
    """Append detection events to an open stream.

    ``events`` are wire-form detection records (``mo_id``, ``state``,
    ``t_start``, ``t_end``, optional ``visit_id``/``attributes``);
    ``watermark`` asserts that no future event starts before it,
    letting the segmenter close episodes whose inactivity gap the
    watermark has passed.  An empty ``events`` list with a watermark
    is the heartbeat that drains a quiet stream.

    The reply is the durability ack: events are journaled before it
    is sent.  Not idempotent — replaying an append re-ingests the
    events.
    """

    kind = "AppendEvents"

    session: str
    stream: str
    events: List[Dict] = field(default_factory=list)
    watermark: Optional[float] = None


@dataclass(frozen=True)
class StreamStatus(Command):
    """Poll a stream's watermark, buffers and counters."""

    kind = "StreamStatus"
    idempotent = True

    session: str
    stream: str


@dataclass(frozen=True)
class CloseStream(Command):
    """Flush a stream's open episodes into the store and retire it.

    Not idempotent: a second close answers ``unknown_stream``."""

    kind = "CloseStream"

    session: str
    stream: str


@dataclass(frozen=True)
class StoreStats(Command):
    """A session store's planner statistics (cardinalities, span).

    Every field is additive over disjoint document sets, so a
    coordinator can sum per-shard replies into the statistics of the
    logical corpus and run the query planner — hence ``Explain`` —
    without fetching a single document.
    """

    kind = "StoreStats"
    idempotent = True

    session: str


# ----------------------------------------------------------------------
# responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ErrorInfo(Response):
    """The failure reply; ``code`` is machine-matchable.

    Codes: ``bad_request``, ``protocol``, ``unknown_session``,
    ``unknown_job``, ``unknown_stream`` (stream never opened or
    already closed), ``bad_cursor``, ``unserializable``,
    ``not_found`` (unknown HTTP path), ``persistence`` (durable
    storage failure: no persist dir, unwritable disk, corrupt
    snapshot), ``deadline_exceeded`` (the command's propagated
    ``deadline_ms`` budget ran out), ``overloaded`` (a stream append
    was shed by back-pressure — retry after the watermark advances),
    ``unavailable`` (every replica of a required shard failed or the
    transport exhausted its retries), ``internal``.
    """

    kind = "Error"

    code: str
    message: str


@dataclass(frozen=True)
class JobInfo(Response):
    """A build job's state (reply to ``BuildDataset`` and
    ``JobStatus``).

    Attributes:
        job_id: registry-assigned id, stable across polls.
        session: the session the job builds into.
        state: ``pending`` / ``running`` / ``done`` / ``failed``.
        error: failure message when ``state == "failed"``.
        metrics: live :meth:`PipelineMetrics.as_dict
            <repro.pipeline.metrics.PipelineMetrics.as_dict>` snapshot
            (per-stage items in/out, drops, seconds) — progress while
            running, totals once done.
    """

    kind = "JobInfo"

    job_id: str
    session: str
    state: str
    error: Optional[str] = None
    metrics: Optional[Dict] = None

    @staticmethod
    def metrics_dict(metrics: Optional[PipelineMetrics]
                     ) -> Optional[Dict]:
        """A JSON-safe snapshot of live pipeline metrics."""
        return None if metrics is None else metrics.as_dict()


@dataclass(frozen=True)
class SessionInfo(Response):
    """One session's headline state (also nested in
    ``SessionList``)."""

    kind = "SessionInfo"

    name: str
    trajectories: int
    state: str
    space: Optional[str] = None


@dataclass(frozen=True)
class SessionList(Response):
    """Reply to ``ListSessions``."""

    kind = "SessionList"

    sessions: List[SessionInfo] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {"v": PROTOCOL_VERSION, self._tag: self.kind,
                "sessions": [s.to_dict() for s in self.sessions]}

    @classmethod
    def _from_fields(cls, data: Mapping) -> "SessionList":
        try:
            sessions = [SessionInfo._from_fields(item)
                        for item in data.get("sessions", ())]
        except (TypeError, AttributeError):
            raise ProtocolError("bad SessionList payload")
        return cls(sessions=sessions)


@dataclass(frozen=True)
class Dropped(Response):
    """Reply to ``DropSession``."""

    kind = "Dropped"

    session: str


@dataclass(frozen=True)
class SessionSaved(Response):
    """Reply to ``SaveSession``: what the checkpoint wrote.

    Attributes:
        session: the session that was saved.
        snapshot: the snapshot generation name (``snapshot-N``).
        trajectories: documents the snapshot holds.
        total_bytes: sum of the snapshot's segment sizes.
    """

    kind = "SessionSaved"

    session: str
    snapshot: str
    trajectories: int
    total_bytes: int


@dataclass(frozen=True)
class Hit(Response):
    """One query hit: a stored trajectory with its document id."""

    kind = "Hit"

    doc_id: int
    trajectory: SemanticTrajectory

    def to_dict(self) -> Dict:
        return {"v": PROTOCOL_VERSION, self._tag: self.kind,
                "doc_id": self.doc_id,
                "trajectory": self.trajectory.to_dict()}

    @classmethod
    def _from_fields(cls, data: Mapping) -> "Hit":
        try:
            return cls(doc_id=int(data["doc_id"]),
                       trajectory=SemanticTrajectory.from_dict(
                           data["trajectory"]))
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError("bad Hit payload: {}".format(error))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hit):
            return NotImplemented
        return (self.doc_id == other.doc_id
                and self.trajectory.to_dict()
                == other.trajectory.to_dict())

    def __hash__(self) -> int:
        # Consistent with __eq__ (the dataclass-generated hash would
        # diverge on equal-but-distinct trajectory instances).
        return hash((self.doc_id,
                     canonical_json(self.trajectory.to_dict())))


@dataclass(frozen=True)
class QueryPage(Response):
    """One page of query hits plus the cursor to the next.

    ``next_cursor`` is ``None`` on the last page.  ``total`` is the
    full (un-paginated) match count, reported on the cursor-less
    first page only (see ``RunQuery.include_total``).

    ``degraded`` is only present (and only serialized) when the page
    was assembled under ``allow_partial`` with shards missing:
    ``{"missing_shards": [...]}``.  A page without it is complete —
    byte-identical to the unsharded executor's answer.
    """

    kind = "QueryPage"

    hits: List[Hit] = field(default_factory=list)
    total: Optional[int] = None
    next_cursor: Optional[str] = None
    degraded: Optional[Dict] = None

    def to_dict(self) -> Dict:
        data = super().to_dict()
        data["hits"] = [h.to_dict() for h in self.hits]
        return data

    @classmethod
    def _from_fields(cls, data: Mapping) -> "QueryPage":
        try:
            hits = [Hit._from_fields(item)
                    for item in data.get("hits", ())]
        except (TypeError, AttributeError):
            raise ProtocolError("bad QueryPage payload")
        total = data.get("total")
        return cls(hits=hits,
                   total=None if total is None else int(total),
                   next_cursor=data.get("next_cursor"),
                   degraded=data.get("degraded"))


@dataclass(frozen=True)
class Explanation(Response):
    """Reply to ``Explain``: the rendered physical plan."""

    kind = "Explanation"

    plan: str


@dataclass(frozen=True)
class PatternList(Response):
    """Reply to ``MinePatterns``."""

    kind = "PatternList"

    patterns: List[SequentialPattern] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {"v": PROTOCOL_VERSION, self._tag: self.kind,
                "patterns": [p.to_dict() for p in self.patterns]}

    @classmethod
    def _from_fields(cls, data: Mapping) -> "PatternList":
        try:
            patterns = [SequentialPattern.from_dict(item)
                        for item in data.get("patterns", ())]
        except (KeyError, TypeError, AttributeError):
            raise ProtocolError("bad PatternList payload")
        return cls(patterns=patterns)


@dataclass(frozen=True)
class SimilarityMatrix(Response):
    """Reply to ``Similarity``: the symmetric pairwise matrix."""

    kind = "SimilarityMatrix"
    _matrix_field = "matrix"

    matrix: List[List[float]] = field(default_factory=list)


@dataclass(frozen=True)
class FlowList(Response):
    """Reply to ``Flow``."""

    kind = "FlowList"

    balances: List[FlowBalance] = field(default_factory=list)
    degraded: Optional[Dict] = None

    def to_dict(self) -> Dict:
        data = super().to_dict()
        data["balances"] = [b.to_dict() for b in self.balances]
        return data

    @classmethod
    def _from_fields(cls, data: Mapping) -> "FlowList":
        try:
            balances = [FlowBalance.from_dict(item)
                        for item in data.get("balances", ())]
        except (KeyError, TypeError, AttributeError):
            raise ProtocolError("bad FlowList payload")
        return cls(balances=balances, degraded=data.get("degraded"))


@dataclass(frozen=True)
class SequenceList(Response):
    """Reply to ``Sequences``."""

    kind = "SequenceList"

    sequences: List[List[str]] = field(default_factory=list)
    degraded: Optional[Dict] = None


@dataclass(frozen=True)
class SummaryStats(Response):
    """Reply to ``Summary``."""

    kind = "SummaryStats"

    stats: Dict[str, float] = field(default_factory=dict)
    degraded: Optional[Dict] = None


@dataclass(frozen=True)
class Ingested(Response):
    """Reply to ``IngestDocuments``.

    Attributes:
        session: the session ingested into.
        count: documents appended by this command.
        total: documents the store holds afterwards.
    """

    kind = "Ingested"

    session: str
    count: int
    total: int


@dataclass(frozen=True)
class PatternSupports(Response):
    """Reply to ``CountPatterns``.

    ``supports[i]`` is the exact support of ``patterns[i]`` from the
    command; ``sequences`` is the corpus sequence count (the
    fractional-support denominator).
    """

    kind = "PatternSupports"

    supports: List[int] = field(default_factory=list)
    sequences: int = 0


@dataclass(frozen=True)
class SimilarityRows(Response):
    """Reply to ``SimilarityBlock``: the requested row block."""

    kind = "SimilarityRows"
    _matrix_field = "rows"

    rows: List[List[float]] = field(default_factory=list)


@dataclass(frozen=True)
class SummaryPartsInfo(Response):
    """Reply to ``SummaryParts``: combinable summary pieces.

    ``mo_ids`` lists the distinct moving-object ids (sorted);
    durations are ``None`` when the corpus slice is empty.
    """

    kind = "SummaryPartsInfo"

    visits: int = 0
    mo_ids: List[str] = field(default_factory=list)
    detections: int = 0
    transitions: int = 0
    max_visit_duration: Optional[float] = None
    min_visit_duration: Optional[float] = None


@dataclass(frozen=True)
class StreamInfo(Response):
    """Reply to ``OpenStream`` and ``StreamStatus``.

    ``status`` is the stream's JSON-native state snapshot: watermark
    (``null`` until first advanced), ``open_buffers`` /
    ``open_events`` (live segmenter buffers), the segmenter's
    accept/drop metrics, the durability counters (``events_acked``,
    ``episodes_stored``, ``checkpoints``) and the back-pressure bound
    ``max_open_events``.
    """

    kind = "StreamInfo"

    session: str
    stream: str
    status: Dict = field(default_factory=dict)


@dataclass(frozen=True)
class EventsAppended(Response):
    """Reply to ``AppendEvents`` — the durability acknowledgement.

    Attributes:
        session / stream: where the events landed.
        appended: events accepted by this call (all-or-nothing).
        episodes_closed: episodes this batch (or its watermark)
            completed and stored.
        watermark: the stream's watermark after the append.
        open_events: events still buffered in open episodes — the
            client-visible back-pressure signal.
        seq: the journal sequence that made the batch durable (0 on
            a memory-only engine).
    """

    kind = "EventsAppended"

    session: str
    stream: str
    appended: int = 0
    episodes_closed: int = 0
    watermark: Optional[float] = None
    open_events: int = 0
    seq: int = 0


@dataclass(frozen=True)
class StreamClosed(Response):
    """Reply to ``CloseStream``.

    Attributes:
        episodes_closed: episodes the final flush completed.
        episodes_total: episodes the stream stored over its life.
        events_acked: events the stream acknowledged over its life.
    """

    kind = "StreamClosed"

    session: str
    stream: str
    episodes_closed: int = 0
    episodes_total: int = 0
    events_acked: int = 0


@dataclass(frozen=True)
class StoreStatsInfo(Response):
    """Reply to ``StoreStats``: additive planner statistics.

    ``annotations`` is a list of ``[kind, value, count]`` triples
    (enum kinds carried by value); ``time_span`` is ``[t_min,
    t_max]`` or ``None`` for an empty store.
    """

    kind = "StoreStatsInfo"

    doc_count: int = 0
    states: Dict[str, int] = field(default_factory=dict)
    annotations: List[List] = field(default_factory=list)
    mos: Dict[str, int] = field(default_factory=dict)
    time_span: Optional[List[float]] = None
