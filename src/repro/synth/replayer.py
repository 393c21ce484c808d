"""Replaying synthesized crowds against the service at target rates.

:class:`TrafficReplayer` takes any event-time-ordered detection
stream (usually :meth:`CrowdSynthesizer.iter_events
<repro.synth.crowd.CrowdSynthesizer.iter_events>`) and drives a
service endpoint — the asyncio front-end over a session registry or
a sharded coordinator — in three modes:

* **batch** — a local :class:`~repro.stream.WatermarkSegmenter` turns
  the stream into closed episodes exactly as the server's stream path
  would, and ships them as ``IngestDocuments`` requests.  Batch and
  stream replays of the same crowd therefore land *byte-identical
  store content*, which the CI ``synth-smoke`` job asserts;
* **stream** — chunked ``AppendEvents`` with honest watermarks
  (each chunk's watermark is the next chunk's first ``t_start``),
  closed with ``CloseStream``;
* **queries** — a read mix (summary / filtered query / flow) for
  driving a *loaded* corpus.

Pacing is open-loop via :class:`~repro.synth.pacing.ArrivalSchedule`:
``rate`` is events/s for the ingest modes (requests fire every
``chunk`` events) and requests/s for the query mode; latency runs
from each request's *intended* time, so a saturated server inflates
the tail instead of thinning the load.  503/504 answers are counted
as ``shed`` — ingest chunks are retried (content must not be lost),
query requests are not (a shed read is the server's verdict).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from repro.core.builder import DetectionRecord, TrajectoryBuilder
from repro.service import protocol as P
from repro.service.client import ServiceClient
from repro.stream.segmenter import WatermarkSegmenter, event_to_dict
from repro.synth.pacing import ArrivalSchedule
from repro.synth.venues import SyntheticVenue

#: Events (or episodes) per request, matching the stream bench.
DEFAULT_CHUNK = 256

#: Retries of one shed (503) ingest chunk before giving up.
SHED_RETRIES = 50


def _percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1,
                max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[index]


@dataclass
class ReplayReport:
    """What one replay run did and how the server behaved.

    ``server`` carries the delivery verification: the final store
    total for batch mode, the close ack for stream mode, and the
    session's ``/v1/health`` ingest/stream counters when the caller
    ran :meth:`TrafficReplayer.verify_delivery`.
    """

    mode: str
    session: str
    requests: int = 0
    ok: int = 0
    shed: int = 0
    errors: int = 0
    events: int = 0
    episodes: int = 0
    seconds: float = 0.0
    behind: int = 0
    rate: Optional[float] = None
    latencies_ms: Dict[str, float] = field(default_factory=dict)
    provenance: Dict[str, object] = field(default_factory=dict)
    server: Dict[str, object] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        """Requests that neither succeeded nor were shed."""
        return self.errors

    def finish(self, started: float,
               latencies: List[float]) -> "ReplayReport":
        self.seconds = time.perf_counter() - started
        if latencies:
            self.latencies_ms = {
                "p50": _percentile(latencies, 0.50) * 1000.0,
                "p95": _percentile(latencies, 0.95) * 1000.0,
                "p99": _percentile(latencies, 0.99) * 1000.0,
                "max": max(latencies) * 1000.0,
            }
        return self

    def as_dict(self) -> Dict[str, object]:
        """JSON-native form for CLI output and BENCH payloads."""
        seconds = self.seconds or 1e-9
        return {
            "mode": self.mode,
            "session": self.session,
            "requests": self.requests,
            "ok": self.ok,
            "shed": self.shed,
            "errors": self.errors,
            "events": self.events,
            "episodes": self.episodes,
            "seconds": self.seconds,
            "behind_schedule": self.behind,
            "target_rate": self.rate,
            "events_per_s": self.events / seconds,
            "requests_per_s": self.requests / seconds,
            "latency_ms": dict(self.latencies_ms),
            "provenance": dict(self.provenance),
            "server": dict(self.server),
        }


class TrafficReplayer:
    """Open-loop load driver for one session on one endpoint.

    Args:
        client: the service client (any transport).
        session: target session name.
        venue: the venue the crowd was synthesized over — supplies
            the local segmenter's NRG (batch mode) and the space
            token the server needs for its own segmenter (both
            modes), keeping batch and stream store content identical.
        rate: events/s (ingest modes) or requests/s (query mode);
            ``None`` replays as fast as the server allows.
        chunk: events per request.
    """

    def __init__(self, client: ServiceClient, session: str,
                 venue: SyntheticVenue,
                 rate: Optional[float] = None,
                 chunk: int = DEFAULT_CHUNK) -> None:
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        self.client = client
        self.session = session
        self.venue = venue
        self.rate = rate
        self.chunk = chunk

    # ------------------------------------------------------------------
    # modes
    # ------------------------------------------------------------------
    def replay_batch(self, events: Iterable[DetectionRecord],
                     gap_seconds: Optional[float] = None
                     ) -> ReplayReport:
        """Segment locally, ship closed episodes as batch ingests."""
        report = ReplayReport(mode="batch", session=self.session,
                              rate=self.rate)
        segmenter = WatermarkSegmenter(
            TrajectoryBuilder(self.venue.dataset_zone_nrg()),
            **({} if gap_seconds is None
               else {"gap_seconds": gap_seconds}))
        schedule = self._chunk_schedule()
        latencies: List[float] = []
        pending: List[Dict] = []
        started = time.perf_counter()
        index = 0
        for chunk, watermark in self._chunks(events):
            intended = schedule.wait(index)
            index += 1
            report.events += len(chunk)
            closed = []
            for record in chunk:
                closed.extend(segmenter.feed(record))
            if watermark is not None:
                closed.extend(segmenter.advance(watermark))
            pending.extend(episode.to_dict() for episode in closed)
            if pending:
                self._ingest(pending, report, intended, latencies)
                pending = []
        closed = segmenter.close()
        pending.extend(episode.to_dict() for episode in closed)
        if pending:
            self._ingest(pending, report,
                         schedule.wait(index), latencies)
        report.behind = schedule.behind
        return report.finish(started, latencies)

    def replay_stream(self, events: Iterable[DetectionRecord],
                      stream: str = "replay",
                      gap_seconds: Optional[float] = None
                      ) -> ReplayReport:
        """Chunked ``AppendEvents`` with honest watermarks."""
        report = ReplayReport(mode="stream", session=self.session,
                              rate=self.rate)
        # The server derives its segmenter from the session's space:
        # create the session with the venue token before streaming.
        self.client.ingest_documents(
            self.session, [], space=self.venue.persist_token)
        self.client.open_stream(
            self.session, stream,
            **({} if gap_seconds is None
               else {"gap_seconds": gap_seconds}))
        schedule = self._chunk_schedule()
        latencies: List[float] = []
        started = time.perf_counter()
        index = 0
        for chunk, watermark in self._chunks(events):
            intended = schedule.wait(index)
            index += 1
            payload = [event_to_dict(record) for record in chunk]
            ack = self._append(stream, payload, watermark, report)
            latencies.append(time.perf_counter() - intended)
            report.events += ack.appended
            report.episodes += ack.episodes_closed
        closed = self.client.close_stream(self.session, stream)
        report.requests += 1
        report.ok += 1
        report.episodes += closed.episodes_closed
        report.behind = schedule.behind
        report.server = {
            "events_acked": closed.events_acked,
            "episodes_total": closed.episodes_total,
        }
        return report.finish(started, latencies)

    def replay_queries(self, count: int,
                       queries: Optional[List[P.Command]] = None
                       ) -> ReplayReport:
        """A paced read mix against the (loaded) session."""
        report = ReplayReport(mode="queries", session=self.session,
                              rate=self.rate)
        mix = queries or [
            P.Summary(session=self.session),
            P.RunQuery(session=self.session,
                       query={"expr": {"op": "annotation",
                                       "kind": "goal",
                                       "value": "visit"}},
                       limit=20, include_total=False),
            P.Flow(session=self.session),
        ]
        schedule = ArrivalSchedule(self.rate)
        latencies: List[float] = []
        started = time.perf_counter()
        for index in range(count):
            intended = schedule.wait(index)
            command = mix[index % len(mix)]
            report.requests += 1
            try:
                self.client.call(command)
                report.ok += 1
            except P.ServiceError as error:
                if getattr(error, "http_status", None) in (503, 504):
                    report.shed += 1
                else:
                    report.errors += 1
            latencies.append(time.perf_counter() - intended)
        report.behind = schedule.behind
        return report.finish(started, latencies)

    # ------------------------------------------------------------------
    # delivery verification
    # ------------------------------------------------------------------
    def verify_delivery(self, report: ReplayReport) -> ReplayReport:
        """Attach the server's health view of this session.

        Batch mode: the session's ingest-accepted counter must cover
        every shipped episode.  Stream mode: the stream section's
        acked events must cover every sent event.  Discrepancies are
        recorded in ``report.server["delivery_ok"]`` rather than
        raised — the caller (bench / CI gate) decides severity.
        """
        health = self.client.health()
        entry = next((item for item in health.get("sessions", [])
                      if item.get("name") == self.session), None)
        server: Dict[str, object] = dict(report.server)
        if entry is not None:
            server["trajectories"] = entry.get("trajectories")
            server["ingest"] = entry.get("ingest")
        if "streams" in health:
            server["streams"] = health["streams"]
        if report.mode == "batch":
            accepted = (entry or {}).get("ingest", {}).get("accepted")
            server["delivery_ok"] = (accepted is not None
                                     and accepted >= report.episodes)
        elif report.mode == "stream":
            acked = server.get("events_acked")
            server["delivery_ok"] = (acked == report.events)
        report.server = server
        return report

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _chunk_schedule(self) -> ArrivalSchedule:
        """One schedule slot per event chunk."""
        if self.rate is None:
            return ArrivalSchedule(None)
        return ArrivalSchedule(self.rate / self.chunk)

    def _chunks(self, events: Iterable[DetectionRecord]
                ) -> Iterator[tuple]:
        """``(chunk, watermark)`` pairs; the watermark is the next
        chunk's first ``t_start`` (honest: nothing earlier can ever
        arrive from an event-time-ordered stream), ``None`` on the
        final chunk."""
        iterator = iter(events)
        chunk: List[DetectionRecord] = []
        held: Optional[DetectionRecord] = None
        while True:
            if held is not None:
                chunk.append(held)
                held = None
            for record in iterator:
                if len(chunk) < self.chunk:
                    chunk.append(record)
                else:
                    held = record
                    break
            if not chunk:
                return
            yield chunk, (held.t_start if held is not None else None)
            if held is None:
                return
            chunk = []

    def _ingest(self, docs: List[Dict], report: ReplayReport,
                intended: float, latencies: List[float]) -> None:
        """One IngestDocuments request; retries shed answers."""
        for _ in range(SHED_RETRIES + 1):
            report.requests += 1
            try:
                ack = self.client.ingest_documents(
                    self.session, docs,
                    space=self.venue.persist_token)
            except P.ServiceError as error:
                if getattr(error, "http_status",
                           None) in (503, 504):
                    report.shed += 1
                    time.sleep(0.05)
                    continue
                report.errors += 1
                raise
            report.ok += 1
            report.episodes += ack.count
            latencies.append(time.perf_counter() - intended)
            report.server = {"total": ack.total}
            return
        report.errors += 1
        raise P.ServiceError(
            "overloaded", "ingest chunk shed {} times".format(
                SHED_RETRIES))

    def _append(self, stream: str, payload: List[Dict],
                watermark: Optional[float],
                report: ReplayReport) -> P.EventsAppended:
        """One AppendEvents request; retries shed answers."""
        for _ in range(SHED_RETRIES + 1):
            report.requests += 1
            try:
                ack = self.client.append_events(
                    self.session, stream, payload,
                    watermark=watermark)
            except P.ServiceError as error:
                if getattr(error, "http_status",
                           None) in (503, 504):
                    report.shed += 1
                    time.sleep(0.05)
                    continue
                report.errors += 1
                raise
            report.ok += 1
            return ack
        report.errors += 1
        raise P.ServiceError(
            "overloaded", "append chunk shed {} times".format(
                SHED_RETRIES))
