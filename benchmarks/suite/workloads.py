"""The five workloads: what each prepares, sends and checks.

Every workload has three steps, driven by ``run.py``:

* ``prepare`` — untimed: build the corpus the server will restore
  (and, for read workloads, the in-process oracle that checks its
  replies), written as durable session directories under
  ``ctx.state``;
* ``drive`` — the measured load against a running server;
* ``verify`` — after the server stopped: sampled replies against the
  oracle, or the durable store content against a batch build.

Corpus and venue seeds are fixed; ``--seed`` only draws the requests
and the ingested crowd, so two seeds load the same corpora with
request sequences of the same shape.  The mining closed loops run
for ``--seconds``; the other phases send a fixed amount of work sized
from ``--seconds`` (a rate times the seconds), so the memory they
leave behind does not depend on how fast the server was.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from driver import (
    Operation,
    closed_loop,
    combined,
    interleaved,
    open_loop,
    percentile,
    single,
)

from repro.service import protocol as P
from repro.service.client import ServiceClient
from repro.service.executor import LocalBinding
from repro.stream.segmenter import event_to_dict

LOUVRE = "louvre"
VENUE_SEED = 7
#: Crowd seed of the airport session restored at set-up.
PRELOAD_SEED = 42
#: Fixed seed of the read pools' Zipf rank order.
POOL_SEED = 20170119
DAY = 86400.0
#: Every n-th reply is checked against the oracle (every one in smoke).
SAMPLE_EVERY = 50


@dataclass
class Context:
    """One run's settings and the state its server restores."""

    seed: int
    seconds: float
    smoke: bool
    #: Durable state the server restores (``--persist-dir``).
    state: str
    #: Whatever ``prepare`` keeps for ``drive``/``verify``.
    held: Dict[str, object] = field(default_factory=dict)

    def size(self, rate: float, smoke: int) -> int:
        """Items for a fixed-size phase at ``rate`` items/s."""
        return smoke if self.smoke else int(rate * self.seconds)

    def bounded(self, items: Iterator, smoke: int) -> Iterable:
        """``items`` for a timed phase; the first ``smoke`` in smoke
        mode, which runs until they are done."""
        return itertools.islice(items, smoke) if self.smoke else items

    @property
    def phase_seconds(self) -> float:
        return None if self.smoke else self.seconds

    @property
    def sample_every(self) -> int:
        return 1 if self.smoke else SAMPLE_EVERY

    def rng(self, stream: str) -> random.Random:
        """An independent, seeded random stream per purpose, so the
        draws of one phase do not depend on how far another got."""
        return random.Random("{}-{}".format(stream, self.seed))


@dataclass
class Outcome:
    """What one measured drive produced.

    ``ops_per_s`` and ``latencies`` (seconds) give the gated
    throughput and median; ``rate_window`` is the interval the
    throughput was measured over, ``latency_ends`` the completion time
    of each latency, and ``window`` the whole measured interval, all
    on the system-wide monotonic clock, which the server and the speed
    monitor share.
    """

    ops_per_s: float
    latencies: List[float]
    latency_ends: List[float]
    attempted: int
    failed: int
    window: Tuple[float, float]
    rate_window: Tuple[float, float]
    late_share: float = 0.0
    #: Client latencies of every measured request, for the time the
    #: server does not see (``aserver.outside_ms``).
    client_latencies: List[float] = field(default_factory=list)
    #: Canonical JSON bytes of what the client asked to store.
    user_bytes: int = 0
    samples: List[Tuple[bytes, int, bytes]] = field(default_factory=list)
    #: Further numbers printed in the report (name → value, unit).
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)


class Workload:
    """Base of the five workloads."""

    name = ""
    #: In-process shards behind the coordinator (0: plain registry).
    shards = 0

    def prepare(self, ctx: Context) -> None:
        raise NotImplementedError

    def drive(self, ctx: Context, port: int) -> Outcome:
        raise NotImplementedError

    def verify(self, ctx: Context, outcome: Outcome) -> List[str]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def louvre_oracle(ctx: Context, save: bool = True) -> LocalBinding:
    """Build the full-scale Louvre corpus in process (the oracle);
    with ``save``, also as the durable session the server restores."""
    from repro.persist.session import DurableSession
    from repro.service.registry import SessionRegistry

    registry = SessionRegistry()
    job = registry.build(LOUVRE, scale=1.0, wait=True)
    if job.error:
        raise RuntimeError("corpus build failed: " + job.error)
    if save:
        durable = DurableSession(os.path.join(ctx.state, LOUVRE),
                                 fsync=False)
        durable.checkpoint(registry.get(LOUVRE).workbench.store,
                           space="LouvreSpace")
        durable.close()
    return LocalBinding(registry)


def closed_outcome(result) -> Outcome:
    """The outcome of a workload that is one closed loop."""
    window = (result.started, result.ended)
    return Outcome(
        ops_per_s=result.ok / result.seconds,
        latencies=result.latencies, latency_ends=result.ends,
        attempted=result.sent, failed=result.failed, window=window,
        rate_window=window, client_latencies=result.latencies,
        samples=result.samples)


def check_samples(oracle: LocalBinding,
                  samples: Sequence[Tuple[bytes, int, bytes]]
                  ) -> List[str]:
    """Sampled replies must be byte-identical to the oracle's."""
    problems = []
    for body, status, reply in samples:
        if status != 200 or reply != oracle.call_json(body):
            problems.append("reply differs from the oracle for {} "
                            "(status {})".format(body[:160], status))
    return problems


def zipf_sequence(pool: Sequence[bytes], count: int,
                  rng: random.Random) -> List[bytes]:
    """``count`` requests over ``pool`` in Zipf(s=1.0) shares: rank
    ``r`` (from 0) is weighted ``1/(r+1)``.

    Each key appears its share of ``count`` times, rounded (largest
    remainders first, ties broken by ``rng``), in an order ``rng``
    shuffles.  Independent draws would let the number of requests for
    the few costly keys — and so a run's throughput — vary from seed
    to seed; fixed shares leave the seed only the order.
    """
    weights = [1.0 / (rank + 1) for rank in range(len(pool))]
    total = sum(weights)
    shares = [count * weight / total for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(pool)), key=lambda rank: (
        counts[rank] - shares[rank], rng.random()))
    for rank in by_remainder[:count - sum(counts)]:
        counts[rank] += 1
    sequence = [body for body, times in zip(pool, counts)
                for _ in range(times)]
    rng.shuffle(sequence)
    return sequence


def spread_points(rng: random.Random) -> Iterator[float]:
    """Endless points in [0, 1) that cover it evenly from a random
    offset (a golden-ratio sequence): every seed draws distinct values
    with nearly the same spread, so the cost of a run's command mix
    hardly depends on the seed."""
    point = rng.random()
    while True:
        yield point
        point = (point + 0.6180339887498949) % 1.0


def window(start: float, days: float) -> Dict:
    return {"op": "window", "start": start, "end": start + days * DAY}


def both(*children: Dict) -> Dict:
    return {"op": "and", "children": list(children)}


def canonical_docs(docs: Iterable[Dict]) -> List[bytes]:
    """Sorted canonical bytes of documents (order-free identity)."""
    return sorted(P.canonical_json(doc) for doc in docs)


def stored_docs(state: str, session: str) -> List[bytes]:
    """Canonical documents of a durable session, reopened from disk
    (snapshot plus log replay)."""
    from repro.persist.session import open_workbench

    workbench = open_workbench(os.path.join(state, session),
                               fsync=False)
    try:
        return canonical_docs(doc.to_dict() for doc in workbench.store)
    finally:
        workbench.store.detach_wal().close()


class _Capture:
    """Stands in for the service client: keeps the ``IngestDocuments``
    batches a replay would send instead of sending them."""

    def __init__(self) -> None:
        self.batches: List[List[Dict]] = []

    def ingest_documents(self, session: str, docs: List[Dict],
                         space=None) -> P.Ingested:
        self.batches.append(list(docs))
        return P.Ingested(session=session, count=len(docs),
                          total=sum(map(len, self.batches)))


def batch_replay(venue, events) -> List[List[Dict]]:
    """The document batches ``TrafficReplayer.replay_batch`` makes of
    ``events``: segmented locally, 256 events per chunk, each chunk's
    watermark the next chunk's first start — exactly as the server's
    stream path segments them."""
    from repro.synth import TrafficReplayer

    capture = _Capture()
    TrafficReplayer(capture, "batch", venue).replay_batch(events)
    return capture.batches


def first_events(venue, seed: int, count: int, epoch=None) -> list:
    """The first ``count`` detections of a synthetic crowd."""
    from repro.synth import CrowdSpec, CrowdSynthesizer

    spec = CrowdSpec(agents=count // 3 + 10, seed=seed,
                     agents_per_day=2500,
                     **({} if epoch is None else {"epoch": epoch}))
    return list(itertools.islice(
        CrowdSynthesizer(venue, spec).iter_events(), count))


class TimedClient(ServiceClient):
    """A service client that records each call's latency and
    completion time."""

    def __init__(self, url: str) -> None:
        super().__init__(url)
        self.latencies: List[float] = []
        self.ends: List[float] = []

    def call(self, command: P.Command) -> P.Response:
        started = time.perf_counter()
        try:
            return super().call(command)
        finally:
            ended = time.perf_counter()
            self.latencies.append(ended - started)
            self.ends.append(ended)


# ----------------------------------------------------------------------
# louvre_reads
# ----------------------------------------------------------------------
class LouvreReads(Workload):
    """Zipf(s=1.0) reads over 4,096 distinct Louvre queries.

    An untimed warm-up fills the response cache; a closed loop on two
    connections gives the throughput and the median latency; a
    pipelined open loop at 1,000 requests/s, timed from intended send
    times, gives the open-loop latency, printed but not gated: on the
    shared machine its median spread 25-94% over ten runs in slow
    stretches, where stalls of the machine delay sends and replies
    alike and the queue at this rate amplifies them.
    """

    name = "louvre_reads"
    POOL = 4096
    #: Distinct (zone, day) pages ordered by duration; 2,048 visitor
    #: pages fill the rest of the pool.
    ZONE_DAYS = 1958
    WARMUP = 2000
    #: Closed-loop requests per nominal second of the run.
    CLOSED_REQUESTS = 1000.0
    OPEN_RATE = 1000.0

    def prepare(self, ctx: Context) -> None:
        oracle = louvre_oracle(ctx)
        ctx.held["oracle"] = oracle
        ctx.held["pool"] = self._pool(
            oracle.registry.get(LOUVRE).workbench.store)

    def _pool(self, store) -> List[bytes]:
        """The distinct reads, in their (fixed) Zipf rank order: pages,
        summaries and flows of each zone, one-day pages of a zone
        ordered by duration, and visitor pages."""
        rng = random.Random(POOL_SEED)
        states = sorted(store.state_cardinalities())
        first, last = store.time_span()
        days = int((last - first) // DAY)
        zone_days = set()
        while len(zone_days) < self.ZONE_DAYS:
            zone_days.add((rng.choice(states), rng.randrange(days)))
        commands: List[P.Command] = []
        for state in states:
            query = {"expr": {"op": "state", "state": state}}
            commands += [P.RunQuery(session=LOUVRE, limit=20, query=query),
                         P.Summary(session=LOUVRE, query=query),
                         P.Flow(session=LOUVRE, query=query)]
        commands += [P.RunQuery(
            session=LOUVRE, limit=20, order_by="duration",
            descending=True, include_total=False,
            query={"expr": both({"op": "state", "state": state},
                                window(first + day * DAY, 1))})
            for state, day in sorted(zone_days)]
        visitors = rng.sample(sorted(store.mo_cardinalities()),
                              self.POOL - len(commands))
        commands += [P.RunQuery(
            session=LOUVRE, query={"expr": {"op": "mo", "mo_id": mo_id}},
            limit=20, include_total=False) for mo_id in visitors]
        bodies = [command.to_json() for command in commands]
        rng.shuffle(bodies)
        return bodies

    def drive(self, ctx: Context, port: int) -> Outcome:
        def reads(stream: str, count: int) -> List[bytes]:
            return zipf_sequence(ctx.held["pool"], count, ctx.rng(stream))

        closed_loop(port, map(single, reads(
            "warm", 200 if ctx.smoke else self.WARMUP)), connections=2)
        closed = closed_loop(
            port, map(single, reads("closed", ctx.size(
                self.CLOSED_REQUESTS, 300))),
            connections=2, sample_every=ctx.sample_every)
        warmup = 0.05 if ctx.smoke else ctx.seconds / 20
        bodies = reads("open", ctx.size(self.OPEN_RATE / 2, 300)
                       + int(warmup * self.OPEN_RATE))
        opened = combined(open_loop(
            port, interleaved(bodies, self.OPEN_RATE, 2), warmup=warmup,
            sample_every=ctx.sample_every))
        return Outcome(
            ops_per_s=closed.ok / closed.seconds,
            latencies=closed.latencies, latency_ends=closed.ends,
            attempted=closed.sent + opened.sent,
            failed=closed.failed + opened.failed,
            window=(closed.started, opened.ended),
            rate_window=(closed.started, closed.ended),
            late_share=opened.late_share,
            client_latencies=closed.latencies + opened.latencies,
            samples=closed.samples + opened.samples,
            extra={"open_p50_ms": (percentile(
                       opened.latencies, 0.5) * 1000.0, "ms"),
                   "open_p99_ms": (percentile(
                       opened.latencies, 0.99) * 1000.0, "ms"),
                   "open_count": (len(opened.latencies), "count")})

    def verify(self, ctx: Context, outcome: Outcome) -> List[str]:
        return check_samples(ctx.held["oracle"], outcome.samples)


# ----------------------------------------------------------------------
# analytics
# ----------------------------------------------------------------------
class Analytics(Workload):
    """All-distinct mining commands in a closed loop on one
    connection."""

    name = "analytics"
    #: (kind, window length in days; 0 = whole corpus) — one cycle of
    #: the command mix.  The seed draws window starts and supports, so
    #: no command repeats and the response cache never hits.
    MIX = [("MinePatterns", 0), ("Similarity", 1), ("Sequences", 7),
           ("Flow", 3), ("MinePatterns", 7), ("Similarity", 2),
           ("Sequences", 14), ("Flow", 14), ("MinePatterns", 1),
           ("Similarity", 3), ("Sequences", 1), ("Flow", 7),
           ("MinePatterns", 14), ("Similarity", 1), ("Sequences", 3),
           ("Flow", 1), ("MinePatterns", 3), ("Similarity", 2),
           ("Sequences", 7), ("Flow", 14)]

    def prepare(self, ctx: Context) -> None:
        oracle = louvre_oracle(ctx)
        ctx.held["oracle"] = oracle
        ctx.held["span"] = \
            oracle.registry.get(LOUVRE).workbench.store.time_span()

    def commands(self, ctx: Context, stream: str) -> Iterator[bytes]:
        first, last = ctx.held["span"]
        rng = ctx.rng(stream)
        starts, supports = spread_points(rng), spread_points(rng)
        for kind, days in itertools.cycle(self.MIX):
            query = None
            if days:
                query = {"expr": window(
                    first + next(starts) * (last - first - days * DAY),
                    days)}
            if kind == "MinePatterns":
                command: P.Command = P.MinePatterns(
                    session=LOUVRE, query=query,
                    min_support=0.02 + 0.08 * next(supports))
            else:
                command = P.COMMANDS[kind](session=LOUVRE, query=query)
            yield command.to_json()

    def drive(self, ctx: Context, port: int) -> Outcome:
        closed_loop(port, map(single, itertools.islice(
            self.commands(ctx, "warm"), len(self.MIX))))
        return closed_outcome(closed_loop(
            port, map(single, ctx.bounded(self.commands(ctx, "run"),
                                          len(self.MIX))),
            sample_every=ctx.sample_every, seconds=ctx.phase_seconds))

    def verify(self, ctx: Context, outcome: Outcome) -> List[str]:
        return check_samples(ctx.held["oracle"], outcome.samples)


# ----------------------------------------------------------------------
# live_ingest
# ----------------------------------------------------------------------
class LiveIngest(Workload):
    """A synthetic museum crowd streamed unpaced, 256 events per
    ``AppendEvents``, into a durable fsync-on server."""

    name = "live_ingest"
    #: Events sent per nominal second (about 80% of the baseline's rate).
    RATE = 4000.0
    CHUNK = 256
    SESSION = "museum"

    def prepare(self, ctx: Context) -> None:
        from repro.synth import VenueSpec, generate_venue

        venue = generate_venue(VenueSpec(archetype="museum",
                                         seed=VENUE_SEED))
        ctx.held["venue"] = venue
        ctx.held["events"] = first_events(
            venue, ctx.seed, ctx.size(self.RATE, 2 * self.CHUNK))

    def drive(self, ctx: Context, port: int) -> Outcome:
        from repro.synth import TrafficReplayer

        events = ctx.held["events"]
        client = TimedClient("http://127.0.0.1:{}".format(port))
        replayer = TrafficReplayer(client, self.SESSION,
                                   ctx.held["venue"], chunk=self.CHUNK)
        try:
            report = replayer.replay_stream(events)
            replayer.verify_delivery(report)
        finally:
            client.close()
        ctx.held["report"] = report
        # Past the session and stream opens; the close is the last.
        started, ended = client.ends[1], client.ends[-1]
        latencies, ends = client.latencies[2:], client.ends[2:]
        return Outcome(
            ops_per_s=report.events / (ended - started),
            latencies=latencies, latency_ends=ends,
            attempted=report.requests,
            failed=report.errors + report.shed,
            window=(started, ended), rate_window=(started, ended),
            client_latencies=latencies,
            user_bytes=sum(len(P.canonical_json(event_to_dict(record)))
                           for record in events))

    def verify(self, ctx: Context, outcome: Outcome) -> List[str]:
        report = ctx.held["report"]
        problems = []
        if not report.server.get("delivery_ok"):
            problems.append("stream delivery not confirmed: {}".format(
                report.server))
        expected = canonical_docs(itertools.chain.from_iterable(
            batch_replay(ctx.held["venue"], ctx.held["events"])))
        if stored_docs(ctx.state, self.SESSION) != expected:
            problems.append("durable store differs from a batch build")
        return problems


# ----------------------------------------------------------------------
# ingest_with_reads
# ----------------------------------------------------------------------
class IngestWithReads(Workload):
    """Batch ingest into a restored airport session beside a paced read
    mix, both sent from one thread.

    ``TrafficReplayer.replay_batch`` decides, untimed, the exact
    ``IngestDocuments`` batches (local segmentation, 256-event chunks,
    honest watermarks); segmenting and encoding inside the timed loop,
    on a second thread, made one read send in nine late by more than
    1 ms.  The open loop sends reads at 300 requests/s throughout, and
    the batches in two phases:

    * paced: the first third of the batches over S/2 seconds, about a
      third of the server's ingest rate — the median read latency;
    * closed: the rest, one batch in flight — the documents ingested
      per second.  A paced rate would only repeat the pace.
    """

    name = "ingest_with_reads"
    #: Crowd events per nominal second of the run.
    INGEST_EVENTS = 6000.0
    READ_RATE = 300.0
    PRELOAD_AGENTS = 10000
    SESSION = "airport"

    def prepare(self, ctx: Context) -> None:
        from repro.core.trajectory import SemanticTrajectory
        from repro.service.registry import SessionRegistry
        from repro.synth import CrowdSpec, CrowdSynthesizer, VenueSpec
        from repro.synth import generate_venue

        venue = generate_venue(VenueSpec(archetype="airport",
                                         seed=VENUE_SEED))
        preload_spec = CrowdSpec(
            agents=200 if ctx.smoke else self.PRELOAD_AGENTS,
            seed=PRELOAD_SEED, agents_per_day=2500)
        preload = list(itertools.chain.from_iterable(batch_replay(
            venue, CrowdSynthesizer(venue, preload_spec).iter_events())))
        registry = SessionRegistry(persist_dir=ctx.state, fsync=False)
        session = registry.create(self.SESSION, space=venue)
        session.workbench.store.extend(
            SemanticTrajectory.from_dict(doc) for doc in preload)
        registry.save(self.SESSION)
        session.workbench.store.detach_wal()
        session.durable.close()

        # The ingested crowd lives on the days after the preload.
        events = first_events(
            venue, ctx.seed, ctx.size(self.INGEST_EVENTS, 3000),
            epoch=preload_spec.epoch + preload_spec.days * DAY)
        batches = batch_replay(venue, events)
        ctx.held.update(
            venue=venue, preload=preload, batches=batches,
            ingests=[P.IngestDocuments(
                session=self.SESSION, docs=batch,
                space=venue.persist_token).to_json()
                for batch in batches],
            reads=self._reads(venue))

    def _reads(self, venue) -> List[bytes]:
        """The read pool, in Zipf rank order: pages of the venue's
        cells and of visitors' trajectories.  No time windows: an
        ingest drops the store's interval index, and a windowed read
        after it rebuilds the index over the whole corpus (~0.4 s at
        this size), far slower than the reads measured here."""
        commands = [P.RunQuery(
            session=self.SESSION,
            query={"expr": {"op": "state", "state": cell}},
            limit=20, include_total=False)
            for cell in sorted(venue.nrg.nodes)]
        commands += [P.RunQuery(
            session=self.SESSION,
            query={"expr": {"op": "mo",
                            "mo_id": "agent{:07d}".format(index)}},
            limit=20, include_total=False) for index in range(400)]
        bodies = [command.to_json() for command in commands]
        random.Random(POOL_SEED).shuffle(bodies)
        return bodies

    def drive(self, ctx: Context, port: int) -> Outcome:
        from repro.synth import ReplayReport, TrafficReplayer

        batches, ingests = ctx.held["batches"], ctx.held["ingests"]
        paced = len(ingests) // 3
        seconds = 0.5 if ctx.smoke else ctx.seconds / 2
        warmup = 0.0 if ctx.smoke else ctx.seconds / 20
        # The closed phase gets reads for twice the paced phase's
        # length; should the ingest run slower, it finishes alone.
        reads = zipf_sequence(
            ctx.held["reads"], int(3 * self.READ_RATE * seconds),
            ctx.rng("reads"))
        split = int(self.READ_RATE * seconds)
        read, acked = open_loop(
            port, [(reads[:split], self.READ_RATE, 0.0),
                   (ingests[:paced], paced / seconds, 0.0)],
            warmup=warmup, sample_every=ctx.sample_every)
        closed_reads, written = open_loop(
            port, [(reads[split:], self.READ_RATE, 0.0),
                   (ingests[paced:], None, 0.0)],
            sample_every=ctx.sample_every)
        client = ServiceClient("http://127.0.0.1:{}".format(port))
        try:
            ctx.held["report"] = TrafficReplayer(
                client, self.SESSION, ctx.held["venue"]).verify_delivery(
                    ReplayReport(mode="batch", session=self.SESSION,
                                 episodes=sum(map(len, batches))))
        finally:
            client.close()
        loads = (read, acked, closed_reads, written)
        return Outcome(
            ops_per_s=sum(map(len, batches[paced:])) / written.seconds,
            latencies=read.latencies, latency_ends=read.ends,
            attempted=sum(load.sent for load in loads),
            failed=sum(load.failed for load in loads),
            window=(read.started, written.ended),
            rate_window=(written.started, written.ended),
            late_share=combined([read, closed_reads]).late_share,
            client_latencies=[latency for load in loads
                              for latency in load.latencies],
            user_bytes=sum(len(P.canonical_json(doc))
                           for batch in batches for doc in batch),
            samples=read.samples + closed_reads.samples,
            extra={"ingest_ack_p50_ms": (
                       percentile(acked.latencies, 0.5) * 1000.0, "ms"),
                   "ingest_ack_p99_ms": (
                       percentile(acked.latencies, 0.99) * 1000.0, "ms"),
                   "ingest_ack_count": (len(acked.latencies), "count"),
                   "closed_read_p50_ms": (percentile(
                       closed_reads.latencies, 0.5) * 1000.0, "ms")})

    def verify(self, ctx: Context, outcome: Outcome) -> List[str]:
        problems = []
        report = ctx.held["report"]
        if not report.server.get("delivery_ok"):
            problems.append("batch delivery not confirmed: {}".format(
                report.server))
        for body, status, reply in outcome.samples:
            if status != 200 or json.loads(reply).get("response") \
                    != "QueryPage":
                problems.append("read failed: {} → {}".format(
                    body[:160], reply[:160]))
        expected = canonical_docs(itertools.chain(
            ctx.held["preload"], *ctx.held["batches"]))
        if stored_docs(ctx.state, self.SESSION) != expected:
            problems.append("durable store differs from a batch build")
        return problems


# ----------------------------------------------------------------------
# sharded_reads
# ----------------------------------------------------------------------
class ShardedReads(Workload):
    """All-distinct reads over the Louvre corpus split across two
    in-process shards, closed loop on two connections."""

    name = "sharded_reads"
    shards = 2
    MIX = [("walk", 1), ("Summary", 7), ("walk", 3), ("Flow", 3),
           ("walk", 7), ("MinePatterns", 7), ("walk", 2),
           ("Summary", 2), ("walk", 1), ("Flow", 14),
           ("MinePatterns", 2)]
    ORDERS = ("duration", "t_start", "entries", "mo_id")

    def prepare(self, ctx: Context) -> None:
        from repro.shard.coordinator import ShardCoordinator

        oracle = louvre_oracle(ctx, save=False)
        store = oracle.registry.get(LOUVRE).workbench.store
        coordinator = ShardCoordinator.local(self.shards,
                                             persist_dir=ctx.state,
                                             fsync=False)
        try:
            for command in (P.IngestDocuments(
                    session=LOUVRE, docs=[doc.to_dict() for doc in store],
                    space="LouvreSpace"), P.SaveSession(session=LOUVRE)):
                reply = coordinator.execute_command(command)
                if isinstance(reply, P.ErrorInfo):
                    raise RuntimeError(reply.message)
        finally:
            coordinator.close()
        ctx.held["oracle"] = oracle
        ctx.held["span"] = store.time_span()

    def operations(self, ctx: Context, stream: str) -> Iterator[Operation]:
        first, last = ctx.held["span"]
        rng = ctx.rng(stream)
        starts, supports = spread_points(rng), spread_points(rng)
        orders = itertools.cycle(
            [(order, descending) for order in self.ORDERS
             for descending in (False, True)])
        for kind, days in itertools.cycle(self.MIX):
            query = {"expr": window(
                first + next(starts) * (last - first - days * DAY), days)}
            if kind == "walk":
                order, descending = next(orders)
                yield cursor_walk(P.RunQuery(
                    session=LOUVRE, query=query, limit=20,
                    order_by=order, descending=descending), pages=3)
            elif kind == "MinePatterns":
                yield single(P.MinePatterns(
                    session=LOUVRE, query=query,
                    min_support=0.02 + 0.08 * next(supports)).to_json())
            else:
                yield single(P.COMMANDS[kind](
                    session=LOUVRE, query=query).to_json())

    def drive(self, ctx: Context, port: int) -> Outcome:
        closed_loop(port, itertools.islice(
            self.operations(ctx, "warm"), len(self.MIX)), connections=2)
        return closed_outcome(closed_loop(
            port, ctx.bounded(self.operations(ctx, "run"),
                              len(self.MIX)),
            connections=2, sample_every=ctx.sample_every,
            seconds=ctx.phase_seconds))

    def verify(self, ctx: Context, outcome: Outcome) -> List[str]:
        return check_samples(ctx.held["oracle"], outcome.samples)


def cursor_walk(first: P.RunQuery, pages: int) -> Operation:
    """Up to ``pages`` pages of one ordered query, each request
    carrying the cursor the previous reply issued."""
    def walk(call: Callable) -> None:
        command = first
        for _ in range(pages):
            status, reply = call(command.to_json())
            cursor = json.loads(reply).get("next_cursor") \
                if status == 200 else None
            if cursor is None:
                return
            command = P.RunQuery(
                session=first.session, query=first.query,
                limit=first.limit, cursor=cursor,
                order_by=first.order_by, descending=first.descending)
    return walk


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        LouvreReads(), Analytics(), LiveIngest(), IngestWithReads(),
        ShardedReads())}
