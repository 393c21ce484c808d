"""Bench ST1 — live ingestion: segmenter and durable stream.

Run as a script (not under pytest-benchmark); against the Louvre
corpus replayed as an interleaved event-time stream it measures

* ``segmenter`` — the raw :class:`~repro.stream.WatermarkSegmenter`
  (no durability): events/s through ``feed`` + ``advance`` and the
  episodes emitted;
* ``stream_ingest`` — the full durable path (``OpenStream`` →
  chunked ``AppendEvents`` with honest watermarks → ``CloseStream``
  through the command executor, journal fsync off like the other
  benches): sustained events/s, episode throughput, and the
  bounded-memory guard — the tracemalloc peak across the whole
  replay plus the largest open-event buffer the watermark ever left
  behind, both of which must stay O(gap window), not O(corpus) — and
  so must the last fold's state file (``state_bytes``) and the
  visitors whose repair state the segmenter still holds
  (``repair_visitors``).

``--out`` writes the measurements; the committed baseline is
``BENCH_stream.json``.  ``--smoke`` shrinks the corpus for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
import tracemalloc
from typing import Dict, List

from repro.core.builder import TrajectoryBuilder
from repro.louvre import (
    DatasetParameters,
    LouvreDatasetGenerator,
    LouvreSpace,
)
from repro.service import protocol as P
from repro.service.registry import SessionRegistry
from repro.stream import WatermarkSegmenter
from repro.stream.manager import STATE_NAME
from repro.stream.segmenter import event_to_dict
from repro.synth.pacing import ArrivalSchedule

CHUNK = 256


def _corpus(scale: float):
    space = LouvreSpace()
    parameters = (DatasetParameters() if scale >= 1.0
                  else DatasetParameters().scaled(scale))
    records = LouvreDatasetGenerator(
        space, parameters).detection_records()
    records.sort(key=lambda r: (r.t_start, r.t_end, r.mo_id))
    return space, records


def bench_segmenter(space, records) -> Dict[str, Dict]:
    builder = TrajectoryBuilder(space.dataset_zone_nrg())
    segmenter = WatermarkSegmenter(builder)
    episodes = 0
    started = time.perf_counter()
    for position in range(0, len(records), CHUNK):
        for record in records[position:position + CHUNK]:
            episodes += len(segmenter.feed(record))
        rest = position + CHUNK
        if rest < len(records):
            episodes += len(segmenter.advance(
                records[rest].t_start))
    episodes += len(segmenter.close())
    seconds = time.perf_counter() - started
    return {
        "segmenter": {
            "events": len(records),
            "episodes": episodes,
            "seconds": seconds,
            "events_per_s": len(records) / seconds,
        },
    }


def bench_stream_ingest(records, base: str,
                        rate: float = None) -> Dict[str, Dict]:
    registry = SessionRegistry(persist_dir=base, fsync=False)
    session, stream = "bench", "replay"
    payloads = [event_to_dict(record) for record in records]
    # --rate is events/s; one schedule slot covers one chunk.
    schedule = ArrivalSchedule(
        None if rate is None else rate / CHUNK)

    tracemalloc.start()
    started = time.perf_counter()
    registry.execute_command(P.OpenStream(session=session,
                                          stream=stream))
    episodes = 0
    peak_open = 0
    for index, position in enumerate(
            range(0, len(payloads), CHUNK)):
        schedule.wait(index)
        chunk = payloads[position:position + CHUNK]
        rest = position + CHUNK
        ack = registry.execute_command(P.AppendEvents(
            session=session, stream=stream, events=chunk,
            watermark=(records[rest].t_start
                       if rest < len(records) else None)))
        assert not isinstance(ack, P.ErrorInfo), ack
        episodes += ack.episodes_closed
        peak_open = max(peak_open, ack.open_events)
    # The last fold's sidecar, read before the close retires it.
    live = registry.stream_manager().get(session, stream)
    state_bytes = os.path.getsize(os.path.join(live.directory,
                                               STATE_NAME))
    repair_visitors = live.segmenter.repair_visitors
    closed = registry.execute_command(P.CloseStream(session=session,
                                                    stream=stream))
    seconds = time.perf_counter() - started
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert closed.events_acked == len(records), closed
    return {
        "stream_ingest": {
            "events": len(records),
            "chunk": CHUNK,
            "target_rate": rate,
            "behind_schedule": schedule.behind,
            "episodes": closed.episodes_total,
            "episodes_in_flight": episodes,
            "seconds": seconds,
            "events_per_s": len(records) / seconds,
            "episodes_per_s": closed.episodes_total / seconds,
            "peak_open_events": peak_open,
            "traced_peak_mb": traced_peak / 1e6,
            "checkpoints": live.checkpoints,
            "state_bytes": state_bytes,
            "repair_visitors": repair_visitors,
        },
    }


def run_benchmarks(smoke: bool = False,
                   rate: float = None) -> Dict:
    from provenance import louvre_provenance

    scale = 0.02 if smoke else 0.2
    space, records = _corpus(scale)

    base = tempfile.mkdtemp(prefix="bench-stream-")
    try:
        metrics: Dict[str, Dict] = {}
        metrics.update(bench_segmenter(space, records))
        metrics.update(bench_stream_ingest(records, base,
                                           rate=rate))
    finally:
        shutil.rmtree(base, ignore_errors=True)

    return {
        "bench": "stream",
        "config": {"smoke": smoke, "scale": scale,
                   "events": len(records), "rate": rate,
                   "provenance": louvre_provenance(scale),
                   "python": sys.version.split()[0]},
        "metrics": metrics,
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced corpus for CI")
    parser.add_argument("--rate", type=float, default=None,
                        metavar="EV_PER_S",
                        help="pace stream_ingest at this many "
                             "events/s (open loop; default: as "
                             "fast as acked)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the measurements as JSON")
    args = parser.parse_args(argv)

    result = run_benchmarks(smoke=args.smoke, rate=args.rate)
    if args.out and not args.smoke:
        # Embed a smoke-mode section so CI smoke runs have a
        # same-workload reference.
        result["smoke_metrics"] = run_benchmarks(
            smoke=True)["metrics"]
    print(json.dumps(result, indent=2))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        print("\nwrote {}".format(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
