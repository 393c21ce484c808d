"""Bench S2 — scatter-gather overhead and scaling.

Run as a script (not under pytest-benchmark).  The same corpus is
served unsharded (the baseline) and through the shard coordinator at
N ∈ {1, 2, 4} in-process shards; N=1 against the baseline isolates
pure coordination overhead (cursor translation, page merging, the
extra protocol hop), N ∈ {2, 4} shows how the merged read path and
partial-aggregate mining behave as the corpus splits.  In-process
shards share the GIL, so CPU-bound mining does not speed up here —
the distribution win needs the process backend (``repro serve
--shards N --shard-backend process``); what this bench guards is the
coordinator staying *cheap*.

Each engine is measured on ingest, a warm ``RunQuery`` (latency
p50/p95 and requests/s), a full cursor walk ordered by duration in
pages of 100, and the best of a few ``MinePatterns`` and
``Similarity`` calls.  The ``one_shard`` section then times single
commands — an ordered and a natural-order ``RunQuery`` page,
``MinePatterns``, ``Flow`` and ``Summary`` over one-week windows —
unsharded and on one shard in alternating rounds, so a drift of the
machine's speed hits both alike; its ratios are the cost of the
coordinator over the executor it wraps.  ``--out`` writes the
measurements with the host in ``meta.machine`` (the committed
baseline is ``BENCH_shard.json``); ``--smoke`` shrinks the corpus and
repeats for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from typing import Dict, List

import numpy

from repro.service import protocol as P
from repro.service.registry import SessionRegistry
from repro.shard import ShardCoordinator

SESSION = "bench"
QUERY = {"expr": {"op": "annotation", "kind": "goal",
                  "value": "visit"}}


def _percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1,
                max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[index]


def _latency_stats(samples: List[float]) -> Dict[str, float]:
    return {
        "mean_ms": statistics.fmean(samples) * 1000.0,
        "p50_ms": _percentile(samples, 0.50) * 1000.0,
        "p95_ms": _percentile(samples, 0.95) * 1000.0,
        "max_ms": max(samples) * 1000.0,
    }


def _timed(fn, repeats: int) -> List[float]:
    times: List[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return times


def _shard_metrics(engine, docs: List[Dict], repeats: int) -> Dict:
    """Ingest + read-path measurements against one engine."""

    def call(command):
        response = engine.execute_command(command)
        assert not isinstance(response, P.ErrorInfo), response
        return response

    started = time.perf_counter()
    call(P.IngestDocuments(session=SESSION, docs=docs))
    ingest_seconds = time.perf_counter() - started

    query = P.RunQuery(session=SESSION, query=QUERY, limit=20,
                       include_total=False)
    call(query)  # warm
    query_times = _timed(lambda: call(query), repeats)

    started = time.perf_counter()
    pages = 0
    cursor = None
    while True:
        page = call(P.RunQuery(session=SESSION, limit=100,
                               cursor=cursor, order_by="duration"))
        pages += 1
        cursor = page.next_cursor
        if cursor is None:
            break
    paginate_seconds = time.perf_counter() - started

    mine_seconds = min(_timed(
        lambda: call(P.MinePatterns(session=SESSION,
                                    min_support=0.05,
                                    max_length=4)), 3))
    similarity_seconds = min(_timed(
        lambda: call(P.Similarity(session=SESSION)), 2))
    return {
        "ingest_s": ingest_seconds,
        "query": dict(_latency_stats(query_times),
                      requests_per_s=repeats / sum(query_times)),
        "paginate": {"pages": pages, "seconds": paginate_seconds,
                     "pages_per_s": pages / paginate_seconds},
        "mine_s": mine_seconds,
        "similarity_s": similarity_seconds,
    }


#: The commands the ``one_shard`` section times, each built over one
#: window's query.
ONE_SHARD_COMMANDS = {
    "ordered_run_query": lambda query: P.RunQuery(
        session=SESSION, query=query, limit=20, order_by="duration",
        include_total=False),
    "natural_run_query": lambda query: P.RunQuery(
        session=SESSION, query=query, limit=20, include_total=False),
    "mine_patterns": lambda query: P.MinePatterns(
        session=SESSION, query=query, min_support=0.05, max_length=4),
    "flow": lambda query: P.Flow(session=SESSION, query=query),
    "summary": lambda query: P.Summary(session=SESSION, query=query),
}

WEEK_SECONDS = 7 * 24 * 3600.0


def _one_shard(docs: List[Dict], windows: int, rounds: int,
               repeats: int) -> Dict:
    """Per-call milliseconds of each :data:`ONE_SHARD_COMMANDS` kind
    over ``windows`` one-week windows spread across the corpus, on a
    registry and on a one-shard coordinator: the best pass of
    ``repeats`` over every window, the two engines alternating for
    ``rounds`` rounds."""
    engines = {"unsharded": SessionRegistry(),
               "shards_1": ShardCoordinator.local(1)}
    for engine in engines.values():
        engine.execute_command(P.IngestDocuments(session=SESSION,
                                                 docs=docs))
    start, end = engines["unsharded"].get(
        SESSION).workbench.store.time_span()
    stride = max(0.0, end - start - WEEK_SECONDS) / max(1, windows - 1)
    queries = [{"expr": {"op": "window", "start": start + k * stride,
                         "end": start + k * stride + WEEK_SECONDS}}
               for k in range(windows)]
    best: Dict[str, Dict[str, float]] = {}
    for kind, make in ONE_SHARD_COMMANDS.items():
        commands = [make(query) for query in queries]
        for engine in engines.values():  # warm, and check the replies
            replies = [engine.execute_command(command)
                       for command in commands]
            assert not any(isinstance(reply, P.ErrorInfo)
                           for reply in replies), replies
        times = {name: float("inf") for name in engines}
        for _ in range(rounds):
            for name, engine in engines.items():
                times[name] = min(times[name], min(_timed(
                    lambda: [engine.execute_command(command)
                             for command in commands], repeats)))
        best[kind] = {
            "unsharded_ms": times["unsharded"] * 1000.0 / windows,
            "shards_1_ms": times["shards_1"] * 1000.0 / windows,
            "ratio": times["shards_1"] / times["unsharded"]}
    return {"windows": windows, "rounds": rounds, "repeats": repeats,
            "commands": best}


def _machine() -> str:
    """The host: CPU model, CPUs, Python and numpy versions."""
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            model = next(line.split(":", 1)[1].strip() for line in info
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return "{}, {} CPUs, Python {}, numpy {}".format(
        model, os.cpu_count(), platform.python_version(),
        numpy.__version__)


def run_benchmarks(smoke: bool = False) -> Dict:
    scale = 0.02 if smoke else 0.1
    repeats = 20 if smoke else 100

    registry = SessionRegistry()
    job = registry.build("seed", scale=scale, wait=True)
    assert job.state.value == "done", job.error
    docs = [trajectory.to_dict() for trajectory
            in registry.get("seed").workbench.store]

    # Warm every code path (parse, insert, plan, mine) on a throwaway
    # engine so the first measured section pays no import/JIT-cache
    # cost the later ones skip.
    _shard_metrics(SessionRegistry(), docs[:20], 2)

    metrics: Dict[str, Dict] = {
        "unsharded": _shard_metrics(SessionRegistry(), docs,
                                    repeats)}
    for shard_count in (1, 2, 4):
        metrics["shards_{}".format(shard_count)] = _shard_metrics(
            ShardCoordinator.local(shard_count), docs, repeats)

    baseline = metrics["unsharded"]
    scaling = {}
    for name, section in metrics.items():
        if name == "unsharded":
            continue
        scaling[name] = {
            "ingest_vs_unsharded":
                section["ingest_s"] / baseline["ingest_s"],
            "query_p50_vs_unsharded":
                section["query"]["p50_ms"]
                / baseline["query"]["p50_ms"],
            "mine_vs_unsharded":
                section["mine_s"] / baseline["mine_s"],
        }
    one_shard = _one_shard(docs, windows=8 if smoke else 40,
                           rounds=3, repeats=2 if smoke else 5)
    from provenance import louvre_provenance

    return {
        "bench": "shard",
        "meta": {"machine": _machine()},
        "config": {"smoke": smoke, "scale": scale,
                   "repeats": repeats, "corpus": len(docs),
                   "shard_counts": [1, 2, 4],
                   "provenance": louvre_provenance(scale),
                   "python": sys.version.split()[0]},
        "metrics": metrics,
        "scaling": scaling,
        "one_shard": one_shard,
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced corpus/repeats for CI")
    parser.add_argument("--out", metavar="PATH",
                        help="write the measurements as JSON")
    args = parser.parse_args(argv)

    result = run_benchmarks(smoke=args.smoke)
    print(json.dumps(result, indent=2))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        print("\nwrote {}".format(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
