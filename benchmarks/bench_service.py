"""Bench S1 — service-layer request throughput and latency.

Run as a script (not under pytest-benchmark): against one *warm*
session (built once, store indexes hot) it measures

* ``local_call`` — ``RunQuery`` through the in-process
  :class:`~repro.service.executor.LocalBinding` (protocol cost
  without HTTP: dispatch, planning, pagination, typed responses);
* ``http_query`` — the same command over the embedded HTTP server on
  an ephemeral port, sequential requests (per-request latency
  p50/p95 and requests/s, connection setup included as a real client
  pays it);
* ``http_paginate`` — a full stable-cursor walk over the corpus in
  pages of 100 (pages/s);
* ``http_concurrent`` — 4 client threads hammering ``RunQuery``
  against the same server (aggregate requests/s);
* ``openloop`` — the concurrent load benchmark: raw keep-alive
  sockets firing pre-serialized requests at a **target arrival
  rate**, latency measured from each request's *intended* send time
  (no coordinated omission — a slow server inflates the tail instead
  of slowing the load down).  Two server configurations are
  driven: the asyncio front-end with its versioned response cache
  (the deployment default and the headline number) and with the
  cache off (every request pays plan + execute + serialize).

The serialization denominator: every request plans the query, pages
the lazy result set, and serializes full trajectories to canonical
JSON — so requests/s here is end-to-end service work, not socket
ping-pong.  ``--out`` writes the measurements (the committed baseline
is ``BENCH_service.json``); ``--smoke`` shrinks the corpus and
request counts for CI, and ``--floor N`` exits non-zero when the
open-loop headline throughput lands under N requests/s (the CI
regression gate).
"""

from __future__ import annotations

import argparse
import json
import socket
import statistics
import sys
import threading
import time
from typing import Dict, List

from repro.service import protocol as P
from repro.service.aserver import AsyncServiceServer
from repro.service.client import ServiceClient
from repro.service.executor import LocalBinding
from repro.service.registry import SessionRegistry
from repro.synth.pacing import ArrivalSchedule

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


def _post_bytes(body: bytes) -> bytes:
    return (b"POST /v1/call HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode()
            + b"\r\n\r\n" + body)


def _quickack(sock: socket.socket) -> None:
    # Without immediate ACKs a reply the server wrote in several
    # segments could wait on the kernel's delayed-ACK timer, and the
    # bench would measure that timer, not the server.
    if hasattr(socket, "TCP_QUICKACK"):  # Linux
        try:
            sock.setsockopt(socket.IPPROTO_TCP,
                            socket.TCP_QUICKACK, 1)
        except OSError:  # pragma: no cover
            pass


def _read_response(sock: socket.socket,
                   buffer: bytes) -> tuple:
    """``(status, leftover)`` of one keep-alive response."""
    while b"\r\n\r\n" not in buffer:
        _quickack(sock)
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed")
        buffer += chunk
    head, _, buffer = buffer.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(buffer) < length:
        _quickack(sock)
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed mid-body")
        buffer += chunk
    return status, buffer[length:]


def open_loop(address, request: bytes, target_rps: float,
              duration: float, connections: int = 4) -> Dict:
    """Drive ``request`` at ``target_rps`` for ``duration`` seconds.

    Each connection owns ``target_rps / connections`` of the arrival
    schedule (an :class:`~repro.synth.pacing.ArrivalSchedule` split);
    a request's latency runs from its *intended* arrival time, so
    queueing delay a saturated server causes is charged to the tail
    instead of silently thinning the load.
    """
    schedules = ArrivalSchedule(target_rps).split(connections)
    count = max(1, int(target_rps / connections * duration))
    latencies: List[float] = []
    statuses: List[int] = []
    errors: List[BaseException] = []
    lock = threading.Lock()
    barrier = threading.Barrier(connections + 1)

    def fire(schedule: ArrivalSchedule) -> None:
        sock = socket.create_connection(address, timeout=30)
        sock.settimeout(30)
        local_latencies = []
        local_statuses = []
        try:
            barrier.wait()
            buffer = b""
            for index in range(count):
                intended = schedule.wait(index)
                sock.sendall(request)
                status, buffer = _read_response(sock, buffer)
                local_statuses.append(status)
                local_latencies.append(
                    time.perf_counter() - intended)
        except BaseException as error:
            with lock:
                errors.append(error)
        finally:
            sock.close()
            with lock:
                latencies.extend(local_latencies)
                statuses.extend(local_statuses)

    threads = [threading.Thread(target=fire, args=(schedule,))
               for schedule in schedules]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    ok = sum(1 for status in statuses if status == 200)
    return {
        "target_rps": target_rps,
        "achieved_rps": len(statuses) / elapsed,
        "ok_rps": ok / elapsed,
        "requests": len(statuses),
        "ok": ok,
        "shed_503": sum(1 for status in statuses
                        if status == 503),
        "connections": connections,
        "behind_schedule": sum(schedule.behind
                               for schedule in schedules),
        "seconds": elapsed,
        "p50_ms": _percentile(latencies, 0.50) * 1000.0,
        "p95_ms": _percentile(latencies, 0.95) * 1000.0,
        "p99_ms": _percentile(latencies, 0.99) * 1000.0,
        "max_ms": max(latencies) * 1000.0,
    }


def run_open_loop_suite(registry: SessionRegistry, command_bytes:
                        bytes, smoke: bool) -> Dict[str, Dict]:
    """The two server configurations under open-loop load."""
    request = _post_bytes(command_bytes)
    duration = 1.5 if smoke else 4.0
    suite: Dict[str, Dict] = {}

    def drive(server, target) -> Dict:
        with server:
            # warm: build the cache entry / touch every code path
            probe = socket.create_connection(server.address,
                                             timeout=30)
            probe.sendall(request)
            status, _ = _read_response(probe, b"")
            assert status == 200
            probe.close()
            return open_loop(server.address, request, target,
                             duration)

    suite["async_cached"] = drive(
        AsyncServiceServer(registry, port=0),
        2000 if smoke else 8000)
    suite["async_nocache"] = drive(
        AsyncServiceServer(registry, port=0, response_cache=False),
        400 if smoke else 1200)
    return suite


def run_benchmarks(smoke: bool = False) -> Dict:
    scale = 0.02 if smoke else 0.1
    requests = 50 if smoke else 300
    limit = 20

    registry = SessionRegistry()
    job = registry.build(SESSION, scale=scale, wait=True)
    assert job.state.value == "done", job.error
    corpus_size = len(registry.get(SESSION).workbench.store)

    binding = LocalBinding(registry)
    command = P.RunQuery(session=SESSION, query=QUERY, limit=limit,
                         include_total=False)

    # -- in-process protocol dispatch ----------------------------------
    binding.call(command)  # warm
    local_times: List[float] = []
    for _ in range(requests):
        started = time.perf_counter()
        response = binding.call(command)
        local_times.append(time.perf_counter() - started)
        assert response.hits

    metrics: Dict[str, Dict] = {
        "local_call": dict(_latency_stats(local_times),
                           requests_per_s=requests
                           / sum(local_times)),
    }

    # -- over HTTP ------------------------------------------------------
    server = AsyncServiceServer(registry, port=0).start()
    try:
        client = ServiceClient(server.url)
        client.run_query(SESSION, QUERY, limit=limit)  # warm

        http_times: List[float] = []
        for _ in range(requests):
            started = time.perf_counter()
            page = client.run_query(SESSION, QUERY, limit=limit,
                                    include_total=False)
            http_times.append(time.perf_counter() - started)
            assert page.hits
        metrics["http_query"] = dict(
            _latency_stats(http_times),
            requests_per_s=requests / sum(http_times))

        started = time.perf_counter()
        pages = 0
        hits = 0
        for page in client.iter_pages(SESSION, QUERY, limit=100):
            pages += 1
            hits += len(page.hits)
        paginate_seconds = time.perf_counter() - started
        metrics["http_paginate"] = {
            "pages": pages, "hits": hits,
            "seconds": paginate_seconds,
            "pages_per_s": pages / paginate_seconds,
        }

        workers = 4
        per_worker = max(10, requests // workers)
        errors: List[BaseException] = []

        def hammer() -> None:
            try:
                worker_client = ServiceClient(server.url)
                for _ in range(per_worker):
                    worker_client.run_query(SESSION, QUERY,
                                            limit=limit,
                                            include_total=False)
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=hammer)
                   for _ in range(workers)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        concurrent_seconds = time.perf_counter() - started
        assert not errors, errors[:1]
        metrics["http_concurrent"] = {
            "threads": workers,
            "requests": workers * per_worker,
            "seconds": concurrent_seconds,
            "requests_per_s": workers * per_worker
            / concurrent_seconds,
        }
    finally:
        server.stop()

    # -- open-loop concurrent load -------------------------------------
    metrics["openloop"] = run_open_loop_suite(
        registry, command.to_json(), smoke)

    from provenance import louvre_provenance

    return {
        "bench": "service",
        "config": {"smoke": smoke, "scale": scale,
                   "requests": requests, "limit": limit,
                   "corpus": corpus_size,
                   "provenance": louvre_provenance(scale),
                   "python": sys.version.split()[0]},
        "metrics": metrics,
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


def run_shard_benchmarks(smoke: bool = False) -> Dict:
    """Bench S2 — scatter-gather overhead and scaling.

    The same corpus is served unsharded (the baseline) and through
    the shard coordinator at N ∈ {1, 2, 4} in-process shards; N=1
    against the baseline isolates pure coordination overhead (cursor
    translation, page merging, the extra protocol hop), N∈{2,4} shows
    how the merged read path and partial-aggregate mining behave as
    the corpus splits.  In-process shards share the GIL, so
    CPU-bound mining does not speed up here — the distribution win
    needs the process backend (``repro serve --shards N
    --shard-backend process``); what this bench guards is the
    coordinator staying *cheap*.
    """
    from repro.shard import ShardCoordinator

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
    from provenance import louvre_provenance

    return {
        "bench": "shard",
        "config": {"smoke": smoke, "scale": scale,
                   "repeats": repeats, "corpus": len(docs),
                   "shard_counts": [1, 2, 4],
                   "provenance": louvre_provenance(scale),
                   "python": sys.version.split()[0]},
        "metrics": metrics,
        "scaling": scaling,
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced corpus/requests for CI")
    parser.add_argument("--out", metavar="PATH",
                        help="write the measurements as JSON")
    parser.add_argument("--shard", action="store_true",
                        help="run the scatter-gather sharding bench "
                             "instead of the service bench")
    parser.add_argument("--floor", type=float, metavar="RPS",
                        help="fail (exit 1) when the open-loop "
                             "async_cached throughput lands below "
                             "this many requests/s")
    args = parser.parse_args(argv)

    if args.shard:
        result = run_shard_benchmarks(smoke=args.smoke)
        print(json.dumps(result, indent=2))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(result, handle, indent=2)
                handle.write("\n")
            print("\nwrote {}".format(args.out))
        return 0

    result = run_benchmarks(smoke=args.smoke)
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
    if args.floor is not None:
        headline = result["metrics"]["openloop"]["async_cached"]
        if headline["ok_rps"] < args.floor:
            print("FAIL: open-loop async_cached {:.0f} ok-req/s "
                  "is below the floor of {:.0f}".format(
                      headline["ok_rps"], args.floor),
                  file=sys.stderr)
            return 1
        print("floor ok: {:.0f} ok-req/s >= {:.0f}".format(
            headline["ok_rps"], args.floor))
    return 0


if __name__ == "__main__":
    sys.exit(main())
