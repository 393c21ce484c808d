"""Per-layer metrics from the traced server's spans.

``load`` reads the ``<workload>.spans.jsonl`` file ``serve.py`` wrote;
``layer_metrics`` turns the spans that fall inside the measured window
(plus the start-up restore) into per-layer numbers.

The self-time rule: a span's self time is its duration, minus the part
of that interval its child spans cover (children on any thread, their
union clipped to the span), minus the busy time of the counters that
ran directly inside it (``<name>.top``).  Each span's self time is
charged to its layer — the part of its name before the first dot —
and each counter's top-level busy time to the counter's layer, so
every traced second lands in exactly one layer.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from tracing import ATTRS, END, NAME, PARENT, SPAN, START

#: Layers in report order.
LAYERS = ("aserver", "wire", "protocol", "executor", "storage",
          "mining", "core", "stream", "persist", "shard")


def load(path: str) -> List[list]:
    with open(path, "r", encoding="utf-8") as source:
        return [json.loads(line) for line in source]


def _covered(span: list, children: Iterable[list]) -> float:
    """Length of the union of the children's intervals inside
    ``span``."""
    start, end = span[START], span[END]
    intervals = sorted((max(start, child[START]), min(end, child[END]))
                       for child in children)
    covered = 0.0
    run_start = run_end = None
    for low, high in intervals:
        if high <= low:
            continue
        if run_end is None or low > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = low, high
        else:
            run_end = max(run_end, high)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def self_times(spans: List[list]) -> Dict[int, float]:
    """Span id → self time (seconds) by the rule above."""
    children: Dict[int, List[list]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span)
    result = {}
    for span in spans:
        counted = sum(value for key, value in (span[ATTRS] or {}).items()
                      if key.endswith(".top"))
        result[span[SPAN]] = (span[END] - span[START]
                              - _covered(span, children.get(span[SPAN],
                                                            ()))
                              - counted)
    return result


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _scatter_groups(hops: List[list]) -> List[List[list]]:
    """Hops of one parent split into scatters: a scatter submits all
    its hops before waiting for any, so a hop submitted after one of
    the current group finished starts the next scatter."""
    groups: List[List[list]] = []
    for hop in sorted(hops, key=lambda item: item[START]):
        if groups and hop[START] < min(item[END] for item in groups[-1]):
            groups[-1].append(hop)
        else:
            groups.append([hop])
    return groups


def layer_metrics(spans: List[list], window: Tuple[float, float],
                  requests: int, client_latencies: List[float],
                  user_bytes: int,
                  wal_coalescing: Optional[float]) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``requests`` is the number of client requests in the window and
    ``client_latencies`` their latencies (seconds); ``user_bytes`` the
    canonical bytes of what the client asked to store.
    """
    low, high = window
    restore = [span for span in spans if span[NAME] == "persist.restore"]
    spans = [span for span in spans
             if span[START] >= low and span[END] <= high]
    selfs = self_times(spans)
    by_name: Dict[str, List[list]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)
    counters: Dict[str, float] = {}
    for span in spans:
        for key, value in (span[ATTRS] or {}).items():
            if isinstance(value, (int, float)):
                counters[key] = counters.get(key, 0.0) + value

    def durations(name: str) -> List[float]:
        return [span[END] - span[START] for span in by_name.get(name, ())]

    def mean_ms(name: str) -> float:
        return _mean(durations(name)) * 1000.0

    def attr_total(name: str, key: str) -> float:
        return sum((span[ATTRS] or {}).get(key, 0)
                   for span in by_name.get(name, ()))

    def per_call_ms(counter: str) -> float:
        return _ratio(counters.get(counter + ".s", 0.0),
                      counters.get(counter + ".n", 0.0)) * 1000.0

    metrics: Dict[str, float] = {}

    # aserver: time outside the server's outermost spans, bridge queue
    roots = sum(span[END] - span[START] for span in spans
                if span[PARENT] is None)
    metrics["aserver.outside_ms"] = _ratio(
        sum(client_latencies) - roots, len(client_latencies)) * 1000.0
    metrics["aserver.bridge_wait_ms"] = _ratio(
        attr_total("aserver.bridge", "wait"),
        len(by_name.get("aserver.bridge", ()))) * 1000.0

    # wire: the response cache, counted against requests sent
    lookups = by_name.get("wire.cache_get", [])
    metrics["wire.cache_hit_ratio"] = _ratio(
        sum((span[ATTRS] or {}).get("hit", 0) for span in lookups),
        requests)
    metrics["wire.cache_lookups_per_request"] = _ratio(len(lookups),
                                                       requests)

    # protocol
    metrics["protocol.decode_ms"] = mean_ms("protocol.decode")
    metrics["protocol.encode_ms"] = mean_ms("protocol.encode")
    metrics["protocol.response_bytes"] = _ratio(
        attr_total("protocol.encode", "bytes"),
        len(by_name.get("protocol.encode", ())))

    # executor: self time per command, overall and per kind
    executed = by_name.get("executor.execute", [])
    metrics["executor.self_ms"] = _mean(
        [selfs[span[SPAN]] for span in executed]) * 1000.0
    kinds: Dict[str, List[float]] = {}
    for span in executed:
        kinds.setdefault(span[ATTRS]["kind"], []).append(
            selfs[span[SPAN]])
    for kind, values in sorted(kinds.items()):
        metrics["executor.self_ms." + kind] = _mean(values) * 1000.0

    # storage
    metrics["storage.plan_ms"] = mean_ms("storage.plan")
    metrics["storage.fetch_ms"] = _ratio(
        counters.get("storage.fetch.s", 0.0), requests) * 1000.0
    metrics["storage.rows_examined_per_hit"] = _ratio(
        counters.get("storage.candidates.size", 0.0),
        counters.get("storage.fetch.items", 0.0))
    metrics["storage.read_lock_wait_ms"] = _ratio(
        counters.get("storage.read_lock.s", 0.0), requests) * 1000.0
    extends = by_name.get("storage.extend", [])
    metrics["storage.write_lock_wait_ms"] = _ratio(
        counters.get("storage.write_lock.s", 0.0), len(extends)) * 1000.0
    metrics["storage.extend_ms_per_doc"] = _ratio(
        sum(durations("storage.extend")),
        attr_total("storage.extend", "docs")) * 1000.0

    # mining helpers
    for helper in ("prefixspan", "similarity", "sequences", "flow",
                   "summary"):
        metrics["mining.{}_ms".format(helper)] = \
            mean_ms("mining." + helper)

    # core documents, per trajectory
    metrics["core.to_dict_ms"] = per_call_ms("core.to_dict")
    metrics["core.from_dict_ms"] = per_call_ms("core.from_dict")

    # streams
    appends = by_name.get("stream.append", [])
    events = attr_total("stream.append", "events")
    metrics["stream.validate_ms"] = _ratio(
        counters.get("stream.validate.s", 0.0), len(appends)) * 1000.0
    metrics["stream.segment_ms_per_event"] = _ratio(
        counters.get("stream.segment.s", 0.0)
        + sum(durations("stream.advance")), events) * 1000.0
    metrics["stream.journal_ms"] = mean_ms("stream.journal")
    journal_bytes = attr_total("stream.journal", "bytes")
    metrics["stream.journal_bytes_per_event"] = _ratio(journal_bytes,
                                                       events)
    metrics["stream.checkpoint_ms"] = mean_ms("stream.write_state")

    # persistence
    metrics["persist.wal_append_ms"] = mean_ms("persist.wal_append")
    metrics["persist.wal_coalescing"] = wal_coalescing or 0.0
    metrics["persist.fsync_count"] = float(
        len(by_name.get("persist.fsync", ())))
    metrics["persist.fsync_ms"] = mean_ms("persist.fsync")
    metrics["persist.bytes_per_user_byte"] = _ratio(
        journal_bytes + attr_total("persist.wal_append", "bytes"),
        user_bytes)
    metrics["persist.restore_ms"] = _mean(
        [span[END] - span[START] for span in restore]) * 1000.0

    # shards
    coordinated = by_name.get("shard.coordinator", [])
    metrics["shard.coordinator_self_ms"] = _mean(
        [selfs[span[SPAN]] for span in coordinated]) * 1000.0
    metrics["shard.scatter_calls_per_request"] = _ratio(
        len(by_name.get("shard.call", ())), requests)
    hops: Dict[int, List[list]] = {}
    for hop in by_name.get("shard.hop", ()):
        hops.setdefault(hop[PARENT], []).append(hop)
    skews = []
    for siblings in hops.values():
        for group in _scatter_groups(siblings):
            if len(group) > 1:
                lengths = [hop[END] - hop[START] for hop in group]
                skews.append(max(lengths) / _mean(lengths))
    metrics["shard.slowest_over_mean"] = _mean(skews)

    # where the traced time went, by layer
    busy = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer = span[NAME].split(".", 1)[0]
        busy[layer] = busy.get(layer, 0.0) + max(0.0, selfs[span[SPAN]])
    for key, value in counters.items():
        if key.endswith(".top"):
            layer = key.split(".", 1)[0]
            busy[layer] = busy.get(layer, 0.0) + value
    total = sum(busy.values())
    for layer in LAYERS:
        metrics[layer + ".busy_pct"] = _ratio(busy[layer], total) * 100.0
    return metrics
