"""Live trajectory ingestion (`repro.stream`).

Turns the batch-replay engine into a live trajectory feed: interleaved
``(visitor, position, timestamp)`` events from many concurrent
visitors are segmented into episodes by an event-time **watermark
segmenter**, and every closed episode lands in the session's store
through the same WAL-journaled write path a batch build uses — so a
replayed corpus is byte-identical to its batch build, and an acked
event survives ``kill -9``.

Layers:

* :mod:`repro.stream.segmenter` — the watermark segmenter
  (:class:`WatermarkSegmenter`) and the wire codec for detection
  events;
* :mod:`repro.stream.manager` — durable server-side streams
  (:class:`StreamManager`): the event journal, auto-checkpoint and
  crash recovery behind the ``OpenStream`` / ``AppendEvents`` /
  ``StreamStatus`` / ``CloseStream`` protocol family.

See ``docs/streaming.md`` for the watermark and durability contracts.
"""

from repro.stream.manager import (
    StreamManager,
    StreamOverloadedError,
    UnknownStreamError,
)
from repro.stream.segmenter import (
    StreamMetrics,
    WatermarkSegmenter,
    event_from_dict,
    event_to_dict,
)

__all__ = [
    "StreamManager",
    "StreamMetrics",
    "StreamOverloadedError",
    "UnknownStreamError",
    "WatermarkSegmenter",
    "event_from_dict",
    "event_to_dict",
]
