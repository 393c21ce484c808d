"""In-memory span recording for the benchmark's server process.

The suite measures the system from outside, so its spans come from
wrappers the launcher (``serve.py``) installs around public callables
*at the place they are looked up* — a module attribute, a class
attribute — before the engine and the server are built.  Nothing in
``src/`` knows it is being traced.

A span is one list::

    [trace id, span id, parent id, name, thread, start, end, attrs]

``start``/``end`` are ``time.perf_counter`` readings, ``thread`` the
recording thread's ident and ``attrs`` a dict (or ``None``).  Spans
nest through a per-thread stack; a span opened with an empty stack is
a root and starts a new trace.  Work handed to a thread pool keeps its
parent through :func:`traced_pool`, so a shard call on a scatter
thread is a child of the coordinator span that submitted it.

Callables that run once per event or per fetched document are
*counters*, not spans: each call adds its count (``<name>.n``) and busy
seconds (``<name>.s``) to the innermost open span of its thread.  A
call made while no other counter runs on the thread also adds its busy
time to ``<name>.top``, so a span's self time — its duration minus the
time its children cover — can subtract counted work exactly once (see
``spans.py``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional

_now = time.perf_counter

#: Index of each field in a span list.
TRACE, SPAN, PARENT, NAME, THREAD, START, END, ATTRS = range(8)


class Recorder:
    """Holds every span of one server process until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.counting = 0
        return stack

    def current(self) -> Optional[list]:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, start: Optional[float] = None,
             parent: Optional[list] = None) -> list:
        """Open a span on the calling thread.

        ``parent`` overrides the thread's own stack — the hand-off
        from a submitting thread to a pool worker.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        span = [parent[TRACE] if parent is not None else span_id,
                span_id,
                parent[SPAN] if parent is not None else None,
                name, threading.get_ident(),
                _now() if start is None else start, None, None]
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = _now()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def add(self, span: Optional[list], key: str, value: float) -> None:
        """Add ``value`` to ``span``'s attribute ``key``."""
        if span is None:
            return
        attrs = span[ATTRS]
        if attrs is None:
            attrs = span[ATTRS] = {}
        attrs[key] = attrs.get(key, 0) + value

    def dump(self, path: str) -> None:
        """Write the finished spans as JSON lines."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as sink:
            for span in self.spans:
                if span[END] is not None:
                    sink.write(json.dumps(span, separators=(",", ":")))
                    sink.write("\n")


def _replace(owner, attr: str, make: Callable) -> None:
    """Swap ``owner.attr`` for ``make(function)``, keeping its kind
    (plain function, staticmethod or classmethod)."""
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make(raw.__func__)))
    elif isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def wrap_span(recorder: Recorder, owner, attr: str, name: str,
              annotate: Optional[Callable] = None) -> None:
    """Record one span per call of ``owner.attr``.

    ``annotate(args, result)`` may return a dict of attributes for
    the span (a command kind, a byte count, a hit or a miss).
    """
    def make(function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = recorder.open(name)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                recorder.close(span)
                if annotate is not None:
                    extra = annotate(args, result)
                    if extra:
                        attrs = span[ATTRS]
                        if attrs is None:
                            attrs = span[ATTRS] = {}
                        attrs.update(extra)
        return traced
    _replace(owner, attr, make)


def _count(recorder: Recorder, name: str, started: float) -> None:
    busy = _now() - started
    local = recorder._local
    local.counting -= 1
    span = recorder.current()
    recorder.add(span, name + ".n", 1)
    recorder.add(span, name + ".s", busy)
    if local.counting == 0:
        recorder.add(span, name + ".top", busy)


def wrap_counter(recorder: Recorder, owner, attr: str,
                 name: str, size: Optional[Callable] = None) -> None:
    """Add count and busy time of each call to the enclosing span.

    ``size(result)`` optionally adds a magnitude (``<name>.size``),
    such as the number of candidate ids a plan produced.
    """
    def make(function):
        @functools.wraps(function)
        def counted(*args, **kwargs):
            recorder._stack()
            recorder._local.counting += 1
            started = _now()
            try:
                result = function(*args, **kwargs)
            finally:
                _count(recorder, name, started)
            if size is not None:
                recorder.add(recorder.current(), name + ".size",
                             size(result))
            return result
        return counted
    _replace(owner, attr, make)


def wrap_generator_counter(recorder: Recorder, owner, attr: str,
                           name: str) -> None:
    """Like :func:`wrap_counter` for a generator function: the busy
    time of every ``next`` and the number of items yielded are added
    to the consumer's enclosing span."""
    def make(function):
        @functools.wraps(function)
        def counted(*args, **kwargs):
            iterator = function(*args, **kwargs)

            def consume():
                while True:
                    recorder._stack()
                    recorder._local.counting += 1
                    started = _now()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        _count(recorder, name, started)
                    recorder.add(recorder.current(), name + ".items", 1)
                    yield item
            return consume()
        return counted
    _replace(owner, attr, make)


def traced_pool(recorder: Recorder, name: str) -> type:
    """A ``ThreadPoolExecutor`` whose every task is a span.

    The span starts when the task is *submitted* and runs on the
    worker thread, parented to the submitter's open span; its ``wait``
    attribute is the time the task queued before a worker took it.
    """
    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            parent = recorder.current()
            submitted = _now()

            def run():
                span = recorder.open(name, start=submitted,
                                     parent=parent)
                recorder.add(span, "wait", _now() - submitted)
                try:
                    return fn(*args, **kwargs)
                finally:
                    recorder.close(span)
            return super().submit(run)

    return TracedPool


def _file_growth(recorder: Recorder, owner, attr: str, name: str,
                 path_of: Callable) -> None:
    """Span per call plus the bytes the call appended to a file
    (``bytes`` attribute: the file's size change across the call —
    exact for the single-writer logs it is used on)."""
    def make(function):
        @functools.wraps(function)
        def traced(self, *args, **kwargs):
            path = path_of(self)
            before = _size(path)
            span = recorder.open(name)
            try:
                return function(self, *args, **kwargs)
            finally:
                recorder.close(span)
                recorder.add(span, "bytes", max(0, _size(path) - before))
        return traced
    _replace(owner, attr, make)


def _size(path: str) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def install(recorder: Recorder) -> None:
    """Wrap every traced boundary.  Call before the engine and the
    server are constructed: the pools are classes looked up at
    construction time."""
    from repro.core.trajectory import SemanticTrajectory
    from repro.mining import similarity as similarity_module
    from repro.persist import session as persist_session
    from repro.persist.wal import WriteAheadLog
    from repro.service import aserver, executor, protocol, wire
    from repro.shard import coordinator
    from repro.storage.locks import ReadWriteLock
    from repro.storage.planner import Plan
    from repro.storage.query import Query
    from repro.storage.store import TrajectoryStore
    from repro.stream import manager

    span = functools.partial(wrap_span, recorder)
    counter = functools.partial(wrap_counter, recorder)

    # service: front end, wire, protocol, executor
    aserver.ThreadPoolExecutor = traced_pool(recorder, "aserver.bridge")
    span(aserver, "execute_json", "wire.execute_json")
    span(wire.ResponseCache, "get", "wire.cache_get",
         annotate=lambda args, result: {
             "hit": 0 if result is None else 1})
    span(protocol, "command_from_json", "protocol.decode")
    span(protocol._Message, "to_json", "protocol.encode",
         annotate=lambda args, result: {
             "bytes": 0 if result is None else len(result)})
    span(executor, "execute_command", "executor.execute",
         annotate=lambda args, result: {"kind": args[1].kind})

    # mining helpers, where the executor looks them up
    span(executor, "prefixspan", "mining.prefixspan")
    span(executor, "similarity_matrix", "mining.similarity")
    span(similarity_module, "similarity_block", "mining.similarity")
    # (``repro.mining.prefixspan`` the package attribute is the function)
    counter(importlib.import_module("repro.mining.prefixspan"),
            "pattern_support", "mining.pattern_support")
    span(executor, "state_sequences", "mining.sequences")
    span(executor, "flow_balances", "mining.flow")
    span(executor, "corpus_summary", "mining.summary")

    # storage
    span(Query, "plan", "storage.plan")
    wrap_generator_counter(recorder, Plan, "iter_results",
                           "storage.fetch")
    counter(Plan, "candidate_ids", "storage.candidates", size=len)
    counter(ReadWriteLock, "acquire_read", "storage.read_lock")
    counter(ReadWriteLock, "acquire_write", "storage.write_lock")
    span(TrajectoryStore, "extend", "storage.extend",
         annotate=lambda args, result: {
             "docs": 0 if result is None else len(result)})

    # core documents
    counter(SemanticTrajectory, "to_dict", "core.to_dict")
    counter(SemanticTrajectory, "from_dict", "core.from_dict")

    # streams
    span(manager.ServerStream, "append", "stream.append",
         annotate=lambda args, result: {
             "events": 0 if result is None else result["appended"]})
    span(manager.ServerStream, "write_state", "stream.write_state")
    _file_growth(recorder, manager.EventJournal, "append",
                 "stream.journal", lambda journal: journal.path)
    counter(manager.WatermarkSegmenter, "feed", "stream.segment")
    span(manager.WatermarkSegmenter, "advance", "stream.advance")
    counter(manager, "event_from_dict", "stream.validate")

    # persistence
    _file_growth(recorder, WriteAheadLog, "append", "persist.wal_append",
                 lambda wal: wal.path)
    span(os, "fsync", "persist.fsync")
    span(persist_session, "load_store", "persist.restore")

    # shards
    coordinator.ThreadPoolExecutor = traced_pool(recorder, "shard.hop")
    span(coordinator.ShardCoordinator, "execute_command",
         "shard.coordinator",
         annotate=lambda args, result: {"kind": args[1].kind})
    span(executor.LocalBinding, "call", "shard.call")
