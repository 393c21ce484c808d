"""The asyncio trajectory server: the service's HTTP front-end.

Endpoints::

    POST /v1/call     body = one command object   → response object
    GET  /v1/health   liveness + session roster   → plain JSON
    GET  /v1/ready    readiness (drain signal)    → 200/503 JSON

Error responses carry an ``Error`` protocol object and a matching
HTTP status (400 for bad requests, 404 for unknown sessions/jobs,
500 for internal failures, 503/504 when shedding load).  One
single-threaded asyncio event loop serves every connection:

* **keep-alive first** — connections are long-lived; a request costs
  a buffered parse, not a handshake plus a thread;
* **pipelined handling** — each connection runs a reader task that
  parses and dispatches requests back-to-back and a writer task that
  streams the responses out strictly in order, so a client may have
  many requests in flight on one socket and back-to-back requests
  are parsed out of a single ``recv``;
* **a bounded sync bridge** — command execution stays the
  synchronous :func:`~repro.service.wire.execute_json` path (byte
  identity with :class:`~repro.service.executor.LocalBinding` is by
  construction), run on a bounded ``ThreadPoolExecutor`` so slow
  commands (mining, a cold build) never stall the loop;
* **back-pressure, not collapse** — at most ``max_inflight``
  requests may be executing or queued for the bridge; past that the
  server answers ``503`` with a ``Retry-After`` hint instead of
  growing an unbounded backlog (the counters are visible in
  ``GET /v1/health``);
* **response cache on the loop** — every body is looked up in the
  versioned :class:`~repro.service.wire.ResponseCache` once, on the
  loop: hits are answered inline without touching the bridge, misses
  execute there and insert their reply;
* **graceful drain** — ``stop()`` stops accepting, lets in-flight
  requests finish (bounded by ``drain_timeout``), flushes their
  responses, then closes the remaining connections.

Usage::

    server = AsyncServiceServer(registry, port=0).start()
    print(server.url)
    ...
    server.stop()

or from the command line: ``repro serve``.
"""

from __future__ import annotations

import asyncio
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Tuple

from repro.service import protocol as P
from repro.service.executor import Engine
from repro.service.registry import SessionRegistry
from repro.service.wire import (
    ResponseCache,
    admission,
    execute_json,
    health_payload,
    ready_payload,
)

#: Request bodies above this are rejected (a command is small).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: StreamReader buffer bound — also caps the request head size.
READER_LIMIT = 256 * 1024

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _response_bytes(status: int, payload: bytes,
                    retry_after: Optional[int] = None) -> bytes:
    head = "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\n" \
           "Content-Length: {}\r\n".format(
               status, _REASONS.get(status, "Unknown"), len(payload))
    if retry_after is not None:
        head += "Retry-After: {}\r\n".format(retry_after)
    return head.encode("ascii") + b"\r\n" + payload


def _error_bytes(status: int, code: str, message: str,
                 retry_after: Optional[int] = None) -> bytes:
    return _response_bytes(
        status, P.ErrorInfo(code=code, message=message).to_json(),
        retry_after=retry_after)


def _parse_head(head: bytes) -> Tuple[bytes, bytes, int, bool, bool]:
    """``(method, target, content_length, keep_alive, ok)`` of one
    request head (the bytes up to and including the blank line)."""
    lines = head[:-4].split(b"\r\n")
    request = lines[0].split(b" ")
    if len(request) != 3:
        return b"", b"", 0, False, False
    method, target, version = request
    length = 0
    connection = b""
    for line in lines[1:]:
        name, sep, value = line.partition(b":")
        if not sep:
            continue
        lowered = name.strip().lower()
        if lowered == b"content-length":
            try:
                length = int(value.strip())
            except ValueError:
                return method, target, 0, False, False
        elif lowered == b"connection":
            connection = value.strip().lower()
    keep_alive = version == b"HTTP/1.1" and connection != b"close"
    return method, target, length, keep_alive, True


class AsyncServiceServer:
    """The asyncio HTTP/JSON trajectory server.

    Args:
        registry: the :class:`~repro.service.executor.Engine` to
            serve (a session registry or a shard coordinator); a
            fresh registry by default.
        host: bind address (loopback by default).
        port: TCP port; ``0`` picks an ephemeral free port.  The
            socket is bound in the constructor, so a port conflict
            fails fast and :attr:`url` is valid before :meth:`start`.
        verbose: log each request line to stderr.
        sync_workers: threads in the bounded bridge that runs the
            synchronous command path.
        max_inflight: requests allowed to be executing or queued for
            the bridge before the server sheds load with ``503``.
        response_cache: serve repeated read commands from the
            versioned :class:`~repro.service.wire.ResponseCache`.
        drain_timeout: seconds :meth:`stop` waits for in-flight
            requests to finish before closing connections.
    """

    def __init__(self, registry: Optional[Engine] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 verbose: bool = False, sync_workers: int = 4,
                 max_inflight: int = 64,
                 response_cache: bool = True,
                 drain_timeout: float = 5.0) -> None:
        self.registry = registry if registry is not None \
            else SessionRegistry()
        self.verbose = verbose
        self.sync_workers = max(1, int(sync_workers))
        self.max_inflight = max(1, int(max_inflight))
        self.drain_timeout = drain_timeout
        self.cache = ResponseCache() if response_cache else None
        #: What the owner is still preparing before this server should
        #: take traffic (a startup build), or None; while set,
        #: ``GET /v1/ready`` answers 503 with it among the reasons.
        self.starting: Optional[str] = None

        # IPPROTO_TCP, not 0: accepted sockets inherit the protocol,
        # and asyncio sets TCP_NODELAY only on sockets that name it —
        # with Nagle on, a pipelined client's replies wait for ACKs.
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM,
                             socket.IPPROTO_TCP)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((host, port))
            sock.listen(128)
            sock.setblocking(False)
        except OSError:
            sock.close()
            raise
        self._socket = sock

        # Loop-confined counters (mutated only on the event loop) —
        # except _deadline_rejected, bumped by bridge workers (a bare
        # int increment; the GIL keeps the counter coherent).
        self._inflight = 0   # executing or queued on the bridge
        self._pending = 0    # responses dispatched but not yet written
        self._rejected = 0
        self._deadline_rejected = 0
        self._served = 0

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._stop_requested: Optional[asyncio.Event] = None
        self._conn_writers: set = set()
        self._conn_tasks: set = set()
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._finished = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- addresses ------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (port resolved at bind)."""
        return self._socket.getsockname()[:2]

    @property
    def url(self) -> str:
        """Base URL, e.g. ``http://127.0.0.1:8731``."""
        host, port = self.address
        return "http://{}:{}".format(host, port)

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "AsyncServiceServer":
        """Run the event loop on a daemon thread; returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run_loop, name="repro-aservice",
                daemon=True)
            self._thread.start()
            self._ready.wait()
            if self._startup_error is not None:
                self._thread.join()
                self._thread = None
                raise self._startup_error
        return self

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surfaced by start()
            if not self._ready.is_set():
                self._startup_error = error
        finally:
            self._ready.set()
            self._finished.set()

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI foreground mode)."""
        asyncio.run(self._main())

    def stop(self) -> None:
        """Drain in-flight requests, then shut the server down.

        Safe on a never-started server (just closes the socket).
        """
        if self._thread is not None:
            loop = self._loop
            if loop is not None and loop.is_running():
                loop.call_soon_threadsafe(self._request_stop)
            self._thread.join()
            self._thread = None
        else:
            self._socket.close()

    def _request_stop(self) -> None:
        if self._stop_requested is not None:
            self._stop_requested.set()

    def __enter__(self) -> "AsyncServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- the loop -------------------------------------------------------
    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.sync_workers,
            thread_name_prefix="repro-sync")
        server = await asyncio.start_server(
            self._serve_connection, sock=self._socket,
            limit=READER_LIMIT)
        self._ready.set()
        try:
            await self._stop_requested.wait()
        finally:
            await self._drain(server)

    async def _drain(self, server: "asyncio.AbstractServer") -> None:
        server.close()
        try:
            await server.wait_closed()
        except (OSError, RuntimeError):  # pragma: no cover
            pass
        # Let everything already accepted finish and flush.
        deadline = self._loop.time() + self.drain_timeout
        while ((self._inflight or self._pending)
               and self._loop.time() < deadline):
            await asyncio.sleep(0.01)
        for writer in list(self._conn_writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=1.0)
        for task in list(self._conn_tasks):  # pragma: no cover
            task.cancel()
        self._executor.shutdown(wait=False, cancel_futures=True)

    # -- per-connection reader/writer pair ------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        # In-order response lane: the queue bounds how far one
        # connection may pipeline ahead of its unwritten responses.
        queue: "asyncio.Queue" = asyncio.Queue(32)
        writer_task = self._loop.create_task(
            self._write_responses(queue, writer))
        try:
            await self._read_requests(reader, queue)
        finally:
            await queue.put(None)
            await writer_task
            self._conn_writers.discard(writer)
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def _read_requests(self, reader: asyncio.StreamReader,
                             queue: "asyncio.Queue") -> None:
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except asyncio.IncompleteReadError:
                return  # clean close (or mid-head disconnect)
            except asyncio.LimitOverrunError:
                await self._enqueue(queue, _error_bytes(
                    431, "bad_request", "request head too large"))
                return
            except (ConnectionError, OSError):
                return
            method, target, length, keep_alive, ok = _parse_head(head)
            if self.verbose:  # pragma: no cover
                print("aserver: {} {}".format(
                    method.decode("latin-1"),
                    target.decode("latin-1")), file=sys.stderr)
            if not ok:
                await self._enqueue(queue, _error_bytes(
                    400, "bad_request", "malformed request head"))
                return
            path = target.rstrip(b"/")
            if method == b"GET":
                if path == b"/v1/ready":
                    status, payload = ready_payload(self.registry)
                    if self.starting is not None:
                        status = 503
                        payload["ready"] = False
                        payload["reasons"].append(self.starting)
                    await self._enqueue(queue, _response_bytes(
                        status, P.canonical_json(payload)))
                    continue
                if path not in (b"/v1/health", b""):
                    await self._enqueue(queue, _error_bytes(
                        404, "not_found", "unknown path {!r}".format(
                            target.decode("latin-1"))))
                    continue
                await self._enqueue(queue, _response_bytes(
                    200, P.canonical_json(health_payload(
                        self.registry, load=self._load_report()))))
            elif method == b"POST":
                if path != b"/v1/call":
                    # Swallow the (bounded) body so the stream stays
                    # aligned for the next pipelined request.
                    if 0 < length <= MAX_BODY_BYTES:
                        try:
                            await reader.readexactly(length)
                        except (asyncio.IncompleteReadError,
                                ConnectionError, OSError):
                            return
                    await self._enqueue(queue, _error_bytes(
                        404, "not_found", "unknown path {!r}".format(
                            target.decode("latin-1"))))
                    if length > MAX_BODY_BYTES:
                        return
                    continue
                if length < 0 or length > MAX_BODY_BYTES:
                    await self._enqueue(queue, _error_bytes(
                        400, "bad_request",
                        "bad or oversized request body"))
                    return  # cannot resync the stream past the body
                try:
                    body = await reader.readexactly(length)
                except (asyncio.IncompleteReadError,
                        ConnectionError, OSError):
                    return
                await self._dispatch(queue, body)
            else:
                # Unknown method: the body framing is unknowable, so
                # answer and close rather than risk a desynced stream.
                await self._enqueue(queue, _error_bytes(
                    405, "bad_request",
                    "method {!r} not allowed".format(
                        method.decode("latin-1"))))
                return
            if not keep_alive:
                return

    async def _dispatch(self, queue: "asyncio.Queue",
                        body: bytes) -> None:
        """Answer one ``/v1/call`` body: cache hit inline, otherwise
        through the bounded bridge — or shed load."""
        if self.cache is not None:
            held = self.cache.get(self.registry, body)
            if held is not None:
                status, payload = held
                await self._enqueue(
                    queue, _response_bytes(status, payload))
                return
        if self._inflight >= self.max_inflight:
            self._rejected += 1
            await self._enqueue(queue, _error_bytes(
                503, "saturated",
                "server saturated ({} requests in flight)".format(
                    self._inflight), retry_after=1))
            return
        self._inflight += 1
        future = self._loop.run_in_executor(
            self._executor, self._execute, body, time.monotonic())
        await self._enqueue(queue, future)

    def _execute(self, body: bytes,
                 queued_at: float) -> Tuple[int, bytes]:
        """Bridge-thread execution of a body the loop already missed
        in the cache and queued at ``queued_at``.

        :func:`execute_json` sheds a request whose ``deadline_ms``
        budget the queue wait consumed with a typed
        ``deadline_exceeded`` 504 — the caller stopped waiting, so
        executing it would burn a bridge worker on an answer nobody
        reads.
        """
        admission.queued_at = queued_at
        admission.shed = False
        try:
            return execute_json(self.registry, body, self.cache)
        finally:
            if admission.shed:
                self._deadline_rejected += 1
            admission.queued_at = None

    async def _enqueue(self, queue: "asyncio.Queue", item) -> None:
        self._pending += 1
        await queue.put(item)

    async def _write_responses(self, queue: "asyncio.Queue",
                               writer: asyncio.StreamWriter) -> None:
        """Drain the response lane strictly in order."""
        while True:
            item = await queue.get()
            if item is None:
                return
            if isinstance(item, asyncio.Future):
                try:
                    status, payload = await item
                except BaseException:  # cancelled mid-drain
                    self._inflight -= 1
                    self._pending -= 1
                    continue
                self._inflight -= 1
                data = _response_bytes(status, payload)
            else:
                data = item
            self._pending -= 1
            self._served += 1
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, OSError):
                # Client went away: keep draining futures so the
                # inflight accounting stays truthful.
                continue

    # -- observability --------------------------------------------------
    def _load_report(self) -> dict:
        report = {
            "backend": "asyncio",
            "inflight": self._inflight,
            "queued": max(0, self._inflight - self.sync_workers),
            "pending_responses": self._pending,
            "max_inflight": self.max_inflight,
            "sync_workers": self.sync_workers,
            "rejected": self._rejected,
            "deadline_rejected": self._deadline_rejected,
            "served": self._served,
        }
        if self.cache is not None:
            report["cache"] = self.cache.stats()
        return report
