"""The asyncio front-end's own behaviors.

Everything the parameterized e2e suite (``test_server.py``) cannot
see from the outside: keep-alive reuse, pipelined in-order responses,
503 load shedding with ``Retry-After``, the graceful drain, the
health load report, and response-cache validity across ingestion.
The e2e suite already proves byte-identity with the threaded server;
these tests pin the transport semantics.
"""

import json
import socket
import threading
import time

import pytest

from repro.service import aserver as A
from repro.service import protocol as P
from repro.service.aserver import AsyncServiceServer
from repro.service.client import ServiceClient
from repro.service.registry import SessionRegistry

# ----------------------------------------------------------------------
# raw-socket helpers (the point is to control the wire exactly)
# ----------------------------------------------------------------------


def post_bytes(body, target=b"/v1/call", close=False):
    head = b"POST " + target + b" HTTP/1.1\r\n" \
           b"Host: t\r\nContent-Type: application/json\r\n" \
           b"Content-Length: " + str(len(body)).encode() + b"\r\n"
    if close:
        head += b"Connection: close\r\n"
    return head + b"\r\n" + body


def get_bytes(target=b"/v1/health"):
    return b"GET " + target + b" HTTP/1.1\r\nHost: t\r\n\r\n"


def read_response(sock, buffer=b""):
    """One ``(status, headers, body, leftover)`` off the socket."""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed mid-response")
        buffer += chunk
    head, _, buffer = buffer.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    status = int(lines[0].split(b" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers[b"content-length"])
    while len(buffer) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed mid-body")
        buffer += chunk
    return status, headers, buffer[:length], buffer[length:]


def connect(server):
    sock = socket.create_connection(server.address, timeout=10)
    sock.settimeout(10)
    return sock


LIST_SESSIONS = P.ListSessions().to_json()


# ----------------------------------------------------------------------
# transport semantics
# ----------------------------------------------------------------------
class TestKeepAliveAndPipelining:
    def test_many_requests_one_connection(self):
        with AsyncServiceServer(SessionRegistry(), port=0) as server:
            sock = connect(server)
            try:
                leftover = b""
                for _ in range(5):
                    sock.sendall(post_bytes(LIST_SESSIONS))
                    status, _, body, leftover = read_response(
                        sock, leftover)
                    assert status == 200
                    assert json.loads(body)["response"] \
                        == "SessionList"
                # mixed GET on the same still-open connection
                sock.sendall(get_bytes())
                status, _, body, leftover = read_response(
                    sock, leftover)
                assert status == 200
                served = json.loads(body)["load"]["served"]
                assert served >= 5
            finally:
                sock.close()

    def test_pipelined_responses_come_back_in_order(self, monkeypatch):
        """Two requests written in one burst, the *first* slower than
        the second: responses must still arrive in request order."""
        release_first = threading.Event()

        def staged_execute(registry, raw, cache=None):
            tag = json.loads(raw)["tag"]
            if tag == "first":
                release_first.wait(10)
            return 200, json.dumps({"tag": tag}).encode()

        monkeypatch.setattr(A, "execute_json", staged_execute)
        server = AsyncServiceServer(SessionRegistry(), port=0,
                                    sync_workers=2,
                                    response_cache=False)
        with server:
            sock = connect(server)
            try:
                burst = post_bytes(b'{"tag": "first"}') \
                    + post_bytes(b'{"tag": "second"}')
                sock.sendall(burst)
                # give the fast second request time to finish first
                time.sleep(0.2)
                release_first.set()
                _, _, body, leftover = read_response(sock)
                assert json.loads(body)["tag"] == "first"
                _, _, body, _ = read_response(sock, leftover)
                assert json.loads(body)["tag"] == "second"
            finally:
                sock.close()

    def test_connection_close_is_honored(self):
        with AsyncServiceServer(SessionRegistry(), port=0) as server:
            sock = connect(server)
            try:
                sock.sendall(post_bytes(LIST_SESSIONS, close=True))
                status, _, _, leftover = read_response(sock)
                assert status == 200
                assert leftover == b""
                assert sock.recv(1024) == b""  # server closed it
            finally:
                sock.close()

    def test_post_to_unknown_path_keeps_stream_aligned(self):
        with AsyncServiceServer(SessionRegistry(), port=0) as server:
            sock = connect(server)
            try:
                sock.sendall(post_bytes(b'{"x": 1}',
                                        target=b"/v2/nope"))
                status, _, body, leftover = read_response(sock)
                assert status == 404
                assert json.loads(body)["code"] == "not_found"
                # next request on the same connection still parses
                sock.sendall(post_bytes(LIST_SESSIONS))
                status, _, _, _ = read_response(sock, leftover)
                assert status == 200
            finally:
                sock.close()


class TestBackPressure:
    def test_saturated_requests_get_503_with_retry_after(
            self, monkeypatch):
        entered = threading.Semaphore(0)
        release = threading.Event()

        def blocking_execute(registry, raw, cache=None):
            entered.release()
            release.wait(10)
            return 200, b'{"done": true}'

        monkeypatch.setattr(A, "execute_json", blocking_execute)
        server = AsyncServiceServer(SessionRegistry(), port=0,
                                    sync_workers=1, max_inflight=2,
                                    response_cache=False)
        with server:
            slow_socks = [connect(server) for _ in range(2)]
            extra = connect(server)
            try:
                for sock in slow_socks:
                    sock.sendall(post_bytes(b'{"n": 1}'))
                # one is executing on the single worker; the other is
                # queued — both count against max_inflight
                assert entered.acquire(timeout=5)
                deadline = time.monotonic() + 5
                while server._inflight < 2:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                extra.sendall(post_bytes(b'{"n": 2}'))
                status, headers, body, _ = read_response(extra)
                assert status == 503
                assert headers[b"retry-after"] == b"1"
                assert json.loads(body)["code"] == "saturated"
                release.set()
                for sock in slow_socks:
                    status, _, body, _ = read_response(sock)
                    assert status == 200
                    assert json.loads(body) == {"done": True}
                # rejected is reported by health
                extra2 = connect(server)
                extra2.sendall(get_bytes())
                _, _, body, _ = read_response(extra2)
                extra2.close()
                assert json.loads(body)["load"]["rejected"] == 1
            finally:
                release.set()
                for sock in slow_socks + [extra]:
                    sock.close()


class TestDeadlineShedding:
    def test_expired_deadline_is_shed_with_504(self, monkeypatch):
        """A request whose ``deadline_ms`` budget was consumed while
        it waited behind a slow one gets a typed 504 instead of
        burning a bridge worker."""
        entered = threading.Semaphore(0)
        release = threading.Event()
        real_execute = A.execute_json

        def gated_execute(registry, raw, cache=None):
            if b'"slow"' in raw:
                entered.release()
                release.wait(10)
                return 200, b'{"done": true}'
            return real_execute(registry, raw, cache)

        monkeypatch.setattr(A, "execute_json", gated_execute)
        server = AsyncServiceServer(SessionRegistry(), port=0,
                                    sync_workers=1,
                                    response_cache=False)
        with server:
            slow = connect(server)
            deadlined = connect(server)
            try:
                slow.sendall(post_bytes(b'{"tag": "slow"}'))
                assert entered.acquire(timeout=5)
                # 50 ms budget, but the single worker is busy — by
                # the time a worker frees up, the budget is gone.
                command = P.ListSessions().with_deadline(50)
                deadlined.sendall(post_bytes(command.to_json()))
                time.sleep(0.3)
                release.set()
                status, _, body, _ = read_response(deadlined)
                assert status == 504
                assert json.loads(body)["code"] == "deadline_exceeded"
                status, _, _, _ = read_response(slow)
                assert status == 200
                # the shed is counted in the health load report
                probe = connect(server)
                probe.sendall(get_bytes())
                _, _, body, _ = read_response(probe)
                probe.close()
                assert json.loads(body)["load"][
                    "deadline_rejected"] == 1
            finally:
                release.set()
                slow.close()
                deadlined.close()

    def test_live_deadline_executes_normally(self):
        with AsyncServiceServer(SessionRegistry(), port=0) as server:
            sock = connect(server)
            try:
                command = P.ListSessions().with_deadline(30_000)
                sock.sendall(post_bytes(command.to_json()))
                status, _, body, _ = read_response(sock)
                assert status == 200
                assert json.loads(body)["response"] == "SessionList"
            finally:
                sock.close()


class TestGracefulDrain:
    def test_stop_flushes_inflight_responses(self, monkeypatch):
        def slow_execute(registry, raw, cache=None):
            time.sleep(0.3)
            return 200, b'{"late": true}'

        monkeypatch.setattr(A, "execute_json", slow_execute)
        server = AsyncServiceServer(SessionRegistry(), port=0,
                                    response_cache=False).start()
        sock = connect(server)
        try:
            sock.sendall(post_bytes(b'{"n": 1}'))
            time.sleep(0.05)  # let the loop dispatch it
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            status, _, body, _ = read_response(sock)
            stopper.join(timeout=10)
            assert not stopper.is_alive()
            assert status == 200
            assert json.loads(body) == {"late": True}
        finally:
            sock.close()

    def test_stop_without_start_does_not_hang(self):
        server = AsyncServiceServer(SessionRegistry(), port=0)
        server.stop()  # must return, not deadlock

    def test_start_fails_fast_on_taken_port(self):
        first = AsyncServiceServer(SessionRegistry(), port=0)
        with pytest.raises(OSError):
            AsyncServiceServer(SessionRegistry(),
                               port=first.address[1])
        first.stop()


class TestMalformedRequests:
    def test_malformed_head_is_400(self):
        with AsyncServiceServer(SessionRegistry(), port=0) as server:
            sock = connect(server)
            try:
                sock.sendall(b"NONSENSE\r\n\r\n")
                status, _, body, _ = read_response(sock)
                assert status == 400
                assert json.loads(body)["code"] == "bad_request"
            finally:
                sock.close()

    def test_oversized_body_is_400(self):
        with AsyncServiceServer(SessionRegistry(), port=0) as server:
            sock = connect(server)
            try:
                head = b"POST /v1/call HTTP/1.1\r\nHost: t\r\n" \
                    b"Content-Length: " \
                    + str(A.MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n"
                sock.sendall(head)
                status, _, body, _ = read_response(sock)
                assert status == 400
            finally:
                sock.close()

    def test_unknown_method_answers_then_closes(self):
        with AsyncServiceServer(SessionRegistry(), port=0) as server:
            sock = connect(server)
            try:
                sock.sendall(b"PUT /v1/call HTTP/1.1\r\n"
                             b"Host: t\r\n\r\n")
                status, _, _, leftover = read_response(sock)
                assert status == 405
                assert leftover == b""
                assert sock.recv(1024) == b""
            finally:
                sock.close()


class TestResponseCacheOverHttp:
    def test_repeat_reads_hit_and_ingest_invalidates(self):
        registry = SessionRegistry()
        registry.build("louvre", scale=0.01, wait=True)
        with AsyncServiceServer(registry, port=0) as server:
            client = ServiceClient(server.url)
            before = client.summary("louvre").stats
            again = client.summary("louvre").stats
            assert again == before
            stats = client.health()["load"]["cache"]
            assert stats["hits"] >= 1
            # ingest more: the same command must see the new corpus
            client.build("louvre", scale=0.01, wait=True)
            after = client.summary("louvre").stats
            assert after["visits"] > before["visits"]
            client.close()

    def test_each_uncached_request_counts_one_miss(self):
        """A miss is looked up once, by the front end: the bridge
        executes and stores it without asking the cache again."""
        registry = SessionRegistry()
        registry.build("louvre", scale=0.01, wait=True)
        lookups = []
        with AsyncServiceServer(registry, port=0) as server:
            real_get = server.cache.get

            def counted_get(*args, **kwargs):
                lookups.append(args[-1])
                return real_get(*args, **kwargs)

            server.cache.get = counted_get
            client = ServiceClient(server.url)
            for limit in range(1, 9):
                client.run_query("louvre", limit=limit)
            client.run_query("louvre", limit=1)  # one hit
            stats = client.health()["load"]["cache"]
            client.close()
        assert stats["misses"] == 8
        assert stats["hits"] == 1
        assert len(lookups) == 9


class TestSocketOptions:
    def test_accepted_connections_disable_nagle(self):
        with AsyncServiceServer(SessionRegistry(), port=0) as server:
            sock = connect(server)
            try:
                sock.sendall(post_bytes(LIST_SESSIONS))
                status, _, _, _ = read_response(sock)
                assert status == 200
                accepted = [writer.get_extra_info("socket")
                            for writer in list(server._conn_writers)]
                assert accepted
                for peer in accepted:
                    assert peer.getsockopt(socket.IPPROTO_TCP,
                                           socket.TCP_NODELAY) == 1
            finally:
                sock.close()
