"""Client transport resilience: budgeted retries for idempotent
commands.

A flaky-transport double runs in front of a real served registry: it
accepts a TCP connection and slams it shut (simulating a proxy reset
or server restart mid-request), then hands subsequent connections to
the real server.  Idempotent commands survive up to
``retry_attempts - 1`` such resets with capped-exponential backoff;
mutating commands surface the error instead of risking a double
apply.
"""

import socket
import threading

import pytest

from repro.service import protocol as P
from repro.service.aserver import AsyncServiceServer
from repro.service.client import ServiceClient, _is_retryable
from repro.service.registry import SessionRegistry

SESSION = "retry"


@pytest.fixture(scope="module")
def backend():
    registry = SessionRegistry()
    registry.build(SESSION, scale=0.01, wait=True)
    server = AsyncServiceServer(registry, port=0).start()
    try:
        yield server
    finally:
        server.stop()


class FlakyProxy:
    """A TCP front that resets the first N connections, then pipes
    the rest byte-for-byte to the backend."""

    def __init__(self, backend_address, resets=1):
        self.backend_address = backend_address
        self.resets = resets
        self.connections = 0
        self._listener = socket.socket(socket.AF_INET,
                                       socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self._alive = True
        self._thread = threading.Thread(target=self._serve,
                                        daemon=True)
        self._thread.start()

    @property
    def url(self):
        host, port = self._listener.getsockname()
        return "http://{}:{}".format(host, port)

    def _serve(self):
        while self._alive:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            if self.connections <= self.resets:
                # RST instead of FIN: the client sees a reset
                client.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    b"\x01\x00\x00\x00\x00\x00\x00\x00")
                client.close()
                continue
            threading.Thread(target=self._pipe, args=(client,),
                             daemon=True).start()

    def _pipe(self, client):
        upstream = socket.create_connection(self.backend_address)

        def pump(source, sink):
            try:
                while True:
                    chunk = source.recv(65536)
                    if not chunk:
                        break
                    sink.sendall(chunk)
            except OSError:
                pass
            finally:
                try:
                    sink.shutdown(socket.SHUT_WR)
                except OSError:
                    pass

        threading.Thread(target=pump, args=(client, upstream),
                         daemon=True).start()
        pump(upstream, client)
        client.close()
        upstream.close()

    def stop(self):
        self._alive = False
        self._listener.close()


class TestRetry:
    def test_idempotent_command_survives_one_reset(self, backend):
        proxy = FlakyProxy(backend.address, resets=1)
        try:
            client = ServiceClient(proxy.url, retry_backoff=0.01)
            page = client.run_query(SESSION, limit=3)
            assert page.hits
            assert proxy.connections >= 2  # reset + successful retry
        finally:
            proxy.stop()

    def test_resets_within_the_attempt_budget_are_absorbed(
            self, backend):
        proxy = FlakyProxy(backend.address, resets=2)
        try:
            client = ServiceClient(proxy.url, retry_backoff=0.01,
                                   retry_attempts=3)
            page = client.run_query(SESSION, limit=3)
            assert page.hits
            assert proxy.connections >= 3  # two resets + success
        finally:
            proxy.stop()

    def test_resets_past_the_budget_exhaust_with_attempt_count(
            self, backend):
        proxy = FlakyProxy(backend.address, resets=5)
        try:
            client = ServiceClient(proxy.url, retry_backoff=0.01,
                                   retry_attempts=2)
            with pytest.raises(P.ServiceUnavailable) as excinfo:
                client.run_query(SESSION, limit=3)
            assert excinfo.value.attempts == 2
            assert excinfo.value.code == "unavailable"
            assert isinstance(excinfo.value, OSError)  # legacy shape
            assert proxy.connections == 2
        finally:
            proxy.stop()

    def test_mutating_command_is_not_retried(self, backend):
        proxy = FlakyProxy(backend.address, resets=1)
        try:
            client = ServiceClient(proxy.url, retry_backoff=0.01)
            with pytest.raises(OSError):
                client.call(P.BuildDataset(session="other",
                                           scale=0.01))
            assert proxy.connections == 1  # exactly one attempt
        finally:
            proxy.stop()

    def test_zero_backoff_disables_retry(self, backend):
        proxy = FlakyProxy(backend.address, resets=1)
        try:
            client = ServiceClient(proxy.url, retry_backoff=0)
            with pytest.raises(OSError):
                client.run_query(SESSION, limit=3)
        finally:
            proxy.stop()


class TestRetryClassification:
    def test_retryable_shapes(self):
        import http.client
        import urllib.error

        assert _is_retryable(ConnectionResetError())
        assert _is_retryable(
            http.client.RemoteDisconnected("gone"))
        assert _is_retryable(
            urllib.error.URLError(ConnectionResetError()))
        assert not _is_retryable(ConnectionRefusedError())
        assert not _is_retryable(
            urllib.error.URLError(TimeoutError()))

    def test_error_message_carries_http_status(self, backend):
        client = ServiceClient(backend.url)
        with pytest.raises(P.ServiceError) as excinfo:
            client.run_query("no-such-session", limit=1)
        assert excinfo.value.code == "unknown_session"
        assert excinfo.value.http_status == 404
        assert "[HTTP 404]" in str(excinfo.value)
