"""The readiness drain signal: ``GET /v1/ready`` answers 503 while
sessions restore from disk or while the shard layer can no longer
mask failures, and 200 otherwise."""

import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.service import protocol as P
from repro.service.aserver import AsyncServiceServer
from repro.service.executor import Engine
from repro.service.registry import SessionRegistry
from repro.service.wire import ready_payload


def fetch_ready(url):
    try:
        with urllib.request.urlopen(url + "/v1/ready",
                                    timeout=10) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


class BreakerStub:
    """An :class:`Engine` with no sessions whose replica breakers
    are in the given states."""

    restoring = False
    restore_errors = {}

    def __init__(self, states):
        self._states = states

    def execute_command(self, command):
        return P.ErrorInfo(code="unavailable", message="stub engine")

    def finish_restore(self):
        pass

    def cache_stamp(self, session):
        return None

    def health_roster(self):
        return []

    def shard_report(self):
        return None

    def breaker_report(self):
        return [{"shard": 0, "replica": index, "state": state,
                 "failures": 0, "trips": 0}
                for index, state in enumerate(self._states)]

    def stream_report(self):
        return None


def test_breaker_stub_is_an_engine():
    assert isinstance(BreakerStub([]), Engine)


class TestReadyPayload:
    def test_plain_registry_is_ready(self):
        status, payload = ready_payload(SessionRegistry())
        assert status == 200
        assert payload == {"ready": True, "reasons": []}

    def test_deferred_restore_reports_not_ready(self, tmp_path):
        registry = SessionRegistry(persist_dir=str(tmp_path),
                                   defer_restore=True)
        status, payload = ready_payload(registry)
        assert status == 503
        assert not payload["ready"]
        assert payload["reasons"] == ["sessions restoring from disk"]
        registry.finish_restore()
        status, payload = ready_payload(registry)
        assert status == 200
        assert payload["ready"]

    def test_majority_open_breakers_drain_the_instance(self):
        healthy = BreakerStub(["closed", "open", "closed", "closed"])
        status, payload = ready_payload(healthy)
        assert status == 200
        assert payload["ready"]
        assert len(payload["breakers"]) == 4

        draining = BreakerStub(["open", "open", "closed", "open"])
        status, payload = ready_payload(draining)
        assert status == 503
        assert payload["reasons"] == [
            "3 of 4 shard targets have open circuit breakers"]

    def test_half_open_probes_do_not_drain(self):
        probing = BreakerStub(["half_open", "half_open", "closed"])
        status, payload = ready_payload(probing)
        assert status == 200


@pytest.mark.parametrize("server_cls", [AsyncServiceServer])
class TestReadyEndpoint:
    def test_ready_then_draining(self, server_cls, tmp_path):
        registry = SessionRegistry(persist_dir=str(tmp_path),
                                   defer_restore=True)
        server = server_cls(registry, port=0).start()
        try:
            status, payload = fetch_ready(server.url)
            assert status == 503
            assert not payload["ready"]
            registry.finish_restore()
            status, payload = fetch_ready(server.url)
            assert status == 200
            assert payload == {"ready": True, "reasons": []}
        finally:
            server.stop()

    def test_breaker_drain_over_http(self, server_cls):
        engine = BreakerStub(["open", "open"])
        server = server_cls(engine, port=0).start()
        try:
            status, payload = fetch_ready(server.url)
            assert status == 503
            assert "open circuit breakers" in payload["reasons"][0]
        finally:
            server.stop()


class TestServeStartupBuild:
    def test_ready_waits_for_the_startup_build(self, tmp_path):
        """``repro serve`` answers liveness while it builds its
        preload session, but readiness must stay 503 (with a reason)
        until the build is done: a probe gated on ``/v1/ready`` sees
        the whole corpus, never an empty page."""
        url_file = str(tmp_path / "serve.url")
        environment = dict(os.environ)
        source_root = os.path.join(os.path.dirname(__file__),
                                   os.pardir, os.pardir, "src")
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(source_root),
                          environment.get("PYTHONPATH")]))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--scale", "0.02", "--port", "0",
             "--url-file", url_file],
            env=environment, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120
            while not os.path.exists(url_file):
                assert process.poll() is None, "serve exited early"
                assert time.monotonic() < deadline
                time.sleep(0.02)
            with open(url_file, encoding="utf-8") as handle:
                url = json.load(handle)["url"]
            not_ready = []
            while True:
                status, payload = fetch_ready(url)
                if status == 200:
                    break
                not_ready.append(payload)
                assert time.monotonic() < deadline
                time.sleep(0.05)
            for payload in not_ready:
                assert payload["ready"] is False
                assert "preparing session 'louvre'" in payload["reasons"]
            request = urllib.request.Request(
                url + "/v1/call",
                data=P.ListSessions().to_json(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as reply:
                sessions = json.load(reply)["sessions"]
            counts = {info["name"]: info["trajectories"]
                      for info in sessions}
            assert counts.get("louvre", 0) > 0, counts
        finally:
            process.terminate()
            process.wait(timeout=30)
