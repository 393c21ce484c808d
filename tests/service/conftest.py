"""Shared service fixtures.

The ``service`` fixture serves one built session over the asyncio
:class:`AsyncServiceServer`, so every end-to-end test in this package
(lifecycle, pagination, byte-identity, error mapping) runs over a real
socket.  Its single ``asyncio`` parameter keeps the test ids naming
the front-end they exercise.
"""

import pytest

from repro.service.aserver import AsyncServiceServer
from repro.service.client import ServiceClient
from repro.service.registry import SessionRegistry

#: The session every e2e test queries (built once per module).
SESSION = "louvre@0.02"


def make_server(registry, **kwargs):
    """One stopped server on an ephemeral port."""
    return AsyncServiceServer(registry, port=0, **kwargs)


@pytest.fixture(scope="module", params=["asyncio"])
def service(request):
    """``(server, client, registry)`` with one built session,
    module-scoped."""
    registry = SessionRegistry()
    registry.build(SESSION, scale=0.02, wait=True)
    server = make_server(registry)
    server.start()
    client = ServiceClient(server.url)
    try:
        yield server, client, registry
    finally:
        client.close()
        server.stop()
