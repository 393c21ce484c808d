"""The service layer: the reproduction as an addressable system.

Everything PR 1–3 made fast and composable — the streaming pipeline
engine, the cost-based planned queries, the mining layer — is exposed
here as a *service*: named multi-dataset sessions, a typed JSON wire
protocol, and one embedded asyncio HTTP server, all on the standard
library only.

* :mod:`repro.service.protocol` — dataclass commands and responses
  (``BuildDataset``, ``RunQuery``, ``Explain``, ``MinePatterns``,
  ``Similarity``, ``Flow``, ``Sequences``, …) that round-trip through
  JSON, plus stable cursor-based pagination;
* :mod:`repro.service.registry` — :class:`SessionRegistry`, named
  independently-configured datasets with background build jobs over
  the parallel pipeline engine and live
  :class:`~repro.pipeline.metrics.PipelineMetrics` progress; give it
  a ``persist_dir`` and sessions become durable (journaled builds,
  auto-checkpoints, restore-on-restart — ``repro.persist``);
* :mod:`repro.service.executor` — the one implementation of every
  command and the :class:`Engine` protocol every front-end speaks;
  :class:`LocalBinding` runs it in-process (this is what
  :class:`~repro.api.Workbench` is sugar over), the server runs the
  same functions behind HTTP;
* :mod:`repro.service.wire` — the bytes-in/bytes-out request path
  (:func:`~repro.service.wire.execute_json`) plus the versioned
  :class:`~repro.service.wire.ResponseCache`;
* :mod:`repro.service.aserver` — the HTTP front-end
  (:class:`AsyncServiceServer`): keep-alive + pipelined HTTP/1.1 on
  one event loop bridging into a bounded worker pool, with 503
  load-shedding when saturated;
* :mod:`repro.service.client` — the thin persistent keep-alive
  client.

See ``docs/service.md`` for the protocol reference and curl examples.
"""

from repro.service.aserver import AsyncServiceServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.executor import (
    Engine,
    LocalBinding,
    execute_command,
    execute_safely,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    command_from_dict,
    command_from_json,
    response_from_dict,
    response_from_json,
)
from repro.service.registry import BuildJob, JobState, Session, SessionRegistry
from repro.service.wire import ResponseCache, execute_json

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "command_from_dict",
    "command_from_json",
    "response_from_dict",
    "response_from_json",
    "BuildJob",
    "JobState",
    "Session",
    "SessionRegistry",
    "Engine",
    "LocalBinding",
    "execute_command",
    "execute_safely",
    "AsyncServiceServer",
    "ResponseCache",
    "execute_json",
    "ServiceClient",
    "ServiceError",
]
