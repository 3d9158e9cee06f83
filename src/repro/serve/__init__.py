"""Pipeline-as-a-service: persistent serving over warm compiled pipelines.

The one-shot drivers (``run``/``figures``/``chaos``) compile, execute,
and tear down per invocation.  This subsystem keeps the expensive parts
alive across requests — the shape a pipeline needs to serve heavy
traffic:

* :mod:`~repro.serve.plancache` — compilation results keyed by (source,
  compile context, resolved backend, decomposition environment); a hit
  skips parse→analysis→decompose→codegen entirely; the exported
  :class:`PlanCacheProtocol` is the ``compile_source(cache=)`` contract;
* :mod:`~repro.serve.broker` — bounded admission queue (block /
  reject-with-retry-after / shed-oldest) and micro-batch assembly under a
  size/deadline budget;
* :mod:`~repro.serve.session` — a warm engine reused across every
  request (``EngineSession`` + ``Engine.rebind``), with per-batch
  recovery via the engine's retry policy;
* :mod:`~repro.serve.server` — the dispatcher tying it together, with
  per-request deadlines and graceful drain;
* :mod:`~repro.serve.transport` — the multi-host path: a length-prefixed,
  versioned wire protocol (framed JSON + binary payload segments) over
  TCP, with a listener that feeds decoded requests into the *same*
  admission → micro-batch → plan-cache → warm-engine path local calls
  take;
* :mod:`~repro.serve.metrics` — the observability surface: per-request
  *stage* spans (admission → queue → assemble → execute → extract →
  write) linked by trace id and execution id to the engine-level filter
  spans in one bounded trace, plus the windowed counters/gauges/latency
  histograms of :mod:`~repro.serve.timeseries` behind ``stats``
  percentiles, the Prometheus exposition, and the
  :meth:`ServerMetrics.window` autoscale signal;
* :mod:`~repro.serve.timeseries` — the bounded time-series primitives:
  mergeable log-bucket latency histograms and per-second rolling windows
  (1 s / 10 s / 60 s) under one registry;
* :mod:`~repro.serve.client` — the :class:`Client` protocol and its two
  transports: :class:`LocalClient` (in-process function call) and
  :class:`RemoteClient` (socket), mirror images used interchangeably by
  tests, the throughput benchmark, and ``python -m repro serve``.

Request→packet adapters for the bundled applications live next to the
apps themselves (``repro.apps.make_knn_service`` /
``make_vmscope_service``).
"""

from .broker import AdmissionQueue
from .client import BaseClient, Client, LocalClient, RemoteClient
from .metrics import EngineSpanTap, ServerMetrics
from .plancache import CacheStats, PlanCache, PlanCacheProtocol
from .requests import (
    SCHEMA_VERSION,
    STATS_KIND,
    PendingResponse,
    Request,
    Response,
    SchemaVersionError,
    Service,
    ServicePlan,
    WireFormatError,
    mint_trace_id,
)
from .server import PipelineServer, ServerClosed, ServerOptions
from .session import SessionPool, oneshot
from .timeseries import LatencyHistogram, MetricsRegistry
from .transport import TransportListener

__all__ = [
    "AdmissionQueue",
    "BaseClient",
    "CacheStats",
    "Client",
    "EngineSpanTap",
    "LatencyHistogram",
    "LocalClient",
    "MetricsRegistry",
    "PendingResponse",
    "PipelineServer",
    "PlanCache",
    "PlanCacheProtocol",
    "RemoteClient",
    "Request",
    "Response",
    "SCHEMA_VERSION",
    "STATS_KIND",
    "SchemaVersionError",
    "ServerClosed",
    "ServerMetrics",
    "ServerOptions",
    "Service",
    "ServicePlan",
    "SessionPool",
    "TransportListener",
    "WireFormatError",
    "mint_trace_id",
    "oneshot",
]
