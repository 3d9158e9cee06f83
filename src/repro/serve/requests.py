"""Request/response types of the serving subsystem.

A :class:`Request` is one client question ("the 3 nearest neighbours of
this point", "this region of the slide at this subsampling"); the broker
admits it, the dispatcher batches it, a warm pipeline answers it, and the
client reads the :class:`Response` off the request's
:class:`PendingResponse` future.

A *service* (one per application kind, see ``make_knn_service`` /
``make_vmscope_service`` in :mod:`repro.apps`) translates a request body
into a :class:`ServicePlan` — the request→packet adapter: which program
to compile (plan-cache key material), which packets to stream, which
runtime parameters carry the request, and how to extract the response
value from the pipeline's final payloads.  Requests whose plans share a
``group_key`` are *compatible*: the dispatcher executes the pipeline once
for the whole group and demultiplexes the result to every member.

Services may additionally opt into **request fusion** — merging requests
whose runtime params *differ* into one lane-batched execution.  The
protocol is three ``ServicePlan`` fields: ``fuse_key`` (the compatibility
identity *excluding* per-request params; ``None`` opts out), ``fuse``
(a combiner taking the distinct plans of one fusion group and returning
a single plan whose params carry a lane-indexed batch), and — on the
combined plan — ``extract_lane`` (the per-lane demultiplexer, payloads +
lane index → that lane's response value) with ``lanes`` recording the
lane count.  The dispatcher in :mod:`repro.serve.server` groups by
``fuse_key``, assigns one lane per distinct ``group_key``, and falls back
to plain equal-``group_key`` coalescing when fusion is off, unsupported,
or the group collapses to a single lane.

Both types know their own **wire encoding** (:meth:`Request.to_wire` /
:meth:`Request.from_wire` and the Response pair): a JSON-safe header
dict plus a list of opaque binary segments holding bulk payloads
(ndarrays, bytes) — framing and transmission live in
:mod:`repro.serve.transport`, but *what* goes on the wire is defined
here, next to the types, under an explicit :data:`SCHEMA_VERSION`.
Decoding a frame from a future (or corrupted) schema raises
:class:`SchemaVersionError`, which the transport maps to a structured
error response rather than a dead connection.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from ..core.compiler import CompileOptions
from ..lang.intrinsics import IntrinsicRegistry

#: request kind reserved for the metrics surface (answered by the server
#: itself, never by a pipeline)
STATS_KIND = "stats"

#: terminal response statuses
STATUSES = (
    "ok",          # served; ``value`` holds the answer
    "rejected",    # admission control refused it (queue full, policy "reject")
    "shed",        # load shedding dropped it (policy "shed-oldest")
    "expired",     # its deadline passed before execution
    "error",       # the pipeline raised; ``error`` carries the message
    "shutdown",    # the server stopped before serving it
)

_request_ids = itertools.count(1)

#: version of the Request/Response wire schema; bump on any change to the
#: header layout or the value-encoding markers below (2: response header
#: gained ``fused_lanes``; 3: request/response headers carry the optional
#: distributed-tracing ``trace`` id)
SCHEMA_VERSION = 3


def mint_trace_id() -> str:
    """A fresh 64-bit request trace id (hex), minted client side for
    remote requests and at construction otherwise."""
    return uuid.uuid4().hex[:16]


class WireFormatError(ValueError):
    """A wire header or value that cannot be encoded/decoded."""


class SchemaVersionError(WireFormatError):
    """A wire header stamped with a schema version this build can't read."""


def encode_value(value: Any, segments: list[bytes]) -> Any:
    """JSON-safe form of one payload value; bulk bytes go to ``segments``.

    Markers (single-key dicts) carry everything JSON can't: ndarrays and
    bytes become binary segments referenced by index, dicts become
    ``__map__`` pair lists (keys survive non-string and nothing collides
    with the markers), tuples/sets keep their type, non-finite floats
    ride as strings.  Anything else is refused loudly — the wire carries
    data, not pickled code."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return {"__float__": repr(value)}
        return value
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        segments.append(arr.tobytes())
        return {
            "__ndarray__": {
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "segment": len(segments) - 1,
            }
        }
    if isinstance(value, np.generic):
        return encode_value(np.asarray(value), segments) | {"__scalar__": True}
    if isinstance(value, (bytes, bytearray, memoryview)):
        segments.append(bytes(value))
        return {"__bytes__": len(segments) - 1}
    if isinstance(value, dict):
        return {
            "__map__": [
                [encode_value(k, segments), encode_value(v, segments)]
                for k, v in value.items()
            ]
        }
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v, segments) for v in value]}
    if isinstance(value, (set, frozenset)):
        return {"__set__": [encode_value(v, segments) for v in sorted(value, key=repr)]}
    if isinstance(value, list):
        return [encode_value(v, segments) for v in value]
    raise WireFormatError(
        f"cannot encode {type(value).__name__} for the wire "
        "(supported: None/bool/int/float/str/bytes/list/tuple/set/dict/ndarray)"
    )


def decode_value(obj: Any, segments: Sequence[bytes]) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(obj, list):
        return [decode_value(v, segments) for v in obj]
    if not isinstance(obj, dict):
        return obj
    try:
        if "__float__" in obj:
            return float(obj["__float__"])
        if "__ndarray__" in obj:
            spec = obj["__ndarray__"]
            seg = _segment(segments, spec["segment"])
            arr = np.frombuffer(seg, dtype=np.dtype(spec["dtype"]))
            arr = arr.reshape(spec["shape"]).copy()  # writable, owns its data
            return arr[()] if obj.get("__scalar__") else arr
        if "__bytes__" in obj:
            return _segment(segments, obj["__bytes__"])
        if "__map__" in obj:
            return {
                _hashable(decode_value(k, segments)): decode_value(v, segments)
                for k, v in obj["__map__"]
            }
        if "__tuple__" in obj:
            return tuple(decode_value(v, segments) for v in obj["__tuple__"])
        if "__set__" in obj:
            return {_hashable(decode_value(v, segments)) for v in obj["__set__"]}
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed wire value: {exc}") from None
    raise WireFormatError(f"unknown wire marker in {sorted(obj)}")


def _segment(segments: Sequence[bytes], index: Any) -> bytes:
    """Bounds-checked segment lookup: a marker must reference a segment by
    a non-negative in-range int — negative indices would silently alias
    from the end, letting a malformed frame decode to the wrong payload."""
    if (
        not isinstance(index, int)
        or isinstance(index, bool)
        or not 0 <= index < len(segments)
    ):
        raise WireFormatError(
            f"bad segment index {index!r} (frame has {len(segments)} segments)"
        )
    return segments[index]


def _hashable(value: Any) -> Any:
    """Decoded keys must hash; lists (the JSON carrier) become tuples."""
    return tuple(value) if isinstance(value, list) else value


def _require_schema(header: Mapping[str, Any]) -> None:
    version = header.get("schema")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"unsupported wire schema version {version!r} "
            f"(this build speaks {SCHEMA_VERSION})"
        )


@dataclass(slots=True)
class Request:
    """One client request, stamped at admission."""

    kind: str
    body: Mapping[str, Any] = field(default_factory=dict)
    #: absolute ``time.monotonic()`` deadline; None = no deadline
    deadline: float | None = None
    id: int = field(default_factory=lambda: next(_request_ids))
    #: admission timestamp (monotonic), set by the server
    t_submit: float = field(default_factory=time.monotonic)
    #: end-to-end distributed-trace id (client-minted for remote
    #: requests; the server mints one when a frame omits it)
    trace_id: str = field(default_factory=mint_trace_id)
    #: submission timestamp on the span timeline (``perf_counter``),
    #: the zero point of the request's stage spans
    t_perf: float = field(default_factory=time.perf_counter)

    def expired(self, now: float | None = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else time.monotonic()) > self.deadline

    # -- wire encoding ------------------------------------------------------
    def to_wire(self) -> tuple[dict[str, Any], list[bytes]]:
        """(JSON-safe header, binary segments) for one request frame.

        Deadlines travel as *remaining seconds* — absolute ``monotonic``
        timestamps are meaningless on another host; the receiving server
        re-anchors them at decode time."""
        segments: list[bytes] = []
        remaining = None
        if self.deadline is not None:
            remaining = max(self.deadline - time.monotonic(), 0.0)
        return (
            {
                "schema": SCHEMA_VERSION,
                "id": self.id,
                "kind": self.kind,
                "body": encode_value(dict(self.body), segments),
                "deadline": remaining,
                "trace": self.trace_id,
            },
            segments,
        )

    @classmethod
    def from_wire(
        cls, header: Mapping[str, Any], segments: Sequence[bytes]
    ) -> "Request":
        """Rebuild a request from a decoded frame (fresh local id and
        admission stamp; the sender's id is transport correlation state).

        Raises :class:`SchemaVersionError` for frames from an unknown
        schema, :class:`WireFormatError` for malformed ones."""
        _require_schema(header)
        try:
            kind = header["kind"]
            body = decode_value(header["body"], segments)
            remaining = header.get("deadline")
        except KeyError as exc:
            raise WireFormatError(f"request header missing {exc}") from None
        if not isinstance(kind, str) or not isinstance(body, dict):
            raise WireFormatError("request kind must be str and body a mapping")
        if remaining is not None and not isinstance(remaining, (int, float)):
            raise WireFormatError("request deadline must be a number or null")
        trace = header.get("trace")  # absent: mint locally
        if trace is not None and not isinstance(trace, str):
            raise WireFormatError("request trace id must be a string or absent")
        return cls(
            kind=kind,
            body=body,
            deadline=time.monotonic() + remaining if remaining is not None else None,
            trace_id=trace if trace else mint_trace_id(),
        )


@dataclass(slots=True)
class Response:
    """The answer to one request, with its serving telemetry."""

    id: int
    kind: str
    status: str
    value: Any = None
    error: str | None = None
    #: seconds from admission to response
    latency: float = 0.0
    #: seconds the serving execution took (0 for non-"ok" responses)
    service_seconds: float = 0.0
    #: how many requests shared this response's pipeline execution
    group_size: int = 0
    #: how many requests rode in the same dispatch batch
    batch_size: int = 0
    #: lanes in the fused execution that served this request (0 = the
    #: execution was not fused)
    fused_lanes: int = 0
    #: whether the compilation came from the plan cache
    cache_hit: bool = False
    #: suggested client backoff when status == "rejected"
    retry_after: float | None = None
    #: the request's distributed-trace id, echoed back (None if unknown)
    trace_id: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    # -- wire encoding ------------------------------------------------------
    def to_wire(self) -> tuple[dict[str, Any], list[bytes]]:
        """(JSON-safe header, binary segments) for one response frame."""
        segments: list[bytes] = []
        return (
            {
                "schema": SCHEMA_VERSION,
                "id": self.id,
                "kind": self.kind,
                "status": self.status,
                "value": encode_value(self.value, segments),
                "error": self.error,
                "latency": self.latency,
                "service_seconds": self.service_seconds,
                "group_size": self.group_size,
                "batch_size": self.batch_size,
                "fused_lanes": self.fused_lanes,
                "cache_hit": self.cache_hit,
                "retry_after": self.retry_after,
                "trace": self.trace_id,
            },
            segments,
        )

    @classmethod
    def from_wire(
        cls, header: Mapping[str, Any], segments: Sequence[bytes]
    ) -> "Response":
        _require_schema(header)
        try:
            return cls(
                id=header["id"],
                kind=header["kind"],
                status=header["status"],
                value=decode_value(header["value"], segments),
                error=header.get("error"),
                latency=header.get("latency", 0.0),
                service_seconds=header.get("service_seconds", 0.0),
                group_size=header.get("group_size", 0),
                batch_size=header.get("batch_size", 0),
                fused_lanes=header.get("fused_lanes", 0),
                cache_hit=bool(header.get("cache_hit", False)),
                retry_after=header.get("retry_after"),
                trace_id=header.get("trace"),
            )
        except KeyError as exc:
            raise WireFormatError(f"response header missing {exc}") from None


class PendingResponse:
    """A minimal future: the client-side handle of an in-flight request."""

    def __init__(self, request: Request) -> None:
        self.request = request
        self._event = threading.Event()
        self._response: Response | None = None

    def resolve(self, response: Response) -> None:
        """Deliver the response (server side; idempotent — first wins)."""
        if self._response is None:
            self._response = response
            self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> Response:
        """Block until the response arrives."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request.id} ({self.request.kind}) still "
                f"in flight after {timeout}s"
            )
        assert self._response is not None
        return self._response


@dataclass(slots=True)
class ServicePlan:
    """Everything needed to answer one request through a pipeline.

    ``group_key`` is the compatibility identity: requests whose plans
    carry equal keys are answered by one pipeline execution (the compile
    inputs and run parameters must then be identical — the adapters
    guarantee it by deriving the key from the same canonical values the
    plan is built from).

    The optional **fusion protocol** lets the dispatcher merge plans with
    *different* runtime params into one lane-batched execution:
    ``fuse_key`` is the fusion compatibility identity (everything that
    must match *except* the per-request params; ``None`` means the
    service does not fuse — the dispatcher checks this field, never
    ``hasattr``), and ``fuse`` combines one plan per distinct
    ``group_key`` into a single batched plan.  A plan returned by
    ``fuse`` carries ``extract_lane`` (payloads + lane index → that
    lane's value; lane *i* answers the *i*-th input plan) and ``lanes``,
    and must itself have ``fuse_key=None``."""

    service: str
    group_key: str
    source: str
    registry: IntrinsicRegistry | None
    options: CompileOptions
    packets: Sequence[Any]
    params: dict[str, Any]
    #: final-stage payloads -> the response value
    extract: Callable[[list[Any]], Any]
    widths: Sequence[int] | None = None
    #: fusion compatibility identity; None = this plan cannot be fused
    fuse_key: str | None = None
    #: combiner: one plan per distinct group_key -> one lane-batched plan
    fuse: Callable[[Sequence["ServicePlan"]], "ServicePlan"] | None = None
    #: per-lane demultiplexer of a fused plan's payloads
    extract_lane: Callable[[list[Any], int], Any] | None = None
    #: lane count of a fused plan (1 for ordinary plans)
    lanes: int = 1


@runtime_checkable
class Service(Protocol):
    """A request→packet adapter for one application kind."""

    name: str

    def plan(self, body: Mapping[str, Any]) -> ServicePlan:  # pragma: no cover
        ...
