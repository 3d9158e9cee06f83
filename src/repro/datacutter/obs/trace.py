"""Engine-native tracing: per-filter-copy spans and queue gauges.

The paper's evaluation hinges on comparing the §4.3 cost model's
*predicted* per-filter costs against *measured* pipeline behaviour.  This
module makes that measurement first-class in the runtime instead of a
wrapper hack: both execution engines feed a :class:`TraceCollector`
directly with

* **spans** — one :class:`Span` per filter-copy callback invocation
  (``init`` / ``generate`` / ``process`` / ``finalize``), carrying the
  packet id and wall-clock interval on the shared monotonic clock
  (``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so spans from
  forked worker processes land on the same timeline as the parent's);
* **queue gauges** — a :class:`QueueSample` depth reading at every stream
  ``put``/``get``, plus a :class:`BlockedSpan` whenever a producer stalls
  on a full queue or a consumer waits on an empty one longer than
  :data:`BLOCKED_MIN_SECONDS` (the backpressure picture: *where* the
  pipeline pushes back is exactly what the decomposition tries to
  balance).  Only the process engine's credit window blocks; the
  threaded engine's scheduler drains a stream before its producer runs
  again, so its streams record depths and never a blocked interval.

:class:`Trace` is the in-memory collector plus the query API the harness
builds on: per-packet seconds per filter (the measured side of
``validate_cost_model``), per-copy busy/wall utilization, and per-stream
blocked time.  Exporters (JSON lines, Chrome ``trace_event``) live in
:mod:`repro.datacutter.obs.export`.
"""

from __future__ import annotations

import math
import multiprocessing
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Protocol, Sequence, runtime_checkable

#: packet key that collects once-per-run init/finalize overhead when spans
#: are folded into per-packet seconds; equals the codegen FINAL_PACKET so
#: reduction-flush buffers (packet -2) land in the same overhead bucket
OVERHEAD_PACKET = -2

#: the four phases of the filter unit-of-work protocol, in order, plus
#: "restart" — a recovery event marking the backoff-and-respawn of a
#: failed filter copy (its duration covers backoff through respawn) —
#: and the serving-layer phases: "request" spans cover one client request
#: from admission to response, "execute" spans one micro-batched pipeline
#: execution, and the per-request *stage* spans break a request's life
#: down ("admission" = submit to admitted, "queue" = admitted to
#: dispatched, "assemble" = dispatch to execution start including
#: grouping/fusion, "extract" = per-lane demux, "write" = the wire
#: response write; see repro.serve.metrics)
PHASES = (
    "init",
    "generate",
    "process",
    "finalize",
    "restart",
    "request",
    "execute",
    "admission",
    "queue",
    "assemble",
    "extract",
    "write",
)

#: the serving-layer stage phases, in request-lifecycle order
STAGE_PHASES = ("admission", "queue", "assemble", "execute", "extract", "write")

#: a stream put()/get() slower than this is recorded as blocked time
BLOCKED_MIN_SECONDS = 1e-3


def current_worker_label() -> str:
    """Name of the filter copy executing the caller.

    The process engine names its workers ``filter#copy``; outside a
    worker process the caller's thread name stands in."""
    proc = multiprocessing.current_process()
    if proc.name != "MainProcess":
        return proc.name
    return threading.current_thread().name


@dataclass(slots=True)
class Span:
    """One filter-copy callback execution.

    The two optional tail fields are the serving layer's distributed-trace
    links, absent (``None``) on ordinary engine spans from a one-shot run:
    ``trace`` carries the request's end-to-end trace id (minted client
    side and shipped in the wire header), and ``execution`` the serving
    execution sequence number that joins a request's stage spans to the
    engine-level filter spans of the pipeline run that answered it."""

    filter: str
    copy: int
    phase: str  # one of PHASES
    packet: int | None  # None for init/finalize/restart
    t0: float
    t1: float
    #: serving request trace id this span belongs to (distributed tracing)
    trace: str | None = None
    #: serving execution sequence number linking request and engine spans
    execution: int | None = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def who(self) -> str:
        return f"{self.filter}#{self.copy}"


@dataclass(slots=True)
class QueueSample:
    """Queue-depth gauge reading taken at one stream operation."""

    stream: str
    ts: float
    depth: int
    side: str  # "put" | "get"


@dataclass(slots=True)
class BlockedSpan:
    """Time one filter copy spent blocked on a stream queue."""

    stream: str
    side: str  # "put" (queue full) | "get" (queue empty)
    who: str  # "filter#copy" that blocked
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@runtime_checkable
class TraceCollector(Protocol):
    """What an engine needs from a trace sink.

    Implementations must be safe to call from multiple filter-copy
    threads; on the process engine, workers buffer events in a local
    :class:`Trace` and the supervisor replays them into the caller's
    collector, so only the parent process ever calls these methods on the
    user-supplied object."""

    def record_span(self, span: Span) -> None: ...  # pragma: no cover

    def record_queue(self, sample: QueueSample) -> None: ...  # pragma: no cover

    def record_blocked(self, blocked: BlockedSpan) -> None: ...  # pragma: no cover

    def note(self, **meta: Any) -> None: ...  # pragma: no cover


@dataclass(slots=True)
class Utilization:
    """Busy-vs-wall summary of one filter copy."""

    who: str
    busy: float  # sum of span durations
    wall: float  # last span end - first span start

    @property
    def ratio(self) -> float:
        return self.busy / self.wall if self.wall > 0 else 0.0


class Trace:
    """In-memory :class:`TraceCollector` with the query API (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.queue_samples: list[QueueSample] = []
        self.blocked: list[BlockedSpan] = []
        self.meta: dict[str, Any] = {}

    # -- collector protocol --------------------------------------------------
    def record_span(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def record_queue(self, sample: QueueSample) -> None:
        with self._lock:
            self.queue_samples.append(sample)

    def record_blocked(self, blocked: BlockedSpan) -> None:
        with self._lock:
            self.blocked.append(blocked)

    def note(self, **meta: Any) -> None:
        with self._lock:
            self.meta.update(meta)

    def merge(
        self,
        spans: Iterable[Span] = (),
        queue_samples: Iterable[QueueSample] = (),
        blocked: Iterable[BlockedSpan] = (),
    ) -> None:
        """Bulk-absorb events (used to fold worker-side buffers in)."""
        with self._lock:
            self.spans.extend(spans)
            self.queue_samples.extend(queue_samples)
            self.blocked.extend(blocked)

    def copy_events(
        self,
    ) -> tuple[list[Span], list[QueueSample], list[BlockedSpan], dict[str, Any]]:
        """Consistent shallow copies of (spans, queue samples, blocked,
        meta), taken under the lock — the safe way to export or inspect a
        trace that other threads are still feeding."""
        with self._lock:
            return (
                list(self.spans),
                list(self.queue_samples),
                list(self.blocked),
                dict(self.meta),
            )

    # -- queries -------------------------------------------------------------
    @property
    def engine(self) -> str | None:
        return self.meta.get("engine")

    def copies(self) -> list[str]:
        """All ``filter#copy`` labels that produced spans, stable order."""
        seen: dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.who, None)
        return list(seen)

    def spans_for(
        self,
        filter: str | None = None,
        copy: int | None = None,
        phase: str | None = None,
    ) -> list[Span]:
        return [
            s
            for s in self.spans
            if (filter is None or s.filter == filter)
            and (copy is None or s.copy == copy)
            and (phase is None or s.phase == phase)
        ]

    def phases_of(self, who: str) -> set[str]:
        return {s.phase for s in self.spans if s.who == who}

    def restarts(self, filter: str | None = None) -> list[Span]:
        """Recovery restarts recorded this run (optionally one filter's)."""
        return self.spans_for(filter=filter, phase="restart")

    def seconds_by_packet(self, filter: str) -> dict[int, float]:
        """Per-packet busy seconds of one logical filter (all copies).

        ``generate``/``process`` spans are keyed by their packet index;
        ``init``/``finalize`` (and spans on negative control packets, the
        reduction flush) accumulate under :data:`OVERHEAD_PACKET`.  This
        is the harness's one per-packet timing table."""
        out: dict[int, float] = {}
        for s in self.spans:
            if s.filter != filter:
                continue
            if s.phase in ("generate", "process") and s.packet is not None and s.packet >= 0:
                key = s.packet
            else:
                key = OVERHEAD_PACKET
            out[key] = out.get(key, 0.0) + s.duration
        return out

    def busy_seconds(self, filter: str, copy: int | None = None) -> float:
        return sum(s.duration for s in self.spans_for(filter, copy))

    def duration_percentiles(
        self,
        filter: str | None = None,
        phase: str | None = None,
        qs: Sequence[float] = (50.0, 95.0, 99.0),
    ) -> dict[str, float]:
        """Span-duration percentiles, e.g. ``{"p50": ..., "p95": ...}``.

        The serving layer records one ``request`` span per client request
        (admission to response), making latency percentiles a trace query
        rather than bespoke bookkeeping.  Nearest-rank percentiles; empty
        selections yield 0.0."""
        durations = sorted(s.duration for s in self.spans_for(filter, None, phase))
        out: dict[str, float] = {}
        for q in qs:
            label = f"p{q:g}"
            if not durations:
                out[label] = 0.0
                continue
            rank = max(0, min(len(durations) - 1, math.ceil(q / 100.0 * len(durations)) - 1))
            out[label] = durations[rank]
        return out

    def utilization(self) -> dict[str, Utilization]:
        """Per-copy busy/wall; wall spans first init start to last
        finalize end, so idle time waiting on streams shows as ratio < 1."""
        bounds: dict[str, list[float]] = {}
        busy: dict[str, float] = {}
        for s in self.spans:
            b = bounds.setdefault(s.who, [s.t0, s.t1])
            b[0] = min(b[0], s.t0)
            b[1] = max(b[1], s.t1)
            busy[s.who] = busy.get(s.who, 0.0) + s.duration
        return {
            who: Utilization(who=who, busy=busy[who], wall=b[1] - b[0])
            for who, b in bounds.items()
        }

    def streams(self) -> list[str]:
        seen: dict[str, None] = {}
        for q in self.queue_samples:
            seen.setdefault(q.stream, None)
        for b in self.blocked:
            seen.setdefault(b.stream, None)
        return list(seen)

    def max_depth(self, stream: str) -> int:
        depths = [q.depth for q in self.queue_samples if q.stream == stream]
        return max(depths, default=0)

    def blocked_seconds(
        self, stream: str | None = None, side: str | None = None
    ) -> float:
        return sum(
            b.duration
            for b in self.blocked
            if (stream is None or b.stream == stream)
            and (side is None or b.side == side)
        )

    def t_origin(self) -> float:
        """Earliest timestamp in the trace (export zero point)."""
        t = [s.t0 for s in self.spans]
        t += [q.ts for q in self.queue_samples]
        t += [b.t0 for b in self.blocked]
        return min(t, default=0.0)

    def summary(self) -> str:
        """Human-readable per-copy utilization + per-stream queue report."""
        lines = [f"trace: engine={self.engine or '?'}  spans={len(self.spans)}"]
        util = self.utilization()
        for who in self.copies():
            u = util[who]
            lines.append(
                f"  {who:<28} busy {u.busy:8.4f}s / wall {u.wall:8.4f}s "
                f"({100 * u.ratio:5.1f}% busy)"
            )
        for stream in self.streams():
            put_s = self.blocked_seconds(stream, "put")
            get_s = self.blocked_seconds(stream, "get")
            lines.append(
                f"  queue {stream:<34} max depth {self.max_depth(stream):>3}  "
                f"blocked put {put_s:7.4f}s  get {get_s:7.4f}s"
            )
        return "\n".join(lines)


class BoundedTrace(Trace):
    """A :class:`Trace` whose event retention is capped with rotation.

    A long-running server feeding one trace forever would grow without
    bound; this collector keeps only the most recent events of each class
    and counts what rotation dropped (``dropped_spans`` /
    ``dropped_queue_samples`` / ``dropped_blocked``).  Trimming is
    amortized: events are dropped a chunk at a time once the list exceeds
    its cap by 25%, so steady-state retention floats between ``cap`` and
    ``1.25 * cap`` while appends stay O(1).  A cap of ``None`` disables
    the bound for that event class (plain ``Trace`` behaviour).  The caps
    apply to the ``record_*`` hooks, which are how a server feeds it; the
    inherited bulk :meth:`Trace.merge` does not trim."""

    def __init__(
        self,
        max_spans: int | None = 4096,
        max_queue_samples: int | None = 4096,
        max_blocked: int | None = 1024,
    ) -> None:
        super().__init__()
        for name, cap in (
            ("max_spans", max_spans),
            ("max_queue_samples", max_queue_samples),
            ("max_blocked", max_blocked),
        ):
            if cap is not None and cap < 1:
                raise ValueError(f"{name} must be >= 1 or None, got {cap}")
        self.max_spans = max_spans
        self.max_queue_samples = max_queue_samples
        self.max_blocked = max_blocked
        self.dropped_spans = 0
        self.dropped_queue_samples = 0
        self.dropped_blocked = 0

    def _trim(self, events: list, cap: int | None) -> int:
        """Drop the oldest events once 25% over cap; returns the count."""
        if cap is None or len(events) <= cap + max(cap // 4, 1):
            return 0
        excess = len(events) - cap
        del events[:excess]
        return excess

    def record_span(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)
            self.dropped_spans += self._trim(self.spans, self.max_spans)

    def record_queue(self, sample: QueueSample) -> None:
        with self._lock:
            self.queue_samples.append(sample)
            self.dropped_queue_samples += self._trim(
                self.queue_samples, self.max_queue_samples
            )

    def record_blocked(self, blocked: BlockedSpan) -> None:
        with self._lock:
            self.blocked.append(blocked)
            self.dropped_blocked += self._trim(self.blocked, self.max_blocked)

    @property
    def dropped_events(self) -> int:
        """Total events lost to rotation, all classes."""
        return (
            self.dropped_spans
            + self.dropped_queue_samples
            + self.dropped_blocked
        )


def record_queue_op(
    trace: TraceCollector,
    stream: str,
    side: str,
    t0: float,
    t1: float,
    depth: int,
) -> None:
    """Shared gauge hook used by both engines' stream implementations."""
    if t1 - t0 >= BLOCKED_MIN_SECONDS:
        trace.record_blocked(
            BlockedSpan(stream, side, current_worker_label(), t0, t1)
        )
    if depth >= 0:  # negative = qsize unsupported on this platform
        trace.record_queue(QueueSample(stream, t1, depth, side))
