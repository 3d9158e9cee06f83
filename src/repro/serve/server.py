"""The pipeline server: compile once, keep it warm, multiplex requests.

:class:`PipelineServer` turns the one-shot compiler driver into a
long-running service.  Lifecycle::

    server = PipelineServer([make_knn_service(), make_vmscope_service()],
                            ServerOptions(admission="reject", max_batch=16))
    server.start()
    pending = server.submit("knn", {"x": 0.2, "y": 0.4, "z": 0.6})
    response = pending.result(timeout=30)
    server.stop()          # graceful drain, then shutdown

One dispatcher thread takes whatever is queued on the
:class:`~repro.serve.broker.AdmissionQueue` the moment it is free, groups
compatible requests (equal :class:`~repro.serve.requests.ServicePlan`
``group_key``) into single pipeline executions on the warm
:class:`~repro.serve.session.SessionPool`, and demultiplexes each
execution's result to every member request's future.  Where a service
opts into **request fusion** (``ServicePlan.fuse_key``), groups with
*distinct* params additionally merge into one lane-batched execution
(capped by ``ServerOptions.max_fuse_lanes``), with per-lane demux of
values and errors — a micro-batch of 32 distinct knn queries becomes
one engine run instead of 32.  ``stats`` requests are answered from
:class:`~repro.serve.metrics.ServerMetrics` without touching a
pipeline.

Admission control, load shedding, per-request deadlines, and graceful
drain are the server's job; retry-on-fault inside an execution is the
engine's (``ServerOptions.engine_options.retry`` applies per batch).
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..datacutter.engine import EngineOptions
from .broker import AdmissionQueue
from .metrics import ServerMetrics
from .plancache import PlanCache
from .requests import (
    STATS_KIND,
    PendingResponse,
    Request,
    Response,
    Service,
    ServicePlan,
)
from .session import SessionPool


@dataclass(slots=True)
class ServerOptions:
    """Everything that configures one server, alongside EngineOptions."""

    #: run configuration for every pipeline execution (engine choice,
    #: retry policy, queue capacities, ...)
    engine_options: EngineOptions = field(default_factory=EngineOptions)
    #: bound of the admission queue (pending requests)
    max_queue: int = 64
    #: full-queue policy: "block" | "reject" | "shed-oldest"
    admission: str = "block"
    #: cap on how long a blocked submitter waits (None = forever)
    block_timeout: float | None = None
    #: micro-batch budget: at most this many requests per dispatch
    max_batch: int = 16
    #: default per-request deadline (seconds from admission; None = none)
    default_deadline: float | None = None
    #: seconds stop(drain=True) lets the dispatcher finish queued work
    drain_timeout: float = 30.0
    #: LRU capacity of the compilation plan cache
    plan_cache_capacity: int = 64
    #: cap on one wire frame's variable part (header + binary segments);
    #: oversized frames are discarded and answered with a structured error
    max_frame_bytes: int = 64 * 1024 * 1024
    #: per-connection bound on unanswered wire requests (flow control:
    #: a full bound stops the connection's reader, TCP backpressures)
    max_inflight: int = 64
    #: fuse requests with *distinct* params into one lane-batched
    #: execution when the service opts in (``ServicePlan.fuse_key``);
    #: off = today's equal-``group_key`` coalescing only
    fuse: bool = True
    #: cap on lanes per fused execution; wider fusion groups are chunked
    max_fuse_lanes: int = 32
    #: record per-request stage spans and link engine spans to serving
    #: executions (the distributed-tracing surface); counters and
    #: windowed histograms are always on regardless
    trace_requests: bool = True
    #: keep stage/request spans for one request in every N (1 = all);
    #: thins the exported trace under heavy load, never the stats
    trace_sample: int = 1
    #: per-event-class retention of the bounded metrics trace
    #: (None = unbounded, the pre-rotation behaviour)
    trace_retention: int | None = 4096

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.admission not in AdmissionQueue.POLICIES:
            raise ValueError(
                f"unknown admission policy {self.admission!r}; choose from "
                f"{AdmissionQueue.POLICIES}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ValueError(
                f"default_deadline must be > 0 or None, got {self.default_deadline}"
            )
        if self.drain_timeout < 0:
            raise ValueError(
                f"drain_timeout must be >= 0, got {self.drain_timeout}"
            )
        if self.plan_cache_capacity < 1:
            raise ValueError(
                f"plan_cache_capacity must be >= 1, got {self.plan_cache_capacity}"
            )
        if self.max_frame_bytes < 1024:
            raise ValueError(
                f"max_frame_bytes must be >= 1024, got {self.max_frame_bytes}"
            )
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.max_fuse_lanes < 1:
            raise ValueError(
                f"max_fuse_lanes must be >= 1, got {self.max_fuse_lanes}"
            )
        if self.trace_sample < 1:
            raise ValueError(
                f"trace_sample must be >= 1, got {self.trace_sample}"
            )
        if self.trace_retention is not None and self.trace_retention < 1:
            raise ValueError(
                f"trace_retention must be >= 1 or None, got {self.trace_retention}"
            )


class ServerClosed(RuntimeError):
    """Submitted to a server that is not accepting requests."""


class PipelineServer:
    """A persistent serving front-end over warm compiled pipelines."""

    def __init__(
        self,
        services: Sequence[Service],
        options: ServerOptions | None = None,
    ) -> None:
        self.options = options if options is not None else ServerOptions()
        self.services: dict[str, Service] = {}
        for service in services:
            if service.name in self.services or service.name == STATS_KIND:
                raise ValueError(f"duplicate or reserved service {service.name!r}")
            self.services[service.name] = service
        self.metrics = ServerMetrics(
            retention=self.options.trace_retention,
            sample=self.options.trace_sample,
            trace_stages=self.options.trace_requests,
        )
        self.cache = PlanCache(self.options.plan_cache_capacity)
        engine_options = self.options.engine_options
        if self.options.trace_requests:
            # tee: the caller's own collector (if any) still sees every
            # engine event; the tap additionally stamps spans with the
            # current serving execution and folds them into the metrics
            # trace, joining filter spans to the requests they answer
            engine_options = engine_options.replace(
                trace=self.metrics.engine_tap(downstream=engine_options.trace)
            )
        self.pool = SessionPool(engine_options, self.cache)
        self.queue = AdmissionQueue(
            capacity=self.options.max_queue,
            policy=self.options.admission,
            block_timeout=self.options.block_timeout,
        )
        self._dispatcher: threading.Thread | None = None
        #: start() time and seconds spent in _run_batch since (busy share)
        self._t_started = self._busy_seconds = 0.0
        self._stop = threading.Event()
        self._draining = False
        self._listener: Any = None
        #: test hook called with each group's plan just before execution;
        #: lets deadline tests inject a dispatch stall deterministically
        self._before_execute: Any = None

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "PipelineServer":
        if self._dispatcher is not None:
            raise RuntimeError("server already started")
        self.metrics.trace.note(
            engine=self.options.engine_options.engine,
            services=sorted(self.services),
        )
        self._t_started = time.perf_counter()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._dispatcher.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Shut down: close admissions, optionally drain queued work.

        With ``drain=True`` (the default) the dispatcher keeps serving
        already-admitted requests for up to ``drain_timeout`` seconds;
        anything still pending afterwards — or everything, with
        ``drain=False`` — resolves with status ``"shutdown"``."""
        if self._dispatcher is None:
            return
        if self._listener is not None:
            # stop remote admissions before local ones: no new frames
            # race the drain
            self._listener.close()
            self._listener = None
        self._draining = drain
        self.queue.close()
        if not drain:
            self._stop.set()
        self._dispatcher.join(
            timeout=self.options.drain_timeout if drain else 5.0
        )
        self._stop.set()
        if self._dispatcher.is_alive():  # drain timed out; force the exit
            self._dispatcher.join(timeout=5.0)
        self._dispatcher = None
        for pending in self.queue.drain():
            self._finish(pending, status="shutdown", error="server stopped")
        self.pool.close()

    def listen(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame: int | None = None,
        max_inflight: int | None = None,
    ) -> tuple[str, int]:
        """Open the socket transport: accept remote clients on
        ``host:port`` (``port=0`` picks a free one) and feed their
        requests into the same admission queue local clients use.
        Returns the bound ``(host, port)``; ``stop()`` closes it."""
        from .transport import TransportListener

        if self._dispatcher is None:
            raise RuntimeError("start() the server before listen()")
        if self._listener is not None:
            raise RuntimeError(f"already listening on {self._listener.address}")
        self._listener = TransportListener(
            self, host, port, max_frame=max_frame, max_inflight=max_inflight
        ).start()
        self.metrics.trace.note(listen="%s:%s" % self._listener.address)
        return self._listener.address

    def __enter__(self) -> "PipelineServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- client surface ------------------------------------------------------
    def submit(
        self,
        kind: str,
        body: Mapping[str, Any] | None = None,
        deadline: float | None = None,
    ) -> PendingResponse:
        """Admit one request; returns its future.

        ``deadline`` is seconds from now (falling back to
        ``ServerOptions.default_deadline``).  Admission-control outcomes
        (rejected / shed) resolve the future immediately with the
        corresponding status — ``submit`` itself only raises for unknown
        kinds or a stopped server."""
        rel = deadline if deadline is not None else self.options.default_deadline
        return self.submit_request(
            Request(
                kind=kind,
                body=dict(body or {}),
                deadline=time.monotonic() + rel if rel is not None else None,
            )
        )

    def submit_request(self, request: Request) -> PendingResponse:
        """Admit one already-built :class:`Request` — the single entry
        point shared by local calls and the socket transport (a decoded
        wire frame lands here, not on a parallel code path)."""
        if request.kind != STATS_KIND and request.kind not in self.services:
            known = ", ".join(sorted(self.services))
            raise ValueError(
                f"unknown request kind {request.kind!r}; services: {known}"
            )
        if self._dispatcher is None or self.queue.closed:
            raise ServerClosed("server is not accepting requests")
        if (
            request.deadline is None
            and self.options.default_deadline is not None
        ):
            request.deadline = (
                request.t_submit + self.options.default_deadline
            )
        pending = PendingResponse(request)
        admitted, shed, retry_after = self.queue.offer(pending)
        for victim in shed:
            self.metrics.record_shed()
            self._finish(
                victim,
                status="shed",
                error="load shed: queue full, shed-oldest policy",
            )
        if not admitted:
            self.metrics.record_rejected()
            self._finish(
                pending,
                status="rejected",
                error="admission queue full",
                retry_after=retry_after,
            )
            return pending
        self.metrics.record_admission(len(self.queue))
        pending.t_admitted = time.perf_counter()
        self._stage(pending, "admission", request.t_perf, pending.t_admitted)
        return pending

    def request(
        self,
        kind: str,
        body: Mapping[str, Any] | None = None,
        deadline: float | None = None,
        timeout: float | None = 60.0,
    ) -> Response:
        """Synchronous convenience: submit and wait."""
        return self.submit(kind, body, deadline).result(timeout)

    # -- dispatcher ----------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            batch = self.queue.collect_batch(self.options.max_batch)
            if not batch:
                if self.queue.closed and len(self.queue) == 0:
                    return  # graceful drain complete
                continue
            self.metrics.record_dispatch(len(self.queue), len(batch))
            t0 = time.perf_counter()
            try:
                self._run_batch(batch)
            except Exception:  # noqa: BLE001 - keep serving
                # a dispatcher bug must not wedge every in-flight client
                detail = traceback.format_exc()
                for pending in batch:
                    if not pending.done():
                        self.metrics.record_error()
                        self._finish(pending, status="error", error=detail)
            self._busy_seconds += time.perf_counter() - t0

    def _stage(
        self,
        pending: PendingResponse,
        stage: str,
        t0: float,
        t1: float,
        execution: int | None = None,
    ) -> None:
        """One stage of one request's life — histogram always, linked
        span when request tracing is on."""
        request = pending.request
        self.metrics.record_stage(
            request.kind,
            stage,
            t0,
            t1,
            request_id=request.id if self.options.trace_requests else None,
            trace_id=request.trace_id,
            execution=execution,
        )

    def _run_batch(self, batch: list[PendingResponse]) -> None:
        """Serve one micro-batch: group compatible requests, fuse groups
        the service marks fusable, execute each unit once, demultiplex."""
        groups: dict[str, list[PendingResponse]] = {}
        plans: dict[str, ServicePlan] = {}
        now = time.monotonic()
        t_dequeued = time.perf_counter()
        for pending in batch:
            request = pending.request
            pending.t_dequeued = t_dequeued
            self._stage(
                pending,
                "queue",
                getattr(pending, "t_admitted", request.t_perf),
                t_dequeued,
            )
            if request.expired(now):
                self.metrics.record_expired()
                self._finish(
                    pending, status="expired", error="deadline exceeded in queue"
                )
                continue
            if request.kind == STATS_KIND:
                # body dispatch: {"deep": true} returns the windowed
                # registry view, {"format": "prometheus"} the text
                # exposition; default stays the flat snapshot
                body = request.body or {}
                if body.get("format") == "prometheus":
                    value: Any = self.metrics.render_prometheus()
                else:
                    value = self.stats(deep=bool(body.get("deep")))
                self._finish(
                    pending,
                    status="ok",
                    value=value,
                    batch_size=len(batch),
                    group_size=1,
                )
                continue
            try:
                plan = self.services[request.kind].plan(request.body)
            except Exception:  # noqa: BLE001 - bad request body
                self.metrics.record_error()
                self._finish(pending, status="error", error=traceback.format_exc())
                continue
            key = f"{request.kind}/{plan.group_key}"
            groups.setdefault(key, []).append(pending)
            plans[key] = plan

        # fusion pass: bucket coalesced groups by (service, fuse_key) where
        # the service opts in; everything else runs the classic one-group
        # path.  Each group keeps its identity — it becomes one *lane* of
        # the fused execution — so identical-param requests still coalesce
        # first and the lane count is the number of distinct param sets.
        units: list[list[str]] = []  # one execution each
        buckets: dict[tuple[str, str], list[str]] = {}
        for key in groups:
            plan = plans[key]
            if plan.fuse_key is None or plan.fuse is None:
                self.metrics.record_fuse_bypass("unsupported")
                units.append([key])
            elif not self.options.fuse:
                self.metrics.record_fuse_bypass("disabled")
                units.append([key])
            else:
                buckets.setdefault((plan.service, plan.fuse_key), []).append(key)

        for keys in buckets.values():
            # chunk wide buckets at the lane cap; a leftover chunk of one
            # group collapses back to plain coalescing
            for i in range(0, len(keys), self.options.max_fuse_lanes):
                units.append(keys[i : i + self.options.max_fuse_lanes])
                if len(units[-1]) == 1:
                    self.metrics.record_fuse_bypass("single-lane")

        for unit in units:
            self._execute_unit(
                [plans[key] for key in unit],
                [groups[key] for key in unit],
                len(batch),
            )

    def _sweep_expired(
        self, members: list[PendingResponse]
    ) -> list[PendingResponse]:
        """Deadlines re-checked *after* batch assembly and any stall,
        immediately before execution: a request that expired in the window
        between grouping and dispatch must not charge the plan cache or
        the engine, and must be counted as expired exactly once
        (record_expired here; record_request only bumps ``served`` for
        "ok", and _finish fires at most once per pending)."""
        now = time.monotonic()
        live: list[PendingResponse] = []
        for pending in members:
            if pending.request.expired(now):
                self.metrics.record_expired()
                self._finish(
                    pending,
                    status="expired",
                    error="deadline exceeded before execution",
                )
            else:
                live.append(pending)
        return live

    def _execute_unit(
        self,
        lane_plans: list[ServicePlan],
        lane_members: list[list[PendingResponse]],
        batch_size: int,
    ) -> None:
        """Execute one unit once: a single equal-``group_key`` group, or a
        bucket of distinct-param groups fused into a lane-batched plan
        whose per-lane values and errors are demultiplexed."""
        if self._before_execute is not None:
            self._before_execute(lane_plans[0])  # test hook: dispatch stall
        # sweep per lane: a lane whose every member expired during the
        # stall window is dropped from the run entirely — it is neither
        # executed nor charged
        live_plans: list[ServicePlan] = []
        live_members: list[list[PendingResponse]] = []
        for plan, members in zip(lane_plans, lane_members):
            members = self._sweep_expired(members)
            if members:
                live_plans.append(plan)
                live_members.append(members)
        if not live_plans:
            return
        if len(live_plans) == 1:
            if len(lane_plans) > 1:
                # expiry collapsed the bucket to one param set: no fusion left
                self.metrics.record_fuse_bypass("single-lane")
            self._run_group_swept(live_plans[0], live_members[0], batch_size)
            return
        try:
            fused = live_plans[0].fuse(live_plans)
            if fused.extract_lane is None:
                raise TypeError(
                    f"fused plan for {fused.service!r} lacks extract_lane"
                )
        except Exception:  # noqa: BLE001 - combiner bug: degrade, don't fail
            self.metrics.record_fuse_bypass("fuse-error")
            for plan, members in zip(live_plans, live_members):
                self._run_group_swept(plan, members, batch_size)
            return
        lanes = len(live_plans)
        t0 = time.perf_counter()
        for members in live_members:
            for pending in members:
                self._stage(
                    pending,
                    "assemble",
                    getattr(pending, "t_dequeued", pending.request.t_perf),
                    t0,
                )
        seq = self.metrics.begin_execution()  # lanes share one execution
        try:
            run, cache_hit = self.pool.execute(fused)
        except Exception:  # noqa: BLE001 - whole fused run failed
            detail = traceback.format_exc()
            for members in live_members:
                for pending in members:
                    self.metrics.record_error()
                    self._finish(pending, status="error", error=detail)
            return
        finally:
            self.metrics.end_execution()
        t1 = time.perf_counter()
        self.metrics.record_execution(
            fused.service,
            t0,
            t1,
            sum(len(members) for members in live_members),
            cache_hit,
            lanes=lanes,
            seq=seq,
        )
        # per-request service time: the fused run did the work of `lanes`
        # separate executions, so each lane is charged a 1/lanes share
        self.queue.observe_service_time((t1 - t0) / lanes)
        for members in live_members:
            for pending in members:
                self._stage(pending, "execute", t0, t1, execution=seq)
        for lane, members in enumerate(live_members):
            t_lane0 = time.perf_counter()
            try:
                value = fused.extract_lane(run.payloads, lane)
            except Exception:  # noqa: BLE001 - errors only this lane
                detail = traceback.format_exc()
                for pending in members:
                    self.metrics.record_error()
                    self._finish(pending, status="error", error=detail)
                continue
            t_lane1 = time.perf_counter()
            for pending in members:
                self._stage(pending, "extract", t_lane0, t_lane1, execution=seq)
                self._finish(
                    pending,
                    status="ok",
                    value=value,
                    service_seconds=t1 - t0,
                    group_size=len(members),
                    batch_size=batch_size,
                    cache_hit=cache_hit,
                    fused_lanes=lanes,
                    execution=seq,
                )

    def _run_group_swept(
        self,
        plan: ServicePlan,
        members: list[PendingResponse],
        batch_size: int,
    ) -> None:
        """One group, one execution — for members that already survived
        _execute_unit's stall hook and deadline sweep."""
        t0 = time.perf_counter()
        for pending in members:
            self._stage(
                pending,
                "assemble",
                getattr(pending, "t_dequeued", pending.request.t_perf),
                t0,
            )
        # the sole member's trace id rides on the engine spans; a shared
        # execution keeps only the execution-id link
        seq = self.metrics.begin_execution(
            members[0].request.trace_id if len(members) == 1 else None
        )
        try:
            run, cache_hit = self.pool.execute(plan)
        except Exception:  # noqa: BLE001 - per-group failure isolation
            detail = traceback.format_exc()
            for pending in members:
                self.metrics.record_error()
                self._finish(pending, status="error", error=detail)
            return
        finally:
            self.metrics.end_execution()
        t1 = time.perf_counter()
        self.metrics.record_execution(
            plan.service, t0, t1, len(members), cache_hit, seq=seq
        )
        self.queue.observe_service_time((t1 - t0) / max(len(members), 1))
        for pending in members:
            self._stage(pending, "execute", t0, t1, execution=seq)
        try:
            value = plan.extract(run.payloads)
        except Exception:  # noqa: BLE001 - per-group failure isolation
            detail = traceback.format_exc()
            for pending in members:
                self.metrics.record_error()
                self._finish(pending, status="error", error=detail)
            return
        t2 = time.perf_counter()
        for pending in members:
            self._stage(pending, "extract", t1, t2, execution=seq)
            self._finish(
                pending,
                status="ok",
                value=value,
                service_seconds=t1 - t0,
                group_size=len(members),
                batch_size=batch_size,
                cache_hit=cache_hit,
                execution=seq,
            )

    # -- helpers -------------------------------------------------------------
    def _finish(
        self,
        pending: PendingResponse,
        status: str,
        value: Any = None,
        error: str | None = None,
        service_seconds: float = 0.0,
        group_size: int = 0,
        batch_size: int = 0,
        cache_hit: bool = False,
        retry_after: float | None = None,
        fused_lanes: int = 0,
        execution: int | None = None,
    ) -> None:
        request = pending.request
        latency = time.monotonic() - request.t_submit
        self.metrics.record_request(
            request.kind,
            request.id,
            request.t_perf,
            status,
            trace_id=request.trace_id if self.options.trace_requests else None,
            execution=execution,
        )
        pending.resolve(
            Response(
                id=request.id,
                kind=request.kind,
                status=status,
                value=value,
                error=error,
                latency=latency,
                service_seconds=service_seconds,
                group_size=group_size,
                batch_size=batch_size,
                cache_hit=cache_hit,
                retry_after=retry_after,
                fused_lanes=fused_lanes,
                trace_id=request.trace_id,
            )
        )

    def stats(self, deep: bool = False) -> dict[str, object]:
        """The ``stats`` payload: serving counters, percentiles, cache.
        ``deep=True`` adds the full windowed registry view (per-kind and
        per-stage percentiles over the 1 s / 10 s / 60 s windows) and
        ``dispatcher_busy_share``, the fraction of wall time since
        ``start()`` the dispatcher spent serving batches."""
        snapshot = self.metrics.snapshot(deep=deep)
        snapshot["plan_cache"] = {
            "entries": len(self.cache),
            **self.cache.stats.as_dict(),
        }
        snapshot["queue_depth"] = len(self.queue)
        snapshot["engine"] = self.options.engine_options.engine
        snapshot["engine_runs"] = self.pool.session.runs
        if deep:
            uptime = time.perf_counter() - self._t_started
            snapshot["dispatcher_busy_share"] = (
                self._busy_seconds / uptime if self._t_started else 0.0
            )
            # the process engine's last ``worker_pool`` note: forks,
            # reforks and why, order/arena bytes of the last epoch
            pool_note = self.metrics.trace.meta.get("engine.worker_pool")
            if pool_note is not None:
                snapshot["engine_pool"] = dict(pool_note)
        if self._listener is not None:
            snapshot["transport"]["listen"] = "%s:%s" % self._listener.address
        return snapshot
