"""Threaded local execution engine for filter pipelines.

Runs a placed pipeline of :class:`~repro.datacutter.filters.FilterSpec` with
real queues, real buffer copies, and transparent copies as threads.  This is
the *functional* substrate: it executes the same generated code a DataCutter
deployment would and verifies outputs; wall-clock pipeline behaviour at
cluster scale is the job of :mod:`repro.datacutter.simulation`.

The pipeline shape is linear (the paper's model: each filter has one input
and one output stream), with the first filter a
:class:`~repro.datacutter.filters.SourceFilter` and the results collected
from the last filter's output stream.

Scheduling contract: at most one filter copy of a pipeline runs filter code
at a time.  A run owns one :class:`~repro.datacutter.streams.Baton`; a copy
holds it from before ``init`` until its thread ends and gives it up only
where it would block anyway — a stream ``get`` on an empty queue, a stream
``put`` on a full one, the retry back-off sleep.  Under the GIL the copies
could never overlap their Python or NumPy work, only fight over the
interpreter inside every GIL-releasing call; with the baton they hand it over
at buffer boundaries instead.  A filter that sleeps or does I/O outside the
stream operations keeps the baton and stalls its pipeline: the process
engine is the one that overlaps such filters.  Separate pipelines (separate
``run()`` calls) have separate batons and do not wait for each other.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Sequence

from .buffers import Buffer
from .filters import Filter, FilterContext, FilterSpec, SourceFilter
from .obs.trace import Span, TraceCollector
from .recovery.faults import FaultPlan, make_injector
from .recovery.policy import RetryPolicy
from .recovery.replay import LocalRecoverySink, run_recoverable_copy
from .streams import Baton, CollectorStream, LogicalStream, RoundRobin


@dataclass(slots=True)
class RunResult:
    """Outputs plus per-stream accounting of one pipeline run."""

    outputs: list[Buffer]
    stream_bytes: dict[str, int] = field(default_factory=dict)
    stream_buffers: dict[str, int] = field(default_factory=dict)
    #: stream name -> {packet index -> bytes} (drives per-packet link times)
    stream_by_packet: dict[str, dict[int, int]] = field(default_factory=dict)

    @property
    def payloads(self) -> list[Any]:
        return [b.payload for b in self.outputs]

    def total_bytes(self) -> int:
        return sum(self.stream_bytes.values())


class PipelineError(RuntimeError):
    """A filter copy raised; carries the original traceback text."""


class ThreadedPipeline:
    """Executes one unit-of-work over a linear filter pipeline."""

    engine_name = "threaded"

    def __init__(
        self,
        specs: Sequence[FilterSpec],
        queue_capacity: int = 32,
        join_timeout: float = 60.0,
        trace: TraceCollector | None = None,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        if not specs:
            raise ValueError("pipeline needs at least one filter")
        if queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {queue_capacity} "
                "(capacity 0 would silently disable backpressure)"
            )
        self.specs = list(specs)
        self.queue_capacity = queue_capacity
        self.join_timeout = join_timeout
        self.trace = trace
        self.retry = retry
        self.faults = FaultPlan.coerce(faults)

    def rebind(self, specs: Sequence[FilterSpec]) -> None:
        """Point the engine at a new placed pipeline for the next run.

        ``run()`` builds streams and threads fresh each unit of work, so
        swapping the spec list is all a warm session
        (:class:`~repro.datacutter.engine.EngineSession`) needs to reuse
        the validated engine scaffolding across requests."""
        if not specs:
            raise ValueError("pipeline needs at least one filter")
        self.specs = list(specs)

    def close(self) -> None:
        """Lifecycle no-op: threads are created and joined inside each
        ``run()``, so there is nothing left to tear down.  Exists so
        session/pool teardown can treat every engine uniformly."""

    def run(self) -> RunResult:
        specs = self.specs
        trace = self.trace
        if trace is not None:
            trace.note(engine=self.engine_name)
        baton = Baton()
        streams: list[LogicalStream] = []
        for k in range(len(specs) - 1):
            policy = specs[k].out_policy or RoundRobin()
            # spec-attached policies survive across runs; reset any routing
            # cursor so run N+1 routes identically to run N
            policy.reset()
            streams.append(
                LogicalStream(
                    name=f"{specs[k].name}->{specs[k + 1].name}",
                    n_producers=specs[k].width,
                    n_consumers=specs[k + 1].width,
                    capacity=self.queue_capacity,
                    policy=policy,
                    trace=trace,
                    baton=baton,
                )
            )
        collector = CollectorStream(
            name=f"{specs[-1].name}->out",
            n_producers=specs[-1].width,
            trace=trace,
        )
        out_streams: list[LogicalStream] = streams + [collector]
        errors: list[str] = []
        threads: list[threading.Thread] = []

        for k, spec in enumerate(specs):
            in_stream = streams[k - 1] if k > 0 else None
            out_stream = out_streams[k]
            for copy_index in range(spec.width):
                thread = threading.Thread(
                    target=self._run_copy,
                    args=(
                        spec, copy_index, in_stream, out_stream, errors, trace, baton
                    ),
                    name=f"{spec.name}#{copy_index}",
                    daemon=True,
                )
                threads.append(thread)

        for thread in threads:
            thread.start()
        # Join *before* collecting: every copy closes its output stream in
        # a finally block, so once all threads have exited the collector is
        # guaranteed to hold EOS and results() cannot block — and stream
        # stats are never read mid-flight.  (Joining first is safe because
        # the collector queue is unbounded: the last stage never blocks on
        # the sink, so the pipeline drains without the caller consuming.)
        alive: list[threading.Thread] = []
        for thread in threads:
            thread.join(timeout=self.join_timeout)
            if thread.is_alive():
                alive.append(thread)
        if alive:
            # the baton holder is the copy wedged inside filter code; the
            # rest only wait for it (for the baton or for its buffers)
            holder = baton.holder
            stuck = [t.name for t in alive if t.ident == holder]
            waiting = [t.name for t in alive if t.ident != holder]
            if not stuck:
                stuck, waiting = waiting, []
            behind = f"; waiting on it: {', '.join(waiting)}" if waiting else ""
            detail = "\n".join(errors) + "\n" if errors else ""
            raise PipelineError(
                f"{detail}filter copies still running after "
                f"{self.join_timeout:.0f}s join timeout (stuck): "
                f"{', '.join(stuck)}{behind}; their daemon threads were abandoned"
            )
        if errors:
            raise PipelineError("\n".join(errors))
        outputs = collector.results()

        result = RunResult(outputs=outputs)
        for stream in streams:
            result.stream_bytes[stream.name] = stream.stats.bytes
            result.stream_buffers[stream.name] = stream.stats.buffers
            result.stream_by_packet[stream.name] = dict(stream.stats.by_packet)
        result.stream_bytes[collector.name] = collector.stats.bytes
        result.stream_buffers[collector.name] = collector.stats.buffers
        result.stream_by_packet[collector.name] = dict(collector.stats.by_packet)
        return result

    def _run_copy(
        self,
        spec: FilterSpec,
        copy_index: int,
        in_stream: LogicalStream | None,
        out_stream: LogicalStream,
        errors: list[str],
        trace: TraceCollector | None,
        baton: Baton,
    ) -> None:
        """Thread body of one filter copy: run it holding the baton.

        Whatever ends the copy — end of stream, a filter bug, an injected
        fault — the baton goes back first (the other copies of the
        pipeline must be able to run on), then the output stream is
        closed, without the baton because the end-of-stream put may block."""
        baton.acquire()
        try:
            if self.retry is not None or self.faults is not None:
                self._run_copy_recoverable(
                    spec, copy_index, in_stream, out_stream, errors, trace, baton
                )
                return
            ctx = FilterContext(
                name=spec.name,
                copy_index=copy_index,
                n_copies=spec.width,
                emit=out_stream.put,
                params=spec.params,
            )
            filt: Filter = spec.make()
            try:
                run_filter_copy(
                    filt, ctx, spec, copy_index, in_stream, out_stream, trace
                )
            except Exception:  # noqa: BLE001 - reported to the caller
                errors.append(
                    f"filter {spec.name}#{copy_index} failed:\n"
                    f"{traceback.format_exc()}"
                )
        finally:
            baton.release()
            out_stream.close_producer()

    def _run_copy_recoverable(
        self,
        spec: FilterSpec,
        copy_index: int,
        in_stream: LogicalStream | None,
        out_stream: LogicalStream,
        errors: list[str],
        trace: TraceCollector | None,
        baton: Baton,
    ) -> None:
        """In-thread retry loop for one logical filter copy.

        Each attempt gets a fresh filter instance resumed from the
        :class:`~repro.datacutter.recovery.replay.LocalRecoverySink`'s
        bookkeeping — checkpointed state plus replay of unacknowledged
        packets — so a mid-packet failure never loses or duplicates
        packet effects downstream.  The back-off between attempts is slept
        without the baton."""
        policy = self.retry or RetryPolicy(max_attempts=1)
        budget = policy.attempts_for(spec.name)
        sink = LocalRecoverySink()
        for attempt in range(budget):
            if attempt > 0:
                restart_t0 = time.perf_counter()
                with baton.paused():
                    time.sleep(policy.backoff_for(attempt))
            ctx = FilterContext(
                name=spec.name,
                copy_index=copy_index,
                n_copies=spec.width,
                emit=out_stream.put,
                params=spec.params,
            )
            filt: Filter = spec.make()
            injector = make_injector(self.faults, spec.name, copy_index, attempt)
            if attempt > 0 and trace is not None:
                trace.record_span(
                    Span(
                        spec.name,
                        copy_index,
                        "restart",
                        None,
                        restart_t0,
                        time.perf_counter(),
                    )
                )
            try:
                run_recoverable_copy(
                    filt,
                    ctx,
                    spec,
                    copy_index,
                    in_stream,
                    out_stream,
                    progress=sink.progress(attempt),
                    sink=sink,
                    trace=trace,
                    injector=injector,
                )
                return
            except Exception:  # noqa: BLE001 - retried or reported
                if attempt + 1 >= budget:
                    errors.append(
                        f"filter {spec.name}#{copy_index} failed after "
                        f"{attempt + 1} attempt(s) (retry budget {budget}):\n"
                        f"{traceback.format_exc()}"
                    )
                    return


def run_filter_copy(
    filt: Filter,
    ctx: FilterContext,
    spec: FilterSpec,
    copy_index: int,
    in_stream: Any,
    out_stream: Any,
    trace: TraceCollector | None = None,
    heartbeat: Any = None,
) -> None:
    """The unit-of-work protocol of one filter copy, shared by both engines.

    ``init``, then either ``generate`` (source copies split packets
    round-robin) or a ``get``/``process`` loop until end-of-stream, then
    ``finalize``.  ``in_stream``/``out_stream`` are duck-typed
    (:class:`~repro.datacutter.streams.LogicalStream` on the threaded
    engine, :class:`~repro.datacutter.mp.channels.ProcessEdge` on the
    process engine).  With a ``trace`` collector, every callback becomes
    a :class:`~repro.datacutter.obs.trace.Span` carrying the packet id —
    the engine-native measurement the experiment harness consumes.
    ``heartbeat`` (process engine) is stamped once per packet so the
    supervisor's timeout diagnostics can name a stalled filter.
    """
    t0 = time.perf_counter()
    filt.init(ctx)
    if trace is not None:
        trace.record_span(
            Span(spec.name, copy_index, "init", None, t0, time.perf_counter())
        )
    if in_stream is None:
        if not isinstance(filt, SourceFilter):
            raise TypeError(f"first filter '{spec.name}' must be a SourceFilter")
        gen = filt.generate(ctx)
        packet = 0
        while True:
            if heartbeat is not None:
                heartbeat()
            t0 = time.perf_counter()
            try:
                payload = next(gen)
            except StopIteration:
                break
            if packet % spec.width == copy_index:
                # trace only packets this copy owns: every copy runs the
                # generator over the full packet sequence and discards the
                # other width-1 shares, so tracing unconditionally would
                # count each packet width times and skew source cost
                if trace is not None:
                    trace.record_span(
                        Span(
                            spec.name,
                            copy_index,
                            "generate",
                            packet,
                            t0,
                            time.perf_counter(),
                        )
                    )
                if isinstance(payload, Buffer):
                    out_stream.put(payload)
                else:
                    ctx.write(payload, packet)
            packet += 1
    else:
        while True:
            buf = in_stream.get(copy_index)
            if heartbeat is not None:
                heartbeat()
            if buf is None:
                break
            t0 = time.perf_counter()
            filt.process(buf, ctx)
            if trace is not None:
                trace.record_span(
                    Span(
                        spec.name,
                        copy_index,
                        "process",
                        buf.packet,
                        t0,
                        time.perf_counter(),
                    )
                )
    t0 = time.perf_counter()
    filt.finalize(ctx)
    if trace is not None:
        trace.record_span(
            Span(spec.name, copy_index, "finalize", None, t0, time.perf_counter())
        )


# run_pipeline moved to repro.datacutter.engine, where it dispatches over
# the engine registry (threaded / process); re-exported unchanged from the
# repro.datacutter package.
