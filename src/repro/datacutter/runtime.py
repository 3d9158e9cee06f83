"""In-process execution engine for filter pipelines: one scheduler loop.

Runs a placed pipeline of :class:`~repro.datacutter.filters.FilterSpec` with
real streams, real buffer copies, and transparent copies.  This is the
*functional* substrate: it executes the same generated code a DataCutter
deployment would and verifies outputs; wall-clock pipeline behaviour at
cluster scale is the job of :mod:`repro.datacutter.simulation`.  The
pipeline is linear (§2.2: one input and one output stream per filter),
starts with a :class:`~repro.datacutter.filters.SourceFilter`, and its
results are what the last filter writes.

A filter copy is ``init``, ``process`` per arriving buffer, ``finalize``,
and a source's ``generate`` is a generator, so a copy needs no thread:
:class:`FilterCopy` cuts the protocol into steps and one loop calls them.
Each turn the loop runs the most-downstream copy that has input (one
``process``) or whose input has ended (its ``finalize``); only when none
can run does it advance a source copy by one packet, round-robin.
Draining before producing keeps a stream at most one callback's emits
deep: within ``queue_capacity`` unless one callback emits more, which
overshoots the bound by that callback's own emits.

Recovery runs inside the loop.  A failed step with budget left restarts
its copy from its :class:`~repro.datacutter.recovery.replay.CopyLedger`
once a back-off deadline passes; meanwhile the other copies run on,
producers stop at a full stream, and the loop sleeps only when nothing
can run.  A failed step with no budget left ends the run with its error.

A run executes on the engine's run thread (``threaded-run#N``), started by
the first run and joined by :meth:`ThreadedPipeline.close`.  When the loop
takes no step for ``join_timeout`` seconds, the copy inside its callback
is declared stuck: the run raises, naming it, and the thread is abandoned
(the next run starts a fresh one).  A filter that sleeps holds up its
pipeline — the process engine is the one that overlaps such filters.
"""

from __future__ import annotations

import itertools
import threading
import time
import traceback
import weakref
from dataclasses import dataclass, field
from queue import SimpleQueue
from typing import Any, Sequence

from .buffers import Buffer
from .filters import FilterContext, FilterSpec, SourceFilter
from .obs.trace import Span, TraceCollector
from .recovery.faults import FaultPlan, make_injector
from .recovery.policy import RetryPolicy
from .recovery.replay import CopyLedger, CopyRecovery, recovery_policy
from .streams import CollectorStream, LogicalStream, RoundRobin


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
    #: numbers the run threads of every engine in the process
    _thread_serial = itertools.count()

    def __init__(
        self,
        specs: Sequence[FilterSpec],
        queue_capacity: int = 32,
        join_timeout: float = 60.0,
        trace: TraceCollector | None = None,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.rebind(specs)
        if queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {queue_capacity} "
                "(capacity 0 would hold every producer back for good)"
            )
        self.queue_capacity = queue_capacity
        self.join_timeout = join_timeout
        self.trace = trace
        self.retry = retry
        self.faults = FaultPlan.coerce(faults)
        self._jobs: SimpleQueue | None = None
        self._thread: threading.Thread | None = None

    def rebind(self, specs: Sequence[FilterSpec]) -> None:
        """Point the engine at a new placed pipeline for the next run
        (each run wires its streams and copies afresh)."""
        if not specs:
            raise ValueError("pipeline needs at least one filter")
        self.specs = list(specs)

    def close(self) -> None:
        """Stop the run thread and join it; a no-op before the first run."""
        jobs, thread = self._jobs, self._thread
        self._jobs = self._thread = None
        if thread is not None:
            jobs.put(None)
            thread.join(self.join_timeout)

    def run(self) -> RunResult:
        if self.trace is not None:
            self.trace.note(engine=self.engine_name)
        run = _Run(self)
        if self._thread is None:
            self._jobs = jobs = SimpleQueue()
            self._thread = threading.Thread(
                target=_serve_runs,
                args=(jobs,),
                name=f"threaded-run#{next(self._thread_serial)}",
                daemon=True,
            )
            self._thread.start()
            # an engine dropped without close() still ends its thread
            weakref.finalize(self, jobs.put, None)
        self._jobs.put(run)
        steps = -1
        while not run.finished.acquire(timeout=self.join_timeout):
            if run.steps == steps:
                # wedged in a callback: the thread ends once it returns
                self._jobs.put(None)
                self._jobs = self._thread = None
                raise PipelineError(run.stuck(self.join_timeout))
            steps = run.steps
        if run.error is not None:
            raise PipelineError(run.error)
        return run.result


def _serve_runs(jobs: SimpleQueue) -> None:
    """Body of a run thread: execute units of work until told to stop."""
    while True:
        run = jobs.get()
        if run is None:
            return
        run.execute()
        del run  # hold nothing of the finished unit while waiting


class _Run:
    """One unit of work: its streams, its copies and the scheduler loop."""

    def __init__(self, engine: ThreadedPipeline) -> None:
        specs, trace = engine.specs, engine.trace
        self.trace, self.faults = trace, engine.faults
        self.policy = recovery_policy(engine.retry, engine.faults)
        outs: list[LogicalStream] = []
        for k in range(len(specs) - 1):
            policy = specs[k].out_policy or RoundRobin()
            # spec-attached policies survive across runs; reset any routing
            # cursor so run N+1 routes identically to run N
            policy.reset()
            outs.append(
                LogicalStream(
                    f"{specs[k].name}->{specs[k + 1].name}", specs[k].width,
                    specs[k + 1].width, engine.queue_capacity, policy, trace,
                )
            )
        outs.append(CollectorStream(f"{specs[-1].name}->out", specs[-1].width, trace))
        self.streams = outs
        self.slots = [
            _Slot(spec, i, outs[k - 1] if k else None, outs[k], self.policy)
            for k, spec in enumerate(specs)
            for i in range(spec.width)
        ]
        #: released by the run thread once the run has ended either way
        self.finished = threading.Lock()
        self.finished.acquire()
        #: steps taken so far, and the copy inside the latest one
        self.steps, self.current = 0, None
        #: copies waiting out a retry back-off
        self.backing_off = 0
        self.result: RunResult | None = None
        self.error: str | None = None

    def execute(self) -> None:
        try:
            self.error = self._loop()
            if self.error is None:
                result = self.result = RunResult(self.streams[-1].results())
                for stream in self.streams:
                    result.stream_bytes[stream.name] = stream.stats.bytes
                    result.stream_buffers[stream.name] = stream.stats.buffers
                    result.stream_by_packet[stream.name] = dict(stream.stats.by_packet)
        except BaseException:  # noqa: BLE001 - a scheduler bug, reported
            self.error = f"scheduler failed:\n{traceback.format_exc()}"
        finally:
            self.finished.release()

    def _fail(self, slot: _Slot) -> str | None:
        """In an ``except`` block: schedule the failed copy's restart, or
        return the error that ends the run when its budget is spent."""
        if slot.attempt + 1 < slot.budget:
            slot.failed_at = time.perf_counter()
            slot.restart_at = slot.failed_at + self.policy.backoff_for(slot.attempt + 1)
            self.backing_off += 1
            return None
        tries = (
            f" after {slot.budget} attempt(s) (retry budget {slot.budget})"
            if slot.ledger is not None
            else ""
        )
        return f"filter {slot.label} failed{tries}:\n{traceback.format_exc()}"

    def _begin(self, slot: _Slot, attempt: int) -> str | None:
        """Start ``slot``'s attempt; the error that ends the run, or None."""
        self.current = slot
        self.steps += 1
        try:
            slot.begin(attempt, self.trace, self.faults)
        except BaseException:  # noqa: BLE001 - retried or reported
            return self._fail(slot)
        return None

    def _loop(self) -> str | None:
        """Run every copy to its end; the error that ends the run, or None."""
        slots = self.slots
        for slot in slots:
            if error := self._begin(slot, 0):
                return error
        consumers = [s for s in reversed(slots) if s.stream is not None]
        sources = [s for s in slots if s.stream is None]
        for slot in slots:
            # after a step, only the copies it fed — and upstream — can run
            fed = [i for i, c in enumerate(consumers) if c.stream is slot.out]
            slot.scan = consumers[fed[0] if fed else 0:]
        scan, turn, live, n_sources = consumers, 0, len(slots), len(sources)
        while live:
            if self.backing_off:
                # a held copy may run again: scan from the most downstream
                scan, now = consumers, time.perf_counter()
                for slot in slots:
                    if slot.restart_at is not None and slot.restart_at <= now:
                        slot.restart_at = None
                        self.backing_off -= 1
                        if error := self._begin(slot, slot.attempt + 1):
                            return error
            # while a copy backs off, its producers stop at a full stream
            held = self.backing_off
            for slot in scan:  # the most downstream first
                if slot.queue or slot.replay or (
                    slot.stream.open_producers == 0 and not slot.done
                ):
                    if held and (slot.restart_at is not None or slot.out.full()):
                        continue
                    break
            else:
                for k in range(n_sources):
                    slot = sources[(turn + k) % n_sources]
                    if not slot.done and not (
                        held and (slot.restart_at is not None or slot.out.full())
                    ):
                        turn = (turn + k + 1) % n_sources
                        break
                else:
                    # only copies waiting out a back-off are left to run
                    deadline = min(s.restart_at for s in slots if s.restart_at is not None)
                    time.sleep(max(deadline - time.perf_counter(), 0.0))
                    continue
            self.current, scan = slot, slot.scan
            self.steps += 1
            try:
                if slot.stream is None:
                    more = slot.generate()
                else:
                    buf = slot.get(slot.copy_index)
                    more = buf is not None
                    if more:
                        slot.consume(buf)
                if not more:
                    slot.finish()
                    slot.done = True
                    live -= 1
                    slot.out.close_producer()
            except BaseException:  # noqa: BLE001 - retried or reported
                if error := self._fail(slot):
                    return error
        return None

    def stuck(self, join_timeout: float) -> str:
        """The error of a run whose loop took no step for ``join_timeout``."""
        current = self.current
        live = [s.label for s in self.slots if not s.done and s is not current]
        behind = f"; waiting on it: {', '.join(live)}" if live else ""
        return (
            f"filter copies still running after {join_timeout:g}s join timeout "
            f"(stuck): {current.label if current else 'none'}{behind}; "
            "the run thread was abandoned"
        )


class FilterCopy:
    """One attempt of one filter copy, cut into the steps of the copy
    protocol both engines run: :meth:`start` (``init``, and the checkpoint
    restore under recovery), :meth:`generate` per source packet or
    :meth:`consume` per input buffer, :meth:`finish` (``finalize``, and the
    flush of staged emits).  ``get`` yields the next input: the stream's,
    or under a :class:`~repro.datacutter.recovery.replay.CopyRecovery` the
    unacknowledged buffers first.  With a ``trace``, every callback is a
    :class:`~repro.datacutter.obs.trace.Span` carrying the packet id.  The
    caller closes ``out_stream`` once per *logical* copy."""

    __slots__ = ("spec", "copy_index", "filt", "ctx", "trace", "recovery",
                 "get", "heartbeat", "gen", "packet")

    def __init__(self, spec: FilterSpec, copy_index: int, in_stream: Any, out_stream: Any,
                 *, trace: TraceCollector | None = None, heartbeat: Any = None,
                 recovery: CopyRecovery | None = None) -> None:
        self.spec, self.copy_index = spec, copy_index
        self.trace, self.recovery = trace, recovery
        self.ctx = FilterContext(
            spec.name, copy_index, spec.width, out_stream.put, spec.params
        )
        self.filt = spec.make()
        #: None for a source copy
        self.get = None if in_stream is None else in_stream.get
        if recovery is not None:
            heartbeat = recovery.attach(self.ctx, in_stream, out_stream, heartbeat)
            if in_stream is not None:
                self.get = recovery.get
        self.heartbeat = heartbeat
        self.gen: Any = None
        #: index of the next packet the source generator yields
        self.packet = 0

    def _span(self, phase: str, packet: int | None, t0: float) -> None:
        self.trace.record_span(
            Span(self.spec.name, self.copy_index, phase, packet, t0, time.perf_counter())
        )

    def start(self) -> None:
        filt, ctx = self.filt, self.ctx
        t0 = time.perf_counter()
        filt.init(ctx)
        if self.recovery is not None:
            self.recovery.restore(filt, ctx)
        if self.trace is not None:
            self._span("init", None, t0)
        if self.get is None:
            if not isinstance(filt, SourceFilter):
                raise TypeError(f"first filter '{self.spec.name}' must be a SourceFilter")
            self.gen = filt.generate(ctx)

    def generate(self) -> bool:
        """Advance the source by one packet; False once it is exhausted.
        Every copy runs the generator over all packets and keeps its
        round-robin share (packet k goes to copy k mod width)."""
        t0 = time.perf_counter() if self.trace is not None else 0.0
        try:
            payload = next(self.gen)
        except StopIteration:
            return False
        packet = self.packet
        self.packet = packet + 1
        if packet % self.spec.width == self.copy_index:
            # trace only owned packets: tracing the discarded shares too
            # would count each packet width times and skew source cost
            if self.trace is not None:
                self._span("generate", packet, t0)
            recovery = self.recovery
            if recovery is None or recovery.fresh(packet):
                if isinstance(payload, Buffer):
                    self.ctx.write_buffer(payload)
                else:
                    self.ctx.write(payload, packet)
                if recovery is not None:
                    recovery.generated(packet)
        return True

    def consume(self, buf: Buffer) -> None:
        t0 = time.perf_counter() if self.trace is not None else 0.0
        self.filt.process(buf, self.ctx)
        if self.trace is not None:
            self._span("process", buf.packet, t0)
        if self.recovery is not None:
            self.recovery.processed(self.filt, self.ctx)

    def finish(self) -> None:
        filt, ctx = self.filt, self.ctx
        t0 = time.perf_counter()
        filt.finalize(ctx)
        if self.recovery is not None:
            self.recovery.flush()
        if self.trace is not None:
            self._span("finalize", None, t0)


class _Slot(FilterCopy):
    """A filter copy as the scheduler sees it: its current attempt, its
    place between two streams, and its recovery state across attempts."""

    __slots__ = ("label", "stream", "queue", "out", "replay", "attempt",
                 "budget", "ledger", "failed_at", "restart_at", "done", "scan")

    def __init__(self, spec: FilterSpec, index: int, stream: LogicalStream | None,
                 out: LogicalStream, policy: RetryPolicy | None) -> None:
        self.spec, self.copy_index = spec, index
        self.label = f"{spec.name}#{index}"
        self.stream, self.out = stream, out
        self.queue = stream.queues[index] if stream is not None else None
        self.budget = policy.attempts_for(spec.name) if policy is not None else 1
        self.ledger = CopyLedger() if policy is not None else None
        self.attempt, self.failed_at, self.done = 0, 0.0, False
        #: buffers the current attempt reprocesses before its queue
        self.replay: Any = ()
        #: back-off deadline of a failed copy (perf_counter), else None
        self.restart_at: float | None = None

    def begin(self, attempt: int, trace: TraceCollector | None, faults: Any) -> None:
        """Start attempt ``attempt``: a fresh filter resumed from the ledger."""
        self.attempt = attempt
        recovery = None
        if self.ledger is not None:
            recovery = CopyRecovery(
                self.ledger.progress(attempt),
                self.ledger,
                make_injector(faults, self.spec.name, self.copy_index, attempt),
            )
        self.replay = recovery.replay if recovery is not None else ()
        FilterCopy.__init__(
            self, self.spec, self.copy_index, self.stream, self.out,
            trace=trace, recovery=recovery,
        )
        if attempt and trace is not None:
            self._span("restart", None, self.failed_at)
        self.start()


def run_filter_copy(spec: FilterSpec, copy_index: int, in_stream: Any, out_stream: Any,
                    *, trace: TraceCollector | None = None, heartbeat: Any = None,
                    recovery: CopyRecovery | None = None) -> None:
    """Run one filter copy to its end over blocking streams: the process
    engine's worker body, over
    :class:`~repro.datacutter.mp.channels.ProcessEdge` streams.
    ``heartbeat`` is stamped once per packet so the supervisor's timeout
    diagnostics can name a stalled filter."""
    copy = FilterCopy(
        spec, copy_index, in_stream, out_stream,
        trace=trace, heartbeat=heartbeat, recovery=recovery,
    )
    heartbeat, get = copy.heartbeat, copy.get
    copy.start()
    if get is None:
        while True:
            if heartbeat is not None:
                heartbeat()
            if not copy.generate():
                break
    else:
        while True:
            buf = get(copy_index)
            if heartbeat is not None:
                heartbeat()
            if buf is None:
                break
            copy.consume(buf)
    copy.finish()
