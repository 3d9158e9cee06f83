"""The recoverable unit-of-work runner: transactional emits + replay.

This is the fault-tolerant twin of
:func:`repro.datacutter.runtime.run_filter_copy`, sharing its protocol
(``init``, then ``generate`` or a ``get``/``process`` loop, then
``finalize``) but making every packet a transaction:

1. a delivered packet is reported **in flight** before processing;
2. emissions during ``process``/``generate`` are *staged*, not sent;
3. on success the staged buffers flush downstream, the accumulator is
   snapshotted, and the packet is **acknowledged** (the ack carries the
   snapshot, so "packet retired" and "state includes packet" commit
   atomically from the recovery manager's point of view);
4. a copy that dies mid-packet therefore leaves nothing downstream for
   that packet — the restarted copy replays exactly the unacknowledged
   packets on top of the last checkpoint.

Delivery is at-least-once: the engines guarantee a packet is never lost,
and the staging discipline turns replays into exactly-once *effects* for
every failure point at or before step 3.  (A crash landing in the
microscopic window between flush and acknowledgement — unreachable by
the packet-pinned :class:`~repro.datacutter.recovery.faults.FaultPlan`
kinds — would duplicate one packet's output; closing that window needs
consumer-side dedup, which the paper's stateless-filter model does not
require.)

Source copies are recovered by **regeneration** instead of
checkpointing: ``generate`` is deterministic over the declustered
input (the paper's data-host model), so a restarted source re-runs its
generator, skips the owned packets it already flushed, and rebuilds any
internal reduction state as a side effect — double-counting is
structurally impossible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Protocol

from ..buffers import Buffer
from ..filters import Filter, FilterContext, FilterSpec, SourceFilter
from ..obs.trace import Span, TraceCollector
from .checkpoint import clone_state, restore_state, snapshot_state
from .faults import FaultInjector


@dataclass(slots=True)
class CopyProgress:
    """One logical filter copy's survivable progress.

    Built by the recovery manager (the retry loop on the threaded
    engine, the supervisor on the process engine) from everything the
    previous attempts acknowledged; a restarted copy resumes from it."""

    #: 0 for the first run, incremented per restart
    attempt: int = 0
    #: last acknowledged accumulator snapshot (state dict or pickled
    #: bytes), None when the copy was stateless at last ack
    checkpoint: Any = None
    #: delivered-but-unacknowledged packets to reprocess, oldest first
    replay: list[tuple[int, Buffer]] = field(default_factory=list)
    #: next delivery sequence number (continues the dead copy's count)
    seq_start: int = 0
    #: end-of-stream sentinels the dead copy had already consumed
    #: (process engine: sentinels are gone from the queue for good)
    eos_preset: int = 0
    #: source mode: owned packet indices already flushed downstream
    emitted: set[int] = field(default_factory=set)
    #: threaded engine: the input stream's single EOS was consumed
    eos_seen: bool = False


class RecoverySink(Protocol):
    """Where the runner reports per-packet progress.

    The threaded engine records in memory (:class:`LocalRecoverySink`);
    the process engine ships control-queue messages to the supervisor."""

    def on_inflight(self, seq: int, buf: Buffer) -> None: ...  # pragma: no cover

    def on_ack(self, seq: int, state: dict | None) -> None: ...  # pragma: no cover

    def on_gen_ack(self, packet: int) -> None: ...  # pragma: no cover

    def on_eos(self) -> None: ...  # pragma: no cover


class LocalRecoverySink:
    """In-memory recovery bookkeeping for same-process (threaded) retry."""

    def __init__(self) -> None:
        self.inflight: dict[int, Buffer] = {}
        self.state: Any = None
        self.next_seq: int = 0
        self.emitted: set[int] = set()
        self.eos_seen: bool = False

    def on_inflight(self, seq: int, buf: Buffer) -> None:
        self.inflight[seq] = buf
        self.next_seq = max(self.next_seq, seq + 1)

    def on_ack(self, seq: int, state: dict | None) -> None:
        # clone before the next packet mutates the live accumulator
        self.state = clone_state(state)
        self.inflight.pop(seq, None)
        self.next_seq = max(self.next_seq, seq + 1)

    def on_gen_ack(self, packet: int) -> None:
        self.emitted.add(packet)

    def on_eos(self) -> None:
        self.eos_seen = True

    def progress(self, attempt: int) -> CopyProgress:
        """The resume point for the next attempt."""
        # clone again on the way out: the restored filter mutates its
        # accumulators in place, and a failure before the next ack must
        # not leak those partial effects back into the stored checkpoint
        return CopyProgress(
            attempt=attempt,
            checkpoint=clone_state(self.state),
            replay=sorted(self.inflight.items()),
            seq_start=self.next_seq,
            emitted=set(self.emitted),
            eos_seen=self.eos_seen,
        )


def run_recoverable_copy(
    filt: Filter,
    ctx: FilterContext,
    spec: FilterSpec,
    copy_index: int,
    in_stream: Any,
    out_stream: Any,
    *,
    progress: CopyProgress,
    sink: RecoverySink,
    trace: TraceCollector | None = None,
    heartbeat: Any = None,
    injector: FaultInjector | None = None,
) -> None:
    """One attempt of one filter copy under the recovery protocol.

    Raising (a filter bug or an injected fault) leaves the streams
    consistent: nothing for the failing packet was emitted, and the
    sink knows exactly which packets are unacknowledged.  The caller
    (retry loop / respawned worker) decides whether another attempt
    follows; ``out_stream.close_producer()`` is the caller's job and
    must happen exactly once per *logical* copy, after the final
    attempt's outcome is known.  So is the threaded engine's baton: the
    caller holds it across the attempt and releases it however the
    attempt ends; in here only the stream operations (``flush``'s puts,
    the consumer's gets) pass it on while they block.
    """
    if injector is not None:
        heartbeat = injector.wrap_heartbeat(heartbeat)

    staged: list[Buffer] = []
    ctx._emit = staged.append

    def flush() -> None:
        for buf in staged:
            out_stream.put(buf)
        staged.clear()

    t0 = time.perf_counter()
    filt.init(ctx)
    if progress.checkpoint is not None:
        restore_state(filt, progress.checkpoint, ctx)
    if trace is not None:
        trace.record_span(
            Span(spec.name, copy_index, "init", None, t0, time.perf_counter())
        )

    if in_stream is None:
        _run_source(
            filt, ctx, spec, copy_index, progress, sink,
            staged, flush, trace, heartbeat, injector,
        )
    else:
        _run_consumer(
            filt, ctx, spec, copy_index, in_stream, progress, sink,
            flush, trace, heartbeat, injector,
        )

    t0 = time.perf_counter()
    filt.finalize(ctx)
    flush()
    if trace is not None:
        trace.record_span(
            Span(spec.name, copy_index, "finalize", None, t0, time.perf_counter())
        )


def _run_source(
    filt, ctx, spec, copy_index, progress, sink,
    staged, flush, trace, heartbeat, injector,
) -> None:
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
            # only owned packets are traced: the other width-1 copies
            # generate-and-discard this packet too, and counting it
            # width times would inflate measured source cost
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
            if injector is not None:
                injector.on_packet(packet)
            if packet not in progress.emitted:
                if isinstance(payload, Buffer):
                    staged.append(payload)
                else:
                    ctx.write(payload, packet)
                flush()
                progress.emitted.add(packet)
                sink.on_gen_ack(packet)
        packet += 1


def _run_consumer(
    filt, ctx, spec, copy_index, in_stream, progress, sink,
    flush, trace, heartbeat, injector,
) -> None:
    def handle(seq: int, buf: Buffer, report: bool) -> None:
        if report:
            sink.on_inflight(seq, buf)
        if heartbeat is not None:
            heartbeat()
        if injector is not None:
            injector.on_packet(buf.packet)
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
        flush()
        # ack carries the post-packet snapshot: the packet is either in
        # the checkpoint or in the replay set, never both
        sink.on_ack(seq, snapshot_state(filt, ctx))

    replay, progress.replay = list(progress.replay), []
    for seq, buf in replay:
        handle(seq, buf, report=False)

    if progress.eos_seen:
        return
    seq = progress.seq_start
    while True:
        buf = in_stream.get(copy_index)
        if buf is None:
            progress.eos_seen = True
            sink.on_eos()
            break
        handle(seq, buf, report=True)
        seq += 1
