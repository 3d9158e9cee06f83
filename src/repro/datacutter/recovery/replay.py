"""Packet-granularity recovery as a strategy of the one copy loop.

:class:`repro.datacutter.runtime.FilterCopy` is every filter copy on
both engines.  Given no strategy it sends emits straight downstream
and takes no snapshot.  Given a :class:`CopyRecovery` it makes every
packet a transaction:

1. a delivered packet is reported **in flight** before processing;
2. emissions during ``process``/``generate`` are *staged*, not sent;
3. on success the staged buffers flush downstream, the accumulator is
   snapshotted, and the packet is **acknowledged** (the ack carries the
   snapshot, so "packet retired" and "state includes packet" commit
   atomically from the recovery manager's point of view);
4. a copy that dies mid-packet therefore leaves nothing downstream for
   that packet — the restarted copy replays exactly the unacknowledged
   packets on top of the last checkpoint.

The reports land in a :class:`CopyLedger`, one per logical copy: in the
threaded engine's scheduler loop directly, in the process engine's
supervisor as control messages.  The ledger builds the
:class:`CopyProgress` the next attempt resumes from.

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

from dataclasses import dataclass, field
from typing import Any

from ..buffers import Buffer
from ..filters import Filter, FilterContext
from .checkpoint import clone_state, restore_state, snapshot_state
from .faults import FaultInjector, FaultPlan
from .policy import RetryPolicy


@dataclass(slots=True)
class CopyProgress:
    """One logical filter copy's survivable progress.

    Built by :meth:`CopyLedger.progress` from everything the previous
    attempts acknowledged (the ledger's fields of the same meaning); a
    restarted copy resumes from it."""

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
    #: the input stream was fully closed before the dead copy failed
    eos_seen: bool = False


def recovery_policy(
    retry: RetryPolicy | None, faults: FaultPlan | None
) -> RetryPolicy | None:
    """The retry policy a run recovers under, or None: recovery is off.

    The one place either engine decides whether a run recovers.  A fault
    plan without a retry policy still recovers, on a budget of one
    attempt, so an injected fault fails the run like a filter bug."""
    if retry is None and not faults:
        return None
    return retry or RetryPolicy(max_attempts=1)


@dataclass(slots=True)
class CopyLedger:
    """Everything the attempts of one logical filter copy acknowledged.

    The threaded engine's scheduler hands it to each attempt as the sink
    itself; the process engine's supervisor applies the workers'
    control messages to it.  :meth:`progress` is the resume point of the
    next attempt either way."""

    #: process engine: checkpoints arrive pickled (immutable bytes); the
    #: threaded engine's live state dicts are cloned on the way in and out
    pickled: bool = False
    #: attempts started so far (the first run counts as 1)
    attempts: int = 1
    checkpoint: Any = None
    #: False once a checkpoint could not be pickled: no restart possible
    restorable: bool = True
    #: delivered-but-unacknowledged packets, keyed by delivery sequence
    inflight: dict[int, Buffer] = field(default_factory=dict)
    next_seq: int = 0
    eos_count: int = 0
    eos_seen: bool = False
    emitted: set[int] = field(default_factory=set)
    #: traceback text of the latest failure report, if any
    pending_error: str | None = None

    def _detach(self, state: Any) -> Any:
        return state if self.pickled else clone_state(state)

    def on_inflight(self, seq: int, buf: Buffer) -> None:
        self.inflight[seq] = buf
        self.next_seq = max(self.next_seq, seq + 1)

    def on_ack(self, seq: int, state: Any, restorable: bool = True) -> None:
        # detach before the next packet mutates the live accumulator
        self.checkpoint = self._detach(state)
        self.restorable = restorable
        self.inflight.pop(seq, None)
        self.next_seq = max(self.next_seq, seq + 1)

    def on_gen_ack(self, packet: int) -> None:
        self.emitted.add(packet)

    def on_eos(self) -> None:
        self.eos_seen = True

    def on_eos_tally(self, tally: int) -> None:
        self.eos_count = max(self.eos_count, tally)

    def on_spill(self, bufs: list[Buffer]) -> None:
        # received by the failed attempt but never processed: they replay
        # right after the packet it failed on
        for buf in bufs:
            self.inflight[self.next_seq] = buf
            self.next_seq += 1

    def progress(self, attempt: int) -> CopyProgress:
        """The resume point for attempt ``attempt``."""
        # detach again on the way out: the restored filter mutates its
        # accumulators in place, and a failure before the next ack must
        # not leak those partial effects back into the stored checkpoint
        return CopyProgress(
            attempt=attempt,
            checkpoint=self._detach(self.checkpoint),
            replay=sorted(self.inflight.items()),
            seq_start=self.next_seq,
            eos_preset=self.eos_count,
            emitted=set(self.emitted),
            eos_seen=self.eos_seen,
        )


class CopyRecovery:
    """The recovery strategy of one copy attempt.

    The steps of :class:`~repro.datacutter.runtime.FilterCopy` call it at
    the packet boundaries when it is given one.  ``sink`` receives the
    progress reports: ``on_inflight(seq, buf)``, ``on_ack(seq, state)``,
    ``on_gen_ack(packet)`` and ``on_eos()`` — a :class:`CopyLedger` on
    the threaded engine, control messages to the supervisor on the
    process engine.  ``injector`` fires the attempt's injected faults, if
    any."""

    __slots__ = ("progress", "sink", "injector", "_staged", "_out", "_in",
                 "replay", "_seq", "_next")

    def __init__(
        self,
        progress: CopyProgress,
        sink: Any,
        injector: FaultInjector | None = None,
    ) -> None:
        self.progress = progress
        self.sink = sink
        self.injector = injector or FaultInjector(())
        self._staged: list[Buffer] = []
        #: the unacknowledged buffers still to reprocess, oldest first
        self.replay = list(progress.replay)
        #: delivery sequence of the packet being processed / of the next
        self._seq = self._next = progress.seq_start

    def attach(
        self, ctx: FilterContext, in_stream: Any, out_stream: Any, heartbeat: Any
    ) -> Any:
        """Stage the copy's emits; returns the heartbeat to stamp."""
        self._in, self._out = in_stream, out_stream
        ctx._emit = self._staged.append
        return self.injector.wrap_heartbeat(heartbeat)

    def restore(self, filt: Filter, ctx: FilterContext) -> None:
        """Resume the freshly initialised filter from the checkpoint."""
        restore_state(filt, self.progress.checkpoint, ctx)

    def flush(self) -> None:
        """Send the staged emits downstream: they are committed."""
        for buf in self._staged:
            self._out.put(buf)
        self._staged.clear()

    # -------------------------------------------------------------- source
    def fresh(self, packet: int) -> bool:
        """Whether owned ``packet`` still has to be emitted; a restarted
        source regenerates everything but skips what it already flushed."""
        self.injector.on_packet(packet)
        return packet not in self.progress.emitted

    def generated(self, packet: int) -> None:
        self.flush()
        self.sink.on_gen_ack(packet)

    # ------------------------------------------------------------ consumer
    def get(self, copy_index: int) -> Buffer | None:
        """The next packet to process: the unacknowledged ones first, then
        the input stream's, each reported in flight; None at end of
        stream.  The attempt's fault fires here, before ``process``."""
        if self.replay:
            self._seq, buf = self.replay.pop(0)
        elif self.progress.eos_seen:
            return None
        else:
            buf = self._in.get(copy_index)
            if buf is None:
                self.sink.on_eos()
                return None
            self._seq, self._next = self._next, self._next + 1
            self.sink.on_inflight(self._seq, buf)
        self.injector.on_packet(buf.packet)
        return buf

    def processed(self, filt: Filter, ctx: FilterContext) -> None:
        self.flush()
        # the ack carries the post-packet snapshot: the packet is either
        # in the checkpoint or in the replay set, never both
        self.sink.on_ack(self._seq, snapshot_state(filt, ctx))
