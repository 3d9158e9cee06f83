"""Worker-process entry point: one long-lived process per filter copy.

Each worker is forked once and then serves *work epochs*: for every epoch
it runs the copy protocol whose steps the threaded engine's scheduler
calls one at a time, here as one blocking loop
(:func:`~repro.datacutter.runtime.run_filter_copy` — ``init``, then either
``generate`` (source copies split packets round-robin) or a
``get``/``process`` loop until end-of-stream, then ``finalize``) and
reports to the supervisor over the control queue:

* ``("error", label, traceback_text, worker_id)`` when a filter callback
  raises;
* ``("trace", worker_id, spans, queue_samples, blocked)`` with the
  worker-side event buffer when tracing is enabled — spans and queue
  gauges are recorded into a process-local, per-epoch
  :class:`~repro.datacutter.obs.trace.Trace` (attached to this worker's
  private post-fork copies of its edges) and shipped at epoch end, so
  process-engine traces are as complete as threaded ones;
* ``("counters", worker_id, counters)`` with this epoch's transport
  counters of the worker's two edges: segment ``hits`` / ``misses`` /
  ``evicted`` as a producer, ``released`` as a consumer, and the
  ``frames`` it wrote (the edges' segments stay mapped across epochs —
  that reuse is part of the warm-path win, and the counters prove it);
* ``("stats", worker_id, stream, buffers, bytes, by_packet)`` with the
  producer-side accounting of its output edge for this epoch;
* ``("done", worker_id, epoch, failed)`` as the final message of the
  epoch, tagged so a straggler handshake from epoch N can never satisfy
  the supervisor's bookkeeping for epoch N+1.

After a clean epoch the worker blocks on its order channel for the next
instruction:

* ``("epoch", epoch, arena_ref, spec_index, progress_or_None,
  faults_or_None)`` — run another unit of work: the copy rebinds to spec
  ``spec_index`` of the list the parent encoded into the pool's
  :class:`~repro.datacutter.mp.arena.EpochArena` (inherited through the
  fork; packets arrive as views of a private copy-on-write mapping, the
  generated filter classes are already in the fork image, anchored by
  :mod:`repro.codegen.generated_registry`), and the fault plan rides
  along so injected chaos tracks the engine's current configuration;
* ``("exit",)`` — the poison pill: leave (the edges' segments belong to
  the parent, which unlinks them once every worker is gone).

A worker whose filter failed exits after that epoch (the supervisor
respawns it or fails the run).  A worker that is killed sends nothing — the
supervisor detects that through the process sentinel and raises or
respawns on the caller's side.  Each worker also stamps a heartbeat slot
(monotonic seconds) before every packet so the supervisor's timeout
diagnostics can name the slowest/stalled filter.

With recovery enabled (a :class:`~repro.datacutter.recovery.replay.CopyProgress`
is passed for the epoch), the same loop runs with a
:class:`~repro.datacutter.recovery.replay.CopyRecovery` strategy, and the
worker additionally streams per-packet progress for the supervisor's
:class:`~repro.datacutter.recovery.replay.CopyLedger` of the copy:

* ``("inflight", worker_id, seq, buffer)`` — delivered, not yet done;
* ``("ack", worker_id, seq, state_blob, restorable)`` — packet retired,
  carrying the pickled post-packet checkpoint (atomically: a packet is
  either inside the checkpoint or in the supervisor's replay set);
* ``("genack", worker_id, packet)`` — a source copy flushed an owned
  packet (restart skips it during regeneration);
* ``("seos", worker_id, tally)`` / ``("eos", worker_id)`` — input-stream
  end-of-stream flags counted so far / input fully closed;
* ``("spill", worker_id, buffers)`` — sent by a failing attempt: buffers
  it had read off its input pipe (frames carry several) but never handed
  to the filter, for the supervisor to replay to the next incarnation.

Under recovery a *failed* worker does not close its output edge — the
respawned incarnation keeps producing on the same logical stream, and
only the final successful attempt (or supervisor teardown) closes it.  It
does flush what it was holding back: those buffers were committed.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
import traceback
from typing import Any

from ..filters import FilterSpec
from ..obs.trace import Trace
from ..recovery.checkpoint import CheckpointError, freeze_state
from ..recovery.faults import FaultPlan, FaultSpec, make_injector
from ..recovery.replay import CopyProgress, CopyRecovery
from ..runtime import run_filter_copy
from ..streams import RoundRobin
from .arena import EpochArena
from .channels import ProcessEdge


class ControlRecoverySink:
    """Recovery bookkeeping shipped to the supervisor as control messages."""

    def __init__(self, control: Any, worker_id: int) -> None:
        self._control = control
        self._wid = worker_id

    def on_inflight(self, seq: int, buf: Any) -> None:
        self._control.put(("inflight", self._wid, seq, buf))

    def on_ack(self, seq: int, state: dict | None) -> None:
        try:
            blob, restorable = freeze_state(state), True
        except CheckpointError:
            # the copy keeps running; it just cannot be resumed from a
            # checkpoint — the supervisor fails fast if it later dies
            blob, restorable = None, False
        self._control.put(("ack", self._wid, seq, blob, restorable))

    def on_gen_ack(self, packet: int) -> None:
        self._control.put(("genack", self._wid, packet))

    def on_eos(self) -> None:
        self._control.put(("eos", self._wid))


def worker_main(
    worker_id: int,
    spec: FilterSpec,
    copy_index: int,
    in_edge: ProcessEdge | None,
    out_edge: ProcessEdge,
    control: Any,
    heartbeats: Any,
    trace_enabled: bool,
    faults: FaultPlan | None,
    progress: CopyProgress | None,
    orders: Any,
    epoch: int,
    arena: EpochArena,
) -> None:
    out_edge.producer = copy_index
    if in_edge is not None:
        # about to block on empty input: send what we are holding back
        in_edge.on_idle = out_edge.flush
    while True:
        failed = _run_epoch(
            worker_id, spec, copy_index, in_edge, out_edge, control,
            heartbeats, epoch, trace_enabled, faults, progress,
        )
        if failed:
            break
        order = _next_order(orders, arena, control, spec, copy_index, worker_id)
        if order is None:
            break
        epoch, spec, progress, faults = order
    if failed:
        sys.exit(1)


def _next_order(
    orders: Any,
    arena: EpochArena,
    control: Any,
    spec: FilterSpec,
    copy_index: int,
    worker_id: int,
) -> tuple[int, FilterSpec, CopyProgress | None, FaultPlan | None] | None:
    """Block until the parent ships the next epoch; None means exit.

    The parent encodes the whole epoch before it dispatches any order, so
    decoding should not fail here.  Should it still — a spec referencing a
    class generated after this worker was forked that slipped past the
    parent's registry check, an arena that does not hold what the order
    names — the worker reports the traceback and exits without ``done``;
    the supervisor then sees a sentinel death and either respawns it (a
    fresh fork *does* have the class, and the spec, in its image) or
    fails the run with this context attached."""
    try:
        data = orders.recv_bytes()
    except (EOFError, OSError):
        return None  # parent is gone; nothing left to serve
    try:
        order = pickle.loads(data)
        if order[0] == "exit":
            return None
        _, epoch, arena_ref, spec_index, progress, faults = order
        return epoch, arena.load(arena_ref)[spec_index], progress, faults
    except Exception:  # noqa: BLE001 - reported to the supervisor
        label = f"{spec.name}#{copy_index}"
        try:
            control.put((
                "error",
                label,
                f"work-epoch order could not be decoded:\n{traceback.format_exc()}",
                worker_id,
            ))
        except Exception:  # pragma: no cover - control pipe gone
            pass
        return None


def _run_epoch(
    worker_id: int,
    spec: FilterSpec,
    copy_index: int,
    in_edge: ProcessEdge | None,
    out_edge: ProcessEdge,
    control: Any,
    heartbeats: Any,
    epoch: int,
    trace_enabled: bool,
    faults: FaultPlan | None,
    progress: CopyProgress | None,
) -> bool:
    """One unit of work on this copy; returns True if the filter failed.

    A ``progress`` means the pool recovers: the copy loop runs with a
    :class:`~repro.datacutter.recovery.replay.CopyRecovery` whose sink
    ships progress to the supervisor, and an injected crash dies after
    handing over what the successor needs."""
    label = f"{spec.name}#{copy_index}"

    def beat() -> None:
        heartbeats[worker_id] = time.monotonic()

    # fresh epoch state on this process's private post-fork edge copies:
    # sentinel tallies, producer stats, and the routing policy all restart
    # so nothing bleeds over from the previous unit of work
    if in_edge is not None:
        in_edge.begin_epoch(epoch)
    out_edge.begin_epoch(epoch)
    policy = spec.out_policy or RoundRobin()
    policy.reset()
    out_edge.policy = policy

    trace = Trace() if trace_enabled else None
    # these edge objects are this process's private post-fork copies:
    # attaching the local buffer cannot race with other workers
    if in_edge is not None:
        in_edge.trace = trace
    out_edge.trace = trace

    recovery = None
    if progress is not None:
        if in_edge is not None:
            if progress.eos_preset:
                in_edge.preset_eos(copy_index, progress.eos_preset)
            in_edge.on_eos = lambda tally: control.put(("seos", worker_id, tally))

        def crash(_fault: FaultSpec) -> None:
            # fail-stop after the transport has flushed: committed packets,
            # acks and undelivered input survive, then die with no error
            # report and no 'done' — the supervisor must notice through the
            # process sentinel alone
            _hand_over(worker_id, copy_index, in_edge, out_edge, control)
            try:
                control.close()
                control.join_thread()
            except Exception:  # pragma: no cover - control pipe gone
                pass
            os._exit(1)

        recovery = CopyRecovery(
            progress,
            ControlRecoverySink(control, worker_id),
            make_injector(faults, spec.name, copy_index, progress.attempt, crash=crash),
        )
    failed = False
    beat()
    try:
        run_filter_copy(
            spec,
            copy_index,
            in_edge,
            out_edge,
            trace=trace,
            heartbeat=beat,
            recovery=recovery,
        )
    except BaseException:  # noqa: BLE001 - reported to the supervisor
        failed = True
        try:
            control.put(("error", label, traceback.format_exc(), worker_id))
        except Exception:  # pragma: no cover - control pipe gone
            pass
    finally:
        try:
            if failed and recovery is not None:
                # a failed attempt must NOT close: a restarted incarnation
                # keeps producing on this logical stream, and a premature
                # end-of-stream flag would end it for every consumer
                _hand_over(worker_id, copy_index, in_edge, out_edge, control)
            else:
                out_edge.close_producer()
        except Exception:  # pragma: no cover - pipe torn down under us
            pass
        counters = out_edge.counters()
        if in_edge is not None:
            for key, value in in_edge.counters().items():
                counters[key] += value
        try:
            if trace is not None:
                control.put(
                    (
                        "trace",
                        worker_id,
                        trace.spans,
                        trace.queue_samples,
                        trace.blocked,
                    )
                )
            if any(counters.values()):
                control.put(("counters", worker_id, counters))
            control.put(
                (
                    "stats",
                    worker_id,
                    out_edge.name,
                    out_edge.stats.buffers,
                    out_edge.stats.bytes,
                    dict(out_edge.stats.by_packet),
                )
            )
            control.put(("done", worker_id, epoch, failed))
        except Exception:  # pragma: no cover - control pipe gone
            pass
    return failed


def _hand_over(
    worker_id: int,
    copy_index: int,
    in_edge: ProcessEdge | None,
    out_edge: ProcessEdge,
    control: Any,
) -> None:
    """What a failing attempt under recovery leaves to its successor:
    the output it committed reaches downstream, and the input it read but
    never processed goes to the supervisor for replay."""
    out_edge.flush()
    if in_edge is not None:
        spilled = in_edge.spill(copy_index)
        if spilled:
            control.put(("spill", worker_id, spilled))
