"""Pipeline supervision: liveness, failure detection, recovery, teardown.

The supervisor runs in the parent process alongside the workers.  Its
loop interleaves five duties until the run completes or fails:

1. drain the collector edge (the run's outputs must be consumed
   continuously — the collector is unbounded, but a full pipe would block
   the sink copies writing to it, and their shared-memory segments only
   come back once the parent has copied the data out);
2. drain the control queue: error reports, per-stream statistics,
   transport counters, recovery progress (in-flight packets, checkpointed
   acks, buffers a failed copy received but never processed), and
   ``done`` handshakes;
3. watch process sentinels: a worker that exits without having sent
   ``done`` was killed or crashed hard (segfault, ``os._exit``) — after a
   short grace period for in-flight messages it is declared dead;
4. **recover**: with a retry budget configured, a failed or dead worker
   is respawned from its last acknowledged checkpoint plus the replay
   set of delivered-but-unacknowledged packets (see
   :mod:`repro.datacutter.recovery`); a ``restart`` span lands in the
   trace.  Without budget (or with the copy non-restorable) the run
   fails, naming the filter copy and its attempt count;
5. enforce the optional wall-clock ``timeout``, plus a post-end-of-stream
   completion deadline: once the collector has seen full end-of-stream,
   every worker must hand in ``done`` within ``post_eos_timeout`` seconds
   of the last progress — a live worker that never reports cannot spin
   the loop forever, it fails the run with a stalest-heartbeat diagnostic.

On failure the supervisor terminates every surviving worker and raises
:class:`~repro.datacutter.runtime.PipelineError` carrying the failing
filter's traceback (or kill diagnosis) — no hang, no orphan processes.
The edges' shared-memory segments are unlinked by the engine when it
releases the failed pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing import connection
from queue import Empty
from typing import Any, Callable

from ..buffers import Buffer, StreamStats
from ..obs.trace import Span, TraceCollector
from ..recovery.faults import FaultPlan
from ..recovery.policy import RetryPolicy
from ..recovery.replay import CopyProgress
from ..runtime import PipelineError
from .channels import EndOfStream, ProcessEdge


@dataclass(slots=True)
class WorkerHandle:
    """One spawned filter copy as the supervisor tracks it."""

    process: Any
    worker_id: int
    label: str  # "filtername#copy"


@dataclass(slots=True)
class _WorkerRecovery:
    """Parent-side recovery bookkeeping for one logical filter copy."""

    #: attempts started so far (the initial spawn counts as 1)
    attempts: int = 1
    #: last acknowledged checkpoint (pickled bytes), None when stateless
    checkpoint: bytes | None = None
    #: False once the worker reported unpicklable state: no restart possible
    restorable: bool = True
    #: delivered-but-unacknowledged packets, keyed by delivery sequence
    inflight: dict[int, Buffer] = field(default_factory=dict)
    #: next delivery sequence number for a restarted incarnation
    next_seq: int = 0
    #: input-stream sentinels the copy has consumed (gone from the queue)
    eos_count: int = 0
    #: the copy's input stream fully closed
    eos_seen: bool = False
    #: source copies: owned packet indices already flushed downstream
    emitted: set[int] = field(default_factory=set)
    #: traceback text from the latest ("error", ...) report, if any
    pending_error: str | None = None


class Supervisor:
    def __init__(
        self,
        workers: list[WorkerHandle],
        control: Any,
        collector: ProcessEdge,
        heartbeats: Any,
        timeout: float | None = None,
        death_grace: float = 2.0,
        trace: TraceCollector | None = None,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        respawn: Callable[[int, CopyProgress], Any] | None = None,
        post_eos_timeout: float | None = 60.0,
    ) -> None:
        self.workers = workers
        self.control = control
        self.collector = collector
        self.heartbeats = heartbeats
        self.timeout = timeout
        self.death_grace = death_grace
        self.trace = trace
        self.retry = retry
        self.respawn = respawn
        self.post_eos_timeout = post_eos_timeout
        #: current work epoch; the pool advances it via begin_epoch so
        #: 'done' handshakes from a previous unit of work are ignored
        self.epoch = 0
        #: optional external abort hook checked every loop iteration; a
        #: non-None return fails the run with that message (the engine
        #: wires a close() racing an in-flight run through this)
        self.abort: Callable[[], str | None] | None = None
        self.errors: list[str] = []
        self.stats: dict[str, StreamStats] = {}
        #: transport counters (segment reuse, frames) summed over workers
        self.counters: dict[str, int] = {}
        self.restarts: int = 0
        self._done: set[int] = set()
        self._by_id = {w.worker_id: w for w in workers}
        self._pending_dead: dict[int, float] = {}
        # recovery is active when a retry policy or fault plan is present
        # AND the engine provided a respawn hook; the policy defaults to a
        # single attempt so faults-without-retry still fail cleanly
        self._recovering = respawn is not None and (
            retry is not None or faults is not None
        )
        self._policy = retry or RetryPolicy(max_attempts=1)
        self._recovery: dict[int, _WorkerRecovery] = (
            {w.worker_id: _WorkerRecovery() for w in workers}
            if self._recovering
            else {}
        )

    # ------------------------------------------------------------------ api
    def begin_epoch(self, epoch: int) -> None:
        """Reset the per-epoch bookkeeping for the next unit of work.

        The supervisor object itself stays up for the life of its worker
        pool; everything scoped to one run — errors, done
        handshakes, stream statistics, transport counters, pending-death
        grace timers, recovery progress — restarts here.  Heartbeats are
        stamped to *now* because workers do not beat while idle
        between epochs, and a stale stamp would trip timeout diagnostics
        instantly."""
        self.epoch = epoch
        self.errors = []
        self.stats = {}
        self.counters = {}
        self._done = set()
        self._pending_dead = {}
        if self._recovering:
            self._recovery = {
                w.worker_id: _WorkerRecovery() for w in self.workers
            }
        now = time.monotonic()
        for w in self.workers:
            self.heartbeats[w.worker_id] = now

    def supervise(self) -> list[Buffer]:
        """Run to completion; returns outputs or raises PipelineError."""
        outputs: list[Buffer] = []
        eos_seen = False
        deadline = time.monotonic() + self.timeout if self.timeout else None
        post_eos_deadline: float | None = None
        done_at_deadline = -1

        while True:
            if self.abort is not None:
                reason = self.abort()
                if reason is not None:
                    self.errors.append(reason)
                    break
            self._drain_control()
            eos_seen = self._drain_collector(outputs) or eos_seen
            if self.errors:
                break
            now = time.monotonic()
            for w in self.workers:
                if w.worker_id in self._done or w.worker_id in self._pending_dead:
                    continue
                if not w.process.is_alive():
                    self._pending_dead[w.worker_id] = now
            for wid, t_dead in list(self._pending_dead.items()):
                if wid in self._done:
                    continue
                if now - t_dead >= self.death_grace:
                    w = self._by_id[wid]
                    diagnosis = (
                        f"filter {w.label} died without reporting "
                        f"(exit code {w.process.exitcode}); "
                        "the worker process was killed or crashed"
                    )
                    if self._recovering:
                        self._maybe_restart(wid, diagnosis)
                    else:
                        self.errors.append(diagnosis)
            if self.errors:
                break
            if eos_seen and len(self._done) == len(self.workers):
                break
            if deadline is not None and now > deadline:
                self.errors.append(self._timeout_message())
                break
            # post-EOS completion deadline: the run's outputs are all in,
            # so only 'done' handshakes are outstanding — a worker that
            # never sends one must not spin this loop forever.  The clock
            # restarts whenever another worker reports (progress).
            if eos_seen and self.post_eos_timeout is not None:
                if post_eos_deadline is None or len(self._done) != done_at_deadline:
                    done_at_deadline = len(self._done)
                    post_eos_deadline = now + self.post_eos_timeout
                elif now > post_eos_deadline:
                    self.errors.append(self._post_eos_message())
                    break
            # sleep until something actually happens: a worker dying (its
            # sentinel), a control message (done/error/stats land here —
            # the latency-critical wake, since workers park between
            # epochs instead of exiting), or collector output
            waits = [
                w.process.sentinel for w in self.workers if w.process.is_alive()
            ]
            try:
                waits.append(self.control._reader)
            except AttributeError:  # pragma: no cover - non-CPython Queue
                pass
            waits.extend(self.collector.readers())
            if waits:
                connection.wait(waits, timeout=0.02)
            else:
                time.sleep(0.005)

        if self.errors:
            self._teardown()
            raise PipelineError("\n".join(self.errors))
        return outputs

    # ------------------------------------------------------------- internals
    def _drain_control(self) -> None:
        while True:
            try:
                msg = self.control.get_nowait()
            except Empty:
                return
            except (OSError, ValueError, EOFError):  # pragma: no cover
                return
            kind = msg[0]
            if kind == "error":
                _, label, tb, wid = msg
                text = f"filter {label} failed:\n{tb}"
                if self._recovering:
                    # held back: the matching ("done", wid, True) decides
                    # between restart and final failure
                    self._recovery[wid].pending_error = text
                else:
                    self.errors.append(text)
            elif kind == "stats":
                _, _wid, stream, buffers, nbytes, by_packet = msg
                agg = self.stats.setdefault(stream, StreamStats())
                agg.buffers += buffers
                agg.bytes += nbytes
                for packet, size in by_packet.items():
                    agg.by_packet[packet] = agg.by_packet.get(packet, 0) + size
            elif kind == "counters":
                _, _wid, counters = msg
                for key, value in counters.items():
                    self.counters[key] = self.counters.get(key, 0) + value
            elif kind == "trace":
                # worker-side event buffer: replay into the caller's
                # collector so process traces merge like threaded ones
                _, _wid, spans, samples, blocked = msg
                if self.trace is not None:
                    for span in spans:
                        self.trace.record_span(span)
                    for sample in samples:
                        self.trace.record_queue(sample)
                    for blk in blocked:
                        self.trace.record_blocked(blk)
            elif kind == "done":
                _, wid, epoch, failed = msg
                if epoch != self.epoch:
                    # straggler handshake from a previous unit of work;
                    # its epoch already settled
                    continue
                if failed and self._recovering:
                    rec = self._recovery[wid]
                    reason = rec.pending_error or (
                        f"filter {self._by_id[wid].label} failed"
                    )
                    self._maybe_restart(wid, reason)
                else:
                    self._done.add(wid)
            elif kind == "inflight":
                _, wid, seq, buf = msg
                rec = self._recovery[wid]
                rec.inflight[seq] = buf
                rec.next_seq = max(rec.next_seq, seq + 1)
            elif kind == "ack":
                _, wid, seq, blob, restorable = msg
                rec = self._recovery[wid]
                rec.checkpoint = blob
                rec.restorable = restorable
                rec.inflight.pop(seq, None)
                rec.next_seq = max(rec.next_seq, seq + 1)
            elif kind == "genack":
                _, wid, packet = msg
                self._recovery[wid].emitted.add(packet)
            elif kind == "seos":
                _, wid, tally = msg
                rec = self._recovery[wid]
                rec.eos_count = max(rec.eos_count, tally)
            elif kind == "eos":
                _, wid = msg
                self._recovery[wid].eos_seen = True
            elif kind == "spill":
                # received by the failed attempt but never processed: they
                # replay right after the packet it failed on
                _, wid, bufs = msg
                rec = self._recovery[wid]
                for buf in bufs:
                    rec.inflight[rec.next_seq] = buf
                    rec.next_seq += 1

    def _maybe_restart(self, wid: int, reason: str) -> bool:
        """Respawn a failed copy within budget; record the final error
        otherwise.  Returns True when a restart was launched."""
        rec = self._recovery[wid]
        w = self._by_id[wid]
        name = w.label.rsplit("#", 1)[0]
        budget = self._policy.attempts_for(name)
        if rec.attempts >= budget:
            self.errors.append(
                f"filter {w.label} failed after {rec.attempts} attempt(s) "
                f"(retry budget {budget}):\n{reason}"
            )
            return False
        if not rec.restorable:
            self.errors.append(
                f"filter {w.label} cannot be restarted: its state was not "
                f"picklable at the last checkpoint; original failure:\n{reason}"
            )
            return False
        t0 = time.perf_counter()
        # reap the dead incarnation before its replacement starts
        w.process.join(timeout=5)
        time.sleep(self._policy.backoff_for(rec.attempts))
        progress = CopyProgress(
            attempt=rec.attempts,
            checkpoint=rec.checkpoint,
            replay=sorted(rec.inflight.items()),
            seq_start=rec.next_seq,
            eos_preset=rec.eos_count,
            emitted=set(rec.emitted),
            eos_seen=rec.eos_seen,
        )
        rec.attempts += 1
        rec.pending_error = None
        self.restarts += 1
        w.process = self.respawn(wid, progress)
        self.heartbeats[wid] = time.monotonic()
        self._pending_dead.pop(wid, None)
        if self.trace is not None:
            copy = int(w.label.rsplit("#", 1)[1])
            self.trace.record_span(
                Span(name, copy, "restart", None, t0, time.perf_counter())
            )
        return True

    def _drain_collector(self, outputs: list[Buffer]) -> bool:
        eos = False
        while True:
            try:
                item = self.collector.poll(0)
            except Empty:
                return eos
            except (OSError, ValueError, EOFError):  # pragma: no cover
                return eos
            if isinstance(item, EndOfStream):
                eos = True
            else:
                outputs.append(item)

    def _stalest_suffix(self, unfinished: list[WorkerHandle]) -> str:
        now = time.monotonic()
        stalest = max(
            unfinished,
            key=lambda w: now - self.heartbeats[w.worker_id],
            default=None,
        )
        if stalest is None:
            return ""
        age = now - self.heartbeats[stalest.worker_id]
        return f"; stalest heartbeat: {stalest.label} ({age:.1f}s ago)"

    def _timeout_message(self) -> str:
        unfinished = [w for w in self.workers if w.worker_id not in self._done]
        names = ", ".join(w.label for w in unfinished) or "<none>"
        return (
            f"pipeline timed out after {self.timeout:.1f}s; "
            f"unfinished: {names}" + self._stalest_suffix(unfinished)
        )

    def _post_eos_message(self) -> str:
        unfinished = [w for w in self.workers if w.worker_id not in self._done]
        names = ", ".join(w.label for w in unfinished) or "<none>"
        return (
            "pipeline output is complete (end-of-stream reached) but "
            f"{len(unfinished)} worker(s) never reported done within "
            f"{self.post_eos_timeout:.1f}s: {names}"
            + self._stalest_suffix(unfinished)
        )

    def _teardown(self) -> None:
        """Terminate survivors (the engine unlinks the edges' segments)."""
        alive = [w for w in self.workers if w.process is not None]
        for w in alive:
            if w.process.is_alive():
                w.process.terminate()
        for w in alive:
            w.process.join(timeout=2)
        for w in alive:
            if w.process.is_alive():  # pragma: no cover - SIGTERM ignored
                w.process.kill()
                w.process.join(timeout=2)
        self._drain_control()
