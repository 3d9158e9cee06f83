"""Process-crossing logical streams: credit-windowed pipe frames.

A :class:`ProcessEdge` is the multiprocess analogue of
:class:`~repro.datacutter.streams.LogicalStream`: ``p`` producer copies
feed ``c`` consumer copies.  Each consumer copy reads one pipe; producers
write pickled *frames* to it directly — no feeder thread, and a writer
lock only when more than one producer shares the pipe.  A frame is
``(producer, epoch, buffers, eos)``: one or more consecutive buffers of
one producer, large leaves replaced by references to the edge's
shared-memory segments (:mod:`repro.datacutter.mp.transport`).

**Credit window.**  Each (consumer, producer) pair may have at most
``capacity // p`` buffers (at least one) queued at the consumer — sent,
not yet handed to the filter — so ``capacity`` still bounds what one
consumer copy has queued.  Two counters per pair live in shared memory,
``sent`` (written by the producer only) and ``taken`` (written by the
consumer only); a producer with no credit left flushes everything it
holds and sleeps on its *wake pipe* until a consumer writes a byte to it.
Both counters survive a worker restart, so a respawned copy on either
side resumes the window exactly where its predecessor left it.

**Producer rule (coalescing).**  A producer holds buffers back, packing
consecutive ones into one frame, only while the consumer already has more
of its buffers queued than it is holding — a busy consumer loses nothing
by waiting for a bigger frame, an idle one is never kept waiting.  It
flushes before it could block: when its credits run out, when its own
input is empty (the worker wires :attr:`on_idle` of the input edge to
:meth:`flush` of the output edge), at end of stream, and on the crash
path (fail-stop happens after the transport has flushed).

**Consumer rule (credit return).**  A consumer wakes a producer once per
half window of buffers taken, once per half set of segments handed back,
and before it blocks on an empty pipe or reports end-of-stream, whenever
it owes that producer anything.  A producer pinned at a full window is
therefore woken once per half window instead of once per buffer.

**End of stream.**  Each producer copy sends its *own* end-of-stream flag,
in its last frame to every consumer, tagged with the sender's work epoch:
a frame can never overtake an earlier frame of the same producer, so the
flag always arrives behind that producer's data, and a consumer counts
flags until all producers have closed.  A flag from another epoch — a
straggler from a previous unit of work on a resident pool — is ignored.

Two fork-related differences from the threaded stream, both documented
behaviour:

* the distribution policy object is *copied* into each producer process by
  ``fork``, so round-robin rotates per producer copy instead of globally —
  load balance is preserved, exact interleaving is not (DataCutter makes
  the same non-guarantee);
* :attr:`stats` accumulate in the producer process; each worker ships its
  totals to the supervisor at the end of the epoch, which merges them per
  stream so :class:`~repro.datacutter.runtime.RunResult` accounting
  matches the threaded engine's.
"""

from __future__ import annotations

import os
import pickle
import select
import struct
import time
from collections import deque
from queue import Empty
from typing import Any, Callable

from ..buffers import Buffer, StreamStats
from ..obs.trace import TraceCollector, record_queue_op
from ..streams import DistributionPolicy, RoundRobin
from .transport import DEFAULT_SHM_MIN_BYTES, SEGMENTS_PER_PRODUCER, EdgeSegments

#: a producer drains stale wake bytes at least this often (buffers sent),
#: so its wake pipe never fills while it has no reason to sleep on it
_DRAIN_EVERY = 256

#: a frame on the pipe: its length, then the pickle
_HEADER = struct.Struct("<I")

#: a pipe's default capacity: one read takes whatever a producer got ahead
_READ_SIZE = 64 * 1024


def _write_frame(fd: int, data: bytes) -> None:
    header = _HEADER.pack(len(data))
    done = os.writev(fd, (header, data))
    if done < len(header) + len(data):  # interrupted: finish it
        rest = memoryview(header + data)[done:]
        while rest:
            rest = rest[os.write(fd, rest) :]


def _wait_readable(fd: int) -> None:
    # poll, not select: a worker inherits every descriptor of its parent,
    # so its pipes may sit above select()'s FD_SETSIZE
    poller = select.poll()
    poller.register(fd, select.POLLIN)
    poller.poll()


class EndOfStream:
    """What :meth:`ProcessEdge.poll` returns once every producer copy of
    the stream has closed, tagged with the edge's work epoch."""

    __slots__ = ("epoch",)

    def __init__(self, epoch: int = 0) -> None:
        self.epoch = epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EndOfStream(epoch={self.epoch})"


class ProcessEdge:
    """One logical producer->consumer connection across processes."""

    def __init__(
        self,
        mpctx: Any,
        name: str,
        n_producers: int = 1,
        n_consumers: int = 1,
        capacity: int | None = 32,
        policy: DistributionPolicy | None = None,
        shm_min_bytes: int = DEFAULT_SHM_MIN_BYTES,
    ) -> None:
        if n_producers < 1 or n_consumers < 1:
            raise ValueError("streams need at least one copy on each side")
        if capacity is not None and capacity < 1:
            raise ValueError(
                f"stream {name}: capacity must be >= 1 or None for unbounded, "
                f"got {capacity} (0 would silently disable backpressure)"
            )
        self.name = name
        self.n_producers = n_producers
        self.n_consumers = n_consumers
        self.policy = policy or RoundRobin()
        self.shm_min_bytes = shm_min_bytes
        # capacity None = unbounded (the collector endpoint, which must
        # never exert backpressure on the last stage)
        self.window = None if capacity is None else max(1, capacity // n_producers)
        self._half = None if self.window is None else max(1, self.window // 2)
        #: consumer copy -> (reader, writer) of its frame pipe
        self._pipes = [mpctx.Pipe(duplex=False) for _ in range(n_consumers)]
        self._locks = (
            [mpctx.Lock() for _ in range(n_consumers)] if n_producers > 1 else None
        )
        #: producer copy -> (reader, writer) of its wake pipe
        self._wakes = [mpctx.Pipe(duplex=False) for _ in range(n_producers)]
        # readers never block in read(): an empty pipe is the moment to
        # return credit before sleeping in poll()
        for reader, _writer in self._pipes + self._wakes:
            os.set_blocking(reader.fileno(), False)
        pairs = n_consumers * n_producers
        #: per (consumer, producer) pair, index c * p + producer
        self._sent = mpctx.RawArray("q", pairs)
        self._taken = mpctx.RawArray("q", pairs)
        self.segments = EdgeSegments(mpctx, n_producers)
        #: producer copy this process writes as (set by the worker)
        self.producer = 0
        self._pending: list[list[tuple]] = [[] for _ in range(n_consumers)]
        self._since_drain = 0
        self._ready: list[deque] = [deque() for _ in range(n_consumers)]
        #: consumer side, per pair: ``taken`` at the last wake (-1: a fresh
        #: process owes every producer one wake), segments freed since
        self._marks = [-1] * pairs
        self._freed = [0] * pairs
        #: current work epoch of *this process's* copy of the edge (each
        #: side advances its own copy via :meth:`begin_epoch`)
        self._epoch = 0
        self._eos_seen = [0] * n_consumers
        self._eos_reported = [False] * n_consumers
        self.stats = StreamStats()
        self.frames = 0
        #: worker-local trace buffer; ``None`` in the parent.  Each forked
        #: worker owns a private copy of this edge object and attaches its
        #: own collector (see worker_main), so gauges recorded here never
        #: race across processes.
        self.trace: TraceCollector | None = None
        #: recovery hook: called with the running tally each time this
        #: consumer counts a producer's end-of-stream flag, so the
        #: supervisor can credit it to a restarted copy
        self.on_eos: Callable[[int], None] | None = None
        #: called before a consumer blocks on an empty pipe (the worker
        #: wires it to its output edge's :meth:`flush`)
        self.on_idle: Callable[[], None] | None = None

    def begin_epoch(self, epoch: int) -> None:
        """Enter a new work epoch on this process's copy of the edge.

        Resets the per-epoch state (end-of-stream tallies, producer stats,
        counters) so nothing from the previous unit of work bleeds into the
        next one.  Workers call this on their private post-fork copies when
        an epoch order arrives; the parent calls it on its own copies
        before dispatching the orders."""
        self._epoch = epoch
        self._eos_seen = [0] * self.n_consumers
        self._eos_reported = [False] * self.n_consumers
        self.stats = StreamStats()
        self.frames = 0
        self.segments.reset_counters()

    def counters(self) -> dict[str, int]:
        """This process's transport counters on this edge for the epoch."""
        return {**self.segments.counters(), "frames": self.frames}

    def _queued(self, consumer_index: int) -> int:
        base = consumer_index * self.n_producers
        return sum(
            self._sent[k] - self._taken[k]
            for k in range(base, base + self.n_producers)
        )

    # -- producer side (called inside worker processes) ---------------------
    def put(self, buf: Buffer) -> None:
        self.stats.record(buf)
        target = self.policy.choose(buf, self.n_consumers)
        trace = self.trace
        t0 = time.perf_counter() if trace is not None else 0.0
        if target == -1:
            # broadcast control traffic: an inline copy per consumer (a
            # segment is handed back by exactly one consumer)
            item = (buf.payload, buf.packet, buf.kind, buf.origin)
            for consumer in range(self.n_consumers):
                self._push(consumer, item)
            target = self.n_consumers - 1
        else:
            payload = self.segments.encode(
                buf.payload, self.producer, self.shm_min_bytes, self._await_segment
            )
            self._push(target, (payload, buf.packet, buf.kind, buf.origin))
        if trace is not None:
            record_queue_op(
                trace, self.name, "put", t0, time.perf_counter(), self._queued(target)
            )

    def _push(self, consumer: int, item: tuple) -> None:
        k = consumer * self.n_producers + self.producer
        pending = self._pending[consumer]
        window = self.window
        if window is not None:
            while window - (self._sent[k] - self._taken[k]) <= len(pending):
                self._sleep()  # no credit for one more buffer
                pending = self._pending[consumer]
        pending.append(item)
        queued = self._sent[k] - self._taken[k]
        if queued > len(pending) and (window is None or window - queued > len(pending)):
            return  # the consumer is busy with more than we hold: coalesce
        self._send(consumer)

    def _send(self, consumer: int, eos: bool = False) -> None:
        items = self._pending[consumer]
        self._pending[consumer] = []
        frame = pickle.dumps(
            (self.producer, self._epoch, items, eos), pickle.HIGHEST_PROTOCOL
        )
        fd = self._pipes[consumer][1].fileno()
        if self._locks is None:
            _write_frame(fd, frame)
        else:
            with self._locks[consumer]:
                _write_frame(fd, frame)
        # counted after the write: a crash in between may over-grant one
        # frame of credit to a restarted producer, never lose any
        self._sent[consumer * self.n_producers + self.producer] += len(items)
        self.frames += 1
        self._since_drain += len(items)
        if self._since_drain >= _DRAIN_EVERY:
            self._drain_wakes()

    def flush(self) -> None:
        """Send every buffer this producer is holding back."""
        for consumer, pending in enumerate(self._pending):
            if pending:
                self._send(consumer)

    def close_producer(self) -> None:
        """Flush, then send this producer's end-of-stream flag to every
        consumer, tagged with the sender's epoch."""
        for consumer in range(self.n_consumers):
            self._send(consumer, eos=True)

    def _drain_wakes(self) -> None:
        self._since_drain = 0
        try:
            os.read(self._wakes[self.producer][0].fileno(), 65536)
        except BlockingIOError:
            pass

    def _sleep(self) -> None:
        """Flush, then block until some consumer returns credit."""
        self.flush()
        _wait_readable(self._wakes[self.producer][0].fileno())
        self._drain_wakes()

    def _await_segment(self) -> bool:
        """Every segment of this producer is in flight: flush and sleep
        until a consumer hands one back.  False when none of our buffers
        is queued anywhere: nothing more will come back."""
        self.flush()
        p, n = self.producer, self.n_producers
        if all(
            self._sent[c * n + p] <= self._taken[c * n + p]
            for c in range(self.n_consumers)
        ):
            return False
        self._sleep()
        return True

    # -- consumer side -------------------------------------------------------
    def _pull(self, consumer: int) -> bool:
        """Read what the pipe holds and take in every frame in it; False
        when the pipe was empty."""
        fd = self._pipes[consumer][0].fileno()
        try:
            data = os.read(fd, _READ_SIZE)
        except BlockingIOError:
            return False
        start = 0
        while True:
            if not data:
                raise EOFError(f"stream {self.name}: every writer is gone")
            if len(data) - start >= _HEADER.size:
                (size,) = _HEADER.unpack_from(data, start)
                end = start + _HEADER.size + size
                if end <= len(data):
                    self._receive(consumer, memoryview(data)[start + _HEADER.size : end])
                    if end == len(data):
                        return True
                    start = end
                    continue
            # the rest of this frame is still being written: wait for it,
            # so no partial frame outlives this call (a restarted copy
            # must find the pipe at a frame boundary)
            _wait_readable(fd)
            more = os.read(fd, _READ_SIZE)
            data = data[start:] + more if more else b""
            start = 0

    def _receive(self, consumer: int, frame: memoryview) -> None:
        producer, epoch, items, eos = pickle.loads(frame)
        k = consumer * self.n_producers + producer
        segments = self.segments
        released = segments.released
        ready = self._ready[consumer]
        for payload, packet, kind, origin in items:
            ready.append((k, Buffer(segments.decode(payload), packet, kind, origin)))
        if segments.released != released:
            self._freed[k] += segments.released - released
            if self._freed[k] >= SEGMENTS_PER_PRODUCER // 2:
                self._wake(k)
        if eos and epoch == self._epoch:
            self._eos_seen[consumer] += 1
            if self.on_eos is not None:
                self.on_eos(self._eos_seen[consumer])

    def _deliver(self, consumer: int) -> Buffer:
        k, buf = self._ready[consumer].popleft()
        taken = self._taken[k] + 1
        self._taken[k] = taken
        if self._half is not None and taken - self._marks[k] >= self._half:
            self._wake(k)
        return buf

    def _wake(self, k: int) -> None:
        os.write(self._wakes[k % self.n_producers][1].fileno(), b"\x01")
        self._marks[k] = self._taken[k]
        self._freed[k] = 0

    def _return_all(self, consumer: int) -> None:
        """Wake every producer this consumer owes credit or segments."""
        base = consumer * self.n_producers
        for k in range(base, base + self.n_producers):
            if self._freed[k] or (
                self._half is not None and self._taken[k] != self._marks[k]
            ):
                self._wake(k)

    def get(self, consumer_index: int) -> Buffer | None:
        """Next buffer for a consumer copy; ``None`` means end-of-stream
        (all producer copies closed *and* their data fully drained)."""
        trace = self.trace
        t0 = time.perf_counter() if trace is not None else 0.0
        ready = self._ready[consumer_index]
        buf = None
        while not ready:
            if self._eos_seen[consumer_index] >= self.n_producers:
                self._return_all(consumer_index)
                break
            if self._pull(consumer_index):
                continue
            # about to block: return every credit, send what we hold back
            self._return_all(consumer_index)
            if self.on_idle is not None:
                self.on_idle()
            _wait_readable(self._pipes[consumer_index][0].fileno())
        else:
            buf = self._deliver(consumer_index)
        if trace is not None:
            record_queue_op(
                trace,
                self.name,
                "get",
                t0,
                time.perf_counter(),
                self._queued(consumer_index),
            )
        return buf

    def poll(self, consumer_index: int = 0) -> Buffer | EndOfStream:
        """Non-blocking variant used by the supervisor's collector drain.
        Returns an :class:`EndOfStream` once, when the whole stream has
        closed; raises :class:`queue.Empty` when nothing is pending."""
        ready = self._ready[consumer_index]
        while not ready:
            if self._eos_seen[consumer_index] >= self.n_producers:
                if self._eos_reported[consumer_index]:
                    raise Empty
                self._eos_reported[consumer_index] = True
                self._return_all(consumer_index)
                return EndOfStream(self._epoch)
            if not self._pull(consumer_index):
                self._return_all(consumer_index)
                raise Empty
        return self._deliver(consumer_index)

    def readers(self) -> list[Any]:
        """The consumer-side pipe connections, for ``connection.wait`` —
        lets the supervisor sleep until output actually arrives instead
        of polling at a fixed interval."""
        return [reader for reader, _writer in self._pipes]

    def preset_eos(self, consumer_index: int, count: int) -> None:
        """Credit end-of-stream flags a previous (dead) incarnation of this
        consumer copy already counted — called by a restarted worker before
        its first :meth:`get`, so it does not wait for flags that will
        never arrive again."""
        self._eos_seen[consumer_index] = count

    def spill(self, consumer_index: int) -> list[Buffer]:
        """Take every buffer this consumer received but never handed out.

        A failing copy under recovery passes them to the supervisor, which
        replays them to the next incarnation right after the packet that
        failed: a frame of several buffers must not die with the process
        that read it."""
        ready = self._ready[consumer_index]
        spilled = []
        while ready:
            spilled.append(self._deliver(consumer_index))
        return spilled

    # -- teardown ------------------------------------------------------------
    def close(self) -> None:
        """Parent-side teardown: close the pipes, unlink the segments."""
        for reader, writer in self._pipes + self._wakes:
            reader.close()
            writer.close()
        self.segments.close()
