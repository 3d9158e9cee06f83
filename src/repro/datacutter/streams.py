"""Streams with transparent-copy routing (paper §2.2).

    "The filter runtime system maintains the illusion of a single logical
    point-to-point stream for communication between a logical producer
    filter and a logical consumer filter.  When the logical producer or
    logical consumer is transparently copied, the system decides for each
    producer which copy to send a stream buffer to.  Schemes like
    round-robin allocation are used to achieve load balancing."

A :class:`LogicalStream` connects ``p`` producer copies to ``c`` consumer
copies through bounded per-copy queues.  Producers call :meth:`put`; the
distribution policy picks the consumer copy.  End-of-work propagates once
*all* producer copies have signalled completion.

The streams are also where the threaded engine's copies hand over to each
other: ``put``/``get`` pass the run's :class:`Baton` on while they block.
"""

from __future__ import annotations

import queue
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from .buffers import Buffer, StreamStats
from .obs.trace import TraceCollector, record_queue_op

#: sentinel delivered to each consumer copy when the stream drains
_EOS = object()


class Baton:
    """The right to run filter code in one threaded pipeline run.

    A plain lock that remembers its holder, so a join timeout can tell the
    copy that is stuck *inside* filter code from the copies queued up
    behind it.  A copy acquires it before ``init`` and keeps it until its
    thread ends, except while it is blocked: in a stream ``get`` on an
    empty queue, a stream ``put`` on a full one, or (:meth:`paused`) the
    retry back-off sleep.  A filter that sleeps or does I/O elsewhere
    keeps the baton and stalls its pipeline — the process engine is the
    one that overlaps such filters."""

    __slots__ = ("_lock", "holder")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: ``threading.get_ident()`` of the copy running filter code, or None
        self.holder: int | None = None

    def acquire(self) -> None:
        self._lock.acquire()
        self.holder = threading.get_ident()

    def release(self) -> None:
        self.holder = None
        self._lock.release()

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Give the baton up around a blocking wait of the holder."""
        self.release()
        try:
            yield
        finally:
            self.acquire()


class DistributionPolicy:
    """Chooses the consumer copy for each buffer.

    A policy instance attached to a :class:`~repro.datacutter.filters.FilterSpec`
    outlives any single run, so stateful policies must implement
    :meth:`reset`; the engines call it when wiring streams so routing is
    identical on every run of the same specs."""

    def choose(self, buf: Buffer, n_consumers: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def reset(self) -> None:  # noqa: B027 - stateless policies need nothing
        """Forget any routing state carried over from a previous run."""


class RoundRobin(DistributionPolicy):
    """The DataCutter default."""

    def __init__(self) -> None:
        self._next = 0
        self._lock = threading.Lock()

    def choose(self, buf: Buffer, n_consumers: int) -> int:
        with self._lock:
            idx = self._next
            self._next = (self._next + 1) % n_consumers
            return idx

    def reset(self) -> None:
        with self._lock:
            self._next = 0


class ByPacket(DistributionPolicy):
    """Deterministic: packet k goes to copy k mod c.  Used by tests that
    need reproducible routing and by the reduction-merge pattern."""

    def choose(self, buf: Buffer, n_consumers: int) -> int:
        return buf.packet % n_consumers if buf.packet >= 0 else 0


class Broadcast(DistributionPolicy):
    """Every buffer goes to every consumer copy (control traffic)."""

    def choose(self, buf: Buffer, n_consumers: int) -> int:
        return -1  # special-cased in LogicalStream.put


class LogicalStream:
    """One logical producer->consumer connection."""

    def __init__(
        self,
        name: str,
        n_producers: int = 1,
        n_consumers: int = 1,
        capacity: int | None = 16,
        policy: Optional[DistributionPolicy] = None,
        trace: Optional[TraceCollector] = None,
        baton: Optional[Baton] = None,
    ) -> None:
        if n_producers < 1 or n_consumers < 1:
            raise ValueError("streams need at least one copy on each side")
        if capacity is not None and capacity < 1:
            raise ValueError(
                f"stream {name}: capacity must be >= 1 or None for unbounded, "
                f"got {capacity} (queue.Queue would silently treat it as "
                "unbounded, disabling backpressure)"
            )
        self.name = name
        self.n_producers = n_producers
        self.n_consumers = n_consumers
        self.policy = policy or RoundRobin()
        self.trace = trace
        #: held by every caller of put()/get() when set (the threaded
        #: engine's filter copies); None for a free-standing stream
        self.baton = baton
        self._queues: list[queue.Queue] = [
            queue.Queue(maxsize=0 if capacity is None else capacity)
            for _ in range(n_consumers)
        ]
        self._open_producers = n_producers
        self._lock = threading.Lock()
        self.stats = StreamStats()

    # -- queue ops that pass the baton on while they block -------------------
    def _enqueue(self, q: queue.Queue, buf: Buffer) -> None:
        baton = self.baton
        if baton is None:
            q.put(buf)
            return
        try:
            q.put(buf, False)
        except queue.Full:
            with baton.paused():
                q.put(buf)

    def _dequeue(self, q: queue.Queue, timeout: float | None) -> Any:
        baton = self.baton
        if baton is None:
            return q.get(timeout=timeout)
        try:
            return q.get(False)
        except queue.Empty:
            with baton.paused():
                return q.get(timeout=timeout)

    # -- producer side -------------------------------------------------------
    def put(self, buf: Buffer) -> None:
        self.stats.record(buf)
        target = self.policy.choose(buf, self.n_consumers)
        trace = self.trace
        if trace is None:
            if target == -1:
                for q in self._queues:
                    self._enqueue(q, buf)
            else:
                self._enqueue(self._queues[target], buf)
            return
        # broadcast (-1) fans out to every consumer queue; each put is its
        # own queue op so blocked-put time on any full copy is accounted
        # (the wait to get the baton back is part of that blocked time)
        targets = range(self.n_consumers) if target == -1 else (target,)
        for idx in targets:
            q = self._queues[idx]
            t0 = time.perf_counter()
            self._enqueue(q, buf)
            record_queue_op(
                trace, self.name, "put", t0, time.perf_counter(), q.qsize()
            )

    def close_producer(self) -> None:
        """Called by each producer copy when it finishes its unit-of-work;
        the last close broadcasts end-of-stream to all consumer copies.

        The end-of-stream put can block on a full queue and does not pass
        the baton on: the engine calls this after the copy released it."""
        with self._lock:
            self._open_producers -= 1
            if self._open_producers < 0:
                raise RuntimeError(f"stream {self.name}: too many closes")
            if self._open_producers == 0:
                for q in self._queues:
                    q.put(_EOS)

    # -- consumer side ----------------------------------------------------------
    def get(self, consumer_index: int, timeout: float | None = None) -> Buffer | None:
        """Next buffer for a consumer copy; ``None`` means end-of-stream."""
        trace = self.trace
        q = self._queues[consumer_index]
        if trace is None:
            item = self._dequeue(q, timeout)
        else:
            t0 = time.perf_counter()
            item = self._dequeue(q, timeout)
            record_queue_op(
                trace, self.name, "get", t0, time.perf_counter(), q.qsize()
            )
        if item is _EOS:
            return None
        return item

    def drain(self, consumer_index: int) -> list[Buffer]:
        """Collect everything until end-of-stream (used by sinks/tests)."""
        out: list[Buffer] = []
        while True:
            buf = self.get(consumer_index)
            if buf is None:
                return out
            out.append(buf)


class CollectorStream(LogicalStream):
    """Single-consumer stream whose contents can be fetched after the run —
    the 'final results on the user's desktop' endpoint."""

    def __init__(
        self,
        name: str = "collector",
        n_producers: int = 1,
        trace: Optional[TraceCollector] = None,
    ) -> None:
        # unbounded (capacity=None) so the sink never blocks the pipeline
        # (and so never needs to pass a baton on)
        super().__init__(
            name, n_producers=n_producers, n_consumers=1, capacity=None, trace=trace
        )

    def results(self) -> list[Buffer]:
        return self.drain(0)
