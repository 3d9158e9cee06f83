"""Streams with transparent-copy routing (paper §2.2).

    "The filter runtime system maintains the illusion of a single logical
    point-to-point stream for communication between a logical producer
    filter and a logical consumer filter.  When the logical producer or
    logical consumer is transparently copied, the system decides for each
    producer which copy to send a stream buffer to.  Schemes like
    round-robin allocation are used to achieve load balancing."

A :class:`LogicalStream` connects ``p`` producer copies to ``c`` consumer
copies through one deque per consumer copy.  Producers call :meth:`put`;
the distribution policy picks the consumer copy.  End of stream is a
count of open producers: once *all* producer copies have closed, a
consumer copy whose deque is empty gets ``None`` from :meth:`get`.

Nothing here blocks.  The threaded engine's scheduler loop
(:mod:`repro.datacutter.runtime`) decides who runs: it drains a stream
before it lets the producer run again, and it reads :meth:`full` only to
hold a producer back while the stream's consumer waits out a retry
back-off.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Optional

from .buffers import Buffer, StreamStats
from .obs.trace import QueueSample, TraceCollector


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
    """The DataCutter default.  Called by one thread of one process at a
    time: the threaded engine's run thread, or a process-engine worker."""

    def __init__(self) -> None:
        self._next = 0

    def choose(self, buf: Buffer, n_consumers: int) -> int:
        idx = self._next
        self._next = (idx + 1) % n_consumers
        return idx

    def reset(self) -> None:
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
    ) -> None:
        if n_producers < 1 or n_consumers < 1:
            raise ValueError("streams need at least one copy on each side")
        if capacity is not None and capacity < 1:
            raise ValueError(
                f"stream {name}: capacity must be >= 1 or None for unbounded, "
                f"got {capacity} (capacity 0 would hold every producer back "
                "for good)"
            )
        self.name = name
        self.n_consumers = n_consumers
        #: the depth at which :meth:`full` holds producers back; None: never
        self.capacity = capacity
        self.policy = policy or RoundRobin()
        self.trace = trace
        #: one deque per consumer copy
        self.queues: list[deque[Buffer]] = [deque() for _ in range(n_consumers)]
        #: producer copies that have not closed yet; 0 is end of stream
        self.open_producers = n_producers
        self.stats = StreamStats()

    def _sample(self, side: str, depth: int) -> None:
        self.trace.record_queue(QueueSample(self.name, time.perf_counter(), depth, side))

    # -- producer side -------------------------------------------------------
    def put(self, buf: Buffer) -> None:
        self.stats.record(buf)
        queues = self.queues
        # one consumer copy: every policy routes there (Broadcast included)
        target = 0 if self.n_consumers == 1 else self.policy.choose(buf, self.n_consumers)
        # broadcast (-1) fans out to every consumer deque, one sample each
        for q in queues if target == -1 else (queues[target],):
            q.append(buf)
            if self.trace is not None:
                self._sample("put", len(q))

    def full(self) -> bool:
        """Whether some consumer copy holds ``capacity`` buffers or more."""
        capacity = self.capacity
        return capacity is not None and any(len(q) >= capacity for q in self.queues)

    def close_producer(self) -> None:
        """Called by each producer copy when it finishes its unit-of-work;
        the last close is the end of stream for every consumer copy."""
        if self.open_producers == 0:
            raise RuntimeError(f"stream {self.name}: too many closes")
        self.open_producers -= 1

    # -- consumer side ----------------------------------------------------------
    def get(self, consumer_index: int) -> Buffer | None:
        """Next buffer for a consumer copy; ``None`` means end-of-stream.

        Only valid when there is an answer: a buffer is queued or every
        producer has closed.  Anything else is a scheduling bug."""
        q = self.queues[consumer_index]
        if q:
            buf = q.popleft()
            if self.trace is not None:
                self._sample("get", len(q))
            return buf
        if self.open_producers == 0:
            return None
        raise RuntimeError(f"stream {self.name}: get with nothing queued, producers open")

    def drain(self, consumer_index: int) -> list[Buffer]:
        """Collect everything until end-of-stream (used by sinks/tests)."""
        return list(iter(lambda: self.get(consumer_index), None))


class CollectorStream(LogicalStream):
    """Single-consumer stream whose contents can be fetched after the run —
    the 'final results on the user's desktop' endpoint."""

    def __init__(
        self, name: str = "collector", n_producers: int = 1,
        trace: Optional[TraceCollector] = None,
    ) -> None:
        # unbounded (capacity=None): the sink is never held back
        super().__init__(name, n_producers, 1, None, trace=trace)

    def results(self) -> list[Buffer]:
        return self.drain(0)
