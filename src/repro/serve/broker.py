"""Request broker: bounded admission queue and micro-batch assembly.

The broker is where heavy traffic meets a finite pipeline.  Its two
halves:

* **Admission control** (:class:`AdmissionQueue`) — a bounded FIFO of
  pending requests with a configurable full-queue policy:

  - ``"block"`` — the submitting client waits for space (classic
    backpressure; an optional timeout turns a long wait into a reject);
  - ``"reject"`` — fail fast with a ``retry_after`` hint derived from the
    queue depth and the observed service rate;
  - ``"shed-oldest"`` — admit the newcomer and drop the *oldest* waiting
    request (under overload the oldest is the likeliest to be past its
    deadline anyway — shedding it preserves freshness, the classic
    load-shedding trade).

* **Micro-batching** (:meth:`AdmissionQueue.collect_batch`) — the
  dispatcher waits for one request, then takes whatever else is already
  queued, up to the batch budget (``max_batch``), and never waits on a
  timer.  Batches form under load, from the requests that arrive while
  the previous batch executes; they let the dispatcher group compatible
  requests into single pipeline executions.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from .requests import PendingResponse


class AdmissionQueue:
    """Bounded request queue with a pluggable overload policy."""

    POLICIES = ("block", "reject", "shed-oldest")

    def __init__(
        self,
        capacity: int = 64,
        policy: str = "block",
        block_timeout: float | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown admission policy {policy!r}; "
                f"choose from {self.POLICIES}"
            )
        if block_timeout is not None and block_timeout <= 0:
            raise ValueError(
                f"block_timeout must be > 0 or None, got {block_timeout}"
            )
        self.capacity = capacity
        self.policy = policy
        self.block_timeout = block_timeout
        self._items: deque[PendingResponse] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        #: exponentially-weighted seconds per served request, maintained by
        #: the server; drives the ``retry_after`` hint
        self.ewma_service_seconds = 0.05

    # -- admission ----------------------------------------------------------
    def offer(
        self, pending: PendingResponse
    ) -> tuple[bool, list[PendingResponse], float | None]:
        """Try to admit one request.

        Returns ``(admitted, shed, retry_after)``: ``shed`` lists requests
        evicted to make room (policy ``"shed-oldest"``; the caller owns
        responding to them), ``retry_after`` is the backoff hint when not
        admitted."""
        with self._lock:
            if self._closed:
                return False, [], None
            if len(self._items) < self.capacity:
                self._items.append(pending)
                self._not_empty.notify()
                return True, [], None
            if self.policy == "reject":
                return False, [], self.retry_after_hint()
            if self.policy == "shed-oldest":
                shed = [self._items.popleft()]
                self._items.append(pending)
                self._not_empty.notify()
                return True, shed, None
            # "block": wait for space (or closure / timeout)
            end = (
                time.monotonic() + self.block_timeout
                if self.block_timeout is not None
                else None
            )
            while len(self._items) >= self.capacity and not self._closed:
                remaining = None if end is None else end - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False, [], self.retry_after_hint()
                if not self._not_full.wait(timeout=remaining or 0.5):
                    if end is not None:
                        return False, [], self.retry_after_hint()
            if self._closed:
                return False, [], None
            self._items.append(pending)
            self._not_empty.notify()
            return True, [], None

    def retry_after_hint(self) -> float:
        """Backoff suggestion: time to drain the current queue at the
        observed service rate."""
        with_depth = max(len(self._items), 1)
        return round(with_depth * self.ewma_service_seconds, 4)

    def observe_service_time(self, seconds: float, alpha: float = 0.2) -> None:
        self.ewma_service_seconds = (
            (1 - alpha) * self.ewma_service_seconds + alpha * seconds
        )

    # -- dispatch -----------------------------------------------------------
    def take(self, timeout: float | None = None) -> PendingResponse | None:
        """Pop the oldest request; None on timeout or when closed-and-empty."""
        with self._lock:
            end = time.monotonic() + timeout if timeout is not None else None
            while not self._items:
                if self._closed:
                    return None
                remaining = None if end is None else end - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._not_empty.wait(timeout=remaining)
            item = self._items.popleft()
            self._not_full.notify()
            return item

    def collect_batch(
        self, max_batch: int, linger: float = 0.0, poll: float = 0.1
    ) -> list[PendingResponse]:
        """Assemble one micro-batch, work-conserving.

        Blocks up to ``poll`` seconds for the first request (so a stopping
        server notices promptly), then takes every request already queued,
        up to ``max_batch``, without waiting.  ``linger`` is extra seconds
        to wait for followers once the queue is drained; the server never
        sets it."""
        first = self.take(timeout=poll)
        if first is None:
            return []
        batch = [first]
        t_end = time.monotonic() + linger
        while len(batch) < max_batch:
            nxt = self.take(timeout=max(t_end - time.monotonic(), 0.0))
            if nxt is None:
                break
            batch.append(nxt)
        return batch

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Refuse new admissions; queued requests remain drainable."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def drain(self) -> list[PendingResponse]:
        """Remove and return everything still queued."""
        with self._lock:
            items = list(self._items)
            self._items.clear()
            self._not_full.notify_all()
            return items

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)
