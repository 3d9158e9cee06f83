"""Gates for serve tests and benchmarks: batches and busy dispatchers
made by events.

The dispatcher is work-conserving — it takes whatever is queued the
moment it is free and never waits on a timer — so a test that needs
several requests in one batch holds the dispatcher while they queue up
instead of racing a window against the submitter.
"""

import threading


class GatedService:
    """Wraps a service so ``plan()`` blocks until released — pins the
    dispatcher mid-batch so a test sees a deterministically busy server,
    and everything submitted meanwhile queues for the next batch."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.name = inner.name
        self.entered = threading.Event()
        self.release = threading.Event()

    def plan(self, body):
        self.entered.set()
        assert self.release.wait(60), "gated service never released"
        return self._inner.plan(body)


def hold_next_batch(server, n: int) -> None:
    """The dispatcher's next batch waits until ``n`` requests are queued
    (local or remote submissions alike), so with ``max_batch >= n`` exactly
    those ``n`` form one batch.  Later batches are the server's own.

    Call it before ``server.start()``, or on a running server whose queue
    is empty: then it returns only once the dispatcher is parked in the
    gate, since until then an ungated ``collect_batch`` could take the
    first request alone."""
    queue = server.queue
    collect = queue.collect_batch
    parked = threading.Event()

    def gated(*args, **kwargs):
        del queue.collect_batch  # one-shot: back to the class's method
        parked.set()
        with queue._not_empty:
            queue._not_empty.wait_for(
                lambda: len(queue._items) >= n or queue.closed, timeout=60
            )
        return collect(*args, **kwargs)

    queue.collect_batch = gated
    if server._dispatcher is not None:
        assert parked.wait(60), "the dispatcher never reached the gate"
