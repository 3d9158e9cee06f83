"""Suite-wide leak / left-running guard.

After every test module: no child process, no new named shared-memory
segment, and no serve thread or engine run thread may still be there.  Each check
*joins* what it finds, with a bound, and fails on what is still alive
after the join — the verdict never depends on a sleep.  Tests call
:func:`no_orphans` for the same check at the point they need it.
"""

import multiprocessing
import os
import re
import threading
import time

import pytest

#: how long a module's stragglers get to finish on their own
GRACE_SECONDS = 10.0

#: ``name#N``: a process-engine worker (``filter#copy``) or a threaded
#: engine's run thread (``threaded-run#N``)
_FILTER_LABEL = re.compile(r".+#\d+$")


def _shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - no POSIX shm mount
        return set()


def _engine_threads() -> list[threading.Thread]:
    return [
        t
        for t in threading.enumerate()
        if t.name.startswith("serve-") or _FILTER_LABEL.match(t.name)
    ]


def _join_stragglers(threads: list[threading.Thread], grace: float) -> dict[str, list]:
    """Join every child process and ``threads`` under one shared deadline;
    returns what is still alive afterwards."""
    deadline = time.monotonic() + grace
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    return {
        "child processes": [c.name for c in multiprocessing.active_children()],
        "threads": [t.name for t in threads if t.is_alive()],
    }


def no_orphans(thread_prefix: str | None = None, grace: float = GRACE_SECONDS) -> None:
    """Fail unless every worker process — and every thread whose name
    starts with ``thread_prefix``, when given — ends within ``grace``."""
    threads = [
        t
        for t in threading.enumerate()
        if thread_prefix is not None and t.name.startswith(thread_prefix)
    ]
    alive = _join_stragglers(threads, grace)
    alive = {kind: found for kind, found in alive.items() if found}
    assert not alive, f"still running: {alive}"


@pytest.fixture(scope="module", autouse=True)
def no_leaks_after_module(request):
    segments_before = _shm_segments()
    yield
    leaks = _join_stragglers(_engine_threads(), GRACE_SECONDS)
    # segments are unlinked by the parent that built their edge, once the
    # edge's workers are gone: with the children joined, none is pending
    leaks["/dev/shm segments"] = sorted(_shm_segments() - segments_before)
    leaks = {kind: found for kind, found in leaks.items() if found}
    assert not leaks, f"{request.module.__name__} left behind: {leaks}"
