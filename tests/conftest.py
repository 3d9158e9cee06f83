"""Suite-wide leak / left-running guard.

After every test module: no child process, no new named shared-memory
segment, and no serve or filter thread may still be there.  Each check
*joins* what it finds, with a bound, and fails on what is still alive
after the join — the verdict never depends on a sleep.
"""

import multiprocessing
import os
import re
import threading
import time

import pytest

#: how long a module's stragglers get to finish on their own
GRACE_SECONDS = 10.0

#: ``name#copy``: how both engines label a filter copy's thread / process
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


@pytest.fixture(scope="module", autouse=True)
def no_leaks_after_module(request):
    segments_before = _shm_segments()
    yield
    deadline = time.monotonic() + GRACE_SECONDS
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
    for thread in _engine_threads():
        thread.join(max(0.0, deadline - time.monotonic()))
    leaks = {
        "child processes": [c.name for c in multiprocessing.active_children()],
        "threads": [t.name for t in _engine_threads()],
        # a segment is unlinked by the process that drained it, before
        # that process exits: with the children joined, none is pending
        "/dev/shm segments": sorted(_shm_segments() - segments_before),
    }
    leaks = {kind: found for kind, found in leaks.items() if found}
    assert not leaks, f"{request.module.__name__} left behind: {leaks}"
