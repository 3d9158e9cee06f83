"""The threaded engine's schedule: one running filter copy per pipeline.

A run owns one baton; a copy holds it while it is in filter code and hands
it on only where it would block (stream get on empty, stream put on full,
retry back-off).  What must hold: the schedule cannot deadlock, however
small the queues and whatever a filter emits; no two copies of a pipeline
are ever in filter code together, while separate pipelines do overlap; a
copy that dies gives the baton back; and a wedged copy is the one the join
timeout names.  No verdict here is decided by a sleep: waits are bounded
only so that a broken schedule fails instead of hanging the suite.
"""

import queue
import sys
import threading

import pytest

from repro.datacutter import (
    Broadcast,
    Buffer,
    ByPacket,
    EngineOptions,
    FaultSpec,
    Filter,
    FilterSpec,
    LogicalStream,
    PipelineError,
    RetryPolicy,
    RoundRobin,
    SourceFilter,
    Trace,
    run_pipeline,
)
from repro.datacutter.streams import Baton

#: a broken schedule fails after this long instead of hanging
HARD_TIMEOUT = 10.0
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.001, jitter=0.0)


class Numbers(SourceFilter):
    def generate(self, ctx):
        yield from range(ctx.params["n"])


class Fanout(Filter):
    """Several buffers per input, so a put blocks in the middle of
    ``process`` once the queue holds one buffer."""

    FAN = 3

    def process(self, buf, ctx):
        for j in range(self.FAN):
            ctx.write(buf.payload * 10 + j, buf.packet)


class Tally(Filter):
    def init(self, ctx):
        self.count = self.total = 0

    def process(self, buf, ctx):
        self.count += 1
        self.total += buf.payload

    def finalize(self, ctx):
        ctx.write((self.count, self.total), -2)


def _tally(result):
    return tuple(map(sum, zip(*result.payloads)))


# ---------------------------------------------------------------------------
# deadlock freedom
# ---------------------------------------------------------------------------

N = 12


def _expected(widths, policy):
    """(count, total) over all sink copies.  Broadcast delivers every
    buffer to every copy of the next stage; the others to exactly one."""
    mid_copies, sink_copies = (
        (widths[1], widths[2]) if policy is Broadcast else (1, 1)
    )
    fanned = [p * 10 + j for p in range(N) for j in range(Fanout.FAN)]
    reach = mid_copies * sink_copies
    return reach * len(fanned), reach * sum(fanned)


@pytest.mark.parametrize("recover", [False, True], ids=["plain", "retry+faults"])
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("policy", [RoundRobin, ByPacket, Broadcast])
@pytest.mark.parametrize("widths", [[1, 2, 1], [2, 2, 2]], ids=str)
def test_capacity_one_never_deadlocks(widths, policy, traced, recover):
    specs = [
        FilterSpec("src", Numbers, width=widths[0], out_policy=policy(),
                   params={"n": N}),
        FilterSpec("fan", Fanout, width=widths[1], out_policy=policy()),
        FilterSpec("tally", Tally, width=widths[2]),
    ]
    trace = Trace() if traced else None
    recovery = {}
    if recover:
        # the source fault always fires; which fan copy sees packet 0
        # depends on routing, so both carry the fault
        recovery = dict(
            retry=FAST_RETRY,
            faults=[FaultSpec("src", "exception", copy=0, packet=0)]
            + [FaultSpec("fan", "crash", copy=c, packet=0) for c in (0, 1)],
        )
    result = run_pipeline(
        specs,
        EngineOptions(
            queue_capacity=1, join_timeout=HARD_TIMEOUT, trace=trace, **recovery
        ),
    )
    assert _tally(result) == _expected(widths, policy)
    if traced:
        # in-flight buffers stay bounded by the queue capacity
        assert {trace.max_depth(s) for s in ("src->fan", "fan->tally")} == {1}
        assert len(trace.restarts()) >= (2 if recover else 0)


# ---------------------------------------------------------------------------
# mutual exclusion inside a pipeline, independence across pipelines
# ---------------------------------------------------------------------------


class Gate:
    """Counts the copies inside filter code at once."""

    def __init__(self):
        self.lock = threading.Lock()
        self.inside = self.entries = self.overlaps = 0

    def __enter__(self):
        with self.lock:
            self.inside += 1
            self.entries += 1
            self.overlaps += self.inside > 1

    def __exit__(self, *exc):
        with self.lock:
            self.inside -= 1


def _spin():
    # enough bytecode for many thread switches at the shortened interval
    return sum(i * i for i in range(2000))


class ProbeSource(SourceFilter):
    def generate(self, ctx):
        for k in range(ctx.params["n"]):
            with ctx.params["gate"]:
                _spin()
            yield k


class Probe(Filter):
    def process(self, buf, ctx):
        with ctx.params["gate"]:
            _spin()
        # outside the gate: a copy blocked in put() has passed the baton on
        ctx.write(buf.payload, buf.packet)


def test_one_copy_of_a_pipeline_in_filter_code_at_a_time():
    gate = Gate()
    params = {"n": 40, "gate": gate}
    specs = [
        FilterSpec("src", ProbeSource, width=2, params=params),
        FilterSpec("probe", Probe, width=3, params=params),
        FilterSpec("probe2", Probe, width=2, params=params),
        FilterSpec("tally", Tally),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # a free-running schedule would interleave
    try:
        result = run_pipeline(
            specs, EngineOptions(queue_capacity=2, join_timeout=HARD_TIMEOUT)
        )
    finally:
        sys.setswitchinterval(interval)
    assert _tally(result) == (40, sum(range(40)))
    # both source copies run the generator over every packet
    assert gate.entries == 2 * 40 + 40 + 40
    assert gate.overlaps == 0


class Rendezvous(Filter):
    """Inside ``process``, wait for the other pipeline to be inside its."""

    def process(self, buf, ctx):
        ctx.params["here"].set()
        ctx.write(ctx.params["there"].wait(HARD_TIMEOUT), buf.packet)


def test_two_pipelines_run_independently():
    """Each run has a baton of its own: a copy of one pipeline and a copy
    of another can be in filter code together (a shared baton would leave
    each waiting for the other until the timeout)."""
    a, b = threading.Event(), threading.Event()
    results = {}

    def run(name, here, there):
        specs = [
            FilterSpec("src", Numbers, params={"n": 1}),
            FilterSpec("meet", Rendezvous, params={"here": here, "there": there}),
        ]
        results[name] = run_pipeline(
            specs, EngineOptions(join_timeout=2 * HARD_TIMEOUT)
        ).payloads

    threads = [
        threading.Thread(target=run, args=("a", a, b)),
        threading.Thread(target=run, args=("b", b, a)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(4 * HARD_TIMEOUT)
        assert not t.is_alive()
    assert results == {"a": [True], "b": [True]}


# ---------------------------------------------------------------------------
# a dying copy gives the baton back; a wedged one is named
# ---------------------------------------------------------------------------


class Boom(Filter):
    def process(self, buf, ctx):
        if ctx.copy_index == 0:
            raise RuntimeError("boom")
        ctx.write(buf.payload, buf.packet)


def _specs(mid):
    return [
        FilterSpec("src", Numbers, out_policy=ByPacket(), params={"n": N}),
        FilterSpec("mid", mid, width=2),
        FilterSpec("tally", Tally),
    ]


@pytest.mark.parametrize(
    "mid, recovery, message",
    [
        (Boom, {}, "mid#0 failed"),
        (
            Fanout,
            dict(
                retry=RetryPolicy(max_attempts=2, backoff_base=0.001, jitter=0.0),
                faults=[FaultSpec("mid", "exception", copy=0, packet=0, times=5)],
            ),
            r"mid#0 failed after 2 attempt\(s\)",
        ),
    ],
    ids=["filter-bug", "retry-budget-exhausted"],
)
def test_copy_that_dies_releases_the_baton(mid, recovery, message):
    """The other copies run to completion: the error is the copy's own, not
    a join timeout over a pipeline left waiting for the baton.  (The queues
    hold the whole input here: a producer blocked on a dead consumer's full
    queue is a different, engine-independent way to get stuck.)"""
    options = EngineOptions(join_timeout=HARD_TIMEOUT, **recovery)
    with pytest.raises(PipelineError, match=message) as exc_info:
        run_pipeline(_specs(mid), options)
    assert "stuck" not in str(exc_info.value)


def test_stalled_and_failed_attempts_hold_then_release_the_baton():
    """A ``stall`` keeps the baton (a sleeping filter is a running filter),
    an injected ``exception`` drops it for the back-off; both heal."""
    baseline = run_pipeline(_specs(Fanout), EngineOptions())
    faulted = run_pipeline(
        _specs(Fanout),
        EngineOptions(
            queue_capacity=1,
            join_timeout=HARD_TIMEOUT,
            retry=FAST_RETRY,
            faults=[
                FaultSpec("mid", "stall", copy=0, packet=0, stall_seconds=0.01),
                FaultSpec("mid", "exception", copy=1, packet=1),
            ],
        ),
    )
    assert _tally(faulted) == _tally(baseline)


_unstick = threading.Event()


class Tarpit(Filter):
    def process(self, buf, ctx):
        _unstick.wait(60.0)


def test_join_timeout_names_the_baton_holder():
    """Only the copy wedged in filter code is 'stuck'; the source waiting
    to get the baton back and the sink waiting for buffers are listed as
    waiting on it."""
    _unstick.clear()
    specs = [
        FilterSpec("src", Numbers, params={"n": 8}),
        FilterSpec("tarpit", Tarpit),
        FilterSpec("tally", Tally),
    ]
    try:
        with pytest.raises(PipelineError) as exc_info:
            run_pipeline(specs, EngineOptions(queue_capacity=1, join_timeout=0.3))
    finally:
        _unstick.set()  # let the abandoned daemon threads finish
    assert (
        "(stuck): tarpit#0; waiting on it: src#0, tally#0; their daemon"
        in str(exc_info.value)
    )


# ---------------------------------------------------------------------------
# the baton and the stream operations that pass it on
# ---------------------------------------------------------------------------


def test_baton_tracks_its_holder_and_survives_a_failed_wait():
    baton = Baton()
    assert baton.holder is None
    baton.acquire()
    assert baton.holder == threading.get_ident()
    with pytest.raises(KeyError):
        with baton.paused():
            assert baton.holder is None
            raise KeyError
    assert baton.holder == threading.get_ident()
    baton.release()
    assert baton.holder is None


def test_stream_ops_give_the_baton_up_only_while_blocked():
    baton = Baton()
    stream = LogicalStream("s", capacity=1, baton=baton)
    seen = []

    def other():
        # runs only while the main thread is blocked in put()
        baton.acquire()
        seen.append(stream.get(0).payload)
        baton.release()

    baton.acquire()
    stream.put(Buffer("first", packet=0))  # room in the queue: no hand-off
    assert baton.holder == threading.get_ident()
    thread = threading.Thread(target=other)
    thread.start()
    # full: blocks, passing the baton on, until other() took "first"
    stream.put(Buffer("second", packet=0))
    assert seen == ["first"]
    assert baton.holder == threading.get_ident()
    assert stream.get(0).payload == "second"
    with pytest.raises(queue.Empty):
        stream.get(0, timeout=0.01)
    assert baton.holder == threading.get_ident()
    baton.release()
    thread.join(HARD_TIMEOUT)
    assert not thread.is_alive()
