"""The threaded engine's schedule: one scheduler loop per run.

The loop runs the most-downstream copy that has input, or a finished
copy's ``finalize``, and advances a source by one packet only when nothing
downstream can run.  What must hold: the schedule cannot deadlock, however
small the queues and whatever a filter emits, and no stream gets deeper
than one callback's emits; no two copies of a pipeline are ever in filter
code together, while separate pipelines do overlap; a copy that dies ends
the run with its own error; a wedged copy is the one the join timeout
names; and the same seed gives the same schedule.  No verdict here is
decided by a sleep: waits are bounded only so that a broken schedule fails
instead of hanging the suite.
"""

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
from repro.experiments.harness import _specs_for_version

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
        # a stream is drained before its producer runs again, so it is never
        # deeper than one callback's emits: one generated packet, and FAN
        # buffers per fan-out process() — overshooting capacity 1 by its
        # own emits wherever they all reach one tally copy
        assert trace.max_depth("src->fan") == 1
        assert trace.max_depth("fan->tally") <= Fanout.FAN
        if widths[2] == 1:
            assert trace.max_depth("fan->tally") == Fanout.FAN
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
    """Each run has a scheduler loop of its own: a copy of one pipeline
    and a copy of another can be in filter code together (a shared loop
    would leave each waiting for the other until the timeout)."""
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
# a dying copy ends the run with its own error; a wedged one is named
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
def test_copy_that_dies_ends_the_run(mid, recovery, message):
    """The error is the copy's own, not a join timeout over a pipeline
    left waiting for it."""
    options = EngineOptions(join_timeout=HARD_TIMEOUT, **recovery)
    with pytest.raises(PipelineError, match=message) as exc_info:
        run_pipeline(_specs(mid), options)
    assert "stuck" not in str(exc_info.value)


def test_stalled_and_failed_attempts_heal():
    """A ``stall`` holds the loop (a sleeping filter is a running filter);
    an injected ``exception`` restarts its copy after a back-off the loop
    schedules around.  Both heal."""
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


def test_join_timeout_names_the_running_copy():
    """Only the copy wedged in filter code is 'stuck'; the source with
    packets left and the sink waiting for buffers are listed as waiting on
    it."""
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
        _unstick.set()  # let the abandoned run thread finish
    assert (
        "(stuck): tarpit#0; waiting on it: src#0, tally#0; the run thread"
        in str(exc_info.value)
    )


# ---------------------------------------------------------------------------
# the streams the loop drives never block
# ---------------------------------------------------------------------------


def test_stream_ops_never_block():
    """A put past capacity does not wait (``full()`` is how the loop knows
    to hold the producer), and a get answers at once: a buffer, None at end
    of stream, or an error on an open stream with nothing queued."""
    stream = LogicalStream("s", capacity=1)
    stream.put(Buffer("first", packet=0))
    assert stream.full()
    stream.put(Buffer("second", packet=1))
    assert [stream.get(0).payload for _ in range(2)] == ["first", "second"]
    assert not stream.full()
    with pytest.raises(RuntimeError, match="nothing queued"):
        stream.get(0)
    stream.close_producer()
    assert stream.get(0) is None


# ---------------------------------------------------------------------------
# the same seed, the same schedule
# ---------------------------------------------------------------------------


def test_same_seed_runs_give_the_same_span_sequence():
    """The loop's choices depend only on the pipeline and its data: two
    traced runs of a compiled application, and of a widened pipeline,
    produce the same callbacks in the same order."""
    from repro.apps import make_knn_app
    from repro.cost import cluster_config

    app = make_knn_app()
    compiled, _result = _specs_for_version(
        app, app.make_workload(n_points=2000, num_packets=8, seed=7),
        "Decomp-Comp", cluster_config(1),
    )
    widened = [
        FilterSpec("src", Numbers, width=2, params={"n": N}),
        FilterSpec("fan", Fanout, width=2),
        FilterSpec("tally", Tally, width=2),
    ]

    def sequence(specs):
        trace = Trace()
        run_pipeline(specs, EngineOptions(trace=trace, join_timeout=HARD_TIMEOUT))
        return [(s.filter, s.copy, s.phase, s.packet) for s in trace.spans]

    for specs in (compiled, widened):
        first = sequence(specs)
        assert {phase for _f, _c, phase, _p in first} >= {"init", "finalize"}
        assert sequence(specs) == first
