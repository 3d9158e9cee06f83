"""The process engine's channel protocol: credit-windowed pipe frames.

What :class:`~repro.datacutter.mp.channels.ProcessEdge` promises, checked
with gates rather than sleeps: a producer never holds a buffer back while
its consumer is idle (a producer that emits buffer k+1 only after the
consumer acknowledged k would deadlock otherwise — every wait here has a
bound and fails instead of hanging); tiny windows (capacity 1 and 2, where
half a window rounds down to zero buffers) still flow; fan-in, fan-out and
broadcast routing deliver exactly what the threaded engine delivers; the
window bounds what a consumer copy has queued; and an end-of-stream flag
left over from a previous epoch does not end the current one.
"""

import multiprocessing
import time
from multiprocessing import connection
from queue import Empty

import numpy as np
import pytest

from repro.datacutter import (
    Broadcast,
    Buffer,
    EngineOptions,
    Filter,
    FilterSpec,
    SourceFilter,
    Trace,
    run_pipeline,
)
from repro.datacutter.mp.channels import EndOfStream, ProcessEdge

from .conftest import no_orphans

MPCTX = multiprocessing.get_context("fork")
PROC_TIMEOUT = 120.0
#: bound on every gate: a held-back buffer fails the test instead of hanging it
GATE_SECONDS = 20.0

SMALL = b"\x05" * 64
LARGE = np.arange(32 * 1024, dtype=np.int64)  # 256 KiB: rides a segment


def _next(edge: ProcessEdge, consumer: int = 0) -> Buffer | EndOfStream:
    """The consumer's next item, waiting on the pipe at most GATE_SECONDS."""
    deadline = time.monotonic() + GATE_SECONDS
    reader = edge.readers()[consumer]
    while True:
        try:
            return edge.poll(consumer)
        except Empty:
            pass
        left = deadline - time.monotonic()
        if left <= 0 or not connection.wait([reader], left):
            raise AssertionError("no buffer arrived: the producer held it back")


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a == b


# ---------------------------------------------------------------------------
# the producer rule: never hold back from an idle consumer
# ---------------------------------------------------------------------------


def _gated_producer(edge: ProcessEdge, payload, n: int, acks) -> None:
    edge.begin_epoch(1)
    for k in range(n):
        edge.put(Buffer(payload, k))
        # the consumer acknowledges k only once it holds it
        if not acks.poll(GATE_SECONDS):
            raise SystemExit(f"buffer {k} never reached the consumer")
        assert acks.recv() == k
    edge.close_producer()


@pytest.mark.parametrize("capacity", [1, 2, 32])
@pytest.mark.parametrize("payload", [SMALL, LARGE], ids=["64B", "256KiB"])
def test_buffer_never_held_back_from_idle_consumer(capacity, payload):
    n = 40
    edge = ProcessEdge(MPCTX, "gate", capacity=capacity)
    acks_recv, acks_send = MPCTX.Pipe(duplex=False)
    producer = MPCTX.Process(target=_gated_producer, args=(edge, payload, n, acks_recv))
    producer.start()
    try:
        edge.begin_epoch(1)
        for k in range(n):
            buf = _next(edge)
            assert buf.packet == k and _same(buf.payload, payload)
            acks_send.send(k)
        assert isinstance(_next(edge), EndOfStream)
        producer.join(GATE_SECONDS)
        assert producer.exitcode == 0
        if payload is LARGE:
            assert edge.segments.released == n
    finally:
        if producer.is_alive():
            producer.terminate()
            producer.join()
        acks_recv.close()
        acks_send.close()
        edge.close()
    no_orphans()


class _GatedSource(SourceFilter):
    """Emits packet k+1 only after the sink acknowledged packet k."""

    def generate(self, ctx):
        for k in range(ctx.params["n"]):
            yield ctx.params["payload"]
            if not ctx.params["acks"].acquire(timeout=GATE_SECONDS):
                raise RuntimeError(f"packet {k} never reached the sink")


class _Forward(Filter):
    pass


class _AckingSink(Filter):
    def init(self, ctx):
        self.count = 0

    def process(self, buf, ctx):
        self.count += 1
        ctx.params["acks"].release()

    def finalize(self, ctx):
        ctx.write(self.count)


@pytest.mark.parametrize("capacity", [1, 2, 32])
def test_gated_pipeline_flows_through_a_middle_stage(capacity):
    """The same gate across two hops on the engine: the middle copy must
    pass every buffer on although the next one only comes after the ack."""
    n = 30
    params = {"n": n, "payload": SMALL, "acks": MPCTX.Semaphore(0)}
    specs = [
        FilterSpec("src", _GatedSource, params=params),
        FilterSpec("fwd", _Forward, placement=1, params=params),
        FilterSpec("sink", _AckingSink, placement=2, params=params),
    ]
    opts = EngineOptions(engine="process", timeout=PROC_TIMEOUT, queue_capacity=capacity)
    assert run_pipeline(specs, opts).payloads == [n]
    no_orphans()


# ---------------------------------------------------------------------------
# widths, routing, tiny windows: same output as the threaded engine
# ---------------------------------------------------------------------------


class _Numbered(SourceFilter):
    def generate(self, ctx):
        for k in range(ctx.params["n"]):
            if ctx.params["large"]:
                yield np.full(32 * 1024, k, dtype=np.int64)
            else:
                yield k.to_bytes(4, "little") * 16


class _Tag(Filter):
    """Records which copy saw which packet (a digest of the payload)."""

    def process(self, buf, ctx):
        payload = buf.payload
        digest = int(payload[0]) if isinstance(payload, np.ndarray) else payload[0]
        ctx.write((buf.packet, digest, len(bytes(payload))), buf.packet)


class _Gather(Filter):
    def init(self, ctx):
        self.seen = []

    def process(self, buf, ctx):
        self.seen.append(buf.payload)

    def finalize(self, ctx):
        ctx.write(tuple(sorted(self.seen)), -2)


def _routing_specs(src_width, mid_width, broadcast, large, n=24):
    params = {"n": n, "large": large}
    src = FilterSpec("src", _Numbered, width=src_width, params=params)
    if broadcast:
        src.out_policy = Broadcast()
    return [
        src,
        FilterSpec("tag", _Tag, placement=1, width=mid_width),
        FilterSpec("gather", _Gather, placement=2),
    ]


@pytest.mark.parametrize("capacity", [1, 2, 32])
@pytest.mark.parametrize(
    "src_width,mid_width,broadcast",
    [(1, 1, False), (1, 2, False), (2, 1, False), (2, 2, False), (1, 2, True), (2, 2, True)],
)
@pytest.mark.parametrize("large", [False, True], ids=["64B", "256KiB"])
def test_output_identical_to_threaded(capacity, src_width, mid_width, broadcast, large):
    runs = {}
    for engine in ("threaded", "process"):
        trace = Trace() if engine == "process" else None
        opts = EngineOptions(
            engine=engine,
            queue_capacity=capacity,
            timeout=PROC_TIMEOUT if engine == "process" else None,
            trace=trace,
        )
        runs[engine] = run_pipeline(
            _routing_specs(src_width, mid_width, broadcast, large), opts
        )
    threaded, process = runs["threaded"], runs["process"]
    assert process.payloads == threaded.payloads
    assert process.stream_bytes == threaded.stream_bytes
    assert process.stream_buffers == threaded.stream_buffers
    # the window bounds what one consumer copy has queued
    window = max(1, capacity // src_width) * src_width
    assert trace.max_depth("src->tag") <= max(capacity, window)
    no_orphans()


class _Mixed(SourceFilter):
    """Alternates inline and segment-sized packets."""

    def generate(self, ctx):
        for k in range(ctx.params["n"]):
            size = 32 * 1024 if k % 3 == 0 else 4
            yield np.full(size, k, dtype=np.int64)


def test_shared_counters_survive_contention():
    """Three producers and three consumers (more processes than cores) on
    windows of two share the credit counters and segment flags of one
    edge: a lost update would lose, duplicate or stall a packet."""
    n = 300
    specs = [
        FilterSpec("src", _Mixed, width=3, params={"n": n}),
        FilterSpec("tag", _Tag, placement=1, width=3),
        FilterSpec("gather", _Gather, placement=2),
    ]
    opts = EngineOptions(engine="process", timeout=PROC_TIMEOUT, queue_capacity=2)
    (seen,) = run_pipeline(specs, opts).payloads
    assert [packet for packet, _digest, _nbytes in seen] == list(range(n))
    assert all(digest == packet for packet, digest, _nbytes in seen)
    no_orphans()


def test_unbounded_collector_is_not_windowed():
    edge = ProcessEdge(MPCTX, "sink->out", capacity=None)
    try:
        edge.begin_epoch(1)
        for k in range(100):  # far past any window, in one process
            edge.put(Buffer(k, k))
        edge.close_producer()
        got = [_next(edge) for _ in range(101)]
        assert [b.payload for b in got[:-1]] == list(range(100))
        assert isinstance(got[-1], EndOfStream)
        assert edge.frames < 100  # an unconsumed backlog coalesces
    finally:
        edge.close()


# ---------------------------------------------------------------------------
# end-of-stream bookkeeping across epochs
# ---------------------------------------------------------------------------


def test_straggler_eos_from_previous_epoch_is_ignored():
    edge = ProcessEdge(MPCTX, "e", capacity=4)
    try:
        edge.begin_epoch(1)
        edge.close_producer()  # epoch 1's flag is still in the pipe...
        edge.begin_epoch(2)  # ...when both sides move on to epoch 2
        edge.put(Buffer(b"a", 0))
        edge.put(Buffer(b"b", 1))
        assert _next(edge).payload == b"a"
        assert _next(edge).payload == b"b"
        with pytest.raises(Empty):
            edge.poll(0)  # the straggler did not end epoch 2
        edge.close_producer()
        assert isinstance(_next(edge), EndOfStream)
        with pytest.raises(Empty):
            edge.poll(0)  # reported once
    finally:
        edge.close()


def test_capacity_validation():
    with pytest.raises(ValueError, match="capacity"):
        ProcessEdge(MPCTX, "e", capacity=0)
    with pytest.raises(ValueError, match="at least one copy"):
        ProcessEdge(MPCTX, "e", n_producers=0)


# ---------------------------------------------------------------------------
# recovery: a frame of several buffers does not die with its reader
# ---------------------------------------------------------------------------


class _HeldSource(SourceFilter):
    """Emits every packet, then lets the middle stage start: while it
    waits, the source's buffers pile up and coalesce into frames."""

    def generate(self, ctx):
        for k in range(ctx.params["n"]):
            yield k
        ctx.params["go"].release()


class _WaitFirst(Filter):
    def process(self, buf, ctx):
        if buf.packet == 0 and not ctx.params["go"].acquire(timeout=GATE_SECONDS):
            raise RuntimeError("the source never finished")
        ctx.write(buf.payload * 2, buf.packet)


class _Total(Filter):
    def init(self, ctx):
        self.total = 0
        self.count = 0

    def process(self, buf, ctx):
        self.total += buf.payload
        self.count += 1

    def finalize(self, ctx):
        ctx.write((self.count, self.total))


@pytest.mark.parametrize("kind", ["crash", "exception"])
def test_failed_copy_spills_the_rest_of_its_frame(kind):
    """With the middle stage busy on packet 0, the source (window 32, 24
    packets, never blocked) packs packets 9..16 into one frame; the middle
    copy fails on packet 10 with 11..16 already read off its pipe.  They
    reach the next incarnation through the supervisor, so nothing is lost
    and nothing is counted twice."""
    from repro.datacutter import FaultSpec, RetryPolicy

    n = 24
    params = {"n": n, "go": MPCTX.Semaphore(0)}
    specs = [
        FilterSpec("src", _HeldSource, params=params),
        FilterSpec("mid", _WaitFirst, placement=1, params=params),
        FilterSpec("sink", _Total, placement=2),
    ]
    trace = Trace()
    opts = EngineOptions(
        engine="process",
        timeout=PROC_TIMEOUT,
        death_grace=0.3,
        trace=trace,
        retry=RetryPolicy(max_attempts=2, backoff_base=0.01, jitter=0.0),
        faults=[FaultSpec(filter="mid", kind=kind, packet=10)],
    )
    assert run_pipeline(specs, opts).payloads == [(n, n * (n - 1))]
    assert len(trace.restarts("mid")) == 1
    assert trace.meta["worker_pool"]["frames"] < 3 * n  # the source coalesced
    no_orphans()
