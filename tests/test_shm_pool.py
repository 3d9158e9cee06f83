"""Per-edge shared-memory segments in the process-engine transport.

Unit tests drive :class:`repro.datacutter.mp.transport.EdgeSegments`
directly (segment sizing, hit/miss accounting, the per-producer bound,
ownership across processes, the owner's unlink); the integration tests
run a real pipeline shaped so a middle stage consumes *and* produces
large payloads — the configuration where every hop rides a segment — and
assert the reuse counters land in the run trace.
"""

import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.apps import make_zbuffer_app
from repro.core.compiler import CompileOptions, compile_source
from repro.cost import cluster_config
from repro.datacutter import EngineOptions, run_pipeline
from repro.datacutter.mp.transport import (
    SEGMENTS_PER_PRODUCER,
    EdgeSegments,
    ShmRef,
    segment_size,
)
from repro.datacutter.obs.trace import Trace
from repro.decompose.plan import DecompositionPlan

from .conftest import no_orphans

PROC_TIMEOUT = 120.0

MPCTX = multiprocessing.get_context("fork")


def _on_disk(segments: EdgeSegments) -> set[str]:
    prefix = segments.prefix.lstrip("/")
    return {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}


def _never_wait() -> bool:
    return False


@pytest.fixture
def segments():
    seg = EdgeSegments(MPCTX, n_producers=2)
    yield seg
    seg.close()


# ---------------------------------------------------------------------------
# EdgeSegments unit behaviour
# ---------------------------------------------------------------------------


def test_size_class_rounds_to_power_of_two():
    assert segment_size(1) == 4096
    assert segment_size(4096) == 4096
    assert segment_size(4097) == 8192
    assert segment_size(100_000) == 131_072


def test_acquire_release_recycles_segment(segments):
    leaf = np.arange(625, dtype=np.float64)  # 5000 bytes
    ref = segments.encode(leaf, 0, 1024, _never_wait)
    assert isinstance(ref, ShmRef) and ref.size == 8192
    # the first miss sizes every free slot of the producer at once
    assert (segments.misses, segments.hits) == (SEGMENTS_PER_PRODUCER, 0)
    assert segments.census() == (SEGMENTS_PER_PRODUCER, SEGMENTS_PER_PRODUCER * 8192)
    assert np.array_equal(segments.decode(ref), leaf)
    assert segments.released == 1
    # handed back: the next leaf of the class reuses the same slot
    again = segments.encode(leaf + 1, 0, 1024, _never_wait)
    assert again.slot == ref.slot and segments.hits == 1
    assert segments.misses == SEGMENTS_PER_PRODUCER
    assert segments.decode(again).tobytes() == (leaf + 1).tobytes()
    # a larger leaf regrows the free slots that are too small
    big = bytes(range(256)) * 80  # 20480 bytes
    big_ref = segments.encode(big, 0, 1024, _never_wait)
    assert big_ref.size == 32768
    assert segments.evicted == SEGMENTS_PER_PRODUCER
    assert segments.decode(big_ref) == big
    assert len(_on_disk(segments)) == SEGMENTS_PER_PRODUCER


def test_release_refuses_foreign_and_overflow_segments(segments):
    """A producer only ever uses its own slots, never more than the bound;
    with all of them in flight a leaf stays in the pickle."""
    leaf = np.ones(2048, dtype=np.uint8)
    refs = [segments.encode(leaf, 1, 1024, _never_wait) for _ in range(SEGMENTS_PER_PRODUCER)]
    slots = {ref.slot for ref in refs}
    assert slots == set(range(SEGMENTS_PER_PRODUCER, 2 * SEGMENTS_PER_PRODUCER))
    assert segments.census()[0] == SEGMENTS_PER_PRODUCER  # none of producer 0's
    waits = []

    def wait() -> bool:
        waits.append(1)
        return False

    inline = segments.encode({"x": leaf}, 1, 1024, wait)
    assert waits == [1] and inline["x"] is leaf
    assert segments.acquire(1, 16) is None
    segments.decode(refs[3])
    assert segments.acquire(1, 16) == refs[3].slot


def test_teardown_unlinks_everything(segments):
    segments.encode(b"\x07" * 5000, 0, 1024, _never_wait)
    segments.encode(b"\x08" * 5000, 1, 1024, _never_wait)
    assert len(_on_disk(segments)) == 2 * SEGMENTS_PER_PRODUCER
    # a forked process's close unmaps its own views but unlinks nothing
    child = MPCTX.Process(target=segments.close)
    child.start()
    child.join(30)
    assert child.exitcode == 0
    assert len(_on_disk(segments)) == 2 * SEGMENTS_PER_PRODUCER
    assert segments.census() == (2 * SEGMENTS_PER_PRODUCER, 2 * SEGMENTS_PER_PRODUCER * 8192)
    segments.close()
    assert _on_disk(segments) == set()
    assert segments.census() == (0, 0)
    segments.close()  # idempotent


def _produce(segments: EdgeSegments, leaf: np.ndarray, out) -> None:
    out.send(segments.encode(leaf, 0, 1024, _never_wait))


def test_segment_state_is_shared_across_processes(segments):
    """Sizes and busy flags live in shared memory: a restarted producer
    sees which of its predecessor's segments are still in flight, and a
    consumer in another process hands one back to it."""
    leaf = np.arange(4096, dtype=np.int32)
    recv, send = MPCTX.Pipe(duplex=False)
    first = MPCTX.Process(target=_produce, args=(segments, leaf, send))
    first.start()
    ref = recv.recv()
    first.join(30)
    # the parent never mapped them, yet it knows every segment
    assert segments.census()[0] == SEGMENTS_PER_PRODUCER
    second = MPCTX.Process(target=_produce, args=(segments, leaf * 2, send))
    second.start()
    ref2 = recv.recv()
    second.join(30)
    assert ref2.slot != ref.slot  # the predecessor's slot was still busy
    assert np.array_equal(segments.decode(ref), leaf)
    assert np.array_equal(segments.decode(ref2), leaf * 2)
    third = MPCTX.Process(target=_produce, args=(segments, leaf * 3, send))
    third.start()
    ref3 = recv.recv()
    third.join(30)
    assert ref3.slot == ref.slot  # handed back by this process: reused
    assert np.array_equal(segments.decode(ref3), leaf * 3)
    recv.close()
    send.close()


# ---------------------------------------------------------------------------
# End-to-end reuse on the process engine
# ---------------------------------------------------------------------------


def test_pool_reuse_reported_in_trace():
    """A middle stage that consumes and produces same-class payloads
    recycles the segments it drains, and the counters reach the trace.

    The DP decomposition usually ships only small acks downstream of the
    heavy stage, so reuse is forced here with an explicit plan splitting
    the transform atoms onto unit 2 (large in, large out) and a low shm
    threshold."""
    app = make_zbuffer_app(width=64, height=64)
    workload = app.make_workload(dataset="small", num_packets=6)
    runtime_classes = dict(app.runtime_classes)
    for key, value in workload.params.items():
        if key.endswith("_class") and isinstance(value, type):
            for decl in ("VImage", "KNN", "ZBuffer", "ActivePixels"):
                if decl.lower() == key[: -len("_class")].lower():
                    runtime_classes.setdefault(decl, value)
    options = CompileOptions(
        env=cluster_config(3),
        profile=workload.profile,
        size_hints=dict(app.size_hints),
        runtime_classes=runtime_classes,
        method_costs=dict(app.method_costs),
    )
    plan = DecompositionPlan((1, 1, 2, 2, 3, 3, 3), 3)
    result = compile_source(app.source, app.registry, options, plan=plan)
    specs = result.pipeline.specs(workload.packets, workload.params)
    trace = Trace()
    run = run_pipeline(
        specs,
        EngineOptions(
            engine="process",
            timeout=PROC_TIMEOUT,
            shm_min_bytes=4096,
            trace=trace,
        ),
    )
    assert workload.check(run.payloads[-1], workload.oracle())
    stats = trace.meta.get("shm_pool")
    assert stats is not None, "pool counters never reached the trace"
    assert stats["hits"] > 0
    assert stats["released"] > 0
    assert stats["misses"] > 0
    no_orphans()


def test_pool_disabled_below_threshold():
    """With the default 64 KiB threshold the tiny workload never touches
    shared memory mid-stream; the trace then carries no pool note at all
    (or an all-flush one), and the run still checks out."""
    app = make_zbuffer_app(width=48, height=48)
    workload = app.make_workload(dataset="tiny", num_packets=4)
    runtime_classes = dict(app.runtime_classes)
    for key, value in workload.params.items():
        if key.endswith("_class") and isinstance(value, type):
            for decl in ("VImage", "KNN", "ZBuffer", "ActivePixels"):
                if decl.lower() == key[: -len("_class")].lower():
                    runtime_classes.setdefault(decl, value)
    options = CompileOptions(
        env=cluster_config(2),
        profile=workload.profile,
        size_hints=dict(app.size_hints),
        runtime_classes=runtime_classes,
        method_costs=dict(app.method_costs),
    )
    result = compile_source(app.source, app.registry, options)
    specs = result.pipeline.specs(workload.packets, workload.params)
    trace = Trace()
    run = run_pipeline(
        specs,
        EngineOptions(engine="process", timeout=PROC_TIMEOUT, trace=trace),
    )
    assert workload.check(run.payloads[-1], workload.oracle())
    stats = trace.meta.get("shm_pool", {"hits": 0})
    assert stats["hits"] == 0
    no_orphans()


# ---------------------------------------------------------------------------
# Segment ownership: nothing outlives its pool
# ---------------------------------------------------------------------------

#: run in a fresh interpreter, so its resource tracker's verdict at exit
#: is on stderr; the scenario name is argv[1]
_SCENARIO = r"""
import os
import sys
import numpy as np
from repro.datacutter import (
    EngineOptions, FaultSpec, Filter, FilterSpec, PipelineError, RetryPolicy,
    SourceFilter, run_pipeline,
)
from repro.datacutter.engine import EngineSession


class Src(SourceFilter):
    def generate(self, ctx):
        for k in range(ctx.params["n"]):
            yield np.full(40_000, k, dtype=np.float64)  # 320 KB: a segment


class Mid(Filter):
    def process(self, buf, ctx):
        if ctx.params.get("boom") and buf.packet == 5:
            raise RuntimeError("boom")
        ctx.write(buf.payload * 2.0, buf.packet)


class Sum(Filter):
    def init(self, ctx):
        self.total = 0.0

    def process(self, buf, ctx):
        self.total += float(buf.payload[0])

    def finalize(self, ctx):
        ctx.write(self.total)


def specs(n=12, mid_width=1, **params):
    params["n"] = n
    return [
        FilterSpec("src", Src, params=params),
        FilterSpec("mid", Mid, 1, width=mid_width, params=params),
        FilterSpec("sink", Sum, 2),
    ]


def expect(n=12):
    return [float(sum(2 * k for k in range(n)))]


def segments():
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


before = segments()
opts = EngineOptions(engine="process", timeout=120.0, death_grace=0.3)
scenario = sys.argv[1]
if scenario == "fork-per-run":
    assert run_pipeline(specs(), opts).payloads == expect()
elif scenario.startswith("crash-"):
    healing = opts.replace(
        retry=RetryPolicy(max_attempts=3, backoff_base=0.01, jitter=0.0),
        faults=[FaultSpec(filter=scenario[len("crash-"):], kind="crash", packet=3)],
    )
    with EngineSession(healing) as session:
        for _ in range(2):
            assert session.run(specs()).payloads == expect()
else:
    with EngineSession(opts) as session:
        if scenario == "clean-close":
            for _ in range(3):
                assert session.run(specs()).payloads == expect()
        elif scenario == "failed-epoch":
            assert session.run(specs()).payloads == expect()
            try:
                session.run(specs(boom=True))
            except PipelineError:
                pass
            else:
                raise SystemExit("the failing epoch did not fail")
            assert session.run(specs()).payloads == expect()
        else:  # refork
            assert session.run(specs()).payloads == expect()
            assert session.run(specs(mid_width=2)).payloads == expect()
            assert session._engine._reforks == 1
# unlinked by the engine itself, not by an exit-time safety net
assert segments() <= before, segments() - before
print("ok")
"""


@pytest.mark.parametrize(
    "scenario",
    [
        "clean-close",
        "failed-epoch",
        "refork",
        "fork-per-run",
        "crash-src",
        "crash-mid",
        "crash-sink",
    ],
)
def test_no_segment_outlives_its_pool(scenario):
    before = {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _SCENARIO, scenario],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert done.returncode == 0 and done.stdout.strip() == "ok", done.stderr
    assert "leaked shared_memory" not in done.stderr
    after = {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    assert after - before == set()
