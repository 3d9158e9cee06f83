"""Cross-engine conformance (threaded vs process).

The process engine must be a drop-in replacement for the threaded one:
byte-identical final payloads and identical per-stream accounting on every
bundled application, plus clean failure behaviour — a filter copy that
raises, hangs, or is killed must surface as :class:`PipelineError` naming
the filter, with no hung run and no orphaned workers.
"""

import os
import signal
import sys
import threading

import numpy as np
import pytest

from repro.apps import (
    make_active_pixels_app,
    make_knn_app,
    make_vmscope_app,
    make_zbuffer_app,
)
from repro.cost import cluster_config
from repro.datacutter import (
    ENGINES,
    EngineOptions,
    Filter,
    FilterSpec,
    PipelineError,
    SourceFilter,
    ThreadedPipeline,
    make_engine,
    run_pipeline,
)
from repro.datacutter.engine import EngineSession
from repro.experiments.harness import _specs_for_version

from .conftest import no_orphans

#: generous wall-clock cap for process-engine runs so a regression fails
#: instead of hanging the suite
PROC_TIMEOUT = 120.0

ENGINE_NAMES = ("threaded", "process")
#: name prefix of the threaded engine's run thread
RUN_THREAD = "threaded-run#"
#: a broken engine fails after this long instead of hanging the suite
HARD_TIMEOUT = 10.0


def _run(specs, engine):
    timeout = PROC_TIMEOUT if engine == "process" else None
    return run_pipeline(specs, EngineOptions(engine=engine, timeout=timeout))






# ---------------------------------------------------------------------------
# Output + accounting parity on the real applications
# ---------------------------------------------------------------------------

APPS = {
    "zbuffer": lambda: _bundle(
        make_zbuffer_app(width=48, height=48), dataset="tiny", num_packets=4
    ),
    "apixels": lambda: _bundle(
        make_active_pixels_app(width=48, height=48), dataset="tiny", num_packets=4
    ),
    "knn": lambda: _bundle(make_knn_app(k=5), n_points=4000, num_packets=5),
    "vmscope": lambda: _bundle(
        make_vmscope_app(image_w=256, image_h=256, tile=64),
        query="large",
        num_packets=4,
    ),
}


def _bundle(app, **workload_kwargs):
    return app, app.make_workload(**workload_kwargs)


def _canonical(finals):
    """Final payload dict -> {name: {field: ndarray}} via each reduction's
    pack(), the byte-exact canonical form."""
    out = {}
    for key, value in finals.items():
        if hasattr(value, "pack"):
            out[key] = {k: np.asarray(v) for k, v in value.pack().items()}
        else:
            out[key] = {"value": np.asarray(value)}
    return out


@pytest.mark.parametrize("app_name", sorted(APPS))
def test_cross_engine_identical(app_name):
    """engine='process' is a one-line switch: same outputs, same stats."""
    app, workload = APPS[app_name]()
    env = cluster_config(1)
    runs = {}
    for engine in ENGINE_NAMES:
        # fresh specs per run: reduction instances are stateful
        specs, _ = _specs_for_version(app, workload, "Decomp-Comp", env)
        runs[engine] = _run(specs, engine)

    threaded, process = runs["threaded"], runs["process"]
    a, b = _canonical(threaded.payloads[-1]), _canonical(process.payloads[-1])
    assert a.keys() == b.keys()
    for key in a:
        assert a[key].keys() == b[key].keys(), key
        for fld in a[key]:
            assert a[key][fld].dtype == b[key][fld].dtype, (key, fld)
            assert np.array_equal(a[key][fld], b[key][fld]), (key, fld)

    # stream accounting merges to the same totals, byte for byte
    assert process.stream_bytes == threaded.stream_bytes
    assert process.stream_buffers == threaded.stream_buffers
    assert process.stream_by_packet == threaded.stream_by_packet

    # both engines must also agree with the sequential oracle
    expected = workload.oracle()
    assert workload.check(threaded.payloads[-1], expected)
    assert workload.check(process.payloads[-1], expected)
    no_orphans()


# ---------------------------------------------------------------------------
# Synthetic pipelines: EOS with width > 1, failure modes
# ---------------------------------------------------------------------------


class _Range(SourceFilter):
    def generate(self, ctx):
        for k in range(ctx.params.get("n", 8)):
            yield float(k)


class _Double(Filter):
    def process(self, buf, ctx):
        ctx.write(buf.payload * 2, buf.packet)


class _Sum(Filter):
    def init(self, ctx):
        self.total = 0.0

    def process(self, buf, ctx):
        self.total += buf.payload

    def finalize(self, ctx):
        ctx.write(self.total)


class _BoomOnCopy1(Filter):
    """Raises in exactly one transparent copy of a widened stage."""

    def process(self, buf, ctx):
        if ctx.copy_index == 1:
            raise RuntimeError("kaboom")
        ctx.write(buf.payload * 2, buf.packet)


class _Suicide(Filter):
    """Simulates a hard crash: SIGKILL leaves no traceback behind."""

    def process(self, buf, ctx):
        os.kill(os.getpid(), signal.SIGKILL)


class _ExitOnPacket1(Filter):
    """Raises ``SystemExit``, a ``BaseException`` but not an ``Exception``."""

    def process(self, buf, ctx):
        if buf.packet == 1:
            sys.exit(3)
        ctx.write(buf.payload, buf.packet)


_unstick = threading.Event()


class _Stuck(Filter):
    def process(self, buf, ctx):
        _unstick.wait(timeout=30.0)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_eos_with_widened_stages(engine):
    """Per-producer EOS bookkeeping: widened source, middle, and sink
    stages all drain completely (small ints sum exactly in float64, so the
    result is order-independent and exact)."""
    for _ in range(3):  # repeat: EOS races are intermittent by nature
        specs = [
            FilterSpec("src", _Range, width=2, params={"n": 12}),
            FilterSpec("dbl", _Double, placement=1, width=3),
            FilterSpec("sum", _Sum, placement=2),
        ]
        result = _run(specs, engine)
        assert result.payloads == [132.0]
        assert result.stream_bytes["src->dbl"] == 12 * 8
        assert result.stream_buffers["dbl->sum"] == 12
    no_orphans()


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_error_in_one_copy_fails_run(engine):
    """A raise in one copy of a widened mid-pipeline stage fails the whole
    run with the filter's name and traceback, and leaves no live workers."""
    specs = [
        FilterSpec("src", _Range, params={"n": 8}),
        FilterSpec("boom", _BoomOnCopy1, placement=1, width=2),
        FilterSpec("sum", _Sum, placement=2),
    ]
    with pytest.raises(PipelineError, match="boom#1") as exc_info:
        _run(specs, engine)
    assert "kaboom" in str(exc_info.value)
    if engine == "process":
        no_orphans()
    else:
        no_orphans(thread_prefix=RUN_THREAD)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_system_exit_in_filter_fails_run(engine):
    """A filter that calls ``sys.exit`` fails the run on both engines,
    naming the copy, instead of ending its thread quietly and returning
    the packets that got through."""
    specs = [
        FilterSpec("src", _Range, params={"n": 4}),
        FilterSpec("quit", _ExitOnPacket1, placement=1),
        FilterSpec("sum", _Sum, placement=2),
    ]
    with pytest.raises(PipelineError, match="filter quit#0 failed"):
        _run(specs, engine)
    if engine == "process":
        no_orphans()
    else:
        no_orphans(thread_prefix=RUN_THREAD)


def test_killed_worker_detected():
    """SIGKILL mid-packet: the supervisor's sentinel watch names the dead
    filter copy; the run raises instead of hanging, and the surviving
    workers are torn down."""
    specs = [
        FilterSpec("src", _Range, params={"n": 4}),
        FilterSpec("killer", _Suicide, placement=1),
        FilterSpec("sum", _Sum, placement=2),
    ]
    with pytest.raises(PipelineError, match="killer#0") as exc_info:
        _run(specs, "process")
    assert "killed or crashed" in str(exc_info.value)
    no_orphans()


def test_supervisor_timeout_names_stalest_filter():
    _unstick.clear()
    specs = [
        FilterSpec("src", _Range, params={"n": 2}),
        FilterSpec("tarpit", _Stuck, placement=1),
    ]
    try:
        with pytest.raises(PipelineError, match="timed out") as exc_info:
            run_pipeline(
                specs,
                EngineOptions(engine="process", timeout=1.5, death_grace=0.5),
            )
        assert "tarpit#0" in str(exc_info.value)
    finally:
        _unstick.set()
    no_orphans()


def test_threaded_stuck_filter_detected():
    """Satellite fix: ThreadedPipeline.run no longer hangs forever on a
    wedged filter — it raises after join_timeout, naming the culprit."""
    _unstick.clear()
    specs = [
        FilterSpec("src", _Range, params={"n": 2}),
        FilterSpec("tarpit", _Stuck, placement=1),
    ]
    try:
        with pytest.raises(PipelineError, match="stuck.*tarpit#0"):
            ThreadedPipeline(specs, join_timeout=1.0).run()
    finally:
        _unstick.set()  # release the abandoned run thread
    no_orphans(thread_prefix=RUN_THREAD)


class _FailFirst(Filter):
    def process(self, buf, ctx):
        raise RuntimeError("consumer died")


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_dead_consumer_fails_run_despite_full_queue(engine):
    """A consumer that dies on its first buffer while its producer still
    has more than a queue's worth to send fails the run with the
    consumer's error at once, not with a join timeout over a producer
    left waiting for room (40 packets against the default capacity 32)."""
    specs = [
        FilterSpec("src", _Range, params={"n": 40}),
        FilterSpec("mid", _FailFirst, placement=1),
        FilterSpec("sum", _Sum, placement=2),
    ]
    options = EngineOptions(
        engine=engine,
        join_timeout=HARD_TIMEOUT,
        timeout=PROC_TIMEOUT if engine == "process" else None,
    )
    with pytest.raises(PipelineError, match="mid#0 failed") as exc_info:
        run_pipeline(specs, options)
    assert "stuck" not in str(exc_info.value)
    no_orphans(thread_prefix=RUN_THREAD)


class _WhichThread(Filter):
    def process(self, buf, ctx):
        ctx.params["threads"].add(threading.current_thread())


def test_session_runs_on_one_thread_joined_by_close():
    """Twenty units of work on one session run on one engine-owned thread,
    started by the first run; close() joins it."""
    threads = set()
    specs = [
        FilterSpec("src", _Range, params={"n": 3}),
        FilterSpec("probe", _WhichThread, placement=1, params={"threads": threads}),
    ]
    before = {t for t in threading.enumerate() if t.name.startswith(RUN_THREAD)}
    session = EngineSession(EngineOptions(join_timeout=HARD_TIMEOUT))
    try:
        for _ in range(20):
            session.run(specs)
        started = {
            t for t in threading.enumerate() if t.name.startswith(RUN_THREAD)
        } - before
    finally:
        session.close()
    assert len(threads) == 1
    assert started == threads
    (thread,) = threads
    assert not thread.is_alive()


# ---------------------------------------------------------------------------
# Engine registry / dispatch
# ---------------------------------------------------------------------------


def test_engine_registry():
    assert set(ENGINES) == {"threaded", "process"}
    eng = make_engine([FilterSpec("src", _Range)], EngineOptions(engine="threaded"))
    assert eng.engine_name == "threaded"
    eng = make_engine([FilterSpec("src", _Range)], EngineOptions(engine="process"))
    assert eng.engine_name == "process"


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="threaded"):
        make_engine([FilterSpec("src", _Range)], EngineOptions(engine="distributed"))


def test_compile_result_execute_engine_switch():
    """CompilationResult.execute(options=...) reaches the same dispatcher."""
    app, workload = APPS["knn"]()
    env = cluster_config(1)
    _specs, result = _specs_for_version(app, workload, "Decomp-Comp", env)
    run = result.execute(
        workload.packets,
        workload.params,
        options=EngineOptions(engine="process", timeout=PROC_TIMEOUT),
    )
    assert workload.check(run.payloads[-1], workload.oracle())
    no_orphans()
