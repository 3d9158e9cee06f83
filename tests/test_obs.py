"""Observability conformance: engine-native tracing on both engines.

The acceptance bar for the obs subsystem: the *same* compiled application
runs under the threaded and the process engine with tracing enabled, and
both traces carry every filter copy's ``init``/``process`` (or
``generate``)/``finalize`` spans, queue gauges for every stream, and a
Chrome ``trace_event`` export that validates against the schema.  Plus
unit coverage of the trace query math, blocked-time gauges, the
:class:`EngineOptions` consolidation, and its deprecation shim.
"""

import json
import multiprocessing
import warnings
from collections import Counter

import pytest

from repro.apps import make_knn_app, make_zbuffer_app
from repro.cost import cluster_config
from repro.datacutter import (
    EngineOptions,
    Filter,
    FilterSpec,
    SourceFilter,
    Trace,
    make_engine,
    run_pipeline,
)
from repro.datacutter.obs import (
    OVERHEAD_PACKET,
    BlockedSpan,
    QueueSample,
    Span,
    TraceCollector,
    jsonl_lines,
    read_jsonl,
    to_chrome,
    validate_chrome_trace,
    write_jsonl,
)
from repro.datacutter.obs import trace as trace_module
from repro.experiments.harness import (
    _specs_for_version,
    measure_pipeline,
    validate_cost_model,
)

ENGINE_NAMES = ("threaded", "process")
PROC_TIMEOUT = 120.0
#: bound on every gate: a gate never opened fails the test instead of hanging it
GATE_SECONDS = 20.0

APPS = {
    "zbuffer": lambda: _bundle(
        make_zbuffer_app(width=48, height=48), dataset="tiny", num_packets=4
    ),
    "knn": lambda: _bundle(make_knn_app(k=5), n_points=4000, num_packets=5),
}


def _bundle(app, **workload_kwargs):
    return app, app.make_workload(**workload_kwargs)


class _Range(SourceFilter):
    def generate(self, ctx):
        for k in range(ctx.params.get("n", 8)):
            yield float(k)


class _Double(Filter):
    def process(self, buf, ctx):
        ctx.write(buf.payload * 2, buf.packet)


class _GatedSource(SourceFilter):
    """Opens the gate just before it yields packet ``gate_at``."""

    def generate(self, ctx):
        for k in range(ctx.params["n"]):
            if k == ctx.params["gate_at"]:
                ctx.params["gate"].set()
            yield float(k)


class _GatedSink(Filter):
    """Holds packet 0 until the gate opens."""

    def process(self, buf, ctx):
        if buf.packet == 0 and not ctx.params["gate"].wait(GATE_SECONDS):
            raise RuntimeError("the source never reached the gate")


class _Fan(Filter):
    FAN = 3

    def process(self, buf, ctx):
        for _ in range(self.FAN):
            ctx.write(buf.payload, buf.packet)


def _traced_run(app, workload, engine):
    specs, result = _specs_for_version(app, workload, "Decomp-Comp", cluster_config(1))
    trace = Trace()
    run = run_pipeline(
        specs,
        EngineOptions(
            engine=engine,
            timeout=PROC_TIMEOUT if engine == "process" else None,
            trace=trace,
        ),
    )
    return specs, result, run, trace


# ---------------------------------------------------------------------------
# Acceptance: cross-engine trace conformance on real applications
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app_name", sorted(APPS))
@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_trace_conformance(app_name, engine):
    """Every filter copy produces init/work/finalize spans, every stream
    has queue gauges, and the Chrome export validates."""
    app, workload = APPS[app_name]()
    specs, _result, run, trace = _traced_run(app, workload, engine)

    assert workload.check(run.payloads[-1], workload.oracle())
    assert trace.engine == engine

    for spec in specs:
        for copy_index in range(spec.width):
            who = f"{spec.name}#{copy_index}"
            assert who in trace.copies(), who
            phases = trace.phases_of(who)
            assert "init" in phases and "finalize" in phases, (who, phases)
            assert phases & {"generate", "process"}, (who, phases)

    # queue gauges exist for every inter-filter stream and the collector
    expected_streams = {
        f"{a.name}->{b.name}" for a, b in zip(specs, specs[1:])
    } | {f"{specs[-1].name}->out"}
    assert set(trace.streams()) == expected_streams
    for stream in expected_streams:
        assert any(q.stream == stream for q in trace.queue_samples), stream

    doc = to_chrome(trace)
    assert validate_chrome_trace(doc) == []
    # the export is real JSON, not just a dict that looks like one
    assert validate_chrome_trace(json.loads(json.dumps(doc))) == []


@pytest.mark.parametrize("app_name", sorted(APPS))
def test_cross_engine_trace_equivalence(app_name):
    """Both engines record the same logical work: identical per-filter
    (phase, packet) span multisets; timings differ, structure must not."""
    app, workload = APPS[app_name]()
    shapes = {}
    for engine in ENGINE_NAMES:
        _specs, _result, _run, trace = _traced_run(app, workload, engine)
        shapes[engine] = {
            filt: Counter(
                (s.phase, s.packet)
                for s in trace.spans
                if s.filter == filt
            )
            for filt in {s.filter for s in trace.spans}
        }
    assert shapes["threaded"] == shapes["process"]


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_cost_model_validation_joins(engine):
    """validate_cost_model joins trace spans against the §4.3 models on
    both engines: compute rows with atoms carry a positive slowdown ratio,
    link rows land near the VolumeModel's bytes-per-packet."""
    app, workload = APPS["knn"]()
    from repro.experiments.harness import measure_specs

    env = cluster_config(1)
    specs, result = _specs_for_version(app, workload, "Decomp-Comp", env)
    measured = measure_specs(
        specs,
        result,
        workload,
        env,
        "Decomp-Comp",
        warmup=False,
        options=EngineOptions(
            engine=engine, timeout=PROC_TIMEOUT if engine == "process" else None
        ),
    )
    report = validate_cost_model(result, measured)
    assert report.engine == engine
    compute = [r for r in report.compute_rows() if r.predicted > 0]
    assert compute, "expected at least one modeled compute row"
    # CPython is slower than the modeled 700 MHz testbed, never faster
    assert all(r.ratio > 1.0 for r in compute)
    links = report.link_rows()
    assert len(links) == env.m - 1
    for row in links:
        assert row.predicted > 0 and row.measured > 0
        assert 0.2 < row.ratio < 5.0, row
    table = report.table()
    assert "| kind |" in table and "B/pkt" in table
    assert report.summary().startswith("cost model vs")


# ---------------------------------------------------------------------------
# Trace query math on synthetic data
# ---------------------------------------------------------------------------


def test_trace_queries_synthetic():
    tr = Trace()
    tr.note(engine="threaded")
    tr.record_span(Span("f", 0, "init", None, 0.0, 1.0))
    tr.record_span(Span("f", 0, "process", 0, 1.0, 2.0))
    tr.record_span(Span("f", 0, "process", 1, 2.0, 4.0))
    tr.record_span(Span("f", 0, "finalize", None, 4.0, 4.5))
    tr.record_queue(QueueSample("s", 1.0, 2, "put"))
    tr.record_queue(QueueSample("s", 2.0, 5, "get"))
    tr.record_blocked(BlockedSpan("s", "put", "f#0", 0.0, 0.25))

    assert isinstance(tr, TraceCollector)
    assert tr.copies() == ["f#0"]
    assert tr.phases_of("f#0") == {"init", "process", "finalize"}
    per = tr.seconds_by_packet("f")
    assert per[0] == pytest.approx(1.0)
    assert per[1] == pytest.approx(2.0)
    # init + finalize fold into the shared overhead bucket
    assert per[OVERHEAD_PACKET] == pytest.approx(1.5)
    assert tr.busy_seconds("f") == pytest.approx(4.5)
    util = tr.utilization()
    assert util["f#0"].ratio == pytest.approx(1.0)
    assert tr.max_depth("s") == 5
    assert tr.blocked_seconds("s", "put") == pytest.approx(0.25)
    assert tr.blocked_seconds("s", "get") == 0.0
    assert tr.t_origin() == 0.0


def test_blocked_put_recorded_under_backpressure(monkeypatch):
    """On the process engine a producer out of credit waits in put until
    its consumer takes the next buffer.  With capacity 1 the sink holds
    packet 0 until the source reaches packet 2: packet 1 is the buffer in
    flight, so packet 2's put waits for credit the sink returns only after
    its hold.  That put is recorded as blocked and ends after the hold.
    The blocked-time threshold is 0 (inherited by the forked workers), so
    the verdict counts the wait, not its length."""
    monkeypatch.setattr(trace_module, "BLOCKED_MIN_SECONDS", 0.0)
    params = {"n": 6, "gate_at": 2, "gate": multiprocessing.get_context("fork").Event()}
    specs = [
        FilterSpec("src", _GatedSource, params=params),
        FilterSpec("sink", _GatedSink, placement=1, params=params),
    ]
    trace = Trace()
    run_pipeline(
        specs,
        EngineOptions(
            engine="process", queue_capacity=1, timeout=PROC_TIMEOUT, trace=trace
        ),
    )
    (hold,) = [s for s in trace.spans_for("sink", phase="process") if s.packet == 0]
    puts = [b for b in trace.blocked if (b.stream, b.side) == ("src->sink", "put")]
    assert any(b.t1 > hold.t1 for b in puts)
    assert trace.blocked_seconds("src->sink", "put") > 0.0


def test_threaded_backpressure_never_blocks():
    """The threaded engine's loop drains a stream before its producer runs
    again: no put or get ever waits, and no stream gets deeper than one
    callback's emits, even past a capacity of 1."""
    specs = [
        FilterSpec("src", _Range, params={"n": 6}),
        FilterSpec("fan", _Fan, placement=1),
        FilterSpec("sink", _Double, placement=2),
    ]
    trace = Trace()
    run = run_pipeline(specs, EngineOptions(queue_capacity=1, trace=trace))
    assert len(run.outputs) == 6 * _Fan.FAN
    assert trace.blocked == []
    assert trace.max_depth("src->fan") == 1
    assert trace.max_depth("fan->sink") == _Fan.FAN


def test_jsonl_round_trip(tmp_path):
    app, workload = APPS["knn"]()
    _specs, _result, _run, trace = _traced_run(app, workload, "threaded")
    path = tmp_path / "trace.jsonl"
    write_jsonl(trace, str(path))
    again = read_jsonl(str(path))
    assert again.engine == trace.engine
    assert len(again.spans) == len(trace.spans)
    assert len(again.queue_samples) == len(trace.queue_samples)
    assert Counter((s.filter, s.copy, s.phase, s.packet) for s in again.spans) == (
        Counter((s.filter, s.copy, s.phase, s.packet) for s in trace.spans)
    )
    # every line is standalone JSON
    lines = list(jsonl_lines(trace))
    assert all(isinstance(json.loads(line), dict) for line in lines)


def test_validate_chrome_trace_catches_garbage():
    assert validate_chrome_trace({"traceEvents": "nope"}) != []
    bad_event = {"traceEvents": [{"ph": "X", "name": "x", "pid": 1}]}
    assert validate_chrome_trace(bad_event) != []
    assert validate_chrome_trace({"traceEvents": []}) == []


# ---------------------------------------------------------------------------
# EngineOptions: the consolidated run API
# ---------------------------------------------------------------------------


def test_engine_options_validation():
    with pytest.raises(ValueError, match="queue_capacity"):
        EngineOptions(queue_capacity=0)
    with pytest.raises(ValueError, match="engine"):
        EngineOptions(engine="")
    # the same floor applies when constructing engines directly
    from repro.datacutter import ProcessPipeline, ThreadedPipeline

    with pytest.raises(ValueError, match="queue_capacity"):
        ThreadedPipeline([FilterSpec("src", _Range)], queue_capacity=0)
    with pytest.raises(ValueError, match="queue_capacity"):
        ProcessPipeline([FilterSpec("src", _Range)], queue_capacity=0)


def test_unknown_engine_error_has_no_chained_context():
    """Satellite bugfix: the registry KeyError is suppressed via
    ``raise ... from None``."""
    with pytest.raises(ValueError) as exc_info:
        make_engine([FilterSpec("src", _Range)], EngineOptions(engine="bogus"))
    assert exc_info.value.__suppress_context__
    assert exc_info.value.__cause__ is None
    assert "known engines" in str(exc_info.value)


def test_execute_default_engine_no_warning():
    app, workload = APPS["knn"]()
    _specs, result = _specs_for_version(
        app, workload, "Decomp-Comp", cluster_config(1)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        run = result.execute(workload.packets, workload.params)
    assert workload.check(run.payloads[-1], workload.oracle())


def test_measure_pipeline_injects_trace():
    specs = [
        FilterSpec("src", _Range, params={"n": 4}),
        FilterSpec("dbl", _Double, placement=1),
    ]
    run, trace = measure_pipeline(specs)
    assert sorted(b.payload for b in run.outputs) == [0.0, 2.0, 4.0, 6.0]
    assert isinstance(trace, Trace)
    assert set(trace.copies()) == {"src#0", "dbl#0"}
    # a caller-supplied collector is used as-is
    mine = Trace()
    _run2, got = measure_pipeline(specs, EngineOptions(trace=mine))
    assert got is mine
