"""Per-layer probes: every layer measured from outside.

Each probe times calls into one layer's public functions and returns
``{metric name: value}``.  Module names are the layers.  The probes are the
same whatever workload the traced run was asked for, so a layer's number
can be read next to any workload's end-to-end change; the only numbers that
come from the workload's own run are ``serve.server.*`` on the two serve
workloads and ``bench.trace_overhead_share`` (see ``runner.py``).

A probe whose function no longer exists reports ``None`` for its metrics,
with a warning on stderr, instead of crashing: a refactor that moves a
function can still be compared end to end.
"""

from __future__ import annotations

import io
import random
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .workloads import (
    APPS,
    BACKENDS,
    HOP_STREAMS,
    HOP_UNITS,
    KNN_SERVICE,
    PROCESS_TIMEOUT,
    STAGES,
    VMSCOPE_SERVICE,
    Case,
    build_case,
    generator_config,
    hop_expected,
    hop_specs,
)

Metrics = dict[str, "float | None"]


@dataclass(frozen=True, slots=True)
class LayerMetric:
    name: str
    unit: str
    better: str


def _m(unit: str, better: str, *names: str) -> list[LayerMetric]:
    return [LayerMetric(name, unit, better) for name in names]


def _per_app(pattern: str) -> list[str]:
    return [pattern.format(app=app) for app in APPS]


def median_seconds(fn: Callable[[], Any], calls: int, warm: int = 1) -> float:
    """Median wall seconds of ``fn()`` over ``calls`` calls."""
    for _ in range(warm):
        fn()
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# compiler passes
# ---------------------------------------------------------------------------


def synthetic_program(n_stages: int) -> str:
    """A pipelined loop whose foreach body chains ``n_stages`` per-element
    calls: one atomic filter per stage, so analysis cost per stage shows."""
    natives = "\n".join(
        f"native double[] step{i}(double[] v, double scale);"
        for i in range(n_stages)
    )
    body = "\n".join(
        ["double[] v0 = step0(e.data, s);"]
        + [f"double[] v{i} = step{i}(v{i - 1}, s);" for i in range(1, n_stages)]
    )
    return f"""
{natives}
native Rectdomain<1, Elem> read_elems();
native void display(Acc a);
class Elem {{ double[] data; double key; }}
class Acc implements Reducinterface {{
    double[] total;
    void add(double[] v) {{ return; }}
    void merge(Acc other) {{ return; }}
}}
class Main {{
    void run(double s, double cutoff) {{
        runtime_define int num_packets;
        Rectdomain<1, Elem> elems = read_elems();
        Acc result = new Acc();
        PipelinedLoop (p in elems) {{
            Acc local = new Acc();
            foreach (e in p) {{
                if (e.key < cutoff) {{
                    {body}
                    local.add(v{n_stages - 1});
                }}
            }}
            result.merge(local);
        }}
        display(result);
    }}
}}
"""


def probe_compiler(cases: list[Case], calls: int) -> Metrics:
    """lang, analysis, cost, decompose and codegen, pass by pass, on the
    four paper apps (each number is the mean over the apps of the per-app
    median) plus two synthetic scaling points."""
    from repro.analysis import (
        GenConsAnalyzer,
        analyze_communication,
        build_filter_chain,
    )
    from repro.codegen.filtergen import FilterGenerator
    from repro.core.compiler import compute_problem, decompose
    from repro.cost import make_pipeline
    from repro.decompose import DecompositionProblem, decompose_dp
    from repro.lang import check, parse, tokenize

    tokens = 0
    lex, parse_s, check_s, chain_s, comm_s, problem_s, solve_s = ([] for _ in range(7))
    generate_s: dict[str, list[float]] = {b: [] for b in BACKENDS}
    lines = dict.fromkeys(BACKENDS, 0)
    visits = 0
    for case in cases:
        app = case.app
        tokens += len(tokenize(app.source))
        lex.append(median_seconds(lambda: tokenize(app.source), calls))
        parse_s.append(median_seconds(lambda: parse(app.source), calls))
        program = parse(app.source)
        check_s.append(median_seconds(lambda: check(program, app.registry), calls))
        checked = check(program, app.registry)
        meth, loop = checked.pipelined_loops()[0]
        chain_s.append(
            median_seconds(lambda: build_filter_chain(checked, meth, loop), calls)
        )
        chain = build_filter_chain(checked, meth, loop)
        comm_s.append(
            median_seconds(
                lambda: analyze_communication(chain, GenConsAnalyzer(checked)), calls
            )
        )
        analyzer = GenConsAnalyzer(checked)
        comm = analyze_communication(chain, analyzer)
        visits += analyzer.visit_count
        options = case.options("vector")
        problem_s.append(
            median_seconds(lambda: compute_problem(chain, comm, options), calls)
        )
        _tasks, _vols, problem = compute_problem(chain, comm, options)
        solve_s.append(median_seconds(lambda: decompose(problem, options), calls))
        plan, _cost = decompose(problem, options)
        for backend in BACKENDS:
            config = generator_config(case, options, backend)
            generate_s[backend].append(
                median_seconds(
                    lambda: FilterGenerator(chain, comm, plan, config).generate(),
                    calls,
                )
            )
            pipeline = FilterGenerator(chain, comm, plan, config).generate()
            lines[backend] += sum(f.source.count("\n") + 1 for f in pipeline.filters)
    synth = check(parse(synthetic_program(64)))
    s_meth, s_loop = synth.pipelined_loops()[0]
    s_chain = build_filter_chain(synth, s_meth, s_loop)
    synth_s = median_seconds(
        lambda: analyze_communication(s_chain, GenConsAnalyzer(synth)),
        max(calls // 3, 2),
    )
    rng = random.Random(128)
    big = DecompositionProblem(
        tasks=[rng.uniform(10, 1000) for _ in range(128)],
        vols=[rng.uniform(100, 100_000) for _ in range(129)],
        env=make_pipeline(
            [rng.uniform(1e8, 5e8) for _ in range(5)],
            [rng.uniform(1e7, 2e8) for _ in range(4)],
        ),
        num_packets=64,
    )
    n128_s = median_seconds(lambda: decompose_dp(big), max(calls // 3, 2))
    return {
        "lang.lexer.tokens_per_s": tokens / sum(lex),
        "lang.parser.parse_ms": 1e3 * _mean(parse_s),
        "lang.typecheck.check_ms": 1e3 * _mean(check_s),
        "analysis.boundaries.chain_ms": 1e3 * _mean(chain_s),
        "analysis.reqcomm.analyze_ms": 1e3 * _mean(comm_s),
        "analysis.gencons.visits": float(visits),
        "analysis.reqcomm.analyze_ms.synth64": 1e3 * synth_s,
        "cost.problem_ms": 1e3 * _mean(problem_s),
        "decompose.dp.solve_ms": 1e3 * _mean(solve_s),
        "decompose.dp.solve_n128_ms": 1e3 * n128_s,
        "codegen.filtergen.generate_ms.scalar": 1e3 * _mean(generate_s["scalar"]),
        "codegen.filtergen.generate_ms.vector": 1e3 * _mean(generate_s["vector"]),
        "codegen.generated_lines.scalar": float(lines["scalar"]),
        "codegen.generated_lines.vector": float(lines["vector"]),
    }


COMPILER_METRICS = (
    _m("tok/s", "higher", "lang.lexer.tokens_per_s")
    + _m(
        "ms",
        "lower",
        "lang.parser.parse_ms",
        "lang.typecheck.check_ms",
        "analysis.boundaries.chain_ms",
        "analysis.reqcomm.analyze_ms",
    )
    + _m("count", "lower", "analysis.gencons.visits")
    + _m(
        "ms",
        "lower",
        "analysis.reqcomm.analyze_ms.synth64",
        "cost.problem_ms",
        "decompose.dp.solve_ms",
        "decompose.dp.solve_n128_ms",
        "codegen.filtergen.generate_ms.scalar",
        "codegen.filtergen.generate_ms.vector",
    )
    + _m(
        "lines",
        "lower",
        "codegen.generated_lines.scalar",
        "codegen.generated_lines.vector",
    )
)


# ---------------------------------------------------------------------------
# generated kernels, pack/unpack, the four apps
# ---------------------------------------------------------------------------


def _busy_ms_per_packet(case: Case, backend: str) -> float:
    """Seconds the generated filters spent in ``process``/``generate`` per
    packet, from the engine's own spans (``EngineOptions(trace=Trace())``)."""
    from repro.datacutter import EngineOptions, Trace, run_pipeline

    trace = Trace()
    specs = case.compiled[backend].pipeline.specs(
        case.workload.packets, case.workload.params
    )
    run_pipeline(specs, EngineOptions(trace=trace))
    busy = sum(
        seconds
        for spec in specs
        for packet, seconds in trace.seconds_by_packet(spec.name).items()
        if packet >= 0
    )
    return 1e3 * busy / case.workload.num_packets


def probe_apps(cases: list[Case], calls: int) -> Metrics:
    """Per-app rows behind ``run-threaded`` / ``run-process``: one unit of
    work on each warm engine, the sequential baseline, kernel busy time per
    backend, pack/unpack on the first placed boundary."""
    from repro.codegen.buffers import pack, unpack
    from repro.datacutter import EngineOptions, run_pipeline
    from repro.datacutter.engine import EngineSession

    out: Metrics = {}
    for case in cases:
        for backend in BACKENDS:
            case.compiled[backend] = case.compile(backend)
        t0 = time.perf_counter()
        case.expected = case.workload.oracle()
        out[f"apps.{case.name}.oracle_ms"] = 1e3 * (time.perf_counter() - t0)
        for backend in BACKENDS:
            out[f"apps.{case.name}.kernel_busy_ms_per_packet.{backend}"] = (
                _busy_ms_per_packet(case, backend)
            )

    def specs_of(case: Case, widths):
        return case.compiled["vector"].pipeline.specs(
            case.workload.packets, case.workload.params, widths
        )

    for engine, widths in (("threaded", None), ("process", [1, 2, 1])):
        options = EngineOptions(engine=engine, timeout=PROCESS_TIMEOUT)
        with EngineSession(options) as session:
            for case in cases:
                if not case.check(session.run(specs_of(case, widths)).payloads):
                    raise AssertionError(f"{case.name} on {engine}: wrong output")
                out[f"apps.{case.name}.unit_ms.{engine}"] = 1e3 * median_seconds(
                    lambda: session.run(specs_of(case, widths)), calls, warm=0
                )

    pack_s, unpack_s, nbytes = [], [], 0
    for case in cases:
        first = case.compiled["vector"].pipeline.filters[0]
        run = run_pipeline(specs_of(case, None)[:1], EngineOptions())
        wires = [b.payload for b in run.outputs if isinstance(b.payload, bytes)]
        batches = [unpack(w, first.out_layout) for w in wires]
        if [pack(b, first.out_layout) for b in batches] != wires:
            raise AssertionError(f"{case.name}: pack(unpack(x)) != x")
        nbytes += sum(len(w) for w in wires)
        unpack_s.append(
            median_seconds(lambda: [unpack(w, first.out_layout) for w in wires], calls)
            / len(wires)
        )
        pack_s.append(
            median_seconds(lambda: [pack(b, first.out_layout) for b in batches], calls)
            / len(batches)
        )
    packets = sum(c.workload.num_packets for c in cases)
    out["codegen.buffers.pack_us"] = 1e6 * _mean(pack_s)
    out["codegen.buffers.unpack_us"] = 1e6 * _mean(unpack_s)
    out["codegen.buffers.mb_per_s"] = (
        2 * nbytes / 1e6 / ((_mean(pack_s) + _mean(unpack_s)) * packets)
    )
    return out


APPS_METRICS = (
    _m(
        "ms",
        "lower",
        *_per_app("apps.{app}.unit_ms.threaded"),
        *_per_app("apps.{app}.unit_ms.process"),
        *_per_app("apps.{app}.oracle_ms"),
        *_per_app("apps.{app}.kernel_busy_ms_per_packet.scalar"),
        *_per_app("apps.{app}.kernel_busy_ms_per_packet.vector"),
    )
    + _m("us/packet", "lower", "codegen.buffers.pack_us", "codegen.buffers.unpack_us")
    + _m("MB/s", "higher", "codegen.buffers.mb_per_s")
)


def probe_cost_model() -> Metrics:
    """Measured / predicted compute of the vector backend (§4.3 model), at
    the sizes EXPERIMENTS.md tabulates (6 packets, Decomp-Comp), so the
    number reads against the ROADMAP's <=x3 target."""
    from repro.apps import make_knn_app, make_zbuffer_app
    from repro.experiments.harness import backend_calibration

    sized = {
        "zbuffer": (make_zbuffer_app(), dict(dataset="small", num_packets=6)),
        "knn": (make_knn_app(3), dict(n_points=40_000, num_packets=6)),
    }
    out: Metrics = {}
    for name, (app, kwargs) in sized.items():
        report = backend_calibration(app, app.make_workload(**kwargs), ("vector",))
        out[f"cost.model.vector_residual.{name}"] = report[
            "vector"
        ].calibration_factor()
    return out


COST_MODEL_METRICS = _m(
    "ratio",
    "lower",
    "cost.model.vector_residual.zbuffer",
    "cost.model.vector_residual.knn",
)


# ---------------------------------------------------------------------------
# engines: empty-filter hops, epochs, fork, one-shot, null strategies
# ---------------------------------------------------------------------------


def probe_engines(calls: int) -> Metrics:
    from repro.datacutter import EngineOptions, RetryPolicy, Trace, run_pipeline
    from repro.datacutter.engine import EngineSession

    rng = np.random.default_rng(0)
    (_, n_small, small_size), (_, n_big, big_size) = HOP_UNITS
    small, big = rng.bytes(small_size), rng.bytes(big_size)
    one = hop_specs(1, small)

    def unit(session: Any, n: int, payload: bytes) -> float:
        def run() -> None:
            if session.run(hop_specs(n, payload)).payloads != [hop_expected(n, payload)]:
                raise AssertionError("hop unit: wrong count at the sink")

        return median_seconds(run, calls)

    out: Metrics = {}
    with EngineSession(EngineOptions()) as threaded:
        out["datacutter.streams.hop_us"] = (
            1e6 * unit(threaded, n_small, small) / (n_small * HOP_STREAMS)
        )
        out["datacutter.engine.epoch_ms"] = 1e3 * median_seconds(
            lambda: threaded.run(one), calls
        )
    out["datacutter.engine.oneshot_ms"] = 1e3 * median_seconds(
        lambda: run_pipeline(one, EngineOptions()), calls
    )

    process = EngineOptions(engine="process", timeout=PROCESS_TIMEOUT)
    t0 = time.perf_counter()
    session = EngineSession(process)
    try:
        session.run(one)
        first_run = time.perf_counter() - t0
        epoch = median_seconds(lambda: session.run(one), calls)
        out["datacutter.mp.epoch_ms"] = 1e3 * epoch
        out["datacutter.mp.fork_ms"] = 1e3 * (first_run - epoch)
        small_s = unit(session, n_small, small)
        big_s = unit(session, n_big, big)
        out["datacutter.mp.channels.hop_us"] = 1e6 * small_s / (n_small * HOP_STREAMS)
        out["datacutter.mp.transport.hop_us"] = 1e6 * big_s / (n_big * HOP_STREAMS)
        out["datacutter.mp.transport.mb_per_s"] = (
            n_big * HOP_STREAMS * big_size / 1e6 / big_s
        )
    finally:
        session.close()
    out["datacutter.mp.oneshot_ms"] = 1e3 * median_seconds(
        lambda: run_pipeline(one, process), max(calls // 2, 2)
    )

    # the null strategies: the same small-packet unit with a retry policy
    # and no faults, and with engine tracing on, against the plain session
    trace = Trace()
    variants = {
        "plain": process,
        "retry": process.replace(retry=RetryPolicy()),
        "trace": process.replace(trace=trace),
    }
    sessions = {name: EngineSession(opts) for name, opts in variants.items()}
    times: dict[str, list[float]] = {name: [] for name in variants}
    try:
        for lap in range(calls + 1):  # interleaved, so drift hits all three alike
            for name, s in sessions.items():
                t0 = time.perf_counter()
                s.run(hop_specs(n_small, small))
                if lap:  # lap 0 forks and warms
                    times[name].append(time.perf_counter() - t0)
        for _ in range(2):  # the second epoch finds the first one's segments pooled
            sessions["trace"].run(hop_specs(n_big, big))
    finally:
        for s in sessions.values():
            s.close()
    seconds = {name: statistics.median(ts) for name, ts in times.items()}
    out["datacutter.recovery.noop_overhead_share"] = (
        seconds["retry"] / seconds["plain"] - 1.0
    )
    out["datacutter.obs.trace_overhead_share"] = (
        seconds["trace"] / seconds["plain"] - 1.0
    )
    pool = trace.meta.get("shm_pool", {})
    lookups = pool.get("hits", 0) + pool.get("misses", 0)
    out["datacutter.mp.shm_reuse_ratio"] = (
        pool.get("hits", 0) / lookups if lookups else 0.0
    )
    return out


ENGINE_METRICS = (
    _m("us", "lower", "datacutter.streams.hop_us")
    + _m("ms", "lower", "datacutter.engine.epoch_ms", "datacutter.engine.oneshot_ms")
    + _m(
        "us",
        "lower",
        "datacutter.mp.channels.hop_us",
        "datacutter.mp.transport.hop_us",
    )
    + _m("MB/s", "higher", "datacutter.mp.transport.mb_per_s")
    + _m(
        "ms",
        "lower",
        "datacutter.mp.epoch_ms",
        "datacutter.mp.fork_ms",
        "datacutter.mp.oneshot_ms",
    )
    + _m("ratio", "higher", "datacutter.mp.shm_reuse_ratio")
    + _m(
        "ratio",
        "lower",
        "datacutter.recovery.noop_overhead_share",
        "datacutter.obs.trace_overhead_share",
    )
)


# ---------------------------------------------------------------------------
# serve: wire, plan cache, broker, session, clients, the server's own stages
# ---------------------------------------------------------------------------


def probe_wire(calls: int) -> Metrics:
    from repro.serve import Request, Response
    from repro.serve.transport import T_RESPONSE, encode_frame, read_frame

    rng = np.random.default_rng(0)
    request = Request("knn", {"x": 0.25, "y": 0.5, "z": 0.75})
    small = Response(1, "knn", "ok", value=rng.random((3, 4)))
    large = Response(2, "vmscope", "ok", value=rng.random((55, 55, 3)))

    def encode() -> None:
        request.to_wire()
        small.to_wire()

    req_wire, small_wire, large_wire = request.to_wire(), small.to_wire(), large.to_wire()

    def decode() -> None:
        Request.from_wire(*req_wire)
        Response.from_wire(*small_wire)

    frame = encode_frame(T_RESPONSE, *large_wire)

    def framing() -> None:
        encode_frame(T_RESPONSE, *large_wire)
        read_frame(io.BytesIO(frame))

    def whole() -> None:
        data = encode_frame(T_RESPONSE, *large.to_wire())
        _type, header, segments, _n = read_frame(io.BytesIO(data))
        Response.from_wire(header, segments)

    reps = calls * 10
    return {
        "serve.requests.encode_us": 1e6 * median_seconds(encode, reps),
        "serve.requests.decode_us": 1e6 * median_seconds(decode, reps),
        "serve.transport.frame_us": 1e6 * median_seconds(framing, reps),
        "serve.wire.ns_per_byte": 1e9 * median_seconds(whole, reps) / len(frame),
    }


WIRE_METRICS = _m(
    "us",
    "lower",
    "serve.requests.encode_us",
    "serve.requests.decode_us",
    "serve.transport.frame_us",
) + _m("ns/B", "lower", "serve.wire.ns_per_byte")


def probe_serve(calls: int) -> Metrics:
    """The serve layer piece by piece, then a closed-loop slice through a
    whole server whose own stage histograms give ``serve.server.*`` (the two
    serve workloads overwrite those with their own run's)."""
    from repro.apps import make_knn_service, make_vmscope_service
    from repro.datacutter import EngineOptions
    from repro.serve import (
        AdmissionQueue,
        LocalClient,
        PendingResponse,
        PipelineServer,
        PlanCache,
        RemoteClient,
        Request,
        ServerOptions,
        SessionPool,
    )

    from .workloads import knn_body, server_layer_metrics

    knn = make_knn_service(backend="vector", **KNN_SERVICE)
    vmscope = make_vmscope_service(backend="vector", **VMSCOPE_SERVICE)
    rng = np.random.default_rng(0)
    bodies = [knn_body(p) for p in rng.random((16, 3))]
    plan = knn.plan(bodies[0][1])
    out: Metrics = {}

    cache = PlanCache()
    out["serve.plancache.key_us"] = 1e6 * median_seconds(
        lambda: cache.key_for(plan.source, plan.registry, plan.options), calls
    )
    out["serve.plancache.miss_ms"] = 1e3 * median_seconds(
        lambda: PlanCache().compile(plan.source, plan.registry, plan.options),
        max(calls // 3, 2),
    )
    cache.compile(plan.source, plan.registry, plan.options)
    out["serve.plancache.hit_us"] = 1e6 * median_seconds(
        lambda: cache.compile(plan.source, plan.registry, plan.options), calls
    )

    queue = AdmissionQueue()

    def offer_take() -> None:
        queue.offer(PendingResponse(Request("knn", bodies[0][1])))
        queue.collect_batch(1, 0.0)

    out["serve.broker.offer_take_us"] = 1e6 * median_seconds(offer_take, calls * 10)

    pool = SessionPool(EngineOptions(), cache)
    try:
        out["serve.session.execute_ms"] = 1e3 * median_seconds(
            lambda: pool.execute(plan), calls
        )
    finally:
        pool.close()

    # one closed-loop slice through two whole servers, the default one and
    # one without request tracing, a call to each in turn so that drift
    # hits them alike
    mixed = bodies + [("vmscope", {"query": "small"})]
    traced = PipelineServer([knn, vmscope], ServerOptions()).start()
    untraced = PipelineServer(
        [knn, vmscope], ServerOptions(trace_requests=False)
    ).start()
    clients: dict[str, Any] = {}
    try:
        clients["local"] = LocalClient(traced)
        clients["remote"] = RemoteClient(traced.listen())
        clients["untraced"] = RemoteClient(untraced.listen())
        times: dict[str, list[float]] = {name: [] for name in clients}
        for lap in range(calls + len(mixed)):
            body = mixed[lap % len(mixed)]
            for name, client in clients.items():
                t0 = time.perf_counter()
                response = client.call(*body)
                if lap >= len(mixed):  # the first pass warms the plan caches
                    times[name].append(time.perf_counter() - t0)
                if not response.ok:
                    raise AssertionError(f"serve slice: {response.error}")
        out.update(server_layer_metrics(traced))
        out["serve.plancache.hit_rate"] = traced.stats()["plan_cache"]["hit_rate"]
    finally:
        for client in clients.values():
            client.close()
        traced.stop()
        untraced.stop()
    local_s, remote_s, untraced_s = (
        statistics.median(times[name]) for name in ("local", "remote", "untraced")
    )
    out["serve.client.local_call_ms"] = 1e3 * local_s
    out["serve.transport.loopback_tax_ms"] = 1e3 * (remote_s - local_s)
    out["serve.trace_overhead_share"] = remote_s / untraced_s - 1.0
    return out


SERVE_METRICS = (
    _m("us", "lower", "serve.plancache.key_us", "serve.plancache.hit_us")
    + _m("ms", "lower", "serve.plancache.miss_ms")
    + _m("ratio", "higher", "serve.plancache.hit_rate")
    + _m("us", "lower", "serve.broker.offer_take_us")
    + _m(
        "ms",
        "lower",
        "serve.session.execute_ms",
        "serve.client.local_call_ms",
        "serve.transport.loopback_tax_ms",
        *(f"serve.server.stage_ms.{stage}" for stage in STAGES),
    )
    + _m("ratio", "higher", "serve.server.batch_occupancy_mean")
    + _m("ratio", "lower", "serve.server.executions_per_request")
    + _m("ratio", "higher", "serve.server.fused_lanes_mean")
    + _m("ms", "lower", "serve.metrics.snapshot_ms")
    + _m("ratio", "lower", "serve.trace_overhead_share")
)

BENCH_METRICS = _m("ratio", "lower", "bench.trace_overhead_share")

#: every per-layer metric, in report order (this is BENCHMARK.json's list)
PER_LAYER: list[LayerMetric] = [
    *COMPILER_METRICS,
    *APPS_METRICS,
    *COST_MODEL_METRICS,
    *ENGINE_METRICS,
    *WIRE_METRICS,
    *SERVE_METRICS,
    *BENCH_METRICS,
]


def run_probes(seed: int, quick: bool = False) -> tuple[Metrics, list[str]]:
    """All probes; returns (metrics, warnings).  ``quick`` makes one or two
    calls of everything: enough to prove each probe still runs."""
    calls = 2 if quick else 15
    heavy = 2 if quick else 3
    small = [build_case(name, "small", seed) for name in APPS]
    run = small if quick else [build_case(name, "run", seed) for name in APPS]
    probes: list[tuple[list[LayerMetric], Callable[[], Metrics]]] = [
        (COMPILER_METRICS, lambda: probe_compiler(small, calls)),
        (APPS_METRICS, lambda: probe_apps(run, heavy)),
        (COST_MODEL_METRICS, probe_cost_model),
        (ENGINE_METRICS, lambda: probe_engines(heavy + 2)),
        (WIRE_METRICS, lambda: probe_wire(calls)),
        (SERVE_METRICS, lambda: probe_serve(calls + 5)),
    ]
    metrics: Metrics = {}
    warnings: list[str] = []
    for declared, probe in probes:
        try:
            got = probe()
        except (ImportError, AttributeError) as exc:
            # the layer's public function no longer exists
            got = {}
            warnings.append(f"{declared[0].name} ...: {type(exc).__name__}: {exc}")
        for metric in declared:
            metrics[metric.name] = got.get(metric.name)
    for warning in warnings:
        print(f"warning: layer probe unavailable: {warning}", file=sys.stderr)
    return metrics, warnings
