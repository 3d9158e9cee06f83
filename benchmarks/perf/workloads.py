"""The seven workloads of the benchmark.

Every workload is a fixed *basket* of ops repeated round after round, so
two commits always do the same work per round; the runner repeats rounds
until ``--seconds`` have passed and reports medians over rounds.  Each
workload imports only the public API the ROADMAP keeps (``compile_source``,
``pipeline.specs``, ``EngineOptions``, ``EngineSession``,
``PipelineServer``, ``RemoteClient``, ``make_*_app`` / ``make_*_service``)
and checks every output against a sequential reference that does not come
from the compiler under test (``Workload.oracle()`` / ``knn_oracle``).

What ``--seed`` drives: the knn point cloud and query points, the vmscope
slide, the serve query pools, the Zipf draws, the Poisson arrival times and
the hop payload bytes.  The two isosurface datasets keep the apps' own
default seed: their scalar field is a sum of seeded random blobs, so another
seed is another amount of work per packet (sizing saw 36-63 ms per unit
across eight seeds on z-buffer ``large``; the ``small`` dataset the run
workloads use is built the same way), which would drown every bound.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.apps import (
    knn_oracle,
    make_active_pixels_app,
    make_knn_app,
    make_knn_service,
    make_vmscope_app,
    make_vmscope_service,
    make_zbuffer_app,
)
from repro.core.compiler import CompileOptions, compile_source
from repro.cost import cluster_config
from repro.datacutter import (
    EngineOptions,
    Filter,
    FilterSpec,
    SourceFilter,
)
from repro.datacutter.engine import EngineSession
from repro.serve import PipelineServer, RemoteClient, ServerOptions

from .spans import SpanRecorder

#: wall-clock cap handed to the process engine's supervisor, so a wedged
#: worker fails the op instead of hanging the benchmark
PROCESS_TIMEOUT = 60.0
#: serve-open: a response later than this after its due time is not counted
LATENCY_LIMIT = 0.250
#: serve-open: fixed offered rate (req/s), below the knee of the seed commit's
#: latency curve on a 2-core box (p50 20 / 24 / 30 / 41 / 53 ms at 60 / 80 /
#: 100 / 120 / 160 req/s, batch occupancy 1.6 / 1.9 / 2.5 / 3.4 / 5.4): past
#: the knee latency follows the box's speed of the minute more than the code.
#: Change it only in a `benchmark` issue: every later number is relative to
#: this load.
OPEN_RATE = 100.0


def _span(rec: SpanRecorder | None, name: str, op: str = ""):
    return rec.span(name, op) if rec is not None else nullcontext()


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Sample:
    """One op: its latency, whether it was answered and matched the
    oracle, and whether it counts towards ``ops_per_s`` (serve-open drops
    correct answers that miss the latency limit)."""

    latency: float
    ok: bool
    counted: bool = True


@dataclass(slots=True)
class Round:
    wall: float
    samples: list[Sample]

    @property
    def ops_per_s(self) -> float:
        return sum(s.ok and s.counted for s in self.samples) / self.wall


# ---------------------------------------------------------------------------
# the four paper apps, at the two sizes the workloads use
# ---------------------------------------------------------------------------

#: app -> size -> (app factory, make_workload kwargs)
APP_SIZES: dict[str, dict[str, tuple[Callable[[], Any], dict[str, Any]]]] = {
    "zbuffer": {
        "run": (make_zbuffer_app, dict(dataset="small", num_packets=32)),
        "small": (make_zbuffer_app, dict(dataset="tiny", num_packets=8)),
    },
    "apixels": {
        "run": (make_active_pixels_app, dict(dataset="small", num_packets=32)),
        "small": (make_active_pixels_app, dict(dataset="tiny", num_packets=8)),
    },
    "knn": {
        "run": (partial(make_knn_app, 3), dict(n_points=100_000, num_packets=32)),
        "small": (partial(make_knn_app, 3), dict(n_points=8_000, num_packets=8)),
    },
    "vmscope": {
        "run": (make_vmscope_app, dict(query="large", num_packets=32)),
        "small": (
            partial(make_vmscope_app, 256, 256, 32),
            dict(query="small", num_packets=8),
        ),
    },
}
APPS = tuple(APP_SIZES)
BACKENDS = ("scalar", "vector")


@dataclass(slots=True)
class Case:
    """One app at one size: generated inputs, compile options, reference."""

    name: str
    app: Any
    workload: Any
    expected: Any = None
    compiled: dict[str, Any] = field(default_factory=dict)

    def options(self, backend: str) -> CompileOptions:
        classes = dict(self.app.runtime_classes)
        # vmscope's reduction class depends on the query: injected per run
        if "vimage_class" in self.workload.params:
            classes["VImage"] = self.workload.params["vimage_class"]
        return CompileOptions(
            env=cluster_config(1),
            profile=self.workload.profile,
            size_hints=dict(self.app.size_hints),
            runtime_classes=classes,
            method_costs=dict(self.app.method_costs),
            backend=backend,
        )

    def compile(self, backend: str):
        return compile_source(self.app.source, self.app.registry, self.options(backend))

    def check(self, payloads: list[Any]) -> bool:
        return bool(payloads) and bool(
            self.workload.check(payloads[-1], self.expected)
        )


def build_case(name: str, size: str, seed: int) -> Case:
    make_app, kwargs = APP_SIZES[name][size]
    kwargs = dict(kwargs)
    if name == "knn":
        rng = np.random.default_rng([seed, 1])
        kwargs.update(seed=seed, query=tuple(float(v) for v in rng.random(3)))
    elif name == "vmscope":
        kwargs.update(seed=seed)
    app = make_app()
    return Case(name, app, app.make_workload(**kwargs))


def plan_signature(result: Any) -> tuple[str, tuple[str, ...]]:
    """What two compiles of one program must agree on: the decomposition
    plan and the generated source of every filter."""
    return str(result.plan), tuple(f.source for f in result.pipeline.filters)


# ---------------------------------------------------------------------------
# workload base
# ---------------------------------------------------------------------------


class Workload:
    """Set-up, a repeatable round, reference values, tear-down."""

    name = ""
    why = ""
    #: ops in one round (for the report)
    basket = ""
    #: ``peak_rss_mb`` reads this process's high-water mark after this many
    #: rounds: a count every run reaches, so a faster commit, which fits more
    #: rounds into the timed window, is not charged for the extra rounds
    rss_rounds = 0

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        #: what went wrong in ops that raised (the op counts as failed)
        self.errors: list[str] = []

    def failed(self, exc: Exception) -> None:
        self.errors.append(f"{type(exc).__name__}: {exc}")

    def setup(self) -> None:
        """Everything before the timed window: inputs, first compile,
        session/server start, warm-up ops."""
        raise NotImplementedError

    def oracles(self) -> None:
        """Sequential reference values (benchmark-side; not charged to
        ``setup_s``, which times the system under test)."""

    def round(self, rec: SpanRecorder | None) -> Round:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers only this workload's own run can give."""
        return {}

    def info(self) -> dict[str, Any]:
        return {}


# ---------------------------------------------------------------------------
# compile-cold
# ---------------------------------------------------------------------------

def generator_config(case: Case, options: CompileOptions, backend: str):
    """The ``RuntimeConfig`` ``compile_source`` hands the code generator."""
    from repro.codegen.filtergen import RuntimeConfig

    registry = case.app.registry
    return RuntimeConfig(
        intrinsics={i.name: i.fn for i in registry},
        runtime_classes=dict(options.runtime_classes),
        size_hints=dict(options.size_hints),
        batch_intrinsics={
            i.name: i.batch_fn for i in registry if i.batch_fn is not None
        },
        backend=backend,
    )


def compile_by_pass(case: Case, backend: str, rec: SpanRecorder, op: str):
    """``compile_source`` unrolled, one span per pass; returns what
    :func:`plan_signature` returns for the whole call."""
    try:
        from repro.analysis import (
            GenConsAnalyzer,
            analyze_communication,
            build_filter_chain,
        )
        from repro.codegen.filtergen import FilterGenerator
        from repro.core.compiler import compute_problem, decompose
        from repro.lang import check, parse
    except ImportError:  # a refactor moved a pass: span the call whole
        with rec.span("compile", op):
            return plan_signature(case.compile(backend))

    options = case.options(backend)
    app = case.app
    with rec.span("compile", op):
        with rec.span("parse"):
            program = parse(app.source)
        with rec.span("check"):
            checked = check(program, app.registry)
        with rec.span("build_filter_chain"):
            meth, loop = checked.pipelined_loops()[0]
            chain = build_filter_chain(checked, meth, loop)
        with rec.span("analyze_communication"):
            comm = analyze_communication(chain, GenConsAnalyzer(checked))
        with rec.span("compute_problem"):
            _tasks, _vols, problem = compute_problem(chain, comm, options)
        with rec.span("decompose"):
            plan, _cost = decompose(problem, options)
        with rec.span("generate"):
            config = generator_config(case, options, backend)
            pipeline = FilterGenerator(chain, comm, plan, config).generate()
    return str(plan), tuple(f.source for f in pipeline.filters)


class CompileCold(Workload):
    name = "compile-cold"
    why = (
        "source text to placed pipeline with no cache: lang, analysis, cost, "
        "decompose and codegen do all the work, engines and serve none"
    )
    basket = "4 paper apps x {scalar, vector} = 8 compile_source calls"
    rss_rounds = 60

    def setup(self) -> None:
        self.cases = [build_case(name, "small", self.seed) for name in APPS]
        #: (case, backend) -> the signature every later compile must repeat
        self.reference: dict[tuple[str, str], Any] = {}
        for case in self.cases:
            for backend in BACKENDS:
                case.compiled[backend] = case.compile(backend)
                self.reference[case.name, backend] = plan_signature(
                    case.compiled[backend]
                )

    def oracles(self) -> None:
        # the reference compiles are themselves checked: each runs once and
        # must reproduce the sequential oracle
        self.reference_ok = True
        for case in self.cases:
            case.expected = case.workload.oracle()
            for backend in BACKENDS:
                run = case.compiled[backend].execute(
                    case.workload.packets,
                    case.workload.params,
                    options=EngineOptions(),
                )
                self.reference_ok &= case.check(run.payloads)

    def round(self, rec: SpanRecorder | None) -> Round:
        samples = []
        t_round = time.perf_counter()
        for case in self.cases:
            for backend in BACKENDS:
                t0 = time.perf_counter()
                try:
                    if rec is None:
                        signature = plan_signature(case.compile(backend))
                    else:
                        signature = compile_by_pass(
                            case, backend, rec, f"{case.name}/{backend}"
                        )
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    self.failed(exc)
                    signature = None
                latency = time.perf_counter() - t0
                ok = (
                    self.reference_ok
                    and signature == self.reference[case.name, backend]
                )
                samples.append(Sample(latency, ok))
        return Round(time.perf_counter() - t_round, samples)


# ---------------------------------------------------------------------------
# run-threaded / run-process
# ---------------------------------------------------------------------------


class _WarmRun(Workload):
    """One unit of work per app on a warm ``EngineSession``."""

    engine = ""
    #: transparent copies per generated filter (data, compute, view)
    widths: list[int] | None = None
    basket = "4 paper apps, one 32-packet unit of work each"
    rss_rounds = 20

    def setup(self) -> None:
        self.cases = [build_case(name, "run", self.seed) for name in APPS]
        for case in self.cases:
            case.compiled["vector"] = case.compile("vector")
        self.session = EngineSession(
            EngineOptions(engine=self.engine, timeout=PROCESS_TIMEOUT)
        )
        for case in self.cases:  # warm-up: fork / first-touch costs
            self._unit(case, None)

    def oracles(self) -> None:
        for case in self.cases:
            case.expected = case.workload.oracle()

    def _unit(self, case: Case, rec: SpanRecorder | None):
        with _span(rec, "unit", case.name):
            with _span(rec, "pipeline.specs"):
                specs = case.compiled["vector"].pipeline.specs(
                    case.workload.packets, case.workload.params, self.widths
                )
            with _span(rec, "session.run"):
                return self.session.run(specs)

    def round(self, rec: SpanRecorder | None) -> Round:
        latencies, payloads = [], []
        t_round = time.perf_counter()
        for case in self.cases:
            t0 = time.perf_counter()
            try:
                payloads.append(self._unit(case, rec).payloads)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                self.failed(exc)
                payloads.append([])
            latencies.append(time.perf_counter() - t0)
        wall = time.perf_counter() - t_round
        with _span(rec, "check"):
            oks = [case.check(p) for case, p in zip(self.cases, payloads)]
        return Round(wall, [Sample(dt, ok) for dt, ok in zip(latencies, oks)])

    def teardown(self) -> None:
        self.session.close()


class RunThreaded(_WarmRun):
    name = "run-threaded"
    engine = "threaded"
    why = (
        "packets to result where generated vector kernels and pack/unpack "
        "dominate and the hop is a thread queue; bypasses mp transport"
    )


class RunProcess(_WarmRun):
    name = "run-process"
    engine = "process"
    widths = [1, 2, 1]
    why = (
        "the same units on the resident process pool, so the gap to "
        "run-threaded is the price of datacutter.mp (pickle pipe, shm, epochs)"
    )


# ---------------------------------------------------------------------------
# hop-process: Pipeflow's method, empty filters
# ---------------------------------------------------------------------------


class HopSource(SourceFilter):
    def generate(self, ctx):
        payload = ctx.params["payload"]
        for _ in range(ctx.params["n"]):
            yield payload


class HopSink(Filter):
    """Counts what arrives; touches two bytes per buffer, no data work."""

    def init(self, ctx):
        self.count = self.nbytes = self.mark = 0

    def process(self, buf, ctx):
        payload = buf.payload
        self.count += 1
        self.nbytes += len(payload)
        self.mark += payload[0] + payload[-1]

    def finalize(self, ctx):
        ctx.write((self.count, self.nbytes, self.mark))


def hop_specs(n: int, payload: bytes) -> list[FilterSpec]:
    params = {"n": n, "payload": payload}
    return [
        FilterSpec("hop-src", HopSource, 0, params=params),
        # the base Filter forwards each buffer untouched
        FilterSpec("hop-fwd1", Filter, 1, params=params),
        FilterSpec("hop-fwd2", Filter, 1, params=params),
        FilterSpec("hop-sink", HopSink, 2, params=params),
    ]


def hop_expected(n: int, payload: bytes) -> tuple[int, int, int]:
    return n, n * len(payload), n * (payload[0] + payload[-1])


#: (label, packets per unit, payload bytes): below / above the shm threshold
HOP_UNITS = (("64B", 500, 64), ("256KiB", 60, 256 * 1024))
HOP_STREAMS = 3  # source -> fwd -> fwd -> sink


class HopProcess(Workload):
    name = "hop-process"
    why = (
        "empty forward filters on the resident process pool: zero data "
        "work, so only mp channels/transport/worker/supervisor can move it"
    )
    basket = "500 x 64 B packets (pickle pipe) + 60 x 256 KiB packets (shm)"
    rss_rounds = 40
    engine = "process"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.units = [
            (label, n, rng.bytes(size)) for label, n, size in HOP_UNITS
        ]
        self.session = EngineSession(
            EngineOptions(engine=self.engine, timeout=PROCESS_TIMEOUT)
        )
        for _label, n, payload in self.units:
            self.session.run(hop_specs(n, payload))

    def round(self, rec: SpanRecorder | None) -> Round:
        samples = []
        t_round = time.perf_counter()
        for label, n, payload in self.units:
            t0 = time.perf_counter()
            try:
                with _span(rec, "session.run", label):
                    got = self.session.run(hop_specs(n, payload)).payloads
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                self.failed(exc)
                got = []
            latency = time.perf_counter() - t0
            samples.append(Sample(latency, got == [hop_expected(n, payload)]))
        return Round(time.perf_counter() - t_round, samples)

    def teardown(self) -> None:
        self.session.close()


# ---------------------------------------------------------------------------
# oneshot-run: the `python -m repro run` path
# ---------------------------------------------------------------------------


class OneshotRun(Workload):
    name = "oneshot-run"
    why = (
        "compile + execute + check on a fresh engine each time, scalar "
        "backend: the CLI/figures path, engines and codegen used the other way"
    )
    basket = "4 paper apps (small data) x {threaded, process} = 8 ops"
    rss_rounds = 10
    engines = ("threaded", "process")

    def setup(self) -> None:
        self.cases = [build_case(name, "small", self.seed) for name in APPS]
        for case in self.cases:  # warm-up: first-compile import costs
            case.compile("scalar").execute(
                case.workload.packets, case.workload.params, options=EngineOptions()
            )

    def oracles(self) -> None:
        for case in self.cases:
            case.expected = case.workload.oracle()

    def round(self, rec: SpanRecorder | None) -> Round:
        samples = []
        t_round = time.perf_counter()
        for case in self.cases:
            for engine in self.engines:
                t0 = time.perf_counter()
                try:
                    with _span(rec, "oneshot", f"{case.name}/{engine}"):
                        with _span(rec, "compile_source"):
                            result = case.compile("scalar")
                        with _span(rec, "execute"):
                            run = result.execute(
                                case.workload.packets,
                                case.workload.params,
                                options=EngineOptions(
                                    engine=engine, timeout=PROCESS_TIMEOUT
                                ),
                            )
                        with _span(rec, "check"):
                            ok = case.check(run.payloads)
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    self.failed(exc)
                    ok = False
                samples.append(Sample(time.perf_counter() - t0, ok))
        return Round(time.perf_counter() - t_round, samples)


# ---------------------------------------------------------------------------
# serve-closed / serve-open
# ---------------------------------------------------------------------------

STAGES = ("admission", "queue", "assemble", "execute", "extract", "write")
VMSCOPE_PRESETS = ("small", "large")
#: the services' sizes, spelled out so the oracle below is built from the
#: same numbers (these are also the services' defaults)
KNN_SERVICE = dict(k=3, n_points=20_000, num_packets=8)
VMSCOPE_SERVICE = dict(image_w=256, image_h=256, tile=32, num_packets=6)

Body = tuple[str, dict[str, Any]]


def knn_body(point: np.ndarray) -> Body:
    return "knn", {"x": float(point[0]), "y": float(point[1]), "z": float(point[2])}


def body_key(body: Body) -> tuple:
    kind, fields = body
    return (kind, *sorted(fields.items()))


def server_layer_metrics(
    server: PipelineServer, before: dict[str, Any] | None = None
) -> dict[str, float]:
    """The server's own account (``stats(deep=True)``) of what it served
    since the ``before`` snapshot, or since it started."""
    t0 = time.perf_counter()
    after = server.stats(deep=True)
    snapshot_ms = 1e3 * (time.perf_counter() - t0)

    def since(*path: str) -> float:
        new, old = after, before
        for key in path:
            new = new[key]
            old = old[key] if old is not None else None
        return new - (old or 0)

    batches = since("batches")
    occupancy = after["batch_occupancy_mean"] * after["batches"] - (
        before["batch_occupancy_mean"] * before["batches"] if before else 0.0
    )
    fused = since("fusion", "fused_executions")
    histograms = after["windows"]["histograms"]
    out = {
        # knn is 80% of the traffic and the kind fusion applies to
        f"serve.server.stage_ms.{stage}": 1e3
        * histograms[f'stage{{kind="knn",stage="{stage}"}}']["overall"]["p50"]
        for stage in STAGES
    }
    out["serve.server.batch_occupancy_mean"] = occupancy / max(batches, 1)
    out["serve.server.executions_per_request"] = since("executions") / max(
        since("served"), 1
    )
    out["serve.server.fused_lanes_mean"] = (
        since("fusion", "fused_lanes") / fused if fused else 0.0
    )
    out["serve.metrics.snapshot_ms"] = snapshot_ms
    return out


class _Serve(Workload):
    """A ``PipelineServer`` on loopback TCP with vector-backend services."""

    connections = 1

    def server_options(self) -> ServerOptions:
        return ServerOptions()

    def make_bodies(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        self.knn = make_knn_service(backend="vector", **KNN_SERVICE)
        self.vmscope = make_vmscope_service(backend="vector", **VMSCOPE_SERVICE)
        self.server = PipelineServer(
            [self.knn, self.vmscope], self.server_options()
        ).start()
        address = self.server.listen()
        self.clients = [RemoteClient(address) for _ in range(self.connections)]
        self.make_bodies(np.random.default_rng([self.seed, 3]))
        self.warm_up()
        self.stats_before = self.server.stats()

    def distinct_bodies(self) -> list[Body]:
        raise NotImplementedError

    def oracles(self) -> None:
        points = np.concatenate(
            [
                np.stack([p.fields["x"], p.fields["y"], p.fields["z"]], axis=1)
                for p in self.knn.workload.packets
            ]
        )
        app = make_vmscope_app(
            VMSCOPE_SERVICE["image_w"],
            VMSCOPE_SERVICE["image_h"],
            VMSCOPE_SERVICE["tile"],
        )
        images = {
            preset: app.make_workload(
                query=preset, num_packets=VMSCOPE_SERVICE["num_packets"]
            )
            .oracle()
            .image()
            for preset in VMSCOPE_PRESETS
        }
        self.expected: dict[tuple, np.ndarray] = {}
        for body in self.distinct_bodies():
            kind, fields = body
            if kind == "knn":
                query = (fields["x"], fields["y"], fields["z"])
                value = knn_oracle(points, query, KNN_SERVICE["k"])
            else:
                value = images[fields["query"]]
            self.expected[body_key(body)] = value

    def correct(self, body: Body, response: Any) -> bool:
        if response is None or not response.ok:
            return False
        expected = self.expected[body_key(body)]
        got = response.value
        if not isinstance(got, np.ndarray) or got.shape != expected.shape:
            return False
        if body[0] == "knn":  # the app's own check: distances may differ in ulps
            return bool(np.allclose(got, expected))
        return bool(np.array_equal(got, expected))

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.server.stop()

    def layer_metrics(self) -> dict[str, float]:
        return server_layer_metrics(self.server, self.stats_before)


class ServeClosed(_Serve):
    name = "serve-closed"
    why = (
        "per-request serve path with almost nothing to coalesce: wire, "
        "admission, batch deadline, dispatch, warm session, extract, write"
    )
    connections = 2
    #: requests per connection per round
    per_connection = 50
    #: distinct knn points per connection (disjoint pools, so the two
    #: requests in flight never share a group key)
    pool = 64
    basket = (
        "2 closed-loop connections x 50 requests, "
        "80% pairwise-distinct knn + 20% vmscope presets"
    )
    rss_rounds = 4

    def make_bodies(self, rng: np.random.Generator) -> None:
        self.n = 10 if self.quick else self.per_connection
        self.pools = [
            [knn_body(p) for p in rng.random((self.pool, 3))]
            for _ in range(self.connections)
        ]
        self.cursor = [0] * self.connections

    def _next_bodies(self, conn: int) -> list[Body]:
        """Every fifth request is a vmscope preset; the rest walk the
        connection's own pool of distinct knn points."""
        out: list[Body] = []
        for i in range(self.n):
            c = self.cursor[conn]
            self.cursor[conn] += 1
            if i % 5 == 4:
                out.append(("vmscope", {"query": VMSCOPE_PRESETS[(i // 5) % 2]}))
            else:
                out.append(self.pools[conn][c % self.pool])
        return out

    def distinct_bodies(self) -> list[Body]:
        presets = [("vmscope", {"query": q}) for q in VMSCOPE_PRESETS]
        return [b for pool in self.pools for b in pool] + presets

    def warm_up(self) -> None:
        for client, pool in zip(self.clients, self.pools):
            client.call(*pool[0])
            for preset in VMSCOPE_PRESETS:
                client.call("vmscope", {"query": preset})
        # two requests in flight can share a batch: compile the 2-lane plan
        for _ in range(2):
            self.clients[0].burst([self.pools[0][1], self.pools[1][1]])

    def round(self, rec: SpanRecorder | None) -> Round:
        results: list[list[tuple[Body, float, Any]]] = [
            [] for _ in self.clients
        ]

        def loop(conn: int, bodies: list[Body]) -> None:
            client = self.clients[conn]
            for i, body in enumerate(bodies):
                t0 = time.perf_counter()
                try:
                    with _span(rec, "request", f"c{conn}/{i}"):
                        with _span(rec, "submit"):
                            pending = client.submit(*body)
                        with _span(rec, "result"):
                            response = pending.result(client.timeout)
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    self.failed(exc)
                    response = None
                results[conn].append((body, time.perf_counter() - t0, response))

        threads = [
            threading.Thread(target=loop, args=(conn, self._next_bodies(conn)))
            for conn in range(self.connections)
        ]
        t_round = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t_round
        with _span(rec, "check"):
            samples = [
                Sample(latency, self.correct(body, response))
                for per_conn in results
                for body, latency, response in per_conn
            ]
        return Round(wall, samples)


class ServeOpen(_Serve):
    name = "serve-open"
    why = (
        "open loop, Poisson arrivals at a fixed 100 req/s, Zipf bodies: "
        "coalescing, fusion and queue wait do the work"
    )
    connections = 1
    round_seconds = 2.0
    knn_points = 16
    zipf_s = 1.1
    #: ranks the two vmscope presets hold in the Zipf order (fixed, so the
    #: knn/vmscope mix does not change with the seed)
    vmscope_ranks = (4, 9)
    basket = (
        "200 requests over 2 s on one connection, timed from their due "
        "time, bodies Zipf over 16 knn points + 2 vmscope presets"
    )
    rss_rounds = 2

    def make_bodies(self, rng: np.random.Generator) -> None:
        bodies: list[Body] = [knn_body(p) for p in rng.random((self.knn_points, 3))]
        for rank, preset in zip(self.vmscope_ranks, VMSCOPE_PRESETS):
            bodies.insert(rank, ("vmscope", {"query": preset}))
        self.bodies = bodies
        self.rng = rng
        self.seconds = 0.5 if self.quick else self.round_seconds
        self.per_round = int(round(OPEN_RATE * self.seconds))
        # every round sends the same multiset of bodies, Zipf shares of the
        # round's count rounded down and the remainder given to rank 1, in
        # an order and at times the seed draws: the mix, and so the work,
        # does not change with the seed
        weights = 1.0 / np.arange(1, len(bodies) + 1) ** self.zipf_s
        counts = np.floor(weights / weights.sum() * self.per_round).astype(int)
        counts[0] += self.per_round - counts.sum()
        self.picks = np.repeat(np.arange(len(bodies)), counts)
        self.lateness: list[float] = []
        self.late = 0

    def distinct_bodies(self) -> list[Body]:
        return list(self.bodies)

    def warm_up(self) -> None:
        client = self.clients[0]
        for body in self.bodies:
            client.call(*body)
        knn = [b for b in self.bodies if b[0] == "knn"]
        # compile the fused plans a burst can need (lane buckets 2..16)
        for _ in range(2):
            for lanes in (2, 4, 8, 16):
                client.burst(knn[:lanes])

    def round(self, rec: SpanRecorder | None) -> Round:
        client = self.clients[0]
        n = self.per_round
        # Poisson arrivals conditioned on their count: sorted uniforms
        due = np.sort(self.rng.uniform(0.0, self.seconds, n))
        picks = self.rng.permutation(self.picks)
        pendings: list[Any] = [None] * n
        sent = threading.Semaphore(0)
        t_start = time.perf_counter() + 0.005

        def send() -> None:
            for i in range(n):
                delay = t_start + due[i] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.lateness.append(time.perf_counter() - (t_start + due[i]))
                try:
                    pendings[i] = client.submit(*self.bodies[picks[i]])
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    self.failed(exc)
                    pendings[i] = None
                sent.release()

        sender = threading.Thread(target=send)
        sender.start()
        done_at = [0.0] * n
        responses: list[Any] = [None] * n
        # in-order waiter: a response overtaken inside its batch is charged
        # up to one group execution extra, never less than it took
        for i in range(n):
            sent.acquire()
            try:
                if pendings[i] is not None:
                    responses[i] = pendings[i].result(client.timeout)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                self.failed(exc)
                responses[i] = None
            done_at[i] = time.perf_counter()
        sender.join()
        wall = done_at[-1] - t_start
        samples = []
        for i in range(n):
            t_due = t_start + due[i]
            latency = done_at[i] - t_due
            ok = self.correct(self.bodies[picks[i]], responses[i])
            inside = latency <= LATENCY_LIMIT
            self.late += ok and not inside
            samples.append(Sample(latency, ok, counted=inside))
            if rec is not None:
                rec.add("request", str(i), t_due, done_at[i])
        return Round(wall, samples)

    def info(self) -> dict[str, Any]:
        lateness = np.asarray(self.lateness or [0.0])
        return {
            "offered_rate_per_s": OPEN_RATE,
            "latency_limit_ms": 1e3 * LATENCY_LIMIT,
            "answered_late": int(self.late),
            "generator_lateness_ms_p50": 1e3 * float(np.median(lateness)),
            "generator_lateness_ms_p95": 1e3 * float(np.percentile(lateness, 95)),
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        CompileCold,
        RunThreaded,
        RunProcess,
        HopProcess,
        OneshotRun,
        ServeClosed,
        ServeOpen,
    )
}
