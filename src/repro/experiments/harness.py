"""Experiment harness for the §6 evaluation.

Methodology (the substitution DESIGN.md documents): *computation is
measured, communication is simulated*.

1. Build a version of an application:

   * **Default** — the paper's baseline: data nodes only read and forward,
     all processing on the compute stage (``default_plan``);
   * **Decomp-Comp** — the compiler's DP decomposition and generated code;
   * **Decomp-Manual** — hand-written, vectorized DataCutter filters
     performing the same decomposition (knn, vmscope only, as in §6.4-6.5).

2. Run it once with engine-native tracing enabled
   (:func:`measure_pipeline`, a thin wrapper over ``run_pipeline`` with an
   :class:`~repro.datacutter.obs.Trace` in the
   :class:`~repro.datacutter.engine.EngineOptions`): the engines record
   per-filter-copy ``init``/``generate``/``process``/``finalize`` spans,
   yielding *measured* per-packet compute seconds per stage and *measured*
   per-packet bytes per link, and the output is verified against the
   sequential oracle.  Tracing is engine-native, so measurement works
   identically on the threaded and process engines.

3. Feed those measurements into the deterministic grid simulator for each
   pipeline configuration (1-1-1 / 2-2-1 / 4-4-1 with Myrinet-class links)
   to obtain the figure's execution times.

The same traces close the loop on the §4.3 cost models:
:func:`validate_cost_model` joins measured per-filter span seconds and
per-link bytes against the ``OpCounter``/``VolumeModel`` predictions for
the chosen decomposition plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..codegen.runtime_support import FINAL_PACKET
from ..core.compiler import CompileOptions, compile_source, default_plan
from ..cost.environment import PipelineEnv, cluster_config
from ..datacutter.engine import EngineOptions, run_pipeline
from ..datacutter.filters import FilterSpec
from ..datacutter.obs import Trace
from ..datacutter.runtime import RunResult
from ..datacutter.simulation import SimReport, simulate_pipeline
from ..decompose.plan import DecompositionPlan
from .. import apps as _apps  # noqa: F401 - re-export convenience
from ..apps.common import AppBundle, Workload

VERSIONS = ("Default", "Decomp-Comp", "Decomp-Manual")


# ---------------------------------------------------------------------------
# Measured profiles
# ---------------------------------------------------------------------------


def measure_pipeline(
    specs: Sequence[FilterSpec],
    options: EngineOptions | None = None,
) -> tuple[RunResult, Trace]:
    """Run a pipeline with engine-native tracing; returns (result, trace).

    A thin wrapper over ``run_pipeline(specs,
    options=EngineOptions(trace=...))``: if ``options`` already carries a
    trace collector it is used (and must be a :class:`Trace` to be
    returned), otherwise a fresh :class:`Trace` is injected.  Works
    identically on both engines — the process engine ships worker-side
    event buffers back through its supervisor."""
    opts = options if options is not None else EngineOptions()
    trace = opts.trace
    if trace is None:
        trace = Trace()
        opts = opts.replace(trace=trace)
    run = run_pipeline(specs, options=opts)
    return run, trace


@dataclass(slots=True)
class MeasuredRun:
    """Stage/link measurements of one traced execution."""

    version: str
    correct: bool
    num_packets: int
    #: per stage: packet index -> measured seconds (width-1 execution);
    #: once-per-run init/finalize time is amortized across packets
    stage_seconds: list[dict[int, float]]
    #: per link: packet index -> bytes crossing
    link_bytes: list[dict[int, int]]
    run: RunResult
    #: cost-model prediction of total compute seconds per packet (testbed
    #: speed); used to calibrate the Python-vs-testbed slowdown
    modeled_packet_seconds: float | None = None
    #: the engine-native trace the measurements were derived from
    trace: Trace | None = None

    def stage_mean(self, j: int) -> float:
        per = self.stage_seconds[j]
        data = [v for k, v in per.items() if k >= 0]
        return sum(data) / max(len(data), 1)

    def measured_packet_seconds(self) -> float:
        """Mean total compute seconds per packet across all stages."""
        return sum(self.stage_mean(j) for j in range(len(self.stage_seconds)))

    def total_link_bytes(self, j: int) -> int:
        return sum(self.link_bytes[j].values())


def _specs_for_version(
    app: AppBundle,
    workload: Workload,
    version: str,
    env: PipelineEnv,
    objective: str = "total",
    backend: str = "auto",
) -> tuple[list[FilterSpec], Any]:
    """Build (unwrapped) specs for a version; returns (specs, compile
    result or None).  ``backend`` selects the codegen backend for the
    compiled versions ("scalar" | "vector" | "auto", see
    :mod:`repro.codegen.vectorize`); the manual version ignores it."""
    if version == "Decomp-Manual":
        if app.manual_specs is None:
            raise ValueError(f"{app.name} has no manual version (as in the paper)")
        return app.manual_specs(workload, [1] * env.m), None

    runtime_classes = dict(app.runtime_classes)
    # query-dependent classes (vmscope's VImage) are injected per workload
    for key, value in workload.params.items():
        if key.endswith("_class") and isinstance(value, type):
            class_name = key[: -len("_class")]
            # dialect class names are capitalized; match by declared class
            for decl_name in ("VImage", "KNN", "ZBuffer", "ActivePixels"):
                if decl_name.lower() == class_name.lower():
                    runtime_classes.setdefault(decl_name, value)
    options = CompileOptions(
        env=env,
        profile=workload.profile,
        objective=objective,
        size_hints=dict(app.size_hints),
        runtime_classes=runtime_classes,
        method_costs=dict(app.method_costs),
        backend=backend,
    )
    plan: DecompositionPlan | None = None
    result = compile_source(app.source, app.registry, options)
    if version == "Default":
        plan = default_plan(result.chain, env.m)
        result = compile_source(
            app.source, app.registry, options, plan=plan
        )
    elif version != "Decomp-Comp":
        raise ValueError(f"unknown version {version!r}")
    specs = result.pipeline.specs(workload.packets, workload.params)
    return specs, result


def measure_version(
    app: AppBundle,
    workload: Workload,
    version: str,
    env: PipelineEnv | None = None,
    check: bool = True,
    objective: str = "total",
    warmup: bool = True,
    options: EngineOptions | None = None,
    backend: str = "auto",
) -> MeasuredRun:
    """Run one version once (width 1 everywhere) and measure it.

    ``warmup`` runs the pipeline once untraced first, so first-touch costs
    (codegen import, NumPy buffer warmup) don't masquerade as a bottleneck
    packet."""
    env = env or cluster_config(1)
    specs, _result = _specs_for_version(
        app, workload, version, env, objective, backend=backend
    )
    return measure_specs(
        specs,
        _result,
        workload,
        env,
        version,
        check=check,
        warmup=warmup,
        options=options,
    )


def measure_specs(
    specs: list[FilterSpec],
    _result,
    workload: Workload,
    env: PipelineEnv,
    version: str,
    check: bool = True,
    warmup: bool = True,
    options: EngineOptions | None = None,
) -> MeasuredRun:
    """Measure an already-built spec list (see :func:`measure_version`)."""
    opts = options if options is not None else EngineOptions()
    if opts.trace is not None and not isinstance(opts.trace, Trace):
        raise TypeError(
            "measure_specs aggregates via Trace.seconds_by_packet(); pass "
            "a repro.datacutter.obs.Trace (or leave options.trace unset)"
        )
    if warmup:
        # faults stay out of the warmup: it exists to absorb one-time
        # costs, not to crash (or pay recovery backoff) before the
        # measured run injects its own faults
        run_pipeline(specs, options=opts.replace(trace=None, faults=None))
    run, trace = measure_pipeline(specs, options=opts)

    correct = True
    if check:
        finals = run.payloads[-1] if run.payloads else {}
        expected = workload.oracle()
        correct = bool(workload.check(finals, expected))

    # aggregate filter times into stage times; init/finalize (the trace's
    # overhead bucket, a negative packet key) amortizes evenly so it
    # doesn't fake a bottleneck packet
    n = max(workload.num_packets, 1)
    stage_seconds: list[dict[int, float]] = [dict() for _ in range(env.m)]
    for spec in specs:
        per = trace.seconds_by_packet(spec.name)
        bucket = stage_seconds[spec.placement]
        overhead = sum(dt for packet, dt in per.items() if packet < 0)
        for packet, dt in per.items():
            if packet >= 0:
                bucket[packet] = bucket.get(packet, 0.0) + dt
        if overhead > 0:
            share = overhead / n
            for packet in range(n):
                bucket[packet] = bucket.get(packet, 0.0) + share

    # streams that cross links: consecutive specs on different stages;
    # FINAL buffers (the once-per-run reduction flush) stay under the
    # FINAL_PACKET key and are charged as drain, not per-packet traffic
    link_bytes: list[dict[int, int]] = [dict() for _ in range(env.m - 1)]
    for a, b in zip(specs, specs[1:]):
        if b.placement > a.placement:
            stream_name = f"{a.name}->{b.name}"
            per = run.stream_by_packet.get(stream_name, {})
            for link in range(a.placement, b.placement):
                bucket = link_bytes[link]
                for packet, nbytes in per.items():
                    key = packet if packet >= 0 else FINAL_PACKET
                    bucket[key] = bucket.get(key, 0) + nbytes
    modeled = None
    if _result is not None:
        # cost-model compute time per packet at testbed speed (width 1,
        # whichever unit: the paper's units are homogeneous)
        modeled = sum(_result.tasks) / env.units[0].power
    return MeasuredRun(
        version=version,
        correct=correct,
        num_packets=workload.num_packets,
        stage_seconds=stage_seconds,
        link_bytes=link_bytes,
        run=run,
        modeled_packet_seconds=modeled,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Simulation of the paper's configurations
# ---------------------------------------------------------------------------


def simulate_measured(
    measured: MeasuredRun, env: PipelineEnv, net_scale: float = 1.0
) -> SimReport:
    """Predict the run on ``env`` from width-1 measurements: per-packet
    compute times are measured, link times are bytes/bandwidth + latency.

    ``net_scale`` slows the network by the Python-vs-testbed calibration
    factor (see :func:`calibrate_net_scale`) so the compute:bandwidth
    ratio matches the paper's cluster."""
    n = measured.num_packets

    def comp_fn(j: int) -> Callable[[int], float]:
        per = measured.stage_seconds[j]
        return lambda k: per.get(k, 0.0)

    def link_fn(j: int) -> Callable[[int], float]:
        per = measured.link_bytes[j]
        link = env.links[j]
        return lambda k: (
            per.get(k, 0) / link.bandwidth + link.latency
        ) * net_scale

    comp_times = [comp_fn(j) for j in range(env.m)]
    link_times = [link_fn(j) for j in range(env.m - 1)]
    widths = [u.width for u in env.units]
    report = simulate_pipeline(comp_times, link_times, widths, n)
    # drain: the final reduction flush crosses each link once per run, at
    # testbed bandwidth (it is not part of the steady-state pipeline the
    # calibration preserves — see DESIGN.md)
    drain = 0.0
    for j, link in enumerate(env.links):
        final_bytes = measured.link_bytes[j].get(FINAL_PACKET, 0)
        if final_bytes:
            drain += final_bytes / link.bandwidth + link.latency
    report.makespan += drain
    return report


def calibrate_net_scale(measured: MeasuredRun) -> float:
    """Python-vs-testbed slowdown: measured compute seconds per packet over
    the cost model's prediction at 700 MHz Pentium speed.  Slowing the
    simulated network by the same factor preserves the paper testbed's
    compute:bandwidth ratio (the substitution DESIGN.md documents)."""
    if not measured.modeled_packet_seconds or measured.modeled_packet_seconds <= 0:
        return 1.0
    ratio = measured.measured_packet_seconds() / measured.modeled_packet_seconds
    return max(ratio, 1.0)


@dataclass(slots=True)
class VersionTimes:
    """One row group of a §6 figure: a version's time per configuration."""

    version: str
    times: dict[str, float] = field(default_factory=dict)  # config -> seconds
    correct: bool = True
    link_bytes: list[int] = field(default_factory=list)

    def speedup(self, base_config: str, config: str) -> float:
        return self.times[base_config] / self.times[config]


def run_experiment(
    app: AppBundle,
    workload: Workload,
    versions: Sequence[str],
    configs: dict[str, PipelineEnv] | None = None,
    check: bool = True,
    options: EngineOptions | None = None,
    backend: str = "auto",
) -> dict[str, VersionTimes]:
    """Measure each version once, simulate each configuration."""
    # each measured run gets its own Trace (one shared collector would mix
    # versions in seconds_by_packet); per-run traces land on MeasuredRun
    opts = (options if options is not None else EngineOptions()).replace(trace=None)
    if configs is None:
        configs = {
            "1-1-1": cluster_config(1),
            "2-2-1": cluster_config(2),
            "4-4-1": cluster_config(4),
        }
    out: dict[str, VersionTimes] = {}
    # One network calibration per experiment, from the Decomp-Comp version
    # (least serialization overhead, so measured/modeled reflects compute):
    # the environment's compute:bandwidth ratio is version-independent.
    calib_version = "Decomp-Comp" if "Decomp-Comp" in versions else versions[0]
    calib_env = next(iter(configs.values()))
    calib = measure_version(
        app,
        workload,
        calib_version,
        env=calib_env,
        check=False,
        options=opts,
        backend=backend,
    )
    net_scale = calibrate_net_scale(calib)
    # Decomposition is environment-dependent (§4.1): compile per
    # configuration.  Configurations that pick the same plan reuse one
    # measurement (re-measuring adds only timing noise).
    cache: dict[tuple[str, str], MeasuredRun] = {}
    for version in versions:
        vt = VersionTimes(version=version)
        for config_name, env in configs.items():
            specs, result = _specs_for_version(
                app, workload, version, env, backend=backend
            )
            plan_key = str(result.plan) if result is not None else "manual"
            key = (version, plan_key)
            if key not in cache:
                cache[key] = measure_specs(
                    specs, result, workload, env, version, check=check, options=opts
                )
            measured = cache[key]
            vt.times[config_name] = simulate_measured(
                measured, env, net_scale
            ).makespan
            vt.correct = vt.correct and measured.correct
            if not vt.link_bytes:
                vt.link_bytes = [
                    measured.total_link_bytes(j)
                    for j in range(len(measured.link_bytes))
                ]
        out[version] = vt
    return out


# ---------------------------------------------------------------------------
# Cost-model validation (§4.3): measured spans vs OpCounter/VolumeModel
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class CostModelRow:
    """One measured-vs-predicted observable of a decomposition plan."""

    kind: str  #: ``"compute"`` (a generated filter) or ``"link"``
    name: str  #: generated filter name, or ``"L<k>"``
    unit: int  #: 1-based computing unit (compute) or link index (link)
    detail: str  #: atom composition ("f1+f2") or crossing boundary
    predicted: float  #: s/packet at testbed speed, or bytes/packet
    measured: float  #: s/packet in this run, or bytes/packet

    @property
    def ratio(self) -> float:
        """measured / predicted (compute rows: the CPython-vs-testbed
        slowdown; link rows: ~1.0 when the VolumeModel is exact)."""
        if self.predicted <= 0:
            return float("inf") if self.measured > 0 else 1.0
        return self.measured / self.predicted


@dataclass(slots=True)
class CostModelReport:
    """The §4.3 cost models joined against one traced run."""

    app: str
    version: str
    plan: str
    engine: str
    rows: list[CostModelRow]
    #: codegen backend the measured pipeline was generated with
    backend: str = "scalar"

    def compute_rows(self) -> list[CostModelRow]:
        return [r for r in self.rows if r.kind == "compute"]

    def link_rows(self) -> list[CostModelRow]:
        return [r for r in self.rows if r.kind == "link"]

    def mean_ratio(self, kind: str) -> float:
        rows = [r for r in self.rows if r.kind == kind and r.predicted > 0]
        if not rows:
            return float("nan")
        return sum(r.ratio for r in rows) / len(rows)

    def calibration_factor(self) -> float:
        """The backend's execution-vs-model slowdown: mean measured/predicted
        ratio over the compute rows.  The cost model predicts testbed-speed
        ops, so the scalar backend's factor is the per-record interpreter
        overhead; the vector backend's factor collapses toward the NumPy
        kernel cost (see EXPERIMENTS.md, 'Cost-model calibration')."""
        return self.mean_ratio("compute")

    def table(self) -> str:
        """Markdown measured-vs-predicted table."""
        lines = [
            "| kind | name | unit | composition | predicted | measured | ratio |",
            "|------|------|-----:|-------------|----------:|---------:|------:|",
        ]
        for r in self.rows:
            if r.kind == "compute":
                pred = f"{r.predicted:.3e} s/pkt"
                meas = f"{r.measured:.3e} s/pkt"
            else:
                pred = f"{r.predicted:,.0f} B/pkt"
                meas = f"{r.measured:,.0f} B/pkt"
            lines.append(
                f"| {r.kind} | `{r.name}` | {r.unit} | {r.detail} "
                f"| {pred} | {meas} | {r.ratio:.2f} |"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        return (
            f"cost model vs {self.engine} run of {self.app}/{self.version} "
            f"(plan {self.plan}, {self.backend} backend): compute slowdown "
            f"x{self.calibration_factor():.1f} "
            f"(CPython vs modeled testbed ops), link bytes ratio "
            f"x{self.mean_ratio('link'):.2f}"
        )


def validate_cost_model(result, measured: MeasuredRun) -> CostModelReport:
    """Join measured per-filter spans and per-link bytes against the §4.3
    cost-model predictions for ``result``'s decomposition plan.

    Compute rows predict seconds/packet at testbed speed (OpCounter
    weighted ops over unit power), so their ratio is the CPython-vs-testbed
    slowdown — expect a large, roughly uniform factor.  Link rows predict
    bytes/packet from the VolumeModel, so their ratio should be ~1.
    """
    if measured.trace is None:
        raise ValueError(
            "MeasuredRun has no trace; measure with measure_specs/"
            "measure_version (engine-native tracing) first"
        )
    env = result.options.env
    plan = result.plan
    n = max(measured.num_packets, 1)
    rows: list[CostModelRow] = []
    for gf in result.pipeline.filters:
        atoms = plan.filters_on_unit(gf.unit)
        predicted = sum(result.tasks[i - 1] for i in atoms) / env.units[
            gf.unit - 1
        ].power
        per = measured.trace.seconds_by_packet(gf.name)
        samples = [v for packet, v in per.items() if packet >= 0]
        measured_s = sum(samples) / max(len(samples), 1)
        rows.append(
            CostModelRow(
                kind="compute",
                name=gf.name,
                unit=gf.unit,
                detail="+".join(f"f{i}" for i in atoms) or "(forward)",
                predicted=predicted,
                measured=measured_s,
            )
        )
    for j in range(env.m - 1):
        boundary = plan.last_filter_before_link(j + 1)
        predicted_bytes = float(result.volumes[boundary])
        per = measured.link_bytes[j]
        measured_bytes = sum(v for packet, v in per.items() if packet >= 0) / n
        rows.append(
            CostModelRow(
                kind="link",
                name=f"L{j + 1}",
                unit=j + 1,
                detail=f"after f{boundary}" if boundary else "raw input",
                predicted=predicted_bytes,
                measured=measured_bytes,
            )
        )
    return CostModelReport(
        app="?",  # the program AST is anonymous; cost_model_report fills it
        version=measured.version,
        plan=str(plan),
        engine=measured.trace.engine or "?",
        rows=rows,
        backend=result.pipeline.backend,
    )


def cost_model_report(
    app: AppBundle,
    workload: Workload,
    version: str = "Decomp-Comp",
    env: PipelineEnv | None = None,
    options: EngineOptions | None = None,
    objective: str = "total",
    backend: str = "auto",
) -> CostModelReport:
    """Compile, measure (traced), and validate in one call."""
    env = env or cluster_config(1)
    specs, result = _specs_for_version(
        app, workload, version, env, objective, backend=backend
    )
    if result is None:
        raise ValueError(
            f"{version} is hand-written; only compiled versions carry a "
            "cost model to validate"
        )
    measured = measure_specs(
        specs, result, workload, env, version, options=options
    )
    report = validate_cost_model(result, measured)
    report.app = app.name
    return report


def backend_calibration(
    app: AppBundle,
    workload: Workload,
    backends: Sequence[str] = ("scalar", "vector"),
    version: str = "Decomp-Comp",
    env: PipelineEnv | None = None,
    options: EngineOptions | None = None,
) -> dict[str, CostModelReport]:
    """Cost-model calibration per codegen backend: one traced run and
    :func:`validate_cost_model` join per backend.  The per-backend
    ``calibration_factor()`` is what EXPERIMENTS.md tabulates — the scalar
    backend pays per-record interpretation on top of the modeled ops, the
    vector backend executes them as NumPy kernels."""
    return {
        backend: cost_model_report(
            app, workload, version, env=env, options=options, backend=backend
        )
        for backend in backends
    }


def format_results(
    title: str, results: dict[str, VersionTimes], configs: Sequence[str]
) -> str:
    """Figure-style text table."""
    lines = [f"=== {title} ==="]
    header = f"{'version':<16}" + "".join(f"{c:>12}" for c in configs)
    lines.append(header + f"{'bytes(L1)':>14}{'ok':>4}")
    for version, vt in results.items():
        row = f"{version:<16}" + "".join(
            f"{vt.times[c]:>12.4f}" for c in configs
        )
        l1 = vt.link_bytes[0] if vt.link_bytes else 0
        row += f"{l1:>14,}" + f"{'Y' if vt.correct else 'N':>4}"
        lines.append(row)
    return "\n".join(lines)
