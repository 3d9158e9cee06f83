"""The compilation driver: source text in, placed filter pipeline out.

Phases (paper §4-§5)::

    parse -> typecheck -> boundary selection (+ loop fission)
          -> Gen/Cons + ReqComm (one pass)        [§4.2, Fig 2]
          -> op counts + volumes under a profile   [§4.3]
          -> DP decomposition                      [§4.4, Fig 3]
          -> per-unit filter code generation       [§5]

:func:`compile_source` runs the full stack; :class:`CompilationResult`
exposes every intermediate product so tests, benchmarks, and the
experiment harness can interrogate any stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - the runtime dependency points the
    # other way (serve imports the compiler); this is typing only
    from ..serve.plancache import PlanCacheProtocol

from ..analysis.boundaries import Boundary, FilterChain, build_filter_chain
from ..analysis.gencons import GenConsAnalyzer
from ..analysis.opcount import OpCounter
from ..analysis.reqcomm import CommAnalysis, VolumeModel, analyze_communication
from ..analysis.workload import WorkloadProfile
from ..codegen.filtergen import CompiledPipeline, FilterGenerator, RuntimeConfig
from ..codegen.vectorize import resolve_backend
from ..cost.environment import PipelineEnv
from ..cost.model import DEFAULT_WEIGHTS, OpWeights
from ..decompose.brute import brute_force
from ..decompose.dp import decompose_dp, decompose_dp_bottleneck
from ..decompose.plan import DecompositionPlan, DecompositionProblem
from ..lang import IntrinsicRegistry, parse
from ..lang.typecheck import CheckedProgram, check


@dataclass(slots=True)
class CompileOptions:
    """Knobs of one compilation."""

    env: PipelineEnv
    profile: WorkloadProfile = field(default_factory=WorkloadProfile)
    weights: OpWeights = field(default_factory=lambda: DEFAULT_WEIGHTS)
    #: 'fill' = the published Fig 3 objective; 'total' = full §4.3 formula
    #: with transparent-copy widths (our extension); 'brute' = exhaustive
    objective: str = "total"
    charge_raw_input: bool = True
    size_hints: dict[str, object] = field(default_factory=dict)
    runtime_classes: dict[str, type] = field(default_factory=dict)
    #: select a specific PipelinedLoop by enclosing method name
    method: str | None = None
    use_widths: bool = True
    #: 'Class.method' -> (profile -> OpCount) cost summaries for methods
    #: backed by native runtime classes (reduction updates)
    method_costs: dict[str, object] = field(default_factory=dict)
    #: codegen backend for element loops: "scalar" (the paper's per-record
    #: shape), "vector" (columnar NumPy, repro.codegen.vectorize), or
    #: "auto" (consult the REPRO_BACKEND environment variable)
    backend: str = "auto"

    def replace(self, **changes: object) -> "CompileOptions":
        import dataclasses

        return dataclasses.replace(self, **changes)


@dataclass(slots=True)
class CompilationResult:
    """Every intermediate product of one compilation."""

    checked: CheckedProgram
    chain: FilterChain
    comm: CommAnalysis
    tasks: list[float]  # weighted ops per packet, f_1..f_{n+1}
    volumes: list[float]  # bytes: raw, b_1..b_n, final
    problem: DecompositionProblem
    plan: DecompositionPlan
    plan_cost: float
    pipeline: CompiledPipeline
    options: CompileOptions

    def execute(self, packets, params: dict | None = None, widths=None, options=None):
        """Run the compiled pipeline once on an execution engine.

        ``options`` is an :class:`~repro.datacutter.engine.EngineOptions`
        (default ``EngineOptions()``: the threaded engine).  Returns the
        engine's :class:`~repro.datacutter.runtime.RunResult`."""
        from ..datacutter.engine import run_pipeline

        specs = self.pipeline.specs(packets, params, widths)
        return run_pipeline(specs, options)

    def report(self) -> str:
        """Human-readable compilation report (atoms, volumes, plan)."""
        lines = ["=== compilation report ==="]
        lines.append(f"atoms: {len(self.chain.atoms)}")
        for atom, task in zip(self.chain.atoms, self.tasks):
            lines.append(f"  f{atom.index:<2} {atom.label:<24} ops/packet={task:,.0f}")
        lines.append(f"volumes (bytes/packet): raw={self.volumes[0]:,.0f}")
        for b in self.chain.boundaries:
            lines.append(f"  b{b.index:<2} {b.label:<40} {self.volumes[b.index]:,.0f}")
        lines.append(f"  final: {self.volumes[-1]:,.0f}")
        lines.append(f"plan: {self.plan}  (cost {self.plan_cost:.6f}s)")
        return "\n".join(lines)


def _pick_loop(checked: CheckedProgram, method: str | None):
    loops = checked.pipelined_loops()
    if not loops:
        raise ValueError("program has no PipelinedLoop")
    if method is None:
        return loops[0]
    for meth, loop in loops:
        if meth.name == method:
            return meth, loop
    raise ValueError(f"no PipelinedLoop in a method named '{method}'")


def analyze_source(
    source: str,
    registry: IntrinsicRegistry | None = None,
    method: str | None = None,
) -> tuple[CheckedProgram, FilterChain, CommAnalysis]:
    """Frontend + analyses only (no decomposition/codegen)."""
    checked = check(parse(source), registry)
    meth, loop = _pick_loop(checked, method)
    chain = build_filter_chain(checked, meth, loop)
    comm = analyze_communication(chain, GenConsAnalyzer(checked))
    return checked, chain, comm


def compute_problem(
    chain: FilterChain,
    comm: CommAnalysis,
    options: CompileOptions,
) -> tuple[list[float], list[float], DecompositionProblem]:
    """Price the chain: per-atom weighted ops and per-boundary volumes."""
    profile = options.profile
    counter = OpCounter(chain.checked, method_costs=dict(options.method_costs))
    tasks = [
        options.weights.total(counter.atom_ops(atom, profile))
        for atom in chain.atoms
    ]
    vm = VolumeModel(chain.checked, size_hints=dict(options.size_hints))
    # raw input volume: one more backward step (ReqComm(b_0))
    facts0 = comm.atom_facts[0]
    first = comm.reqcomm[0] if comm.reqcomm else comm.live_out
    b0 = first.difference_must(facts0.gen).union(facts0.cons)
    pseudo = Boundary(index=0, before=chain.atoms[0], after=chain.atoms[0])
    raw_vol = vm.boundary_volume(chain, pseudo, b0, profile)
    vols = [raw_vol]
    for boundary, req in zip(chain.boundaries, comm.reqcomm):
        vols.append(vm.boundary_volume(chain, boundary, req, profile))
    vols.append(vm.final_output_volume(comm, profile))
    problem = DecompositionProblem(
        tasks=tasks,
        vols=vols,
        env=options.env,
        num_packets=profile.num_packets,
        weights=options.weights,
        use_widths=options.use_widths,
    )
    return tasks, vols, problem


def decompose(
    problem: DecompositionProblem, options: CompileOptions
) -> tuple[DecompositionPlan, float]:
    if options.objective == "fill":
        result = decompose_dp(problem, charge_raw_input=options.charge_raw_input)
        assert result.plan is not None
        return result.plan, result.cost
    if options.objective == "total":
        result = decompose_dp_bottleneck(problem)
        assert result.plan is not None
        return result.plan, result.cost
    if options.objective == "brute":
        cost, plan = brute_force(problem, "total")
        assert plan is not None
        return plan, cost
    raise ValueError(f"unknown objective {options.objective!r}")


def default_plan(chain: FilterChain, m: int) -> DecompositionPlan:
    """The paper's Default placement: data nodes only read and forward, all
    processing happens on the compute stage, results are copied onward."""
    n1 = len(chain.atoms)
    compute_unit = 2 if m >= 2 else 1
    assignment = tuple([compute_unit] * n1)
    return DecompositionPlan(assignment, m)


def source_only_plan(chain: FilterChain, m: int) -> DecompositionPlan:
    """Everything on the data host (the 'download nothing' extreme)."""
    return DecompositionPlan(tuple([1] * len(chain.atoms)), m)


def compile_source(
    source: str,
    registry: IntrinsicRegistry | None = None,
    options: CompileOptions | None = None,
    intrinsic_impls: dict[str, Callable] | None = None,
    plan: DecompositionPlan | None = None,
    cache: "PlanCacheProtocol | None" = None,
) -> CompilationResult:
    """Full compilation.  ``plan`` overrides the DP decision (used for the
    Default baselines and for ablations).

    ``cache`` plugs in a compilation plan cache — anything satisfying the
    exported :class:`~repro.serve.plancache.PlanCacheProtocol`
    (``key_for`` / ``get`` / ``put``; the stock implementation is
    :class:`~repro.serve.plancache.PlanCache`): the key covers the source
    text, the registry, every compile-relevant option (environment,
    profile, objective, resolved codegen backend, ...) and the plan
    override, so a hit skips parse→analysis→decompose→codegen entirely and
    returns the previously built :class:`CompilationResult`.  Cached
    results are shared — callers must not mutate them (executing one is
    safe: ``pipeline.specs`` builds fresh filter instances per run)."""
    if options is None:
        raise ValueError("CompileOptions (with a PipelineEnv) are required")
    key = None
    if cache is not None:
        key = cache.key_for(
            source, registry, options, plan=plan, intrinsic_impls=intrinsic_impls
        )
        hit = cache.get(key)
        if hit is not None:
            return hit
    checked, chain, comm = analyze_source(source, registry, options.method)
    tasks, vols, problem = compute_problem(chain, comm, options)
    if plan is None:
        plan, cost = decompose(problem, options)
    else:
        cost = problem.evaluate(plan)
    impls = dict(intrinsic_impls or {})
    batch_impls: dict[str, Callable] = {}
    if registry is not None:
        for intr in registry:
            impls.setdefault(intr.name, intr.fn)
            if intr.batch_fn is not None:
                batch_impls.setdefault(intr.name, intr.batch_fn)
    config = RuntimeConfig(
        intrinsics=impls,
        runtime_classes=dict(options.runtime_classes),
        size_hints=dict(options.size_hints),
        batch_intrinsics=batch_impls,
        backend=resolve_backend(options.backend),
    )
    pipeline = FilterGenerator(chain, comm, plan, config).generate()
    result = CompilationResult(
        checked=checked,
        chain=chain,
        comm=comm,
        tasks=tasks,
        volumes=vols,
        problem=problem,
        plan=plan,
        plan_cost=cost,
        pipeline=pipeline,
        options=options,
    )
    if cache is not None and key is not None:
        cache.put(key, result)
    return result
