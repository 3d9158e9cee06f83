"""Warm pipeline sessions: plan cache + reusable engine, per server.

:class:`SessionPool` is the execution half of the server: given a
:class:`~repro.serve.requests.ServicePlan` it

1. compiles through the :class:`~repro.serve.plancache.PlanCache`
   (a hit skips the whole compiler stack),
2. binds the request's packets/params into placed filter specs
   (``pipeline.specs`` — cheap: fresh ``FilterSpec`` objects over the
   cached generated filter classes),
3. executes on the warm :class:`~repro.datacutter.engine.EngineSession`,
   which reuses one engine object across every request the server ever
   serves (``Engine.rebind``) instead of reconstructing it per run.  On
   the process engine that engine owns a worker pool: the filter
   processes are forked once, on the first request, and every later
   request ships its bound specs to them as a fresh work epoch over
   per-worker control channels — no fork, no re-import, warm
   shared-memory segments.

Per-batch recovery comes for free: whatever ``RetryPolicy`` the server's
:class:`~repro.datacutter.engine.EngineOptions` carries is applied by the
engine to every execution, so a transient filter failure retries inside
the batch rather than failing the client.  :meth:`SessionPool.close` is
a real lifecycle event — it delivers the pool's poison pill and joins
the workers — and a close racing an in-flight request fails that
request with a structured error instead of hanging or leaking
processes."""

from __future__ import annotations

from ..datacutter.engine import EngineOptions, EngineSession
from ..datacutter.runtime import RunResult
from .plancache import PlanCache
from .requests import ServicePlan


class SessionPool:
    """One warm engine + one plan cache serving every request.

    Not thread-safe by design: the server's single dispatcher thread owns
    it (parallelism lives *inside* the pipeline, across its filter
    copies, not across concurrent engine runs)."""

    def __init__(
        self,
        engine_options: EngineOptions | None = None,
        cache: PlanCache | None = None,
    ) -> None:
        self.engine_options = (
            engine_options if engine_options is not None else EngineOptions()
        )
        self.cache = cache if cache is not None else PlanCache()
        self.session = EngineSession(self.engine_options)

    def execute(self, plan: ServicePlan) -> tuple[RunResult, bool]:
        """Answer one request group; returns (run result, plan-cache hit)."""
        result, hit = self.cache.compile(
            plan.source, plan.registry, plan.options
        )
        specs = result.pipeline.specs(plan.packets, plan.params, plan.widths)
        return self.session.run(specs), hit

    def close(self) -> None:
        self.session.close()


def oneshot(plan: ServicePlan, engine_options: EngineOptions | None = None):
    """Answer one plan the pre-serving way: fresh compile, fresh engine.

    The differential baseline for tests, ``--verify``, and the throughput
    benchmark — a served response is correct iff it is byte-identical to
    this."""
    from ..core.compiler import compile_source
    from ..datacutter.engine import run_pipeline

    result = compile_source(plan.source, plan.registry, plan.options)
    specs = result.pipeline.specs(plan.packets, plan.params, plan.widths)
    run = run_pipeline(specs, options=engine_options)
    return plan.extract(run.payloads)
