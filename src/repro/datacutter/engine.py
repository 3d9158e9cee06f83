"""Engine selection and the consolidated run API.

Every execution engine runs the same placed :class:`FilterSpec` pipelines
and returns the same :class:`RunResult`; they differ only in *where* the
filter copies run:

* ``"threaded"`` — :class:`~repro.datacutter.runtime.ThreadedPipeline`:
  one thread per copy.  Cheap to start, shares memory freely, but
  CPU-bound filters serialize behind the GIL — use it for correctness
  runs and I/O-bound filters.
* ``"process"`` — :class:`~repro.datacutter.mp.ProcessPipeline`: one
  process per copy with shared-memory buffer transport.  True parallelism
  for CPU-bound pipelines at the cost of process startup and one
  copy-in/copy-out per large buffer.

Two objects configure and run everything: :class:`EngineOptions` says
how, an :class:`EngineSession` owns the engine across units of work::

    with EngineSession(EngineOptions(engine="process")) as session:
        for specs in work:
            session.run(specs)

:func:`run_pipeline` is a session of one unit of work, so a one-shot run
and a served request go through the same lifecycle: an engine lives
until its ``close()``.

The :data:`ENGINES` registry is open so later substrates (multi-host
transport, work stealing) plug in without touching call sites; a factory
takes ``(specs, options)`` and returns an :class:`Engine`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from .filters import FilterSpec
from .mp.transport import DEFAULT_SHM_MIN_BYTES
from .obs.trace import TraceCollector
from .recovery.faults import FaultPlan, FaultSpec
from .recovery.policy import RetryPolicy
from .runtime import RunResult, ThreadedPipeline


@runtime_checkable
class Engine(Protocol):
    """An execution substrate for placed filter pipelines."""

    specs: list[FilterSpec]

    def run(self) -> RunResult:  # pragma: no cover - protocol
        ...

    def rebind(self, specs: Sequence[FilterSpec]) -> None:  # pragma: no cover
        ...

    def close(self) -> None:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True, slots=True)
class EngineOptions:
    """Everything that configures one pipeline run, in one place.

    Engine-specific knobs are simply ignored by the other engine
    (``join_timeout`` is threaded-only; ``timeout``, ``shm_min_bytes``
    and ``death_grace`` belong to the process supervisor), so one options
    object can drive the same pipeline on either engine — which is what
    lets tracing and measurement work identically on both.
    """

    #: execution substrate: a key of :data:`ENGINES`
    engine: str = "threaded"
    #: per-consumer stream queue bound (the backpressure window)
    queue_capacity: int = 32
    #: threaded engine: seconds to wait for filter threads before
    #: declaring the pipeline stuck; process engine: post-end-of-stream
    #: completion deadline (how long workers may take to hand in 'done'
    #: after the last output arrived)
    join_timeout: float = 60.0
    #: process engine: optional wall-clock cap enforced by the supervisor
    timeout: float | None = None
    #: process engine: payload leaves at or above this ride shared memory
    shm_min_bytes: int = DEFAULT_SHM_MIN_BYTES
    #: process engine: grace seconds between a worker dying silently and
    #: the run being failed
    death_grace: float = 2.0
    #: observability sink fed by the engine (see repro.datacutter.obs);
    #: None disables tracing
    trace: TraceCollector | None = None
    #: packet-granularity fault tolerance (repro.datacutter.recovery);
    #: None — the default — keeps the legacy no-recovery fast path
    retry: RetryPolicy | None = None
    #: deterministic fault injection for chaos testing; a FaultPlan or a
    #: plain iterable of FaultSpec (normalized here); None disables
    faults: FaultPlan | Sequence[FaultSpec] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.engine, str) or not self.engine:
            raise ValueError("engine must be a non-empty engine name")
        if self.queue_capacity < 1:
            # queue.Queue(0) would silently mean *unbounded*, removing all
            # backpressure — reject it loudly instead
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity} "
                "(capacity 0 would silently disable backpressure)"
            )
        if self.join_timeout <= 0:
            # a non-positive join timeout declares every pipeline stuck on
            # arrival (threaded) or fails the post-EOS handshake instantly
            # (process) — never what the caller meant
            raise ValueError(
                f"join_timeout must be > 0, got {self.join_timeout}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(
                f"timeout must be > 0 or None (no wall-clock cap), "
                f"got {self.timeout}"
            )
        if self.death_grace < 0:
            raise ValueError(
                f"death_grace must be >= 0, got {self.death_grace}"
            )
        if self.shm_min_bytes < 0:
            raise ValueError(
                f"shm_min_bytes must be >= 0, got {self.shm_min_bytes}"
            )
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy or None, got {self.retry!r}"
            )
        object.__setattr__(self, "faults", FaultPlan.coerce(self.faults))

    def replace(self, **changes: Any) -> "EngineOptions":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)


def _make_threaded(specs: Sequence[FilterSpec], opts: EngineOptions) -> Engine:
    return ThreadedPipeline(
        specs,
        queue_capacity=opts.queue_capacity,
        join_timeout=opts.join_timeout,
        trace=opts.trace,
        retry=opts.retry,
        faults=opts.faults,
    )


def _make_process(specs: Sequence[FilterSpec], opts: EngineOptions) -> Engine:
    from .mp.engine import ProcessPipeline  # deferred: keeps import light

    return ProcessPipeline(
        specs,
        queue_capacity=opts.queue_capacity,
        shm_min_bytes=opts.shm_min_bytes,
        timeout=opts.timeout,
        death_grace=opts.death_grace,
        trace=opts.trace,
        retry=opts.retry,
        faults=opts.faults,
        post_eos_timeout=opts.join_timeout,
    )


#: engine name -> factory(specs, options) -> Engine
ENGINES: dict[str, Callable[[Sequence[FilterSpec], EngineOptions], Engine]] = {
    "threaded": _make_threaded,
    "process": _make_process,
}


def make_engine(
    specs: Sequence[FilterSpec], options: EngineOptions | None = None
) -> Engine:
    """Instantiate the configured engine over ``specs``; the caller owns
    it and must ``close()`` it (or let an :class:`EngineSession` do so)."""
    opts = options if options is not None else EngineOptions()
    try:
        factory = ENGINES[opts.engine]
    except KeyError:
        known = ", ".join(sorted(ENGINES))
        # `from None`: the KeyError is an implementation detail of the
        # registry lookup, not context the caller can use
        raise ValueError(
            f"unknown engine {opts.engine!r}; known engines: {known}"
        ) from None
    return factory(specs, opts)


def run_pipeline(
    specs: Sequence[FilterSpec], options: EngineOptions | None = None
) -> RunResult:
    """Run one unit of work on a fresh engine and tear it down (the main
    one-shot entry point; the default ``EngineOptions()`` runs threaded)."""
    with EngineSession(options) as session:
        return session.run(specs)


class EngineSession:
    """An engine reused across units of work, torn down by :meth:`close`.

    The session constructs the engine on first use and *rebinds* it to
    each new spec list (``Engine.rebind``), keeping the engine-level
    scaffolding — validated options, retry/fault plumbing, transport
    configuration — warm across runs.  On the process engine that
    includes the worker pool: filter processes are forked on the first
    run and then serve every later unit of work as a fresh *work epoch*
    over per-worker control channels — no fork, no re-import, warm
    shared-memory segments.  :func:`run_pipeline` is a session of one
    epoch.

    :meth:`close` is therefore a real lifecycle event: it delivers the
    poison pill to the workers, joins them, and tears down the
    shared-memory segments.  A ``close()`` racing an in-flight ``run()``
    does not hang or leak workers — the engine fails that run with a
    structured :class:`~repro.datacutter.runtime.PipelineError` and then
    tears down; once closed, further ``run()`` calls raise.

    Not thread-safe beyond that close race: the serving dispatcher owns
    one session and feeds it batches sequentially (pipeline-internal
    parallelism is the engine's job, not the session's).
    """

    def __init__(self, options: EngineOptions | None = None) -> None:
        self.options = options if options is not None else EngineOptions()
        self._engine: Engine | None = None
        self._closed = False
        #: units of work executed through this session
        self.runs = 0

    def run(self, specs: Sequence[FilterSpec]) -> RunResult:
        """Execute one unit of work over ``specs`` on the warm engine."""
        if self._closed:
            raise RuntimeError(
                "EngineSession is closed; it cannot run another unit of work"
            )
        engine = self._engine
        if engine is None:
            engine = self._engine = make_engine(specs, self.options)
        else:
            engine.rebind(specs)
        self.runs += 1
        return engine.run()

    def close(self) -> None:
        """Tear down the engine: for the process engine, poison-pill the
        worker control channels, join the workers, and release the
        shared-memory segments.  Safe to call concurrently with an
        in-flight :meth:`run` — that run fails with a structured error
        instead of hanging — and idempotent thereafter."""
        self._closed = True
        engine, self._engine = self._engine, None
        if engine is not None:
            engine.close()

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
