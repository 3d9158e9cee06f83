"""Process-based execution engine: true parallelism for filter pipelines.

Runs the same :class:`~repro.datacutter.filters.FilterSpec` pipelines as
:class:`~repro.datacutter.runtime.ThreadedPipeline`, but with one worker
*process* per filter copy, so CPU-bound filters genuinely overlap instead
of serializing behind the GIL.  The moving parts:

* :mod:`~repro.datacutter.mp.transport` — per-edge shared-memory
  segments for large NumPy/bytes leaves, pickle for the rest;
* :mod:`~repro.datacutter.mp.channels` — credit-windowed pipe frames
  between stages (backpressure, coalescing) and the epoch-tagged
  end-of-stream protocol;
* :mod:`~repro.datacutter.mp.worker` — the per-copy worker loop;
* :mod:`~repro.datacutter.mp.supervisor` — sentinel/heartbeat liveness
  watching, crash recovery, and clean teardown.

Workers are started with the ``fork`` start method.  That is a design
choice, not an accident: the compiler's generated filter classes are
created with ``exec`` and filter specs may carry closures, none of which
survive pickling — ``fork`` inherits them by memory image, exactly like
one interpreter does, so *any* pipeline the threaded engine can run, this engine
can run.  On platforms without ``fork`` construction raises a
``PipelineError`` telling the caller to use the threaded engine.

**Worker pool.**  Forking one process per filter copy per run is exactly
the startup cost the paper's long-lived filtering services avoid, so the
pool lives until :meth:`ProcessPipeline.close`: workers are forked on the
first ``run()`` and then loop on a per-worker order channel receiving
*work epochs*.  Each later ``run()`` encodes the freshly bound
:class:`FilterSpec` list (packets, params, widths, routing policy — the
generated filter classes are already in the fork image, anchored by
:mod:`repro.codegen.generated_registry`) **once** into the pool's
:class:`~repro.datacutter.mp.arena.EpochArena`, an anonymous file every
worker inherited through ``fork``, and sends each worker an order of tens
of bytes — ``("epoch", epoch, arena_ref, spec_index, progress, faults)``
— whatever the size of the dataset.  The worker maps the arena
copy-on-write and unpickles its spec around views of that mapping, so
the dataset never enters a pipe and is never copied per worker (see
:mod:`~repro.datacutter.mp.arena` for the layout and the invariants: one
writer between epochs, the file only grows, respawns read the fork image,
the arena dies with its pool).  The epoch id correlates every
end-of-stream sentinel and ``done`` handshake so a straggler from epoch N
cannot pollute epoch N+1.  The supervisor stays up across epochs —
heartbeats, crash respawn, and checkpoint replay all work mid-epoch — and
each edge's shared-memory segments stay mapped and are reused across
epochs, with per-epoch reuse counters reported into the trace.  The pool
*reforks* transparently whenever an epoch cannot be shipped by value — a
different pipeline shape (``shape``), a filter class generated after the
pool was forked (``registry``), a worker that died while idle
(``dead-worker``), or spec contents that do not pickle (``unpicklable:
<exception type>``) — and the ``worker_pool`` trace note says which, as
``refork_reason``, next to the bytes that crossed the order pipes
(``order_bytes``) and the bytes encoded into the arena (``arena_bytes``).
A one-shot run is a pool of one epoch
(:func:`~repro.datacutter.engine.run_pipeline` opens a session, runs,
closes it), and :meth:`~ProcessPipeline.close` is the single teardown:
poison-pill orders, join, then the arena, the pipes and every edge
segment, all released by the parent.

Results, stream statistics, error semantics, and observability mirror the
threaded engine: ``run()`` returns the same :class:`RunResult` shape, a
failing filter copy raises :class:`PipelineError` carrying the original
traceback, and with a trace collector configured every worker buffers its
spans and queue gauges locally and ships them over the control queue for
the supervisor to merge — so process-engine traces are as complete as
threaded ones (see :mod:`repro.datacutter.obs`).
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
from dataclasses import dataclass, field
from queue import Empty
from typing import Any, Sequence

from ..filters import FilterSpec
from ..obs.trace import TraceCollector
from ..recovery.faults import FaultPlan
from ..recovery.policy import RetryPolicy
from ..recovery.replay import CopyProgress, recovery_policy
from ..runtime import PipelineError, RunResult
from .arena import EpochArena
from .channels import ProcessEdge
from .supervisor import Supervisor, WorkerHandle
from .transport import DEFAULT_SHM_MIN_BYTES
from .worker import worker_main

#: the poison pill shipped to the workers at teardown
_EXIT_ORDER = pickle.dumps(("exit",))


def _generated_registry() -> Any:
    """The pickle-anchor module for exec-generated classes.

    Imported lazily: ``repro.codegen`` pulls in the compiler stack, which
    itself imports :mod:`repro.datacutter` — a module-level import here
    would close that cycle during package initialization."""
    from ...codegen import generated_registry

    return generated_registry


@dataclass
class _WorkerPool:
    """One forked generation of workers and their wiring."""

    mpctx: Any
    #: pipeline shape the pool was forked for: ((name, width), ...) — the
    #: edges and worker count are bound to it, so a different shape reforks
    layout: tuple[tuple[str, int], ...]
    workers: list[WorkerHandle]
    #: wid -> [spec, copy_index, in_edge, out_edge, order_recv] — the spec
    #: slot is refreshed every epoch so a respawn forks the current one
    spawn_args: dict[int, list[Any]]
    all_edges: list[ProcessEdge]
    collector: ProcessEdge
    heartbeats: Any
    control: Any
    #: wid -> parent (send) end of the worker's order channel
    orders: dict[int, Any]
    #: wid -> parent copy of the worker-side (recv) end, closed at teardown
    order_recv: dict[int, Any]
    supervisor: Supervisor
    #: where each epoch's spec list is encoded, once, for every worker;
    #: created before the fork so the children inherit its descriptor
    arena: EpochArena
    #: generated-registry attribute names present at fork time: a spec
    #: whose factory was registered later cannot unpickle in the children
    registry_names: frozenset[str] = field(default_factory=frozenset)
    forked_at: float = field(default_factory=time.monotonic)


class ProcessPipeline:
    """Executes units of work with one OS process per filter copy.

    The worker pool outlives each ``run()``: use the engine as a context
    manager, or call :meth:`close`, to join the workers."""

    engine_name = "process"

    def __init__(
        self,
        specs: Sequence[FilterSpec],
        queue_capacity: int = 32,
        shm_min_bytes: int = DEFAULT_SHM_MIN_BYTES,
        timeout: float | None = None,
        death_grace: float = 2.0,
        trace: TraceCollector | None = None,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        post_eos_timeout: float | None = 60.0,
    ) -> None:
        if not specs:
            raise ValueError("pipeline needs at least one filter")
        if queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {queue_capacity} "
                "(capacity 0 would silently disable backpressure)"
            )
        self.specs = list(specs)
        self.queue_capacity = queue_capacity
        self.shm_min_bytes = shm_min_bytes
        self.timeout = timeout
        self.death_grace = death_grace
        self.trace = trace
        self.retry = retry
        self.faults = FaultPlan.coerce(faults)
        self.post_eos_timeout = post_eos_timeout
        self._pool: _WorkerPool | None = None
        self._epoch = 0
        self._forks = 0
        self._reforks = 0
        self._closed = False
        self._close_evt = threading.Event()
        self._run_lock = threading.Lock()

    # ------------------------------------------------------------ lifecycle
    def rebind(self, specs: Sequence[FilterSpec]) -> None:
        """Point the engine at a new placed pipeline for the next run.

        The next ``run()`` ships these specs to the already-forked
        workers as a new work epoch (values only); a pool with a
        different shape — or specs that cannot cross the order channel —
        is reforked transparently."""
        if not specs:
            raise ValueError("pipeline needs at least one filter")
        self.specs = list(specs)

    def close(self) -> None:
        """The single teardown of the worker pool.

        Idempotent.  A close racing an in-flight ``run()`` does not hang
        or leak workers: the in-flight run is failed promptly with a
        structured :class:`PipelineError` (via the supervisor's abort
        hook), its pool is torn down, and only then does close return."""
        self._close_evt.set()
        with self._run_lock:
            self._closed = True
            self._shutdown_pool()

    def __enter__(self) -> "ProcessPipeline":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ run
    def run(self) -> RunResult:
        with self._run_lock:
            return self._run_locked()

    def _run_locked(self) -> RunResult:
        if self._closed or self._close_evt.is_set():
            raise PipelineError(
                "process engine is closed; it cannot run another unit of work"
            )
        try:
            mpctx = multiprocessing.get_context("fork")
        except ValueError as err:  # pragma: no cover - non-POSIX platforms
            raise PipelineError(
                "the process engine requires the 'fork' start method "
                "(generated filter classes are not picklable); "
                "use engine='threaded' on this platform"
            ) from err
        if self.trace is not None:
            self.trace.note(engine=self.engine_name)

        specs = self.specs
        self._epoch += 1
        epoch = self._epoch

        pool = self._pool
        order_msgs: list[bytes] = []
        refork_reason = None
        if pool is not None:
            refork_reason = self._refork_reason(pool, specs)
            if refork_reason is None:
                try:
                    order_msgs = self._pack_orders(pool, specs, epoch)
                except Exception as exc:  # noqa: BLE001 - closures, lambdas, open handles
                    refork_reason = f"unpicklable: {type(exc).__name__}"
            if refork_reason is not None:
                # the pool cannot serve this epoch by value:
                # refork with specs inherited through the fork image
                self._shutdown_pool()
                pool = None
                self._reforks += 1
        if pool is None:
            pool = self._fork_pool(mpctx, specs, epoch)
            self._pool = pool
        else:
            self._begin_epoch(pool, specs, epoch, order_msgs)

        supervisor = pool.supervisor
        try:
            outputs = supervisor.supervise()
        except BaseException as err:
            # supervise() tears the workers down on PipelineError; this
            # guard covers KeyboardInterrupt and friends in the parent
            if not isinstance(err, PipelineError):
                supervisor._teardown()
            self._dispose_failed_pool(pool)
            raise

        result = RunResult(outputs=outputs)
        for edge in pool.all_edges:
            agg = supervisor.stats.get(edge.name)
            result.stream_bytes[edge.name] = agg.bytes if agg else 0
            result.stream_buffers[edge.name] = agg.buffers if agg else 0
            result.stream_by_packet[edge.name] = dict(agg.by_packet) if agg else {}

        # the workers' counters plus the parent's own, as the collector's
        # consumer; every edge resets them when its epoch begins
        counters = dict(supervisor.counters)
        for key, value in pool.collector.counters().items():
            counters[key] = counters.get(key, 0) + value
        frames = counters.pop("frames", 0)
        census = [edge.segments.census() for edge in pool.all_edges]
        shm_pool = {
            **counters,
            "segments": sum(n for n, _ in census),
            "pooled_bytes": sum(nbytes for _, nbytes in census),
        }
        if self.trace is not None:
            if any(shm_pool.values()):
                self.trace.note(shm_pool=shm_pool)
            self.trace.note(
                worker_pool={
                    "epoch": epoch,
                    "forks": self._forks,
                    "reforks": self._reforks,
                    # why this run reforked (None: it did not)
                    "refork_reason": refork_reason,
                    # what crossed the order pipes / went into the arena
                    # for this epoch; both 0 when the specs travelled in
                    # a fork image instead
                    "order_bytes": sum(map(len, order_msgs)),
                    "arena_bytes": pool.arena.nbytes if order_msgs else 0,
                    # pipe frames written this epoch; fewer than buffers
                    # when busy consumers let producers coalesce
                    "frames": frames,
                }
            )
        return result

    # ------------------------------------------------------- pool plumbing
    def _fork_pool(
        self, mpctx: Any, specs: list[FilterSpec], epoch: int
    ) -> _WorkerPool:
        """Fork a fresh worker generation with ``specs`` in its image."""
        edges: list[ProcessEdge] = []
        for k in range(len(specs) - 1):
            edges.append(
                ProcessEdge(
                    mpctx,
                    name=f"{specs[k].name}->{specs[k + 1].name}",
                    n_producers=specs[k].width,
                    n_consumers=specs[k + 1].width,
                    capacity=self.queue_capacity,
                    shm_min_bytes=self.shm_min_bytes,
                )
            )
        collector = ProcessEdge(
            mpctx,
            name=f"{specs[-1].name}->out",
            n_producers=specs[-1].width,
            n_consumers=1,
            capacity=None,  # unbounded: the sink must never block the pipeline
            shm_min_bytes=self.shm_min_bytes,
        )
        all_edges = edges + [collector]
        for edge in all_edges:
            edge.begin_epoch(epoch)

        n_workers = sum(spec.width for spec in specs)
        heartbeats = mpctx.Array("d", n_workers, lock=False)
        control = mpctx.Queue()
        policy = recovery_policy(self.retry, self.faults)

        spawn_args: dict[int, list[Any]] = {}
        orders: dict[int, Any] = {}
        order_recv: dict[int, Any] = {}
        workers: list[WorkerHandle] = []
        worker_id = 0
        for k, spec in enumerate(specs):
            in_edge = edges[k - 1] if k > 0 else None
            out_edge = all_edges[k]
            for copy_index in range(spec.width):
                recv_end, send_end = mpctx.Pipe(duplex=False)
                orders[worker_id] = send_end
                order_recv[worker_id] = recv_end
                spawn_args[worker_id] = [spec, copy_index, in_edge, out_edge, recv_end]
                workers.append(
                    WorkerHandle(
                        process=None,
                        worker_id=worker_id,
                        label=f"{spec.name}#{copy_index}",
                    )
                )
                worker_id += 1

        def spawn(wid: int, progress: CopyProgress | None) -> Any:
            spec, copy_index, in_edge, out_edge, recv_end = pool.spawn_args[wid]
            # fork start method: args (including the unpicklable generated
            # specs and any replay buffers) are inherited, never pickled.
            # Respawns bake the *current* epoch and spec into the fresh
            # image, so a worker restarted mid-epoch N heals epoch N and
            # then serves epoch N+1 like any of its peers.
            process = mpctx.Process(
                target=worker_main,
                args=(
                    wid,
                    spec,
                    copy_index,
                    in_edge,
                    out_edge,
                    control,
                    heartbeats,
                    self.trace is not None,
                    self.faults,
                    progress,
                    recv_end,
                    supervisor.epoch,
                    pool.arena,
                ),
                name=f"{spec.name}#{copy_index}",
                daemon=True,
            )
            process.start()
            return process

        supervisor = Supervisor(
            workers,
            control,
            collector,
            heartbeats,
            timeout=self.timeout,
            death_grace=self.death_grace,
            trace=self.trace,
            retry=policy,
            respawn=spawn,
            post_eos_timeout=self.post_eos_timeout,
        )
        supervisor.abort = self._abort_reason

        pool = _WorkerPool(
            mpctx=mpctx,
            layout=tuple((s.name, s.width) for s in specs),
            workers=workers,
            spawn_args=spawn_args,
            all_edges=all_edges,
            collector=collector,
            heartbeats=heartbeats,
            control=control,
            orders=orders,
            order_recv=order_recv,
            supervisor=supervisor,
            arena=EpochArena(),
            registry_names=frozenset(vars(_generated_registry())),
        )

        supervisor.begin_epoch(epoch)
        for w in workers:
            w.process = spawn(
                w.worker_id, CopyProgress() if policy is not None else None
            )
        self._forks += 1
        return pool

    def _refork_reason(
        self, pool: _WorkerPool, specs: list[FilterSpec]
    ) -> str | None:
        """Why ``pool`` cannot take ``specs`` as a work epoch; None: it can.

        A factory anchored in the generated registry after the pool was
        forked pickles fine in the parent but would fail lookup in the
        children — the fork-time registry snapshot catches that here."""
        if pool.layout != tuple((s.name, s.width) for s in specs):
            return "shape"
        # a worker died while idle (OOM kill, signal)
        if any(
            w.process is None or not w.process.is_alive() for w in pool.workers
        ):
            return "dead-worker"
        registry_name = _generated_registry().__name__
        for spec in specs:
            factory = spec.factory
            if (
                getattr(factory, "__module__", None) == registry_name
                and getattr(factory, "__qualname__", "") not in pool.registry_names
            ):
                return "registry"
        return None

    def _pack_orders(
        self, pool: _WorkerPool, specs: list[FilterSpec], epoch: int
    ) -> list[bytes]:
        """Encode the epoch into the arena, once, and one small order per
        worker naming its spec; raises if anything does not pickle.

        Everything is encoded *before any order is sent*, so an
        unpicklable spec can never leave the pool half-dispatched into an
        epoch, and the arena still holds the previous epoch when it
        raises."""
        arena_ref = pool.arena.store(specs)
        progress = CopyProgress() if pool.supervisor.retry is not None else None
        order_msgs = []
        for spec_index, spec in enumerate(specs):
            for _copy in range(spec.width):
                # the fault plan rides along so chaos config tracks the
                # engine's current value each epoch instead of freezing
                # at whatever the pool was forked with
                order = ("epoch", epoch, arena_ref, spec_index, progress, self.faults)
                order_msgs.append(
                    pickle.dumps(order, protocol=pickle.HIGHEST_PROTOCOL)
                )
        return order_msgs

    def _begin_epoch(
        self,
        pool: _WorkerPool,
        specs: list[FilterSpec],
        epoch: int,
        order_msgs: list[bytes],
    ) -> None:
        """Ship one epoch to an idle pool."""
        # refresh the spec slots so a mid-epoch respawn forks the current
        # bindings, not the ones the pool was originally forked with
        worker_id = 0
        for spec in specs:
            for _copy in range(spec.width):
                pool.spawn_args[worker_id][0] = spec
                worker_id += 1
        # reset parent-side edge state *before* any worker can race ahead
        # into the new epoch
        for edge in pool.all_edges:
            edge.begin_epoch(epoch)
        pool.supervisor.begin_epoch(epoch)
        for wid, send_end in pool.orders.items():
            send_end.send_bytes(order_msgs[wid])

    def _abort_reason(self) -> str | None:
        if self._close_evt.is_set():
            return (
                "pipeline closed while a unit of work was in flight "
                "(EngineSession/SessionPool close raced run())"
            )
        return None

    def _shutdown_pool(self) -> None:
        """Orderly teardown of an idle pool: poison pills, join, reclaim."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for send_end in pool.orders.values():
            try:
                send_end.send_bytes(_EXIT_ORDER)
            except (OSError, ValueError, BrokenPipeError):
                pass  # worker already gone; the join below still reaps it
        for w in pool.workers:
            if w.process is not None:
                w.process.join(timeout=10)
        for w in pool.workers:
            if w.process is not None and w.process.is_alive():
                w.process.terminate()
                w.process.join(timeout=2)
        self._release_pool_ipc(pool)

    def _dispose_failed_pool(self, pool: _WorkerPool) -> None:
        """Drop a pool whose epoch failed (workers already torn down)."""
        if self._pool is pool:
            self._pool = None
        self._release_pool_ipc(pool)

    def _release_pool_ipc(self, pool: _WorkerPool) -> None:
        """Close the pool's descriptors and unlink every edge segment.

        Runs only once no worker of the pool is left, so no frame can still
        name a segment: this is the one place a segment is unlinked."""
        pool.arena.close()
        for send_end in pool.orders.values():
            try:
                send_end.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for recv_end in pool.order_recv.values():
            try:
                recv_end.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for edge in pool.all_edges:
            edge.close()
        # drain and release the control queue's feeder resources
        while True:
            try:
                pool.control.get_nowait()
            except (Empty, OSError, ValueError, EOFError):
                break
        try:
            pool.control.close()
            pool.control.join_thread()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
