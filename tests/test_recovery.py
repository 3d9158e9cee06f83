"""Packet-granularity fault tolerance: injection, replay, checkpoints.

The heart of this file is the cross-engine fault matrix: every
combination of engine x fault kind x pipeline stage x width must heal —
an injected failure of one filter copy completes the run with outputs
identical to the fault-free run, including reduction state (no packet
lost, none double-counted).  Around it: retry-budget exhaustion, stall
and heartbeat diagnostics, checkpoint semantics, compiled-application
recovery, and regression tests for the satellite fixes that rode along
(broadcast queue tracing, generate-span ownership, round-robin reset,
stream capacity validation, the post-EOS completion deadline).
"""

import time

import pytest

from repro.__main__ import _canonical_outputs
from repro.datacutter import (
    Broadcast,
    Buffer,
    ByPacket,
    CollectorStream,
    EngineOptions,
    FaultPlan,
    FaultSpec,
    Filter,
    FilterSpec,
    LogicalStream,
    PipelineError,
    RetryPolicy,
    RoundRobin,
    SourceFilter,
    Trace,
    run_pipeline,
)
from repro.datacutter.recovery import (
    CheckpointError,
    FaultInjector,
    InjectedCrash,
    clone_state,
    freeze_state,
    restore_state,
    snapshot_state,
)

PROC_TIMEOUT = 120.0
#: fast recovery knobs for tests: no jitter, token backoff, short grace
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.01, jitter=0.0)


class CountingSource(SourceFilter):
    """Yields 0..n-1 and tracks its own reduction state (sum of owned)."""

    def init(self, ctx):
        self.owned_sum = 0

    def generate(self, ctx):
        n = ctx.params.get("n", 10)
        for i in range(n):
            if i % ctx.n_copies == ctx.copy_index:
                self.owned_sum += i
            yield i


class Doubler(Filter):
    def process(self, buf, ctx):
        ctx.write(buf.payload * 2, buf.packet)


class SummingSink(Filter):
    """Reduction sink: the recovered run must neither lose a packet nor
    fold one in twice."""

    def init(self, ctx):
        self.total = 0
        self.count = 0

    def process(self, buf, ctx):
        self.total += buf.payload
        self.count += 1

    def finalize(self, ctx):
        ctx.write(("total", self.total, self.count), -2)


def make_specs(width: int, n: int = 10):
    # ByPacket pins src->mid routing so a fault aimed at mid copy c and
    # packet k deterministically fires (RoundRobin across two concurrent
    # producer copies would make the packet->copy mapping racy)
    return [
        FilterSpec(
            "src",
            CountingSource,
            width=width,
            out_policy=ByPacket(),
            params={"n": n},
        ),
        FilterSpec("mid", Doubler, width=width),
        FilterSpec("sink", SummingSink, width=1),
    ]


def options_for(engine: str, **overrides) -> EngineOptions:
    extra = {"timeout": PROC_TIMEOUT, "death_grace": 0.3} if engine == "process" else {}
    extra.update(overrides)
    return EngineOptions(engine=engine, **extra)


# ---------------------------------------------------------------------------
# the cross-engine fault matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["threaded", "process"])
@pytest.mark.parametrize("kind", ["exception", "crash", "none"])
@pytest.mark.parametrize("stage", ["src", "mid", "sink"])
@pytest.mark.parametrize("width", [1, 2])
def test_injected_fault_heals(engine, kind, stage, width):
    copy = width - 1 if stage != "sink" else 0
    # source faults key on owned packet index; consumers on the routed
    # packet — packet 0 reaches copy 0, so pin the fault accordingly
    packet = copy if stage == "src" else 0
    target_copy = copy if stage == "src" else 0

    baseline = run_pipeline(make_specs(width), options_for(engine))
    assert baseline.payloads, "baseline produced no output"

    trace = Trace()
    faults = (
        None
        if kind == "none"
        else [FaultSpec(filter=stage, kind=kind, copy=target_copy, packet=packet)]
    )
    faulted = run_pipeline(
        make_specs(width),
        options_for(engine, trace=trace, retry=FAST_RETRY, faults=faults),
    )
    assert _canonical_outputs(faulted.outputs) == _canonical_outputs(
        baseline.outputs
    )
    if kind == "none":
        # recovery on with nothing to recover: the same bytes on every
        # stream as the default path, and no restart
        assert_no_fault_parity(faulted, baseline, trace)
        return
    restarts = trace.restarts(stage)
    assert len(restarts) == 1
    assert restarts[0].phase == "restart"


def assert_no_fault_parity(recovered, baseline, trace):
    assert recovered.stream_bytes == baseline.stream_bytes
    assert recovered.stream_buffers == baseline.stream_buffers
    assert trace.restarts() == []


@pytest.mark.parametrize("engine", ["threaded", "process"])
def test_stall_fault_completes(engine):
    baseline = run_pipeline(make_specs(2), options_for(engine))
    faulted = run_pipeline(
        make_specs(2),
        options_for(
            engine,
            retry=FAST_RETRY,
            faults=[FaultSpec(filter="mid", kind="stall", copy=0, packet=0,
                              stall_seconds=0.2)],
        ),
    )
    assert _canonical_outputs(faulted.outputs) == _canonical_outputs(
        baseline.outputs
    )


@pytest.mark.parametrize("engine", ["threaded", "process"])
def test_retry_budget_exhaustion_names_copy_and_attempts(engine):
    # times=5 >= budget 2: the copy can never succeed
    with pytest.raises(PipelineError, match=r"mid#0 .*after 2 attempt\(s\)"):
        run_pipeline(
            make_specs(1),
            options_for(
                engine,
                retry=RetryPolicy(max_attempts=2, backoff_base=0.01, jitter=0.0),
                faults=[
                    FaultSpec(filter="mid", kind="exception", copy=0, packet=0,
                              times=5)
                ],
            ),
        )


@pytest.mark.parametrize("engine", ["threaded", "process"])
def test_fault_without_retry_fails_like_a_bug(engine):
    # a fault plan alone injects but gives no budget: first failure final
    with pytest.raises(PipelineError, match="mid#0"):
        run_pipeline(
            make_specs(1),
            options_for(
                engine,
                faults=[FaultSpec(filter="mid", kind="exception", copy=0, packet=0)],
            ),
        )


def test_per_filter_budget_override():
    policy = RetryPolicy(max_attempts=1, per_filter={"mid": 3},
                         backoff_base=0.01, jitter=0.0)
    baseline = run_pipeline(make_specs(1), EngineOptions())
    faulted = run_pipeline(
        make_specs(1),
        EngineOptions(
            retry=policy,
            faults=[FaultSpec(filter="mid", kind="exception", copy=0, packet=2)],
        ),
    )
    assert _canonical_outputs(faulted.outputs) == _canonical_outputs(
        baseline.outputs
    )


def test_drop_heartbeat_named_in_timeout_diagnostic():
    # a worker that stops heartbeating and then wedges: the wall-clock
    # timeout fires and the stalest-heartbeat diagnostic must name it
    with pytest.raises(PipelineError, match=r"stalest heartbeat: mid#0"):
        run_pipeline(
            make_specs(1, n=6),
            EngineOptions(
                engine="process",
                timeout=2.0,
                death_grace=0.3,
                faults=[
                    FaultSpec(filter="mid", kind="drop_heartbeat", copy=0, packet=0),
                    FaultSpec(filter="mid", kind="stall", copy=0, packet=2,
                              stall_seconds=30.0),
                ],
            ),
        )


# ---------------------------------------------------------------------------
# compiled applications recover too (generated filters, reduction objects)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["threaded", "process"])
def test_compiled_app_crash_recovery(engine):
    from repro.apps import make_knn_app
    from repro.cost.environment import cluster_config
    from repro.experiments.harness import _specs_for_version

    app = make_knn_app()
    workload = app.make_workload(num_packets=6, n_points=5_000)
    env = cluster_config(1)
    specs, _ = _specs_for_version(app, workload, "Decomp-Comp", env)
    baseline = run_pipeline(specs, options_for(engine))

    # no fault: a retry policy alone changes nothing the run produces
    trace = Trace()
    unfaulted = run_pipeline(
        specs, options_for(engine, trace=trace, retry=RetryPolicy())
    )
    assert _canonical_outputs(unfaulted.outputs) == _canonical_outputs(
        baseline.outputs
    )
    assert_no_fault_parity(unfaulted, baseline, trace)

    target = specs[len(specs) // 2].name
    trace = Trace()
    faulted = run_pipeline(
        specs,
        options_for(
            engine,
            trace=trace,
            retry=FAST_RETRY,
            faults=[FaultSpec(filter=target, kind="crash", copy=0, packet=0)],
        ),
    )
    assert _canonical_outputs(faulted.outputs) == _canonical_outputs(
        baseline.outputs
    )
    assert len(trace.restarts(target)) == 1
    # the recovered final answer still matches the sequential oracle
    assert workload.check(faulted.payloads[-1], workload.oracle())


# ---------------------------------------------------------------------------
# fault recovery on a resident worker pool
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["exception", "crash"])
@pytest.mark.parametrize("stage", ["src", "mid", "sink"])
def test_resident_pool_fault_heals_and_next_epoch_clean(kind, stage):
    """Crash/fail a resident worker mid-epoch N: respawn + checkpoint
    replay heal epoch N byte-identically, the respawned worker rejoins
    the pool (no refork), and epoch N+1 runs clean on it."""
    from repro.datacutter.engine import EngineSession

    baseline = run_pipeline(make_specs(2), options_for("process"))
    trace = Trace()
    opts = options_for(
        "process",
        trace=trace,
        retry=FAST_RETRY,
        faults=[FaultSpec(filter=stage, kind=kind, copy=0, packet=0)],
    )
    with EngineSession(opts) as session:
        faulted = session.run(make_specs(2))
        assert _canonical_outputs(faulted.outputs) == _canonical_outputs(
            baseline.outputs
        )
        assert len(trace.restarts(stage)) == 1
        engine = session._engine
        assert engine._forks == 1

        # epoch N+1: drop the fault plan — the next epoch order ships the
        # engine's *current* chaos config, so the healed pool runs clean
        engine.faults = None
        clean = session.run(make_specs(2))
        assert _canonical_outputs(clean.outputs) == _canonical_outputs(
            baseline.outputs
        )
        assert engine._forks == 1, "healed pool reforked instead of reusing"
        assert len(trace.restarts(stage)) == 1, "clean epoch restarted a worker"


def test_resident_pool_refires_fault_each_epoch_like_fork_per_run():
    """Parity: with the fault plan left in place, a resident pool behaves
    exactly like fork-per-run — the fault fires (and heals) every unit of
    work, not just the first."""
    from repro.datacutter.engine import EngineSession

    baseline = run_pipeline(make_specs(2), options_for("process"))
    trace = Trace()
    opts = options_for(
        "process",
        trace=trace,
        retry=FAST_RETRY,
        faults=[FaultSpec(filter="mid", kind="crash", copy=0, packet=0)],
    )
    with EngineSession(opts) as session:
        for expected_restarts in (1, 2):
            run = session.run(make_specs(2))
            assert _canonical_outputs(run.outputs) == _canonical_outputs(
                baseline.outputs
            )
            assert len(trace.restarts("mid")) == expected_restarts
        assert session._engine._forks == 1


# ---------------------------------------------------------------------------
# recovery building blocks
# ---------------------------------------------------------------------------


def test_fault_spec_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec(filter="x", kind="meteor")
    with pytest.raises(ValueError, match="times"):
        FaultSpec(filter="x", times=0)
    with pytest.raises(ValueError, match="stall_seconds"):
        FaultSpec(filter="x", stall_seconds=-1)


def test_fault_plan_coercion():
    assert FaultPlan.coerce(None) is None
    assert FaultPlan.coerce([]) is None
    assert FaultPlan.coerce(FaultPlan()) is None
    plan = FaultPlan.coerce([FaultSpec(filter="a")])
    assert isinstance(plan, FaultPlan) and len(plan.faults) == 1
    with pytest.raises(TypeError):
        FaultPlan.coerce(["not-a-fault"])
    # EngineOptions normalizes through the same path
    opts = EngineOptions(faults=[FaultSpec(filter="a")])
    assert isinstance(opts.faults, FaultPlan)
    assert EngineOptions().faults is None


def test_injector_attempt_gating():
    faults = [FaultSpec(filter="f", kind="crash", packet=3, times=1)]
    with pytest.raises(InjectedCrash):
        FaultInjector(faults, attempt=0).on_packet(3)
    # attempt 1 is past times=1: the restarted copy runs clean
    FaultInjector(faults, attempt=1).on_packet(3)
    # other packets never fire
    FaultInjector(faults, attempt=0).on_packet(2)


def test_retry_policy_validation_and_backoff():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=2.0)
    with pytest.raises(ValueError):
        RetryPolicy(per_filter={"x": 0})
    policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3,
                         jitter=0.0)
    assert policy.backoff_for(1) == pytest.approx(0.1)
    assert policy.backoff_for(2) == pytest.approx(0.2)
    assert policy.backoff_for(3) == pytest.approx(0.3)  # capped
    assert policy.attempts_for("anything") == 3
    assert RetryPolicy(per_filter={"a": 7}).attempts_for("a") == 7


def test_checkpoint_roundtrip_and_param_exclusion():
    class Acc(Filter):
        pass

    class Ctx:
        params = {"big": "dataset"}

    acc, ctx = Acc(), Ctx()
    acc.total = 41
    acc._params = ctx.params  # identical object: excluded from snapshots
    state = snapshot_state(acc, ctx)
    assert state == {"total": 41}
    acc.total = 999
    restore_state(acc, clone_state(state), ctx)
    assert acc.total == 41
    restored = Acc()
    restore_state(restored, freeze_state(state), ctx)  # bytes path
    assert restored.total == 41
    assert snapshot_state(Acc(), ctx) is None  # stateless -> free restart


def test_custom_snapshot_protocol():
    class Custom(Filter):
        def __init__(self):
            self.vals = []

        def snapshot(self):
            return list(self.vals)

        def restore(self, state):
            self.vals = list(state)

    a = Custom()
    a.vals = [1, 2]
    state = snapshot_state(a, None)
    b = Custom()
    restore_state(b, state, None)
    assert b.vals == [1, 2]

    class NoRestore(Filter):
        def snapshot(self):
            return 1

    with pytest.raises(CheckpointError, match="restore"):
        restore_state(NoRestore(), snapshot_state(NoRestore(), None), None)


# ---------------------------------------------------------------------------
# satellite regressions
# ---------------------------------------------------------------------------


def test_broadcast_puts_are_traced():
    trace = Trace()
    stream = LogicalStream(
        "b", n_producers=1, n_consumers=3, policy=Broadcast(), trace=trace
    )
    for packet in range(4):
        stream.put(Buffer(payload=packet, packet=packet))
    puts = [q for q in trace.queue_samples if q.side == "put"]
    # one queue op per consumer copy per broadcast put
    assert len(puts) == 4 * 3


def test_generate_spans_only_for_owned_packets():
    trace = Trace()
    run_pipeline(make_specs(2, n=8), EngineOptions(trace=trace))
    spans = trace.spans_for("src", phase="generate")
    # 8 packets generated once each across the 2 copies — not 16
    assert len(spans) == 8
    for s in spans:
        assert s.packet % 2 == s.copy


def test_round_robin_resets_between_runs():
    class TagBySink(Filter):
        def process(self, buf, ctx):
            ctx.write((buf.packet, ctx.copy_index), buf.packet)

    def specs():
        return [
            FilterSpec("src", CountingSource, params={"n": 7}),
            # odd packet count against width 2: without reset() the cursor
            # would start run 2 where run 1 left off and flip every route
            FilterSpec("tag", TagBySink, width=2),
        ]

    shared = specs()
    shared[0].out_policy = RoundRobin()
    first = {p[0]: p[1] for p in run_pipeline(shared).payloads}
    second = {p[0]: p[1] for p in run_pipeline(shared).payloads}
    assert first == second


def test_stream_capacity_validation():
    with pytest.raises(ValueError, match="capacity"):
        LogicalStream("s", capacity=0)
    with pytest.raises(ValueError, match="capacity"):
        LogicalStream("s", capacity=-1)
    unbounded = LogicalStream("s", capacity=None)
    collector = CollectorStream("c")
    assert collector.capacity is None  # explicit unbounded
    for stream in (unbounded, collector):
        for packet in range(100):
            stream.put(Buffer(payload=packet, packet=packet))
        assert not stream.full()
    bounded = LogicalStream("s", capacity=2)
    bounded.put(Buffer(payload=0, packet=0))
    assert not bounded.full()
    bounded.put(Buffer(payload=1, packet=1))
    assert bounded.full()


def test_process_edge_capacity_validation():
    import multiprocessing

    from repro.datacutter.mp.channels import ProcessEdge

    mpctx = multiprocessing.get_context("fork")
    with pytest.raises(ValueError, match="capacity"):
        ProcessEdge(mpctx, "e", capacity=0)
    edge = ProcessEdge(mpctx, "e", capacity=None)
    assert edge is not None


def test_post_eos_deadline_fails_silent_worker():
    """A live worker that never reports done after end-of-stream must not
    spin the supervisor forever: the post-EOS deadline fails the run with
    a stalest-heartbeat diagnostic naming it."""
    import multiprocessing

    from repro.datacutter.mp.channels import ProcessEdge
    from repro.datacutter.mp.supervisor import Supervisor, WorkerHandle

    mpctx = multiprocessing.get_context("fork")
    collector = ProcessEdge(mpctx, "sink->out", n_producers=1, capacity=None)
    heartbeats = mpctx.Array("d", 1, lock=False)
    heartbeats[0] = time.monotonic()
    control = mpctx.Queue()
    proc = mpctx.Process(target=time.sleep, args=(60,), name="tarpit#0",
                         daemon=True)
    proc.start()
    # the stream ends (collector sees EOS) but the worker never says done
    collector.close_producer()
    supervisor = Supervisor(
        [WorkerHandle(process=proc, worker_id=0, label="tarpit#0")],
        control,
        collector,
        heartbeats,
        post_eos_timeout=0.5,
    )
    t0 = time.monotonic()
    with pytest.raises(
        PipelineError, match=r"never reported done.*tarpit#0.*stalest heartbeat"
    ):
        supervisor.supervise()
    assert time.monotonic() - t0 < 10  # failed fast, did not spin to join
    assert not proc.is_alive()  # teardown reaped the silent worker


def test_default_path_costs_nothing(monkeypatch):
    """Exact counts: a default run takes no snapshot (threaded) and sends
    no recovery control message (process); a retry policy with no faults
    takes one snapshot, and sends one ack, per consumed packet."""
    from repro.datacutter.mp.supervisor import Supervisor
    from repro.datacutter.recovery import replay

    counts: dict[str, int] = {}

    def counting_snapshot(filt, ctx=None):
        counts["snapshot"] = counts.get("snapshot", 0) + 1
        return snapshot_state(filt, ctx)

    apply = Supervisor._apply

    def counting_apply(self, msg):
        counts[msg[0]] = counts.get(msg[0], 0) + 1
        apply(self, msg)

    monkeypatch.setattr(replay, "snapshot_state", counting_snapshot)
    monkeypatch.setattr(Supervisor, "_apply", counting_apply)
    # the snapshots of the process engine are taken in its workers; the
    # parent counts the control messages they send instead
    watched = {"threaded": ("snapshot",), "process": ("inflight", "ack", "genack")}
    for engine, kinds in watched.items():
        counts.clear()
        run_pipeline(make_specs(1), options_for(engine))
        assert {k: counts.get(k, 0) for k in kinds} == dict.fromkeys(kinds, 0)

        counts.clear()
        result = run_pipeline(
            make_specs(1), options_for(engine, retry=RetryPolicy())
        )
        consumed = sum(
            n
            for name, n in result.stream_buffers.items()
            if not name.endswith("->out")
        )
        assert consumed == 20
        per_packet = "snapshot" if engine == "threaded" else "ack"
        assert counts[per_packet] == consumed, engine
