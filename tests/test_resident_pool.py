"""Process-engine worker pool: fork-once lifecycle, work epochs, refork
fallbacks, cross-epoch state hygiene, and close semantics.

The pool contract under test: the process engine forks its workers once,
on the first run, and every later run is a *work epoch* shipped to the same processes over per-worker order
channels — so worker PIDs are stable across runs, shared-memory segments
persist and are reused across epochs, and nothing (routing policy state,
sentinel tallies, stream stats) bleeds from one unit of work into the
next.  ``close()`` is the single real teardown, and a close racing an
in-flight run fails that run with a structured error instead of hanging
or leaking processes.
"""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.apps import (
    make_active_pixels_app,
    make_knn_app,
    make_knn_service,
    make_vmscope_app,
    make_vmscope_service,
    make_zbuffer_app,
)
from repro.cost import cluster_config
from repro.datacutter import (
    EngineOptions,
    FaultSpec,
    Filter,
    FilterSpec,
    PipelineError,
    ProcessPipeline,
    RetryPolicy,
    SourceFilter,
    Trace,
    run_pipeline,
)
from repro.datacutter.engine import EngineSession
from repro.datacutter.mp.transport import SEGMENTS_PER_PRODUCER
from repro.experiments.harness import _specs_for_version
from repro.serve import LocalClient, PipelineServer, ServerOptions, oneshot
from repro.serve.session import SessionPool

from .conftest import no_orphans

PROC_TIMEOUT = 120.0
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.01, jitter=0.0)


def proc_options(**overrides) -> EngineOptions:
    merged = {"engine": "process", "timeout": PROC_TIMEOUT, "death_grace": 0.3}
    merged.update(overrides)
    return EngineOptions(**merged)




class PidSource(SourceFilter):
    """Yields this worker process's PID once per packet."""

    def generate(self, ctx):
        for _ in range(ctx.params.get("n", 4)):
            yield os.getpid()


class PidTag(Filter):
    def process(self, buf, ctx):
        ctx.write((buf.payload, os.getpid()), buf.packet)


def pid_specs(width: int = 2, n: int = 4):
    return [
        FilterSpec("src", PidSource, width=width, params={"n": n}),
        FilterSpec("tag", PidTag, width=1),
    ]


def _pids(run) -> set:
    pids = set()
    for src_pid, tag_pid in run.payloads:
        pids.add(src_pid)
        pids.add(tag_pid)
    return pids


# ---------------------------------------------------------------------------
# fork-once lifecycle
# ---------------------------------------------------------------------------


def test_session_forks_once_and_reuses_workers():
    """Three runs on a warm session: identical worker PIDs, one fork."""
    with EngineSession(proc_options()) as session:
        pid_sets = [_pids(session.run(pid_specs())) for _ in range(3)]
        engine = session._engine
        assert engine._forks == 1
        assert engine._reforks == 0
        assert engine._epoch == 3
    assert pid_sets[0] == pid_sets[1] == pid_sets[2]
    assert len(pid_sets[0]) == 3  # 2 source copies + 1 tag copy
    assert os.getpid() not in pid_sets[0]
    no_orphans()


def test_standalone_engine_keeps_its_pool_until_close():
    """The pool outlives run() without a session: two runs on a bare
    engine are two epochs of one fork, and leaving the block joins it."""
    with ProcessPipeline(pid_specs(), timeout=PROC_TIMEOUT) as eng:
        first = _pids(eng.run())
        second = _pids(eng.run())
        assert eng._forks == 1
        assert eng._epoch == 2
    assert first == second
    no_orphans()


def test_oneshot_run_pipeline_still_tears_down():
    """run_pipeline is a session of one epoch: its pool is joined on return."""
    run = run_pipeline(pid_specs(), proc_options())
    assert len(_pids(run)) == 3
    no_orphans()


def test_refork_on_pipeline_shape_change():
    """A different (name, width) layout cannot ride the order channels:
    the pool reforks transparently and the run still succeeds."""
    with EngineSession(proc_options()) as session:
        narrow = _pids(session.run(pid_specs(width=1)))
        wide = _pids(session.run(pid_specs(width=2)))
        engine = session._engine
        assert engine._forks == 2
        assert engine._reforks == 1
    assert len(narrow) == 2
    assert len(wide) == 3
    no_orphans()


# ---------------------------------------------------------------------------
# cross-epoch state hygiene (satellite: warm-reuse state bleed)
# ---------------------------------------------------------------------------


class CountSource(SourceFilter):
    def generate(self, ctx):
        for i in range(ctx.params.get("n", 5)):
            yield i


class CopyTagger(Filter):
    """Payloads record which transparent copy handled them — any routing
    policy state bleeding across epochs changes the assignment."""

    def process(self, buf, ctx):
        ctx.write((ctx.copy_index, buf.payload), buf.packet)


class SortedGather(Filter):
    def init(self, ctx):
        self.seen = []

    def process(self, buf, ctx):
        self.seen.append(buf.payload)

    def finalize(self, ctx):
        ctx.write(tuple(sorted(self.seen)), -2)


def bleed_specs():
    # n=5 is deliberately odd: a round-robin policy that is *not* reset
    # between epochs would start epoch 2 pointing at the other consumer,
    # flipping every (copy, payload) pair
    return [
        FilterSpec("src", CountSource, width=1, params={"n": 5}),
        FilterSpec("mid", CopyTagger, width=2),
        FilterSpec("sink", SortedGather, width=1),
    ]


def test_two_runs_byte_identical_on_resident_pool():
    cold = run_pipeline(bleed_specs(), proc_options()).payloads
    with EngineSession(proc_options()) as session:
        warm1 = session.run(bleed_specs()).payloads
        warm2 = session.run(bleed_specs()).payloads
        assert session._engine._forks == 1
    assert warm1 == warm2 == cold
    no_orphans()


class ArraySource(SourceFilter):
    def generate(self, ctx):
        for i in range(ctx.params.get("n", 2)):
            yield np.full(1024, i, dtype=np.float64)


class ArrayRelay(Filter):
    def process(self, buf, ctx):
        ctx.write(buf.payload * 2.0, buf.packet)


class ArraySum(Filter):
    def init(self, ctx):
        self.total = 0.0

    def process(self, buf, ctx):
        self.total += float(buf.payload.sum())

    def finalize(self, ctx):
        ctx.write(self.total, -2)


def shm_specs():
    return [
        FilterSpec("src", ArraySource, width=1, params={"n": 3}),
        FilterSpec("mid", ArrayRelay, width=1),
        FilterSpec("sink", ArraySum, width=1),
    ]


def test_shm_segments_persist_and_reuse_across_epochs():
    """Edge segments outlive the epoch on the pool: they are still
    there at epoch end (not unlinked) and the next epoch's encodes hit
    them; the per-run trace note carries the counters."""
    trace = Trace()
    opts = proc_options(trace=trace, shm_min_bytes=1024)
    with EngineSession(opts) as session:
        session.run(shm_specs())
        first = dict(trace.meta["shm_pool"])
        assert first["pooled_bytes"] > 0  # segments survive the epoch
        assert trace.meta["worker_pool"]["epoch"] == 1
        session.run(shm_specs())
        second = dict(trace.meta["shm_pool"])
        assert second["hits"] > 0  # epoch 2 reused pooled segments
        assert trace.meta["worker_pool"]["epoch"] == 2
        assert trace.meta["worker_pool"]["forks"] == 1
    no_orphans()


class HopSource(SourceFilter):
    def generate(self, ctx):
        for _ in range(ctx.params["n"]):
            yield ctx.params["payload"]


class HopCount(Filter):
    def init(self, ctx):
        self.count = 0

    def process(self, buf, ctx):
        self.count += 1

    def finalize(self, ctx):
        ctx.write(self.count)


def hop_specs(n: int, payload: bytes):
    """Source -> forward -> forward -> counting sink: three hops that each
    carry the payload, the shape of the benchmark's hop-process unit."""
    params = {"n": n, "payload": payload}
    return [
        FilterSpec("hop-src", HopSource, params=params),
        FilterSpec("hop-fwd1", Filter, 1),
        FilterSpec("hop-fwd2", Filter, 1),
        FilterSpec("hop-sink", HopCount, 2),
    ]


def _segments_per_edge() -> dict[str, int]:
    """Live edge segments on disk, by edge (``psm_<edge>_<slot>``)."""
    per_edge: dict[str, int] = {}
    for name in os.listdir("/dev/shm"):
        if name.startswith("psm_") and name.count("_") == 2:
            edge = name.rsplit("_", 1)[0]
            per_edge[edge] = per_edge.get(edge, 0) + 1
    return per_edge


def test_warm_hops_reuse_every_segment_exactly():
    """After one warm-up epoch, every 256 KiB leaf of every hop lands in a
    segment its edge already owns: 60 packets x 3 hops = 180 hits, no
    miss, and never more than the bound of segments on any edge (one
    producer copy each)."""
    payload = np.random.default_rng(0).bytes(256 * 1024)
    trace = Trace()
    with EngineSession(proc_options(trace=trace)) as session:
        assert session.run(hop_specs(60, payload)).payloads == [60]
        assert trace.meta["shm_pool"]["misses"] == 3 * SEGMENTS_PER_PRODUCER
        for _epoch in range(10):
            assert session.run(hop_specs(60, payload)).payloads == [60]
            pool = trace.meta["shm_pool"]
            assert (pool["hits"], pool["misses"], pool["evicted"]) == (180, 0, 0)
            assert pool["released"] == 180
            assert pool["segments"] == 3 * SEGMENTS_PER_PRODUCER
            per_edge = _segments_per_edge()
            assert len(per_edge) == 3
            assert max(per_edge.values()) <= SEGMENTS_PER_PRODUCER
            # reported, not pinned: how many buffers share a frame depends
            # on how far each consumer lags its producer
            assert trace.meta["worker_pool"]["frames"] > 0
    assert _segments_per_edge() == {}
    no_orphans()


# ---------------------------------------------------------------------------
# close semantics (satellite: close racing an in-flight run)
# ---------------------------------------------------------------------------


#: set by a stalled worker once it is inside ``process``; created before
#: any fork, so every worker inherits it
_stalled = multiprocessing.get_context("fork").Event()


class StalledFilter(Filter):
    def process(self, buf, ctx):
        _stalled.set()
        time.sleep(30.0)
        ctx.write(buf.payload, buf.packet)


def stalled_specs():
    return [
        FilterSpec("src", CountSource, width=1, params={"n": 2}),
        FilterSpec("stall", StalledFilter, width=1),
    ]


def test_close_racing_inflight_run_fails_structured():
    session = EngineSession(proc_options())
    outcome: list = []

    def runner():
        try:
            session.run(stalled_specs())
            outcome.append(("ok", None))
        except BaseException as err:  # noqa: BLE001 - recorded for asserts
            outcome.append(("raised", err))

    _stalled.clear()
    t = threading.Thread(target=runner, daemon=True)
    t.start()
    assert _stalled.wait(timeout=30), "the stalled filter never started"
    t_close = time.monotonic()
    session.close()
    close_seconds = time.monotonic() - t_close
    t.join(timeout=30)
    assert not t.is_alive(), "run() hung after close()"
    assert close_seconds < 15.0, "close() waited out the stalled filter"

    status, err = outcome[0]
    assert status == "raised"
    assert isinstance(err, PipelineError)
    assert "closed while a unit of work was in flight" in str(err)

    with pytest.raises(RuntimeError, match="closed"):
        session.run(stalled_specs())
    no_orphans()


def test_session_pool_close_then_execute_raises():
    pool = SessionPool(proc_options())
    pool.close()
    service = make_knn_service(n_points=500, num_packets=2)
    with pytest.raises(RuntimeError, match="closed"):
        pool.execute(service.plan({"x": 0.5, "y": 0.5, "z": 0.5}))
    no_orphans()


def test_close_is_idempotent():
    with EngineSession(proc_options()) as session:
        session.run(pid_specs())
        session.close()
        session.close()
    no_orphans()


# ---------------------------------------------------------------------------
# serve bursts on the resident pool (acceptance: byte-identical, with and
# without an injected mid-epoch crash)
# ---------------------------------------------------------------------------

KNN_KW = dict(n_points=2_000, num_packets=3)
VM_KW = dict(image_w=96, image_h=96, tile=32, num_packets=3)


def _mixed_requests(n: int) -> list:
    requests = []
    for i in range(n):
        if i % 2 == 0:
            x = 0.1 + (i % 5) * 0.05
            requests.append(("knn", {"x": x, "y": x, "z": x}))
        else:
            requests.append(("vmscope", {"query": "large" if i % 3 else "small"}))
    return requests


def _burst_matches_oneshot(engine_options, n_requests: int) -> None:
    services = [make_knn_service(**KNN_KW), make_vmscope_service(**VM_KW)]
    by_kind = {s.name: s for s in services}
    requests = _mixed_requests(n_requests)
    baselines = {}
    for kind, body in requests:
        key = (kind, tuple(sorted(body.items())))
        if key not in baselines:
            baselines[key] = oneshot(by_kind[kind].plan(body))
    opts = ServerOptions(
        engine_options=engine_options,
        max_batch=16,
        max_queue=2 * n_requests,
    )
    with PipelineServer(services, opts) as server:
        client = LocalClient(server, timeout=600.0)
        responses = client.burst(requests)
    assert all(r.ok for r in responses), [
        (r.status, r.error) for r in responses if not r.ok
    ][:1]
    for (kind, body), response in zip(requests, responses):
        expect = baselines[(kind, tuple(sorted(body.items())))]
        assert response.value.tobytes() == expect.tobytes()
    no_orphans()


def test_serve_burst_on_resident_pool_matches_oneshot():
    _burst_matches_oneshot(proc_options(), 30)


def test_serve_burst_heals_injected_mid_epoch_crash():
    """A worker crash mid-epoch on the resident pool is healed in place
    (respawn + checkpoint replay) — every response in the burst still
    byte-matches the one-shot baseline."""
    _burst_matches_oneshot(
        proc_options(
            retry=FAST_RETRY,
            faults=[FaultSpec(filter="gen_unit1", kind="crash", copy=0, packet=0)],
        ),
        12,
    )


# ---------------------------------------------------------------------------
# why a pool reforked, and what an epoch ships (counts, not times)
# ---------------------------------------------------------------------------


class ClosureSource(SourceFilter):
    def generate(self, ctx):
        yield ctx.params["fn"]()


def _worker_pool_note(session, trace, specs):
    session.run(specs)
    return dict(trace.meta["worker_pool"])


def test_refork_reason_is_recorded():
    trace = Trace()
    with EngineSession(proc_options(trace=trace)) as session:
        note = _worker_pool_note(session, trace, pid_specs(width=1))
        assert (note["reforks"], note["refork_reason"]) == (0, None)
        note = _worker_pool_note(session, trace, pid_specs(width=2))
        assert (note["reforks"], note["refork_reason"]) == (1, "shape")
        # a lambda cannot cross the order pipe: the epoch travels in a
        # fork image instead, and the note says why
        closure = [
            FilterSpec("src", ClosureSource, width=2, params={"fn": lambda: 7}),
            FilterSpec("tag", PidTag, width=1),
        ]
        note = _worker_pool_note(session, trace, closure)
        assert note["reforks"] == 2
        assert note["refork_reason"].startswith("unpicklable: ")
        assert (note["order_bytes"], note["arena_bytes"]) == (0, 0)
        idle_worker = session._engine._pool.workers[0].process
        idle_worker.kill()
        idle_worker.join(timeout=10)
        assert not idle_worker.is_alive()
        note = _worker_pool_note(session, trace, pid_specs(width=2))
        assert (note["reforks"], note["refork_reason"]) == (3, "dead-worker")
        # and a clean epoch afterwards clears it
        note = _worker_pool_note(session, trace, pid_specs(width=2))
        assert (note["reforks"], note["refork_reason"]) == (3, None)
    no_orphans()


def _spec_maker(app, workload):
    """Compile once, now; the returned callable binds fresh specs (widths
    [1, 2, 1]) per epoch.  Compiling up front matters: a pool forked
    before a class was generated could not unpickle it."""
    _, result = _specs_for_version(app, workload, "Decomp-Comp", cluster_config(1))
    return lambda: result.pipeline.specs(
        workload.packets, workload.params, [1, 2, 1]
    )


def _paper_apps():
    """(name, make_specs, dataset nbytes) per paper app."""
    bundles = [
        (make_zbuffer_app(width=48, height=48), dict(dataset="tiny", num_packets=4)),
        (
            make_active_pixels_app(width=48, height=48),
            dict(dataset="tiny", num_packets=4),
        ),
        (make_knn_app(k=5), dict(n_points=4000, num_packets=5)),
        (
            make_vmscope_app(image_w=256, image_h=256, tile=64),
            dict(query="large", num_packets=4),
        ),
    ]
    out = []
    for app, kwargs in bundles:
        workload = app.make_workload(**kwargs)
        nbytes = sum(p.nbytes for p in workload.packets)
        out.append((app.name, _spec_maker(app, workload), nbytes))
    return out


def test_paper_apps_never_refork_across_ten_epochs():
    apps = _paper_apps()
    trace = Trace()
    with EngineSession(proc_options(trace=trace)) as session:
        for _round in range(10):
            for name, make_specs, _nbytes in apps:
                note = _worker_pool_note(session, trace, make_specs())
                assert note["refork_reason"] is None, (name, note)
        assert session._engine._epoch == 40
        assert session._engine._forks == 1
        assert session._engine._reforks == 0
    no_orphans()


def _knn_counts(n_packets: int, runs: int) -> list[tuple[int, int]]:
    """(order_bytes, arena_bytes) of the first arena epoch of ``runs``
    fresh sessions over one knn dataset."""
    app = make_knn_app(k=5)
    make_specs = _spec_maker(
        app, app.make_workload(n_points=400 * n_packets, num_packets=n_packets)
    )
    counts = []
    for _ in range(runs):
        trace = Trace()
        with EngineSession(proc_options(trace=trace)) as session:
            for _epoch in (1, 2):
                note = _worker_pool_note(session, trace, make_specs())
            counts.append((note["order_bytes"], note["arena_bytes"]))
    return counts


def test_order_bytes_do_not_depend_on_the_dataset():
    n_workers = 4  # widths [1, 2, 1]
    (small_orders, small_arena), = _knn_counts(4, runs=1)
    (large_orders, large_arena), = _knn_counts(64, runs=1)
    assert small_orders == large_orders
    assert 0 < small_orders <= 1024 * n_workers
    assert large_arena > 10 * small_arena


def test_arena_holds_the_dataset_once_and_counts_repeat_exactly():
    apps = _paper_apps()
    trace = Trace()
    with EngineSession(proc_options(trace=trace)) as session:
        session.run(apps[0][1]())  # the fork: nothing crosses by value
        note = dict(trace.meta["worker_pool"])
        assert (note["order_bytes"], note["arena_bytes"]) == (0, 0)
        for name, make_specs, nbytes in apps:
            if nbytes < 64 * 1024:
                continue  # the iso apps' tiny dataset: headers dominate
            note = _worker_pool_note(session, trace, make_specs())
            # once, not once per worker
            assert nbytes <= note["arena_bytes"] <= 1.05 * nbytes, name
    counts = _knn_counts(8, runs=10)
    assert len(set(counts)) == 1, counts
    no_orphans()


def test_deep_stats_carry_the_worker_pool_note():
    service = make_knn_service(**KNN_KW)
    opts = ServerOptions(engine_options=proc_options())
    with PipelineServer([service], opts) as server:
        client = LocalClient(server, timeout=120.0)
        for x in (0.2, 0.4):
            assert client.call("knn", {"x": x, "y": x, "z": x}).ok
        assert "engine_pool" not in client.stats()
        pool_note = client.stats(deep=True)["engine_pool"]
    assert pool_note["forks"] == 1
    assert pool_note["reforks"] == 0 and pool_note["refork_reason"] is None
    assert 0 < pool_note["order_bytes"] <= 1024 * 4
    assert pool_note["arena_bytes"] > 0
    no_orphans()
