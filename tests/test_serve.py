"""Serving subsystem conformance: plan cache, broker, warm sessions, server.

The acceptance bar: a burst of 100+ mixed knn + vmscope requests through
a running :class:`PipelineServer` produces responses *byte-identical* to
fresh one-shot ``compile_source(...)`` + execute runs, on both engines —
while exercising the plan cache (keying, hits, eviction), micro-batch
coalescing, every admission policy (block / reject / shed-oldest),
per-request deadlines, graceful drain, the ``stats`` request type, and
the JSON-lines metrics export.  Plus the EngineOptions validation added
alongside (nonsense timeouts must fail loudly at construction).
"""

import threading
import time

import numpy as np
import pytest

from repro.apps import make_knn_service, make_vmscope_service
from repro.core.compiler import compile_source
from repro.cost import cluster_config
from repro.datacutter import EngineOptions, run_pipeline
from repro.datacutter.engine import EngineSession
from repro.datacutter.obs import read_jsonl
from repro.serve import (
    AdmissionQueue,
    LocalClient,
    PipelineServer,
    PlanCache,
    Request,
    PendingResponse,
    ServerClosed,
    ServerOptions,
    oneshot,
)

from .serve_gates import GatedService, hold_first_batch

# small workloads: serving semantics, not throughput, are under test here
KNN_KW = dict(n_points=2_000, num_packets=3)
VM_KW = dict(image_w=96, image_h=96, tile=32, num_packets=3)


@pytest.fixture(scope="module")
def knn_service():
    return make_knn_service(**KNN_KW)


@pytest.fixture(scope="module")
def vm_service():
    return make_vmscope_service(**VM_KW)


# ---------------------------------------------------------------------------
# EngineOptions / ServerOptions validation (satellite: no silent nonsense)
# ---------------------------------------------------------------------------


class TestOptionsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"join_timeout": 0.0},
            {"join_timeout": -1.0},
            {"timeout": 0.0},
            {"timeout": -5.0},
            {"death_grace": -0.1},
            {"shm_min_bytes": -1},
        ],
    )
    def test_engine_options_rejects_nonsense(self, kwargs):
        with pytest.raises(ValueError):
            EngineOptions(**kwargs)

    def test_engine_options_accepts_sane_values(self):
        opts = EngineOptions(join_timeout=2.0, timeout=30.0, death_grace=0.0)
        assert opts.timeout == 30.0
        assert EngineOptions(timeout=None).timeout is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue": 0},
            {"admission": "lifo"},
            {"max_batch": 0},
            {"max_inflight": 0},
            {"default_deadline": 0.0},
            {"drain_timeout": -1.0},
            {"plan_cache_capacity": 0},
        ],
    )
    def test_server_options_rejects_nonsense(self, kwargs):
        with pytest.raises(ValueError):
            ServerOptions(**kwargs)


# ---------------------------------------------------------------------------
# Plan cache keying (satellite: backend and environment must key distinctly)
# ---------------------------------------------------------------------------


class TestPlanCacheKeying:
    def test_backend_keys_distinctly(self, knn_service, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        cache = PlanCache()
        src, reg, opts = (
            knn_service.app.source,
            knn_service.app.registry,
            knn_service.options,
        )
        k_scalar = cache.key_for(src, reg, opts.replace(backend="scalar"))
        k_vector = cache.key_for(src, reg, opts.replace(backend="vector"))
        k_auto = cache.key_for(src, reg, opts.replace(backend="auto"))
        assert k_scalar != k_vector
        # "auto" keys as its *resolution*, not the literal string
        assert k_auto == k_scalar
        monkeypatch.setenv("REPRO_BACKEND", "vector")
        assert cache.key_for(src, reg, opts.replace(backend="auto")) == k_vector

    def test_environment_keys_distinctly(self, knn_service):
        cache = PlanCache()
        src, reg, opts = (
            knn_service.app.source,
            knn_service.app.registry,
            knn_service.options,
        )
        k1 = cache.key_for(src, reg, opts)
        k2 = cache.key_for(src, reg, opts.replace(env=cluster_config(2)))
        assert k1 != k2

    def test_source_keys_distinctly(self, knn_service):
        cache = PlanCache()
        reg, opts = knn_service.app.registry, knn_service.options
        src = knn_service.app.source
        assert cache.key_for(src, reg, opts) != cache.key_for(
            src + "\n", reg, opts
        )

    def test_hit_is_byte_identical_to_fresh_compile(self, knn_service):
        cache = PlanCache()
        src, reg, opts = (
            knn_service.app.source,
            knn_service.app.registry,
            knn_service.options,
        )
        cached, hit0 = cache.compile(src, reg, opts)
        again, hit1 = cache.compile(src, reg, opts)
        assert (hit0, hit1) == (False, True)
        assert again is cached  # a hit returns the stored artifact
        fresh = compile_source(src, reg, opts)
        # same generated program text, filter for filter
        assert [f.source for f in cached.pipeline.filters] == [
            f.source for f in fresh.pipeline.filters
        ]
        # and same execution result, byte for byte
        wl = knn_service.workload
        out_cached = run_pipeline(
            cached.pipeline.specs(wl.packets, wl.params)
        ).payloads[-1]["result"].rows()
        out_fresh = run_pipeline(
            fresh.pipeline.specs(wl.packets, wl.params)
        ).payloads[-1]["result"].rows()
        assert out_cached.tobytes() == out_fresh.tobytes()

    def test_compile_source_cache_hook(self, knn_service):
        cache = PlanCache()
        src, reg, opts = (
            knn_service.app.source,
            knn_service.app.registry,
            knn_service.options,
        )
        first = compile_source(src, reg, opts, cache=cache)
        second = compile_source(src, reg, opts, cache=cache)
        assert second is first
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_lru_eviction(self, knn_service):
        cache = PlanCache(capacity=1)
        src, reg, opts = (
            knn_service.app.source,
            knn_service.app.registry,
            knn_service.options,
        )
        cache.compile(src, reg, opts)
        cache.compile(src, reg, opts.replace(env=cluster_config(2)))
        assert len(cache) == 1
        assert cache.stats.evictions == 1
        # the first entry was evicted: compiling it again misses
        _, hit = cache.compile(src, reg, opts)
        assert not hit

    def test_warm_hit_does_not_refingerprint(self, knn_service, monkeypatch):
        from repro.serve import plancache

        calls = []
        for name in ("options_fingerprint", "_registry_fingerprint"):
            real = getattr(plancache, name)
            monkeypatch.setattr(
                plancache,
                name,
                lambda arg, _real=real, _name=name: (
                    calls.append(_name),
                    _real(arg),
                )[1],
            )
        cache = PlanCache()
        src, reg, opts = (
            knn_service.app.source,
            knn_service.app.registry,
            knn_service.options,
        )
        _, hit = cache.compile(src, reg, opts)
        assert not hit and sorted(calls) == [
            "_registry_fingerprint",
            "options_fingerprint",
        ]
        calls.clear()
        for _ in range(3):
            assert cache.compile(src, reg, opts)[1]
        assert calls == []  # a warm hit is a memo lookup, not a re-hash

    def test_memoised_key_misses_on_backend_flip_and_replace(
        self, knn_service, monkeypatch
    ):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        cache = PlanCache()
        src, reg = knn_service.app.source, knn_service.app.registry
        opts = knn_service.options.replace(backend="auto")
        assert not cache.compile(src, reg, opts)[1]
        assert cache.compile(src, reg, opts)[1]
        # the same options object, but "auto" now resolves elsewhere
        monkeypatch.setenv("REPRO_BACKEND", "vector")
        assert not cache.compile(src, reg, opts)[1]
        assert cache.compile(src, reg, opts)[1]
        # a replaced options object keys afresh
        assert not cache.compile(src, reg, opts.replace(env=cluster_config(2)))[1]


# ---------------------------------------------------------------------------
# Warm engine sessions
# ---------------------------------------------------------------------------


class TestEngineSession:
    def test_engine_reused_across_different_spec_lists(self, knn_service):
        cache = PlanCache()
        result, _ = cache.compile(
            knn_service.app.source,
            knn_service.app.registry,
            knn_service.options,
        )
        wl = knn_service.workload
        with EngineSession(EngineOptions()) as session:
            outs = []
            for q in (0.2, 0.8):
                params = dict(wl.params)
                params["qx"] = params["qy"] = params["qz"] = q
                run = session.run(result.pipeline.specs(wl.packets, params))
                outs.append(run.payloads[-1]["result"].rows())
            assert session.runs == 2
            engine = session._engine
            assert engine is not None
            # second unit of work rebound the same engine object
            run = session.run(result.pipeline.specs(wl.packets, dict(wl.params)))
            assert session._engine is engine
            assert run.payloads[-1]["result"].rows().shape == outs[0].shape
        assert session._engine is None  # close() dropped it
        # different query points really produced different answers
        assert outs[0].tobytes() != outs[1].tobytes()


# ---------------------------------------------------------------------------
# Admission queue policies
# ---------------------------------------------------------------------------


def _pending(i: int = 0) -> PendingResponse:
    return PendingResponse(Request(kind="t", body={"i": i}))


class TestAdmissionQueue:
    def test_reject_when_full(self):
        q = AdmissionQueue(capacity=2, policy="reject")
        assert q.offer(_pending())[0]
        assert q.offer(_pending())[0]
        admitted, shed, retry_after = q.offer(_pending())
        assert not admitted and not shed
        assert retry_after is not None and retry_after > 0

    def test_retry_after_tracks_service_rate(self):
        q = AdmissionQueue(capacity=1, policy="reject")
        q.offer(_pending())
        slow_hint_before = q.retry_after_hint()
        for _ in range(50):
            q.observe_service_time(2.0)
        assert q.retry_after_hint() > slow_hint_before

    def test_shed_oldest_evicts_head(self):
        q = AdmissionQueue(capacity=2, policy="shed-oldest")
        first, second, third = _pending(1), _pending(2), _pending(3)
        q.offer(first), q.offer(second)
        admitted, shed, _ = q.offer(third)
        assert admitted
        assert shed == [first]
        assert q.take(0.01) is second  # FIFO order preserved for survivors

    def test_block_timeout_turns_into_reject(self):
        q = AdmissionQueue(capacity=1, policy="block", block_timeout=0.05)
        q.offer(_pending())
        t0 = time.monotonic()
        admitted, _, retry_after = q.offer(_pending())
        assert not admitted
        assert time.monotonic() - t0 >= 0.04
        assert retry_after is not None

    def test_block_waits_for_space(self):
        q = AdmissionQueue(capacity=1, policy="block")
        q.offer(_pending())

        def drain_soon():
            time.sleep(0.05)
            q.take()

        t = threading.Thread(target=drain_soon)
        t.start()
        admitted, _, _ = q.offer(_pending())  # blocks until drain_soon pops
        t.join()
        assert admitted
        assert len(q) == 1

    def test_closed_queue_refuses(self):
        q = AdmissionQueue(capacity=2)
        q.offer(_pending())
        q.close()
        assert q.offer(_pending()) == (False, [], None)
        assert q.take(0.01) is not None  # queued item still drainable
        assert q.take(0.01) is None  # then closed-and-empty

    def test_collect_batch_respects_budget(self, monkeypatch):
        """Work-conserving: a batch is what is queued, taken at once —
        all of it up to ``max_batch``, or a lone item on its own."""
        q = AdmissionQueue(capacity=16)
        waits = []
        real_wait = q._not_empty.wait
        monkeypatch.setattr(
            q._not_empty,
            "wait",
            lambda timeout=None: (waits.append(timeout), real_wait(timeout))[1],
        )
        items = [_pending(i) for i in range(6)]
        for item in items:
            q.offer(item)
        assert q.collect_batch(max_batch=4) == items[:4]
        assert q.collect_batch(max_batch=4) == items[4:]
        lone = _pending(9)
        q.offer(lone)
        assert q.collect_batch(max_batch=4) == [lone]
        assert waits == []
        assert len(q) == 0


# ---------------------------------------------------------------------------
# Server behavior: coalescing, deadlines, shedding, drain, stats
# ---------------------------------------------------------------------------


class TestServer:
    def test_coalescing_one_execution_per_group(self, knn_service):
        server = PipelineServer([knn_service], ServerOptions(max_batch=16))
        hold_first_batch(server, 6)
        with server:
            client = LocalClient(server)
            body = {"x": 0.3, "y": 0.3, "z": 0.3}
            responses = client.burst([("knn", body)] * 6)
            assert all(r.ok for r in responses)
            # all six shared one pipeline execution, one compile
            assert {r.group_size for r in responses} == {6}
            stats = client.stats()
            assert stats["executions"] == 1
            # mean includes the stats request's own batch of one
            assert stats["batch_occupancy_mean"] > 1.0

    def test_expired_deadline_is_not_served(self, knn_service):
        with PipelineServer([knn_service], ServerOptions(max_batch=4)) as server:
            # a deadline at the submission instant has passed by dequeue
            response = server.submit(
                "knn", {"x": 0.1}, deadline=0.0
            ).result(timeout=30)
            assert response.status == "expired"
            assert not response.ok

    def test_deadline_expiring_before_execution_counted_once(self, knn_service):
        """A request alive at batch assembly but expired by execution time
        (here: an injected dispatch stall) returns status='expired'
        without charging the plan cache or the engine, and the metrics
        count it exactly once."""
        request = Request(
            kind="knn", body={"x": 0.1}, deadline=time.monotonic() + 30.0
        )
        with PipelineServer([knn_service], ServerOptions(max_batch=4)) as server:
            # the stall outlasts the deadline: the hook moves it into the
            # past where a sleep used to wait past it
            server._before_execute = lambda plan: setattr(
                request, "deadline", time.monotonic() - 1.0
            )
            response = server.submit_request(request).result(timeout=30)
            assert response.status == "expired"
            assert "before execution" in response.error
            stats = server.metrics.snapshot()
            assert stats["expired"] == 1
            assert stats["served"] == 0
            assert stats["errors"] == 0
            # the whole group expired: neither the engine nor the plan
            # cache was charged for work nobody could use
            assert stats["executions"] == 0
            assert server.pool.session.runs == 0
            assert server.cache.stats.lookups == 0

    def test_reject_policy_resolves_future(self, knn_service):
        gated = GatedService(knn_service)
        opts = ServerOptions(admission="reject", max_queue=1, max_batch=1)
        with PipelineServer([gated], opts) as server:
            first = server.submit("knn", {"x": 0.2})
            # the dispatcher holds the first batch inside plan() — the
            # queue state below is deterministic, not sleep-based
            assert gated.entered.wait(30)
            backlog = server.submit("knn", {"x": 0.4})  # fills the queue
            rejected = server.submit("knn", {"x": 0.6})
            response = rejected.result(timeout=1)
            assert response.status == "rejected"
            assert response.retry_after is not None and response.retry_after > 0
            gated.release.set()
            assert first.result(60).ok and backlog.result(60).ok

    def test_shed_oldest_policy_resolves_victim(self, knn_service):
        gated = GatedService(knn_service)
        opts = ServerOptions(admission="shed-oldest", max_queue=1, max_batch=1)
        with PipelineServer([gated], opts) as server:
            first = server.submit("knn", {"x": 0.2})
            assert gated.entered.wait(30)
            victim = server.submit("knn", {"x": 0.4})
            newcomer = server.submit("knn", {"x": 0.6})
            assert victim.result(timeout=1).status == "shed"
            gated.release.set()
            assert first.result(60).ok and newcomer.result(60).ok
            assert server.metrics.snapshot()["shed"] == 1

    def test_unknown_kind_and_closed_server(self, knn_service):
        server = PipelineServer([knn_service])
        with pytest.raises(ServerClosed):
            server.submit("knn", {})
        server.start()
        try:
            with pytest.raises(ValueError, match="unknown request kind"):
                server.submit("nope", {})
        finally:
            server.stop()
        with pytest.raises(ServerClosed):
            server.submit("knn", {})

    def test_stop_without_drain_resolves_shutdown(self, knn_service):
        gated = GatedService(knn_service)
        server = PipelineServer([gated], ServerOptions(max_batch=1)).start()
        # the gate opens when stop() tells the dispatcher to quit: the
        # batch in hand finishes, everything still queued is stranded
        gated.release = server._stop
        first = server.submit("knn", {"x": 0.2})
        assert gated.entered.wait(30)
        stranded = [server.submit("knn", {"x": x}) for x in (0.3, 0.4, 0.5)]
        server.stop(drain=False)
        assert first.result(timeout=10).ok
        assert {p.result(timeout=10).status for p in stranded} == {"shutdown"}

    def test_graceful_drain_serves_backlog(self, knn_service):
        server = PipelineServer([knn_service], ServerOptions(max_batch=4)).start()
        pending = [server.submit("knn", {"x": 0.2}) for _ in range(5)]
        server.stop(drain=True)
        assert all(p.result(timeout=10).ok for p in pending)

    def test_duplicate_or_reserved_service_name(self, knn_service):
        with pytest.raises(ValueError, match="duplicate or reserved"):
            PipelineServer([knn_service, knn_service])

        class Impostor:
            name = "stats"

            def plan(self, body):  # pragma: no cover
                raise AssertionError

        with pytest.raises(ValueError, match="duplicate or reserved"):
            PipelineServer([Impostor()])

    def test_bad_request_body_isolates_error(self, knn_service, vm_service):
        with PipelineServer([knn_service, vm_service]) as server:
            client = LocalClient(server)
            bad = client.vmscope(query="mystery")
            assert bad.status == "error"
            assert "unknown vmscope query" in (bad.error or "")
            # the server keeps serving after a bad request
            assert client.knn(0.5, 0.5, 0.5).ok


# ---------------------------------------------------------------------------
# Metrics surface
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_stats_request_and_jsonl_roundtrip(
        self, knn_service, vm_service, tmp_path
    ):
        opts = ServerOptions(max_batch=8)
        with PipelineServer([knn_service, vm_service], opts) as server:
            client = LocalClient(server)
            client.burst(
                [("knn", {"x": 0.2, "y": 0.2, "z": 0.2})] * 3
                + [("vmscope", {"query": "small"})]
            )
            stats = client.stats()
            path = tmp_path / "serve.jsonl"
            server.metrics.write_jsonl(str(path))

        assert stats["served"] >= 4
        assert stats["executions"] >= 2
        assert set(stats["latency"]) == {"p50", "p95", "p99"}
        assert stats["plan_cache"]["entries"] == 2
        assert stats["engine"] == "threaded"
        assert stats["engine_runs"] == stats["executions"]

        trace = read_jsonl(str(path))
        phases = {s.phase for s in trace.spans}
        assert {"request", "execute"} <= phases
        assert trace.meta["role"] == "serve"
        assert trace.meta["serve.served"] >= 4
        streams = {q.stream for q in trace.queue_samples}
        assert {"serve.queue", "serve.batch"} <= streams

    def test_latency_percentiles_math(self):
        from repro.datacutter.obs import Span, Trace

        trace = Trace()
        for i, dur in enumerate([0.010, 0.020, 0.030, 0.040]):
            trace.record_span(Span("request.t", 0, "request", i, 1.0, 1.0 + dur))
        pcts = trace.duration_percentiles(phase="request")
        assert pcts["p50"] == pytest.approx(0.020)
        assert pcts["p99"] == pytest.approx(0.040)
        assert Trace().duration_percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


class TestObservability:
    """Request tracing, bounded retention, and windowed percentiles."""

    def test_stage_spans_linked_to_engine_spans(self, knn_service, vm_service):
        opts = ServerOptions(max_batch=8)
        with PipelineServer([knn_service, vm_service], opts) as server:
            client = LocalClient(server)
            responses = client.burst(
                [("knn", {"x": 0.2, "y": 0.2, "z": 0.2})] * 3
                + [("vmscope", {"query": "small"})]
            )
            assert all(r.ok for r in responses)
            trace = server.metrics.export_trace()
        phases = {s.phase for s in trace.spans}
        # the full request lifecycle, stage by stage
        assert {
            "admission",
            "queue",
            "assemble",
            "execute",
            "extract",
            "request",
        } <= phases
        # every response echoed a trace id, and those ids appear on spans
        span_traces = {s.trace for s in trace.spans if s.trace}
        assert {r.trace_id for r in responses} <= span_traces
        # execution ids join serve-level stages to engine-level filter
        # spans recorded through the tap
        by_execution: dict[int, set] = {}
        for s in trace.spans:
            if s.execution is not None:
                by_execution.setdefault(s.execution, set()).add(s.phase)
        assert by_execution
        linked = [p for p in by_execution.values() if "execute" in p]
        assert linked
        engine_phases = {"generate", "process", "init", "finalize"}
        assert any(p & engine_phases for p in linked)

    def test_retention_cap_bounds_trace_not_percentiles(self, knn_service):
        from repro.serve.metrics import ServerMetrics

        metrics = ServerMetrics(retention=64)
        for i in range(2000):
            # all fast except a slow tail the percentiles must still see,
            # even after those early spans rotate out of the trace
            dur = 0.5 if i < 200 else 0.001
            now = time.perf_counter()
            metrics.record_stage(
                "knn", "execute", now - dur, now, request_id=i, trace_id=f"t{i}"
            )
            metrics.record_request("knn", i, now - dur, "ok", trace_id=f"t{i}")
        # the trace is bounded (cap plus the amortized trim slack)...
        assert len(metrics.trace.spans) <= 64 * 2
        snap = metrics.snapshot()
        assert snap["dropped_spans"] > 0
        assert snap["served"] == 2000  # counters never sampled or dropped
        # ...while percentiles come from the complete histogram
        # population: the 10% slow tail is far above the p50, still
        # visible at p95+
        pcts = metrics.latency_percentiles()
        assert pcts["p50"] < 0.01
        assert pcts["p95"] > 0.1

    def test_snapshot_cost_flat_under_load(self):
        import timeit

        from repro.serve.metrics import ServerMetrics

        metrics = ServerMetrics(retention=256)

        def feed(n: int) -> None:
            for i in range(n):
                metrics.record_stage("knn", "execute", 0.0, 0.001, request_id=i)
                metrics.record_request("knn", i, 0.0, "ok")

        feed(500)
        t_small = min(timeit.repeat(metrics.snapshot, number=20, repeat=3))
        feed(4500)
        t_large = min(timeit.repeat(metrics.snapshot, number=20, repeat=3))
        # 10x the requests must not mean ~10x the snapshot: the windowed
        # registry answers from fixed buckets.  Generous bound for CI noise.
        assert t_large < t_small * 4 + 0.05, (t_small, t_large)

    def test_windowed_percentiles_and_autoscale_window(
        self, knn_service, vm_service
    ):
        opts = ServerOptions(max_batch=8)
        with PipelineServer([knn_service, vm_service], opts) as server:
            client = LocalClient(server)
            client.burst(
                [("knn", {"x": 0.3, "y": 0.3, "z": 0.3})] * 4
                + [("vmscope", {"query": "small"})]
            )
            deep = server.stats(deep=True)
            window = server.metrics.window(seconds=10.0)
            per_stage = server.metrics.stage_percentiles("knn", "execute", 10.0)
        hists = deep["windows"]["histograms"]
        assert any(key.startswith("stage{") for key in hists)
        assert deep["latency"]["p99"] > 0.0
        # the documented autoscale signal
        assert window["throughput_rps"] > 0.0
        assert window["latency"]["p99"] >= window["latency"]["p50"] > 0.0
        assert window["queue_depth_max"] >= 1
        assert per_stage["p99"] > 0.0

    def test_dispatcher_busy_share(self, knn_service):
        with PipelineServer([knn_service], ServerOptions(max_batch=8)) as server:
            assert server.stats(deep=True)["dispatcher_busy_share"] == 0.0
            responses = LocalClient(server).burst(
                [("knn", {"x": 0.1 * i, "y": 0.5, "z": 0.5}) for i in range(4)]
            )
            assert all(r.ok for r in responses)
            share = server.stats(deep=True)["dispatcher_busy_share"]
        assert 0.0 < share <= 1.0

    def test_sampling_thins_spans_not_counters(self):
        from repro.serve.metrics import ServerMetrics

        metrics = ServerMetrics(sample=4)
        for i in range(100):
            metrics.record_stage("knn", "queue", 0.0, 0.001, request_id=i)
        spans = [s for s in metrics.trace.spans if s.phase == "queue"]
        assert len(spans) == 25  # one request in four keeps its spans
        assert (
            metrics.registry.counter_total(
                "stage", labels={"kind": "knn", "stage": "queue"}
            )
            == 0.0
        )  # histograms are not counters...
        pcts = metrics.stage_percentiles("knn", "queue")
        assert pcts["p50"] > 0.0  # ...but every observation landed

    def test_write_jsonl_idempotent(self, knn_service, tmp_path):
        with PipelineServer([knn_service], ServerOptions(max_batch=4)) as server:
            client = LocalClient(server)
            assert client.knn(0.2, 0.2, 0.2).ok
            a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
            server.metrics.write_jsonl(str(a))
            server.metrics.write_jsonl(str(b))
        assert a.read_bytes() == b.read_bytes()
        trace = read_jsonl(str(a))
        assert trace.meta["serve.served"] >= 1

    def test_prometheus_exposition_via_stats(self, knn_service):
        with PipelineServer([knn_service], ServerOptions(max_batch=4)) as server:
            client = LocalClient(server)
            assert client.knn(0.2, 0.2, 0.2).ok
            text = client.prometheus()
        assert "repro_serve_served_total 1" in text
        assert "repro_serve_stage_seconds_bucket" in text
        assert "repro_serve_dropped_spans_total" in text


class TestStatsConcurrency:
    def test_stats_hammer_during_mixed_burst(self, knn_service, vm_service):
        """``stats`` from many threads — shallow, deep, and Prometheus,
        over both transports — while fused and unfused work is in
        flight must never raise or return an inconsistent snapshot."""
        from repro.serve import RemoteClient

        opts = ServerOptions(max_batch=16, fuse=True, max_fuse_lanes=8)
        errors: list[BaseException] = []
        snapshots: list[dict] = []
        stop = threading.Event()

        def hammer(client) -> None:
            while not stop.is_set():
                try:
                    snapshots.append(client.stats(deep=True))
                    client.prometheus()
                    client.stats()
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)
                    return

        def burst(client, requests) -> None:
            try:
                responses = client.burst(requests)
                bad = [r for r in responses if not r.ok]
                if bad:
                    errors.append(AssertionError(bad[0].error))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        # distinct knn points fuse into lanes; repeated points coalesce
        # (unfused); vmscope bypasses fusion entirely
        fused = [
            ("knn", {"x": 0.1 + i * 0.05, "y": 0.2, "z": 0.3}) for i in range(8)
        ]
        coalesced = [("knn", {"x": 0.5, "y": 0.5, "z": 0.5})] * 6
        bypass = [("vmscope", {"query": "small"})] * 2
        with PipelineServer([knn_service, vm_service], opts) as server:
            local = LocalClient(server, timeout=300.0)
            with RemoteClient(server.listen(), timeout=300.0) as remote:
                hammers = [
                    threading.Thread(target=hammer, args=(c,))
                    for c in (local, remote, local, remote)
                ]
                bursts = [
                    threading.Thread(target=burst, args=(local, fused + coalesced)),
                    threading.Thread(target=burst, args=(remote, coalesced + bypass)),
                ]
                for t in hammers + bursts:
                    t.start()
                for t in bursts:
                    t.join(timeout=300)
                stop.set()
                for t in hammers:
                    t.join(timeout=60)
        assert not errors, errors[:1]
        assert snapshots
        for snap in snapshots:
            # internally consistent at every instant it was taken
            assert snap["served"] <= snap["admitted"]
            assert "windows" in snap and snap["dropped_spans"] >= 0
        final = server.stats()
        assert final["served"] >= len(fused + coalesced) * 1  # both bursts
        assert final["fusion"]["fused_executions"] >= 1


# ---------------------------------------------------------------------------
# Differential correctness: the acceptance bar
# ---------------------------------------------------------------------------


def _mixed_requests(n: int) -> list:
    """n requests over 6 distinct bodies (4 knn points + 2 vmscope presets)."""
    points = [(0.2, 0.2, 0.2), (0.8, 0.3, 0.5), (0.5, 0.5, 0.5), (0.1, 0.9, 0.4)]
    out = []
    for i in range(n):
        if i % 3 == 2:
            out.append(("vmscope", {"query": ("small", "large")[i % 2]}))
        else:
            x, y, z = points[i % len(points)]
            out.append(("knn", {"x": x, "y": y, "z": z}))
    return out


def _baselines(services, requests, engine_options=None):
    by_kind = {s.name: s for s in services}
    out = {}
    for kind, body in requests:
        key = (kind, tuple(sorted(body.items())))
        if key not in out:
            out[key] = oneshot(by_kind[kind].plan(body), engine_options)
    return out


class TestDifferentialBurst:
    def test_threaded_burst_matches_oneshot(self, knn_service, vm_service):
        services = [knn_service, vm_service]
        requests = _mixed_requests(100)
        baselines = _baselines(services, requests)
        server = PipelineServer(
            services, ServerOptions(max_batch=32, max_queue=128)
        )
        hold_first_batch(server, len(requests))
        with server:
            client = LocalClient(server, timeout=600.0)
            responses = client.burst(requests)
            stats = client.stats()
        assert len(responses) == 100
        assert all(r.ok for r in responses), [
            (r.status, r.error) for r in responses if not r.ok
        ][:1]
        for (kind, body), response in zip(requests, responses):
            expect = baselines[(kind, tuple(sorted(body.items())))]
            assert isinstance(response.value, np.ndarray)
            assert response.value.shape == expect.shape
            assert response.value.tobytes() == expect.tobytes()
        # the serving machinery actually engaged: far fewer executions
        # than requests (coalescing) and plan-cache hits on repeats
        assert stats["executions"] < len(requests)
        assert stats["plan_cache_hits"] > 0
        assert stats["batch_occupancy_mean"] > 1.0

    def test_process_engine_burst_matches_oneshot(self, knn_service, vm_service):
        services = [knn_service, vm_service]
        requests = _mixed_requests(30)
        # engine-independence: baselines computed on the default engine
        baselines = _baselines(services, requests)
        opts = ServerOptions(
            engine_options=EngineOptions(engine="process", timeout=120.0),
            max_batch=30,
            max_queue=64,
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
