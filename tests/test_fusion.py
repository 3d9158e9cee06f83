"""Request fusion conformance: lane-batched execution of distinct queries.

The acceptance bar: a burst of *distinct* knn queries served by a
fusion-enabled :class:`PipelineServer` produces responses byte-identical
to the same burst on an unfused (equal-``group_key`` coalescing) server
and to fresh one-shot runs, on both engines — while exercising the
opt-in protocol (``ServicePlan.fuse_key``), lane caps and chunking,
power-of-two bucket reuse in the plan cache, per-lane deadline drops,
per-lane extract-failure isolation, the fusion metrics surface, and the
``fused_lanes`` wire field.
"""

import time

import numpy as np
import pytest

from repro.apps import (
    make_knn_class,
    make_knn_lanes_class,
    make_knn_service,
    make_vmscope_service,
)
from repro.datacutter import EngineOptions
from repro.serve import (
    LocalClient,
    PipelineServer,
    Request,
    Response,
    ServerOptions,
    oneshot,
)

from repro.serve.gates import GatedService, hold_next_batch

# small workloads: fusion semantics, not throughput, are under test here
KNN_KW = dict(n_points=2_000, num_packets=3)
VM_KW = dict(image_w=96, image_h=96, tile=32, num_packets=3)


def distinct_queries(n: int, seed: int = 5) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [
        {"x": float(x), "y": float(y), "z": float(z)}
        for x, y, z in rng.random((n, 3))
    ]


@pytest.fixture(scope="module")
def knn_service():
    return make_knn_service(**KNN_KW)


@pytest.fixture(scope="module")
def vm_service():
    return make_vmscope_service(**VM_KW)


# ---------------------------------------------------------------------------
# Lane-batched KNN kernel: the fused reduction class itself
# ---------------------------------------------------------------------------


class TestLaneKernel:
    def test_lane_class_cached_and_pickle_anchored(self):
        cls = make_knn_lanes_class(3, 4)
        assert make_knn_lanes_class(3, 4) is cls
        assert make_knn_lanes_class(3, 8) is not cls
        assert cls.__name__ == "KNNLanes3x4"
        assert cls.__module__ == "repro.codegen.generated_registry"
        assert cls.K == 3 and cls.LANES == 4

    def test_scalar_fold_matches_single_lane_runs(self):
        k, lanes = 3, 5
        rng = np.random.default_rng(9)
        points = rng.random((40, 3))
        queries = rng.random((lanes, 3))
        fused = make_knn_lanes_class(k, lanes)()
        singles = [make_knn_class(k)() for _ in range(lanes)]
        for x, y, z in points:
            d = ((queries - (x, y, z)) ** 2).sum(axis=1).reshape(lanes, 1)
            fused.insert(d, x, y, z)
            for lane, single in enumerate(singles):
                single.insert(float(d[lane, 0]), x, y, z)
        for lane, single in enumerate(singles):
            got = fused.lane_rows(lane)
            expect = single.rows()
            assert got.tobytes() == expect.tobytes()

    def test_batch_fold_and_merge_match_scalar_fold(self):
        k, lanes = 2, 3
        rng = np.random.default_rng(4)
        points = rng.random((30, 3))
        queries = rng.random((lanes, 3))
        cls = make_knn_lanes_class(k, lanes)
        scalar, batched = cls(), cls()
        for x, y, z in points:
            d = ((queries - (x, y, z)) ** 2).sum(axis=1).reshape(lanes, 1)
            scalar.insert(d, x, y, z)
        # two columnar halves merged, like two packets on the vector path
        half = len(points) // 2
        acc = cls()
        for chunk in (points[:half], points[half:]):
            local = cls()
            d = (
                (chunk[None, :, :] - queries[:, None, :]) ** 2
            ).sum(axis=2)  # (lanes, n)
            local.batch_insert(d, chunk[:, 0], chunk[:, 1], chunk[:, 2])
            acc.merge(local)
        batched = acc
        for lane in range(lanes):
            assert (
                batched.lane_rows(lane).tobytes()
                == scalar.lane_rows(lane).tobytes()
            )

    def test_pack_unpack_roundtrip_is_flat(self):
        k, lanes = 3, 4
        rng = np.random.default_rng(2)
        cls = make_knn_lanes_class(k, lanes)
        obj = cls()
        for x, y, z in rng.random((10, 3)):
            obj.insert(rng.random((lanes, 1)), x, y, z)
        packed = obj.pack()
        # single-lane wire shape: 1-D arrays, lanes * k candidates
        assert all(v.ndim == 1 and len(v) == lanes * k for v in packed.values())
        clone = cls.unpack(packed)
        for lane in range(lanes):
            assert (
                clone.lane_rows(lane).tobytes() == obj.lane_rows(lane).tobytes()
            )


# ---------------------------------------------------------------------------
# The fusion protocol on service plans
# ---------------------------------------------------------------------------


class TestFusionProtocol:
    def test_knn_plan_advertises_fusion(self, knn_service):
        a = knn_service.plan({"x": 0.1})
        b = knn_service.plan({"x": 0.9})
        assert a.fuse_key is not None and a.fuse_key == b.fuse_key
        assert a.group_key != b.group_key
        assert callable(a.fuse)
        assert a.lanes == 1 and a.extract_lane is None

    def test_vmscope_plan_is_explicitly_not_fusable(self, vm_service):
        plan = vm_service.plan({"query": "small"})
        assert plan.fuse_key is None
        assert plan.fuse is None

    def test_fused_plan_shape_and_padding(self, knn_service):
        plans = [knn_service.plan(b) for b in distinct_queries(3)]
        fused = knn_service.fuse_plans(plans)
        assert fused.lanes == 3
        assert fused.fuse_key is None  # a fused plan never re-fuses
        assert fused.extract_lane is not None
        qx = fused.params["qx"]
        assert qx.shape == (4, 1)  # bucket rounds 3 lanes up to 4
        assert qx[3, 0] == qx[2, 0]  # padded with the last real query
        for i, plan in enumerate(plans):
            assert qx[i, 0] == plan.params["qx"]

    def test_bucketed_options_identity_is_stable(self, knn_service):
        f1 = knn_service.fuse_plans(
            [knn_service.plan(b) for b in distinct_queries(3)]
        )
        f2 = knn_service.fuse_plans(
            [knn_service.plan(b) for b in distinct_queries(4, seed=6)]
        )
        f3 = knn_service.fuse_plans(
            [knn_service.plan(b) for b in distinct_queries(5, seed=7)]
        )
        # 3 and 4 lanes share the 4-wide bucket (same compile identity);
        # 5 lanes spill into the 8-wide bucket
        assert f1.options is f2.options
        assert f3.options is not f1.options

    def test_server_options_validation(self):
        with pytest.raises(ValueError):
            ServerOptions(max_fuse_lanes=0)
        assert ServerOptions().fuse is True
        assert ServerOptions(fuse=False, max_fuse_lanes=2).max_fuse_lanes == 2

    def test_response_wire_roundtrips_fused_lanes(self):
        response = Response(
            id=7, kind="knn", status="ok", value=np.arange(3.0), fused_lanes=5
        )
        header, segments = response.to_wire()
        clone = Response.from_wire(header, segments)
        assert clone.fused_lanes == 5
        # frames from a peer that predates the field decode to 0
        header.pop("fused_lanes")
        assert Response.from_wire(header, segments).fused_lanes == 0


# ---------------------------------------------------------------------------
# Fused serving: differential correctness and dispatch behavior
# ---------------------------------------------------------------------------


def _serve_burst(service_kw, server_kw, bodies, engine="threaded"):
    """Serve ``bodies`` as one batch: the dispatcher's first batch is held
    until the whole burst is queued."""
    options = ServerOptions(
        engine_options=EngineOptions(engine=engine, timeout=300.0),
        max_batch=max(16, len(bodies)),
        max_queue=4 * max(16, len(bodies)),
        **server_kw,
    )
    server = PipelineServer([make_knn_service(**service_kw)], options)
    hold_next_batch(server, len(bodies))
    with server:
        with LocalClient(server, timeout=600.0) as client:
            responses = client.burst([("knn", b) for b in bodies])
            stats = client.stats()
    return responses, stats


def _held_server(services, n: int) -> PipelineServer:
    """A not-yet-started server whose first batch is the first ``n``
    requests submitted to it."""
    server = PipelineServer(services, ServerOptions(max_batch=16))
    hold_next_batch(server, n)
    return server


class TestFusedServing:
    @pytest.mark.parametrize("engine", ["threaded", "process"])
    def test_fused_burst_byte_identical_to_unfused_and_oneshot(self, engine):
        n = 6 if engine == "process" else 10
        bodies = distinct_queries(n)
        fused, fstats = _serve_burst(KNN_KW, {"fuse": True}, bodies, engine)
        unfused, ustats = _serve_burst(KNN_KW, {"fuse": False}, bodies, engine)
        assert all(r.ok for r in fused), [r.error for r in fused if not r.ok][:1]
        assert all(r.ok for r in unfused)
        assert fstats["fusion"]["fused_executions"] == fstats["executions"] == 1
        assert ustats["fusion"]["fused_executions"] == 0
        assert ustats["executions"] == n
        service = make_knn_service(**KNN_KW)
        for body, a, b in zip(bodies, fused, unfused):
            assert a.value.tobytes() == b.value.tobytes()
            baseline = oneshot(
                service.plan(body), EngineOptions(engine=engine, timeout=300.0)
            )
            assert a.value.tobytes() == baseline.tobytes(), body

    def test_fused_responses_report_lanes(self):
        bodies = distinct_queries(4)
        responses, stats = _serve_burst(KNN_KW, {"fuse": True}, bodies)
        # one batch of four distinct queries: one execution of four lanes
        assert {r.fused_lanes for r in responses} == {4}
        assert stats["fusion"]["fused_lanes"] == 4
        assert stats["fusion"]["fused_executions"] == 1

    def test_saturated_dispatcher_fuses_what_queued_meanwhile(self):
        """Dispatch never waits for followers, yet batches still form
        under load: what queues while a unit executes is the next batch."""
        gated = GatedService(make_knn_service(**KNN_KW))
        with PipelineServer([gated], ServerOptions()) as server:
            busy = server.submit("knn", {"x": 0.5, "y": 0.5, "z": 0.5})
            assert gated.entered.wait(30)
            pendings = [server.submit("knn", b) for b in distinct_queries(8)]
            gated.release.set()
            responses = [p.result(120) for p in pendings]
            assert busy.result(120).ok
            stats = server.stats()
        assert all(r.ok for r in responses)
        assert {r.fused_lanes for r in responses} == {8}
        assert stats["executions"] == 2  # the busy unit, then the eight
        assert stats["fusion"]["fused_executions"] == 1
        assert stats["fusion"]["fused_lanes"] == 8

    def test_identical_queries_coalesce_without_fusion(self, knn_service):
        with _held_server([knn_service], 4) as server:
            pendings = [
                server.submit("knn", {"x": 0.3, "y": 0.3, "z": 0.3})
                for _ in range(4)
            ]
            responses = [p.result(60) for p in pendings]
            stats = server.stats()
        assert all(r.ok for r in responses)
        assert {r.fused_lanes for r in responses} == {0}
        assert {r.group_size for r in responses} == {4}
        assert stats["executions"] == 1
        assert stats["fusion"]["fused_executions"] == 0
        assert stats["fusion"]["bypass"].get("single-lane") == 1

    def test_disabled_fusion_records_bypass(self):
        bodies = distinct_queries(3)
        responses, stats = _serve_burst(KNN_KW, {"fuse": False}, bodies)
        assert all(r.ok for r in responses)
        assert {r.fused_lanes for r in responses} == {0}
        assert stats["fusion"]["fused_executions"] == 0
        assert stats["fusion"]["bypass"].get("disabled", 0) >= 1

    def test_max_fuse_lanes_chunks_wide_buckets(self):
        bodies = distinct_queries(4)
        responses, stats = _serve_burst(
            KNN_KW, {"fuse": True, "max_fuse_lanes": 2}, bodies
        )
        assert all(r.ok for r in responses)
        assert {r.fused_lanes for r in responses} == {2}
        # 4 distinct queries in one batch under a 2-lane cap
        assert stats["fusion"]["fused_executions"] == 2

    def test_mixed_batch_fusable_nonfusable_and_stats(self, vm_service):
        services = [make_knn_service(**KNN_KW), vm_service]
        with _held_server(services, 6) as server:
            pendings = [
                server.submit("knn", b) for b in distinct_queries(4)
            ]
            pendings += [
                server.submit("vmscope", {"query": q})
                for q in ("small", "large")
            ]
            responses = [p.result(120) for p in pendings]
            stats_response = server.request("stats", timeout=60)
        assert all(r.ok for r in responses), [
            (r.kind, r.error) for r in responses if not r.ok
        ][:1]
        knn_responses = responses[:4]
        vm_responses = responses[4:]
        assert all(r.fused_lanes >= 2 for r in knn_responses)
        assert all(r.fused_lanes == 0 for r in vm_responses)
        assert stats_response.ok
        fusion = stats_response.value["fusion"]
        assert fusion["fused_executions"] >= 1
        assert fusion["bypass"].get("unsupported", 0) >= 1
        # vmscope answers match their own one-shot baselines
        for q, r in zip(("small", "large"), vm_responses):
            baseline = oneshot(vm_service.plan({"query": q}))
            assert r.value.tobytes() == baseline.tobytes()

    def test_expired_lane_dropped_from_fused_run_without_charge(
        self, knn_service
    ):
        deadline = time.monotonic() + 30.0
        requests = [
            Request(kind="knn", body=body, deadline=deadline)
            for body in distinct_queries(3)
        ]
        with _held_server([knn_service], 3) as server:
            # the middle request dies in the dispatch stall: the hook moves
            # its deadline into the past where a sleep used to outlast it
            server._before_execute = lambda plan: setattr(
                requests[1], "deadline", time.monotonic() - 1.0
            )
            pendings = [server.submit_request(r) for r in requests]
            responses = [p.result(120) for p in pendings]
            stats = server.stats()
            runs = server.pool.session.runs
        assert responses[1].status == "expired"
        assert "before execution" in responses[1].error
        assert responses[0].ok and responses[2].ok
        # the survivors still fused: one execution, two lanes, and the
        # expired lane was never executed or charged
        assert {responses[0].fused_lanes, responses[2].fused_lanes} == {2}
        assert stats["expired"] == 1
        assert stats["executions"] == 1
        assert stats["fusion"]["fused_executions"] == 1
        assert stats["fusion"]["fused_lanes"] == 2
        assert runs == 1

    def test_lane_extract_failure_errors_only_that_lane(self):
        service = make_knn_service(**KNN_KW)
        inner = service.fuse_plans

        def fuse_and_break(plans):
            fused = inner(plans)
            lane_extract = fused.extract_lane

            def extract(payloads, lane):
                if lane == 1:
                    raise RuntimeError("lane demux boom")
                return lane_extract(payloads, lane)

            fused.extract_lane = extract
            return fused

        service.fuse_plans = fuse_and_break
        bodies = distinct_queries(3)
        with _held_server([service], 3) as server:
            pendings = [server.submit("knn", b) for b in bodies]
            responses = [p.result(120) for p in pendings]
            stats = server.stats()
        assert responses[1].status == "error"
        assert "lane demux boom" in responses[1].error
        assert responses[0].ok and responses[2].ok
        assert stats["errors"] == 1
        # the healthy lanes are still byte-identical to one-shot runs
        clean = make_knn_service(**KNN_KW)
        for i in (0, 2):
            baseline = oneshot(clean.plan(bodies[i]))
            assert responses[i].value.tobytes() == baseline.tobytes()

    def test_fuse_combiner_failure_degrades_to_coalescing(self):
        service = make_knn_service(**KNN_KW)
        service.fuse_plans = lambda plans: (_ for _ in ()).throw(
            RuntimeError("combiner boom")
        )
        bodies = distinct_queries(3)
        with _held_server([service], 3) as server:
            pendings = [server.submit("knn", b) for b in bodies]
            responses = [p.result(120) for p in pendings]
            stats = server.stats()
        assert all(r.ok for r in responses)
        assert {r.fused_lanes for r in responses} == {0}
        assert stats["fusion"]["bypass"].get("fuse-error") == 1
        assert stats["fusion"]["fused_executions"] == 0
        clean = make_knn_service(**KNN_KW)
        for body, r in zip(bodies, responses):
            assert r.value.tobytes() == oneshot(clean.plan(body)).tobytes()


# ---------------------------------------------------------------------------
# Accounting: service-time EWMA and execution metrics under fusion
# ---------------------------------------------------------------------------


class TestFusionAccounting:
    def test_service_time_divided_by_lane_count(self, knn_service):
        observed = []
        with _held_server([knn_service], 4) as server:
            inner = server.queue.observe_service_time
            server.queue.observe_service_time = lambda s, **kw: (
                observed.append(s),
                inner(s, **kw),
            )[-1]
            pendings = [server.submit("knn", b) for b in distinct_queries(4)]
            responses = [p.result(120) for p in pendings]
        assert all(r.ok for r in responses)
        lanes = responses[0].fused_lanes
        assert lanes == 4
        # each lane is charged a 1/lanes share of the fused wall time
        share = responses[0].service_seconds / lanes
        assert any(
            obs == pytest.approx(share) for obs in observed
        ), (observed, share)

    def test_metrics_record_group_size_and_lanes(self):
        from repro.serve.metrics import ServerMetrics

        metrics = ServerMetrics()
        metrics.record_execution("knn", 0.0, 1.0, group_size=5, cache_hit=False)
        metrics.record_execution(
            "knn", 1.0, 2.0, group_size=6, cache_hit=True, lanes=4
        )
        metrics.record_fuse_bypass("unsupported")
        metrics.record_fuse_bypass("unsupported")
        metrics.record_fuse_bypass("disabled")
        snapshot = metrics.snapshot()
        fusion = snapshot["fusion"]
        assert snapshot["executions"] == 2
        assert fusion["fused_executions"] == 1
        assert fusion["fused_lanes"] == 4
        assert fusion["mean_lanes_per_fused_execution"] == 4.0
        assert fusion["mean_group_size"] == 5.5
        assert fusion["bypass"] == {"unsupported": 2, "disabled": 1}
