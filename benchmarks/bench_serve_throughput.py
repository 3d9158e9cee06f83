"""Serving vs one-shot: request throughput and latency under a burst.

The one-shot path pays the full compiler stack (parse → typecheck →
analysis → decomposition → codegen) plus engine construction *per
request*.  The serving path (:mod:`repro.serve`) pays it once per
distinct compilation context: the plan cache absorbs repeat compiles,
the warm :class:`EngineSession` absorbs engine setup, and micro-batching
coalesces identical in-flight requests into single executions.

This benchmark pushes the same deterministic mixed burst (knn query
points + vmscope region presets, few distinct bodies so coalescing has
something to do) through both paths, verifies every served response is
byte-identical to its one-shot baseline, and asserts the throughput
ratio.  Before each burst (local, then socket) the dispatcher is held
until the whole burst is queued (``repro.serve.gates.hold_next_batch``),
so a burst always forms the same batches (``max_batch`` and the rest);
the JSON report records them as ``executions_per_burst`` and
``socket_executions_per_burst``.  The >=4x floor is enforced on local /
EXPERIMENTS.md runs; on CI (detected via the ``CI`` env var) the
assertion drops to an advisory 2x floor for shared-runner noise.  The JSON report always records the
measured numbers against the 4x target.

A third mode measures the **socket transport**: the identical burst
through a :class:`RemoteClient` over a loopback connection — the serving
wins (plan cache, warm engine, coalescing) must survive framing, value
encoding, and two thread hops per request.  Socket responses are
verified byte-identical to the one-shot baselines too, and the
socket-vs-one-shot ratio carries its own floor (>=3.5x local, >=2x on CI).

A fifth mode (``--fuse``) measures **request fusion**: a burst of 32
*distinct* knn query points — equal-``group_key`` coalescing gets no
purchase, so the unfused server runs one engine execution per query —
against the same server with fusion on, where the whole burst merges
into one lane-batched execution of the compiled pipeline.  Fused
responses are verified byte-identical to one-shot baselines, and the
fused-vs-coalesced throughput ratio carries its own floor (>=3x local,
>=1.5x advisory on CI).

A fourth mode isolates the **process-engine worker pool**: sequential
(unbatched) requests answered two ways on the process engine.
Fork-per-run is a one-shot ``run_pipeline`` per request over
plan-cache-compiled specs: every request forks, runs, and joins its
worker processes.  The resident side is a process-engine server, whose
pool is forked once and ships each request as a work epoch over the
order channels.  The per-request latency medians are compared — the
resident pool must be >=1.5x lower locally (advisory 1.2x on CI) — and
both modes land in the JSON report.

Run standalone with
``PYTHONPATH=src python benchmarks/bench_serve_throughput.py [out.json]``
(writes a JSON report for the CI artifact) or via pytest.  Results are
recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import pytest

from repro.apps import make_knn_service, make_vmscope_service
from repro.datacutter import EngineOptions, run_pipeline
from repro.serve import (
    LocalClient,
    PipelineServer,
    PlanCache,
    RemoteClient,
    ServerOptions,
)
from repro.serve.gates import hold_next_batch
from repro.serve.session import oneshot

#: Every ratio below is a quotient of two paths that both run units of
#: work on the threaded engine, so a change that speeds the engine up moves
#: the ratios down: the fixed parts of the serve path (thread hops) do not
#: shrink with it.  Re-measured after dispatch became work-conserving (no
#: batch timer), seven runs each, change against its parent commit on a
#: 2-vCPU box: serve 4.1-6.2x (median 5.8, parent 5.3), socket 3.8-7.1x
#: (median 3.9, parent 5.2: the socket burst trickles in, and its first
#: batch now goes as soon as one request has arrived, so the burst takes
#: three batches where a timer gathered it into two), fusion 4.9-7.1x
#: (median 5.2, parent 5.0).  The floors sit under the lowest of those
#: runs; they guard against losing the serving wins, not against a faster
#: one-shot path.
EXPECTED_SPEEDUP = 4.0
#: shared CI runners add enough wall-clock noise that the real floor can
#: fail without a regression; CI asserts this advisory floor instead
CI_FLOOR = 2.0
#: loopback-socket serving vs one-shot: framing + two thread hops per
#: request cost some of the LocalClient speedup, but never the multiple
SOCKET_EXPECTED_SPEEDUP = 3.5
SOCKET_CI_FLOOR = 2.0
#: resident worker pool vs fork-per-run on the process engine: median
#: per-request latency must drop by at least this factor.  Was 2x while
#: fork-per-run cost 32 ms; the epoch arena and pipe frames cut it to
#: 15-22 ms, and fourteen runs of this mode (whose dispatch is the same
#: with or without a batch timer, max_batch=1) read 1.9-2.8x, so 2x sat
#: inside the run-to-run spread
RESIDENT_EXPECTED_SPEEDUP = 1.5
RESIDENT_CI_FLOOR = 1.2
#: fused lane-batched burst vs unfused equal-group_key coalescing on a
#: burst of distinct knn queries
FUSION_EXPECTED_SPEEDUP = 3.0
FUSION_CI_FLOOR = 1.5

N_REQUESTS = 60
#: distinct request bodies in the burst (coalescing + cache-hit fodder)
KNN_POINTS = [(0.2, 0.2, 0.2), (0.7, 0.4, 0.6), (0.5, 0.9, 0.1)]
VM_PRESETS = ("small", "large")


def enforced_floor() -> float:
    return CI_FLOOR if os.environ.get("CI") else EXPECTED_SPEEDUP


def enforced_socket_floor() -> float:
    return SOCKET_CI_FLOOR if os.environ.get("CI") else SOCKET_EXPECTED_SPEEDUP


def enforced_resident_floor() -> float:
    return RESIDENT_CI_FLOOR if os.environ.get("CI") else RESIDENT_EXPECTED_SPEEDUP


def enforced_fusion_floor() -> float:
    return FUSION_CI_FLOOR if os.environ.get("CI") else FUSION_EXPECTED_SPEEDUP


def make_services():
    return [
        make_knn_service(n_points=4_000, num_packets=4),
        make_vmscope_service(image_w=128, image_h=128, tile=32, num_packets=4),
    ]


def mixed_burst(n: int = N_REQUESTS) -> list:
    out = []
    for i in range(n):
        if i % 4 == 3:
            out.append(("vmscope", {"query": VM_PRESETS[(i // 4) % 2]}))
        else:
            x, y, z = KNN_POINTS[i % len(KNN_POINTS)]
            out.append(("knn", {"x": x, "y": y, "z": z}))
    return out


def measure() -> dict:
    services = make_services()
    by_kind = {s.name: s for s in services}
    requests = mixed_burst()

    # -- one-shot path: full compile + fresh engine per request ------------
    t0 = time.perf_counter()
    oneshot_values = [oneshot(by_kind[k].plan(body)) for k, body in requests]
    oneshot_wall = time.perf_counter() - t0

    # -- serving path ------------------------------------------------------
    options = ServerOptions(max_batch=32, max_queue=128)
    server = PipelineServer(make_services(), options)
    hold_next_batch(server, len(requests))
    with server:
        client = LocalClient(server, timeout=600.0)
        t0 = time.perf_counter()
        responses = client.burst(requests)
        serve_wall = time.perf_counter() - t0
        stats = client.stats()

        # -- socket path: same burst, same warm server, over loopback ------
        with RemoteClient(server.listen(), timeout=600.0) as remote:
            hold_next_batch(server, len(requests))
            t0 = time.perf_counter()
            socket_responses = remote.burst(requests)
            socket_wall = time.perf_counter() - t0
            socket_stats = remote.stats()

    for label, batch in (("served", responses), ("socket", socket_responses)):
        assert all(r.ok for r in batch), [
            (r.status, r.error) for r in batch if not r.ok
        ][:1]
        for response, expect in zip(batch, oneshot_values):
            assert response.value.tobytes() == expect.tobytes(), (
                f"{label} response #{response.id} ({response.kind}) diverged "
                "from its one-shot baseline"
            )

    return {
        "requests": len(requests),
        "distinct_bodies": len({(k, tuple(sorted(b.items()))) for k, b in requests}),
        "oneshot_wall_s": round(oneshot_wall, 4),
        "serve_wall_s": round(serve_wall, 4),
        "oneshot_req_per_s": round(len(requests) / oneshot_wall, 2),
        "serve_req_per_s": round(len(requests) / serve_wall, 2),
        "throughput_speedup": round(oneshot_wall / serve_wall, 2),
        # the burst is the server's first: every execution so far is its
        "executions_per_burst": stats["executions"],
        "socket_executions_per_burst": socket_stats["executions"]
        - stats["executions"],
        "plan_cache_hits": stats["plan_cache_hits"],
        "batch_occupancy_mean": stats["batch_occupancy_mean"],
        "shed": stats["shed"],
        "latency_s": stats["latency"],
        "socket_wall_s": round(socket_wall, 4),
        "socket_req_per_s": round(len(requests) / socket_wall, 2),
        "socket_speedup": round(oneshot_wall / socket_wall, 2),
        "socket_frames_in": socket_stats["transport"]["frames_in"],
        "socket_bytes_in": socket_stats["transport"]["bytes_in"],
        "socket_bytes_out": socket_stats["transport"]["bytes_out"],
    }


#: distinct knn query points in the fusion burst — every one a separate
#: coalescing group, so the unfused server cannot merge any of them
N_FUSION_QUERIES = 32


def fusion_burst(n: int = N_FUSION_QUERIES) -> list:
    """``n`` knn requests with pairwise-distinct query points (strided
    residues keep them deterministic without an RNG)."""
    out = []
    for i in range(n):
        out.append(
            (
                "knn",
                {
                    "x": round((i * 37 % n) / n + 0.01, 6),
                    "y": round((i * 17 % n) / n + 0.02, 6),
                    "z": round((i * 29 % n) / n + 0.03, 6),
                },
            )
        )
    return out


#: timed burst repetitions per fusion mode; the fastest repeat is the
#: recorded wall (scheduler/GC hiccups otherwise dominate the ~70 ms
#: fused burst and make the ratio flap around the floor)
N_FUSION_REPEATS = 3


def measure_fusion() -> dict:
    """Fused vs unfused serving of one burst of distinct knn queries.

    Both servers are identical (threaded engine, one warm session, plan
    cache) except ``ServerOptions.fuse``; a warmup burst outside the
    timed window fills the plan cache in both modes, so the comparison is
    executions-per-burst, not compile time.  Each mode's burst is timed
    ``N_FUSION_REPEATS`` times against the warm server and the fastest
    repeat is recorded."""
    requests = fusion_burst()
    knn = make_knn_service(n_points=4_000, num_packets=4)
    baselines = [oneshot(knn.plan(body)) for _, body in requests]

    modes: dict = {"requests": len(requests)}
    for mode, fuse in (("coalesced", False), ("fused", True)):
        options = ServerOptions(
            max_batch=len(requests),
            max_queue=4 * len(requests),
            fuse=fuse,
            max_fuse_lanes=len(requests),
        )
        server = PipelineServer(
            [make_knn_service(n_points=4_000, num_packets=4)], options
        )
        with server:
            client = LocalClient(server, timeout=600.0)
            warm = client.burst(requests)
            assert all(r.ok for r in warm), [
                (r.status, r.error) for r in warm if not r.ok
            ][:1]
            wall = float("inf")
            for _ in range(N_FUSION_REPEATS):
                t0 = time.perf_counter()
                responses = client.burst(requests)
                wall = min(wall, time.perf_counter() - t0)
            stats = client.stats()
        assert all(r.ok for r in responses), [
            (r.status, r.error) for r in responses if not r.ok
        ][:1]
        for response, expect in zip(responses, baselines):
            assert response.value.tobytes() == expect.tobytes(), (
                f"{mode} response #{response.id} diverged from its "
                "one-shot baseline"
            )
        modes[mode] = {
            "wall_s": round(wall, 4),
            "req_per_s": round(len(requests) / wall, 2),
            "executions": stats["executions"],
            # warmup + N_FUSION_REPEATS timed bursts hit the server
            "executions_per_burst": stats["executions"]
            // (N_FUSION_REPEATS + 1),
            "fused_executions": stats["fusion"]["fused_executions"],
            "mean_lanes_per_fused_execution": stats["fusion"][
                "mean_lanes_per_fused_execution"
            ],
            "fuse_bypass": stats["fusion"]["bypass"],
        }
    modes["fusion_speedup"] = round(
        modes["coalesced"]["wall_s"] / modes["fused"]["wall_s"], 2
    )
    return modes


#: sequential per-request latency sample size for the resident-pool mode
N_LATENCY = 20


def _latency_row(latencies: list[float]) -> dict:
    latencies = sorted(latencies)
    return {
        "requests": len(latencies),
        "median_ms": round(statistics.median(latencies) * 1e3, 2),
        "p95_ms": round(latencies[int(0.95 * (len(latencies) - 1))] * 1e3, 2),
        "mean_ms": round(statistics.fmean(latencies) * 1e3, 2),
    }


def measure_resident_latency() -> dict:
    """Median per-request latency, fork-per-run vs resident worker pool.

    Requests are issued sequentially — one-shot runs on one side, a
    ``max_batch=1`` server on the other — so each one is a full engine
    run: the quantity under test is the per-request warm path
    (fork+exec+join vs work-epoch dispatch), not batching."""
    requests = mixed_burst(N_LATENCY)
    by_kind = {s.name: s for s in make_services()}
    baselines = {}
    for kind, body in requests:
        key = (kind, tuple(sorted(body.items())))
        if key not in baselines:
            baselines[key] = oneshot(by_kind[kind].plan(body))

    def check(mode: str, kind: str, body: dict, value) -> None:
        expect = baselines[(kind, tuple(sorted(body.items())))]
        assert value.tobytes() == expect.tobytes(), (
            f"{mode} response ({kind}) diverged from one-shot baseline"
        )

    engine_options = EngineOptions(engine="process", timeout=300.0)

    # fork-per-run: a one-shot process run per request, compiled through
    # a plan cache like the server's, and warmed the same way
    cache = PlanCache()

    def fork_per_run(kind: str, body: dict):
        plan = by_kind[kind].plan(body)
        result, _hit = cache.compile(plan.source, plan.registry, plan.options)
        specs = result.pipeline.specs(plan.packets, plan.params, plan.widths)
        return plan.extract(run_pipeline(specs, engine_options).payloads)

    for kind, body in requests[:2]:
        fork_per_run(kind, body)
    latencies = []
    for kind, body in requests:
        t0 = time.perf_counter()
        value = fork_per_run(kind, body)
        latencies.append(time.perf_counter() - t0)
        check("fork_per_run", kind, body, value)
    modes = {"fork_per_run": _latency_row(latencies)}

    options = ServerOptions(
        engine_options=engine_options, max_batch=1, max_queue=4 * N_LATENCY
    )
    with PipelineServer(make_services(), options) as server:
        # warmup outside the timed loop: fills the plan cache and forks
        # the pool, so the comparison isolates the steady-state cost
        for kind, body in requests[:2]:
            assert server.request(kind, body, timeout=600.0).ok
        latencies = []
        for kind, body in requests:
            t0 = time.perf_counter()
            response = server.request(kind, body, timeout=600.0)
            latencies.append(time.perf_counter() - t0)
            assert response.ok, (response.status, response.error)
            check("resident", kind, body, response.value)
    modes["resident"] = _latency_row(latencies)
    modes["median_latency_speedup"] = round(
        modes["fork_per_run"]["median_ms"] / modes["resident"]["median_ms"], 2
    )
    return modes


@pytest.fixture(scope="module")
def measured() -> dict:
    return measure()


@pytest.fixture(scope="module")
def resident_measured() -> dict:
    return measure_resident_latency()


@pytest.fixture(scope="module")
def fusion_measured() -> dict:
    return measure_fusion()


def test_serve_throughput_speedup(measured):
    row = measured
    print(
        f"\nserve {row['serve_req_per_s']:.1f} req/s vs one-shot "
        f"{row['oneshot_req_per_s']:.1f} req/s: {row['throughput_speedup']:.1f}x "
        f"({row['executions_per_burst']} executions for {row['requests']} requests)"
    )
    assert row["throughput_speedup"] >= enforced_floor(), row


def test_socket_throughput_speedup(measured):
    row = measured
    print(
        f"\nsocket {row['socket_req_per_s']:.1f} req/s vs one-shot "
        f"{row['oneshot_req_per_s']:.1f} req/s: {row['socket_speedup']:.1f}x "
        f"({row['socket_bytes_out']} bytes served over loopback)"
    )
    assert row["socket_speedup"] >= enforced_socket_floor(), row


def test_fusion_throughput_speedup(fusion_measured):
    row = fusion_measured
    print(
        f"\nfused {row['fused']['req_per_s']:.1f} req/s "
        f"({row['fused']['executions_per_burst']} executions/burst) vs "
        f"coalesced {row['coalesced']['req_per_s']:.1f} req/s "
        f"({row['coalesced']['executions_per_burst']} executions/burst) on "
        f"{row['requests']} distinct queries: {row['fusion_speedup']:.1f}x"
    )
    assert row["fusion_speedup"] >= enforced_fusion_floor(), row


def test_resident_pool_latency_speedup(resident_measured):
    row = resident_measured
    print(
        f"\nprocess-engine per-request median: fork-per-run "
        f"{row['fork_per_run']['median_ms']:.1f} ms vs resident "
        f"{row['resident']['median_ms']:.1f} ms: "
        f"{row['median_latency_speedup']:.1f}x"
    )
    assert row["median_latency_speedup"] >= enforced_resident_floor(), row


if __name__ == "__main__":  # pragma: no cover - exercised via CI artifact
    argv = [a for a in sys.argv[1:]]
    fuse_only = "--fuse" in argv
    if fuse_only:
        argv.remove("--fuse")
    out_path = argv[0] if argv else (
        "serve_fusion.json" if fuse_only else "serve_throughput.json"
    )

    fusion_floor = enforced_fusion_floor()
    fusion_row = measure_fusion()
    print(
        f"{'mode':<10} {'wall':>8} {'req/s':>8} {'exec/burst':>11}\n"
        f"{'coalesced':<10} {fusion_row['coalesced']['wall_s']:>7.2f}s "
        f"{fusion_row['coalesced']['req_per_s']:>8.1f} "
        f"{fusion_row['coalesced']['executions_per_burst']:>11}\n"
        f"{'fused':<10} {fusion_row['fused']['wall_s']:>7.2f}s "
        f"{fusion_row['fused']['req_per_s']:>8.1f} "
        f"{fusion_row['fused']['executions_per_burst']:>11}\n"
        f"fusion speedup {fusion_row['fusion_speedup']:.1f}x on "
        f"{fusion_row['requests']} distinct knn queries  "
        f"(mean lanes/fused execution "
        f"{fusion_row['fused']['mean_lanes_per_fused_execution']:.1f})"
    )
    if fuse_only:
        report = {
            "fusion_expected_min_speedup": FUSION_EXPECTED_SPEEDUP,
            "fusion_enforced_floor": fusion_floor,
            "fusion": fusion_row,
        }
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {out_path}")
        if fusion_row["fusion_speedup"] < fusion_floor:
            print(f"FAIL: fusion throughput speedup below {fusion_floor}x")
            sys.exit(1)
        sys.exit(0)

    floor = enforced_floor()
    socket_floor = enforced_socket_floor()
    resident_floor = enforced_resident_floor()
    row = measure()
    resident_row = measure_resident_latency()
    report = {
        "expected_min_speedup": EXPECTED_SPEEDUP,
        "enforced_floor": floor,
        "socket_expected_min_speedup": SOCKET_EXPECTED_SPEEDUP,
        "socket_enforced_floor": socket_floor,
        "resident_expected_min_speedup": RESIDENT_EXPECTED_SPEEDUP,
        "resident_enforced_floor": resident_floor,
        "fusion_expected_min_speedup": FUSION_EXPECTED_SPEEDUP,
        "fusion_enforced_floor": fusion_floor,
        "process_engine_latency": resident_row,
        "fusion": fusion_row,
        **row,
    }
    print(
        f"{'path':<10} {'wall':>8} {'req/s':>8}\n"
        f"{'one-shot':<10} {row['oneshot_wall_s']:>7.2f}s {row['oneshot_req_per_s']:>8.1f}\n"
        f"{'serve':<10} {row['serve_wall_s']:>7.2f}s {row['serve_req_per_s']:>8.1f}\n"
        f"{'socket':<10} {row['socket_wall_s']:>7.2f}s {row['socket_req_per_s']:>8.1f}\n"
        f"speedup {row['throughput_speedup']:.1f}x (socket {row['socket_speedup']:.1f}x)  "
        f"executions {row['executions_per_burst']}/{row['requests']}  "
        f"occupancy {row['batch_occupancy_mean']:.1f}  "
        f"p50/p95/p99 {row['latency_s']['p50'] * 1e3:.0f}/"
        f"{row['latency_s']['p95'] * 1e3:.0f}/"
        f"{row['latency_s']['p99'] * 1e3:.0f} ms"
    )
    print(
        f"process-engine per-request median (ms): "
        f"fork-per-run {resident_row['fork_per_run']['median_ms']:.1f}  "
        f"resident {resident_row['resident']['median_ms']:.1f}  "
        f"speedup {resident_row['median_latency_speedup']:.1f}x"
    )
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {out_path}")
    if report["throughput_speedup"] < floor:
        print(f"FAIL: throughput speedup below {floor}x")
        sys.exit(1)
    if report["socket_speedup"] < socket_floor:
        print(f"FAIL: socket throughput speedup below {socket_floor}x")
        sys.exit(1)
    if resident_row["median_latency_speedup"] < resident_floor:
        print(f"FAIL: resident-pool latency speedup below {resident_floor}x")
        sys.exit(1)
    if fusion_row["fusion_speedup"] < fusion_floor:
        print(f"FAIL: fusion throughput speedup below {fusion_floor}x")
        sys.exit(1)
