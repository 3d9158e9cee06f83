"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile FILE`` — run the full compiler on a dialect source file and
  print the compilation report (atoms, per-boundary volumes, the chosen
  plan); ``--emit`` also prints the generated Python filter sources.
* ``run APP`` — compile one bundled application, execute it on an
  execution engine (``--engine threaded|process``), verify the output
  against the sequential oracle, and print stream accounting.
* ``trace APP`` — run one application with engine-native tracing and
  write the trace to disk: Chrome ``trace_event`` JSON (load in
  chrome://tracing or https://ui.perfetto.dev) or JSON lines.  Also
  prints the trace summary and, for compiled versions, the §4.3
  measured-vs-predicted cost-model table.
* ``chaos APP`` — the fault-tolerance proof: run one application twice on
  the same engine, fault-free and with an injected fault (crash /
  exception / stall on a chosen filter copy and packet) under a retry
  policy, then verify the recovered outputs are identical to the
  fault-free outputs and report restarts and recovery overhead;
  ``-o`` exports the recovery trace (with its ``restart`` spans).
* ``figures [NAMES...]`` — reproduce the paper's evaluation figures
  (default: all of fig5..fig12) and print paper-vs-measured reports.
* ``serve`` — start an in-process pipeline server (plan cache, warm
  engine, micro-batching, admission control), push a deterministic mixed
  burst of knn + vmscope requests through it, and print serving metrics;
  ``--verify`` additionally checks every response byte-identical to a
  fresh one-shot compile+execute, and ``-o`` exports the request-scoped
  trace as JSON lines.  Multi-host mode: ``--listen host:port`` serves
  remote clients over the socket transport (same admission/batching/
  plan-cache path), ``--connect host:port`` pushes the burst through a
  ``RemoteClient`` instead of an in-process server.  Observability
  artifacts: ``--metrics-out`` writes the Prometheus text exposition
  (scraped over the wire in ``--connect`` mode) and ``--trace-out``
  exports the linked request trace — serve-level stage spans joined to
  engine-level filter spans — as Chrome ``trace_event`` JSON.
* ``top`` — live terminal dashboard over a running ``serve --listen``
  server: polls the deep ``stats`` snapshot over a ``RemoteClient`` and
  renders rolling 1 s / 10 s / 60 s rates, queue/batch gauges, and
  windowed per-kind and per-stage latency percentiles.
* ``apps`` — list the bundled evaluation applications.

Intrinsic implementations cannot be supplied from the command line, so
``compile`` analyzes and decomposes with conservative summaries; use the
Python API (:func:`repro.compile_source`) for executable pipelines.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_compile(args: argparse.Namespace) -> int:
    from .analysis.workload import WorkloadProfile
    from .core.compiler import CompileOptions, compile_source
    from .cost.environment import cluster_config

    source = open(args.file).read()
    profile_params: dict[str, float] = {}
    for item in args.param or []:
        name, _, value = item.partition("=")
        profile_params[name] = float(value)
    options = CompileOptions(
        env=cluster_config(args.width),
        profile=WorkloadProfile(profile_params),
        objective=args.objective,
        backend=args.backend,
    )
    result = compile_source(source, None, options)
    print(result.report())
    if args.emit:
        for gf in result.pipeline.filters:
            print(f"\n# ===== unit C_{gf.unit} ({gf.name}) =====")
            print(gf.source)
    return 0


_APP_FACTORIES = {
    "zbuffer": ("make_zbuffer_app", {"dataset": "small"}),
    "apixels": ("make_active_pixels_app", {"dataset": "small"}),
    "knn": ("make_knn_app", {"n_points": 20_000}),
    "vmscope": ("make_vmscope_app", {"query": "large"}),
}


def _cmd_run(args: argparse.Namespace) -> int:
    import time

    from . import apps as apps_mod
    from .cost.environment import cluster_config
    from .datacutter import EngineOptions, run_pipeline
    from .experiments.harness import _specs_for_version

    if args.packets < 1 or args.width < 1:
        print("run: --packets and --width must be >= 1")
        return 2
    factory_name, workload_defaults = _APP_FACTORIES[args.app]
    app = getattr(apps_mod, factory_name)()
    workload = app.make_workload(num_packets=args.packets, **workload_defaults)
    env = cluster_config(args.width)
    specs, _result = _specs_for_version(
        app, workload, args.version, env, backend=args.backend
    )
    t0 = time.perf_counter()
    run = run_pipeline(specs, options=EngineOptions(engine=args.engine))
    elapsed = time.perf_counter() - t0
    finals = run.payloads[-1]
    ok = workload.check(finals, workload.oracle())
    print(f"{app.name} / {args.version} on the {args.engine} engine")
    if _result is not None:
        print(f"  codegen backend: {_result.pipeline.backend}")
    print(f"  packets: {workload.num_packets}  width: {args.width}")
    print(f"  wall time: {elapsed:.3f}s")
    for stream in sorted(run.stream_bytes):
        print(
            f"  stream {stream:<40} "
            f"{run.stream_buffers.get(stream, 0):>5} buffers  "
            f"{run.stream_bytes[stream]:>12,} bytes"
        )
    print(f"  oracle check: {'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from . import apps as apps_mod
    from .cost.environment import cluster_config
    from .datacutter import EngineOptions
    from .datacutter.obs import (
        to_chrome,
        validate_chrome_trace,
        write_chrome,
        write_jsonl,
    )
    from .experiments.harness import (
        _specs_for_version,
        measure_specs,
        validate_cost_model,
    )

    if args.packets < 1 or args.width < 1:
        print("trace: --packets and --width must be >= 1")
        return 2
    factory_name, workload_defaults = _APP_FACTORIES[args.app]
    app = getattr(apps_mod, factory_name)()
    workload = app.make_workload(num_packets=args.packets, **workload_defaults)
    env = cluster_config(args.width)
    specs, result = _specs_for_version(
        app, workload, args.version, env, backend=args.backend
    )
    measured = measure_specs(
        specs,
        result,
        workload,
        env,
        args.version,
        warmup=False,
        options=EngineOptions(engine=args.engine),
    )
    trace = measured.trace

    if args.format == "chrome":
        errors = validate_chrome_trace(to_chrome(trace))
        if errors:  # pragma: no cover - exporter bug guard
            print("trace: internal error, invalid chrome export:")
            for err in errors:
                print(f"  {err}")
            return 1
        write_chrome(trace, args.out)
    else:
        write_jsonl(trace, args.out)
    print(f"{app.name} / {args.version} on the {args.engine} engine")
    print(trace.summary())
    print(f"trace written to {args.out} ({args.format})")
    if result is not None:
        report = validate_cost_model(result, measured)
        report.app = app.name
        print()
        print(report.summary())
        print(report.table())
    print(f"oracle check: {'OK' if measured.correct else 'MISMATCH'}")
    return 0 if measured.correct else 1


def _canonical_outputs(outputs) -> list:
    """Order- and identity-insensitive form of a run's output buffers,
    for byte-level comparison of a recovered run against a fault-free
    one (numpy payloads compare by shape/dtype/bytes)."""
    import pickle

    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a hard dep elsewhere
        np = None

    def norm(obj):
        if np is not None and isinstance(obj, np.ndarray):
            return ("ndarray", obj.shape, str(obj.dtype), obj.tobytes())
        if isinstance(obj, dict):
            return tuple(sorted((k, norm(v)) for k, v in obj.items()))
        if isinstance(obj, (list, tuple)):
            return tuple(norm(v) for v in obj)
        return obj

    return sorted(
        (buf.packet, pickle.dumps(norm(buf.payload))) for buf in outputs
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    import time

    from . import apps as apps_mod
    from .cost.environment import cluster_config
    from .datacutter import (
        EngineOptions,
        FaultSpec,
        RetryPolicy,
        Trace,
        run_pipeline,
    )
    from .datacutter.obs import write_chrome
    from .experiments.harness import _specs_for_version

    if args.packets < 1 or args.width < 1:
        print("chaos: --packets and --width must be >= 1")
        return 2
    factory_name, workload_defaults = _APP_FACTORIES[args.app]
    app = getattr(apps_mod, factory_name)()
    workload = app.make_workload(num_packets=args.packets, **workload_defaults)
    env = cluster_config(args.width)
    specs, _result = _specs_for_version(
        app, workload, args.version, env, backend=args.backend
    )

    names = [s.name for s in specs]
    target = args.filter or names[len(names) // 2]
    if target not in names:
        print(f"chaos: no filter named {target!r}; pipeline has: {', '.join(names)}")
        return 2

    # process runs get a generous wall-clock cap so a recovery bug fails
    # loudly instead of hanging the command
    base_opts = EngineOptions(
        engine=args.engine,
        timeout=120.0 if args.engine == "process" else None,
    )
    t0 = time.perf_counter()
    baseline = run_pipeline(specs, options=base_opts)
    clean_wall = time.perf_counter() - t0

    trace = Trace()
    fault = FaultSpec(
        filter=target, kind=args.kind, copy=args.copy, packet=args.packet_index
    )
    opts = base_opts.replace(
        trace=trace,
        retry=RetryPolicy(max_attempts=args.attempts, backoff_base=0.01, jitter=0.0),
        faults=[fault],
    )
    t0 = time.perf_counter()
    faulted = run_pipeline(specs, options=opts)
    faulted_wall = time.perf_counter() - t0

    identical = _canonical_outputs(baseline.outputs) == _canonical_outputs(
        faulted.outputs
    )
    restarts = trace.restarts()
    overhead = faulted_wall - clean_wall
    print(f"{app.name} / {args.version} on the {args.engine} engine")
    print(
        f"  injected: {fault.kind} in {target}#{fault.copy} "
        f"on packet {fault.packet}"
    )
    print(f"  fault-free wall: {clean_wall:.3f}s  recovered wall: {faulted_wall:.3f}s")
    print(f"  recovery overhead: {overhead:+.3f}s  restarts: {len(restarts)}")
    print(f"  outputs identical to fault-free run: {'YES' if identical else 'NO'}")
    if args.out:
        write_chrome(trace, args.out)
        print(f"  recovery trace written to {args.out} (chrome trace_event)")
    if not restarts:
        print(
            "  warning: the fault never fired (no restarts recorded) — "
            "check --filter/--copy/--packet-index against the routing"
        )
    return 0 if identical and restarts else 1


def _mixed_burst(count: int, mix: str, seed: int) -> list:
    """A deterministic request burst: ``mix`` is ``kind=weight,...``;
    knn query points are seeded so ``--verify`` has a stable baseline."""
    import numpy as np

    weights: dict[str, int] = {}
    for item in mix.split(","):
        kind, _, weight = item.partition("=")
        weights[kind.strip()] = int(weight) if weight else 1
    unknown = sorted(set(weights) - {"knn", "vmscope"})
    if unknown:
        raise ValueError(f"unknown kinds in --mix: {unknown}")
    rng = np.random.default_rng(seed)
    schedule = [k for k, w in sorted(weights.items()) for _ in range(w)]
    requests = []
    presets = ("small", "large")
    for i in range(count):
        kind = schedule[i % len(schedule)]
        if kind == "knn":
            # few distinct points, repeated: gives the broker coalescing
            # opportunities while still exercising multiple groups
            x, y, z = rng.integers(0, 5, size=3) / 5.0 + 0.1
            requests.append(("knn", {"x": round(x, 3), "y": round(y, 3), "z": round(z, 3)}))
        else:
            requests.append(("vmscope", {"query": presets[i % len(presets)]}))
    return requests


def _serve_services(args: argparse.Namespace) -> list:
    """The CLI's fixed service set — deterministic, so a ``--connect``
    client can rebuild the same adapters for ``--verify`` baselines."""
    from .apps import make_knn_service, make_vmscope_service

    return [
        make_knn_service(n_points=4_000, num_packets=4, backend=args.backend),
        make_vmscope_service(
            image_w=128, image_h=128, tile=32, num_packets=4, backend=args.backend
        ),
    ]


def _serve_options(args: argparse.Namespace):
    """The ``ServerOptions`` both local and ``--listen`` serving run with."""
    from .datacutter import EngineOptions
    from .serve import ServerOptions

    return ServerOptions(
        engine_options=EngineOptions(engine=args.engine),
        max_queue=args.queue,
        admission=args.policy,
        max_batch=args.max_batch,
        max_frame_bytes=args.max_frame,
        fuse=args.fuse,
        max_fuse_lanes=args.max_fuse_lanes,
    )


def _export_serve_artifacts(metrics, args: argparse.Namespace, indent: str = "") -> int:
    """Write the optional observability artifacts of a serve run: the
    Prometheus exposition (``--metrics-out``) and the linked request
    trace as validated Chrome ``trace_event`` JSON (``--trace-out``)."""
    from .datacutter.obs import to_chrome, validate_chrome_trace, write_chrome

    if getattr(args, "metrics_out", None):
        with open(args.metrics_out, "w") as fh:
            fh.write(metrics.render_prometheus())
        print(f"{indent}prometheus metrics written to {args.metrics_out}")
    if getattr(args, "trace_out", None):
        trace = metrics.export_trace()
        errors = validate_chrome_trace(to_chrome(trace))
        if errors:  # pragma: no cover - exporter bug guard
            print(f"{indent}trace-out: invalid chrome export:")
            for err in errors:
                print(f"{indent}  {err}")
            return 1
        write_chrome(trace, args.trace_out)
        print(
            f"{indent}request trace written to {args.trace_out} "
            "(chrome trace_event; open in Perfetto)"
        )
    return 0


def _cmd_serve_listen(args: argparse.Namespace) -> int:
    """``serve --listen host:port``: a long-running multi-host server."""
    import signal
    import threading

    from .serve import PipelineServer
    from .serve.transport import parse_address

    try:
        host, port = parse_address(args.listen)
    except ValueError as exc:
        print(f"serve: {exc}")
        return 2
    server = PipelineServer(_serve_services(args), _serve_options(args))
    stop = threading.Event()
    previous = signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        with server:
            host, port = server.listen(host, port)
            print(f"pipeline server on the {args.engine} engine", flush=True)
            print(f"listening on {host}:{port}", flush=True)
            try:
                stop.wait(timeout=args.duration)  # None = until signalled
            except KeyboardInterrupt:
                pass
            stats = server.stats()
    finally:
        signal.signal(signal.SIGTERM, previous)
    print(
        f"served: {stats['served']}  executions: {stats['executions']}  "
        f"fused: {stats['fusion']['fused_executions']}  "
        f"connections: {stats['transport']['connections_opened']}  "
        f"decode errors: {stats['transport']['decode_errors']}"
    )
    if args.out:
        server.metrics.write_jsonl(args.out)
        print(f"metrics written to {args.out} (JSON lines)")
    return _export_serve_artifacts(server.metrics, args)


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from .datacutter import EngineOptions
    from .serve import LocalClient, PipelineServer, RemoteClient
    from .serve.session import oneshot

    if args.listen and args.connect:
        print("serve: --listen and --connect are mutually exclusive")
        return 2
    if args.listen:
        return _cmd_serve_listen(args)
    if args.requests < 1:
        print("serve: --requests must be >= 1")
        return 2
    services = _serve_services(args)
    try:
        requests = _mixed_burst(args.requests, args.mix, args.seed)
    except ValueError as exc:
        print(f"serve: {exc}")
        return 2

    server = None
    if args.connect:
        # remote mode: the server (same service set) runs elsewhere,
        # started with ``serve --listen host:port``
        try:
            client = RemoteClient(args.connect, timeout=600.0)
        except (OSError, ValueError) as exc:
            print(f"serve: cannot connect to {args.connect}: {exc}")
            return 2
    else:
        server = PipelineServer(services, _serve_options(args)).start()
        client = LocalClient(server, timeout=600.0)

    try:
        with client:
            t0 = time.perf_counter()
            responses = client.burst(requests)
            wall = time.perf_counter() - t0
            stats = client.stats()
            prom_text = (
                client.prometheus()
                if args.connect and args.metrics_out
                else None
            )
    finally:
        if server is not None:
            server.stop()

    ok = [r for r in responses if r.ok]
    failed = [r for r in responses if not r.ok]
    where = (
        f"remote server at {args.connect}"
        if args.connect
        else f"pipeline server on the {args.engine} engine"
    )
    print(where)
    print(f"  requests: {len(responses)}  ok: {len(ok)}  failed: {len(failed)}")
    print(f"  wall time: {wall:.3f}s  throughput: {len(ok) / wall:.1f} req/s")
    print(
        f"  executions: {stats['executions']}  "
        f"plan-cache hits: {stats['plan_cache_hits']}  "
        f"mean batch occupancy: {stats['batch_occupancy_mean']:.2f}"
    )
    fusion = stats["fusion"]
    bypass = ", ".join(
        f"{reason}={count}" for reason, count in sorted(fusion["bypass"].items())
    )
    print(
        f"  fused executions: {fusion['fused_executions']}  "
        f"lanes: {fusion['fused_lanes']}  "
        f"mean lanes/fused: {fusion['mean_lanes_per_fused_execution']:.2f}  "
        f"bypass: {bypass or 'none'}"
    )
    lat = stats["latency"]
    print(
        f"  latency p50/p95/p99: "
        f"{lat['p50'] * 1e3:.1f} / {lat['p95'] * 1e3:.1f} / {lat['p99'] * 1e3:.1f} ms"
    )
    if args.connect:
        wire = stats["transport"]
        print(
            f"  wire: {wire['frames_in']} frames in / {wire['frames_out']} out  "
            f"{wire['bytes_in']:,} B in / {wire['bytes_out']:,} B out  "
            f"decode errors: {wire['decode_errors']}"
        )
    for response in failed:
        print(f"  FAILED #{response.id} {response.kind}: {response.status}")

    if args.out and server is not None:
        server.metrics.write_jsonl(args.out)
        print(f"  metrics written to {args.out} (JSON lines)")
    if server is not None:
        rc = _export_serve_artifacts(server.metrics, args, indent="  ")
        if rc:
            return rc
    else:
        if args.metrics_out and prom_text is not None:
            # remote mode: scrape the listener's registry over the wire
            with open(args.metrics_out, "w") as fh:
                fh.write(prom_text)
            print(f"  prometheus metrics written to {args.metrics_out}")
        if args.trace_out:
            print(
                "  trace-out: unavailable in --connect mode "
                "(use --trace-out on the --listen side)"
            )

    if failed:
        return 1
    if args.verify:
        # one fresh one-shot compile+execute per distinct request body;
        # every served response must be byte-identical to it.  In
        # --connect mode the baselines are computed locally from the same
        # deterministic service set the listener was started with.
        baselines: dict[str, object] = {}
        mismatches = 0
        by_kind = {s.name: s for s in services}
        for (kind, body), response in zip(requests, responses):
            key = f"{kind}/{sorted(body.items())}"
            if key not in baselines:
                baselines[key] = oneshot(
                    by_kind[kind].plan(body),
                    EngineOptions(engine=args.engine),
                )
            expect = baselines[key]
            if response.value.tobytes() != expect.tobytes():
                mismatches += 1
                print(f"  VERIFY MISMATCH #{response.id} {kind} {body}")
        verdict = "OK" if mismatches == 0 else f"{mismatches} MISMATCHES"
        print(
            f"  verify vs one-shot ({len(baselines)} distinct requests): {verdict}"
        )
        if mismatches:
            return 1
    return 0


def _parse_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Split a snapshot key like ``stage{kind="knn",stage="execute"}``
    into its family name and label dict (label values never contain
    commas or quotes in this registry)."""
    name, brace, rest = key.partition("{")
    labels: dict[str, str] = {}
    if brace:
        for part in rest.rstrip("}").split(","):
            k, _, v = part.partition("=")
            labels[k] = v.strip('"')
    return name, labels


def _render_top(snap: dict, where: str) -> str:
    """One ``top`` frame from a deep stats snapshot."""
    import time

    windows = snap.get("windows") or {}
    counters = windows.get("counters", {})
    gauges = windows.get("gauges", {})
    hists = windows.get("histograms", {})
    lines = [
        f"repro serve top — {where} — {time.strftime('%H:%M:%S')}",
        f"  served {snap.get('served', 0)}  executions {snap.get('executions', 0)}"
        f"  errors {snap.get('errors', 0)}  shed {snap.get('shed', 0)}"
        f"  expired {snap.get('expired', 0)}"
        f"  dropped spans {snap.get('dropped_spans', 0)}",
    ]
    qd = gauges.get("queue_depth", {})
    bs = gauges.get("batch_size", {})
    ca = gauges.get("connections_active", {})
    lines.append(
        f"  queue depth {qd.get('last', 0):g} (peak {qd.get('peak', 0):g})"
        f"  batch size {bs.get('last', 0):g} (peak {bs.get('peak', 0):g})"
        f"  connections {ca.get('last', 0):g}"
    )
    lines.append("")
    lines.append(f"  {'rate (events/s)':<24} {'1s':>9} {'10s':>9} {'60s':>9}")
    for name in (
        "admitted",
        "served",
        "errors",
        "shed",
        "expired",
        "batches",
        "fused_executions",
    ):
        entry = counters.get(name)
        if not entry:
            continue
        rates = entry.get("rates", {})
        lines.append(
            f"  {name:<24} {rates.get('1s', 0.0):>9.1f}"
            f" {rates.get('10s', 0.0):>9.1f} {rates.get('60s', 0.0):>9.2f}"
        )

    def hist_rows(family: str, label_fmt) -> list[str]:
        rows = []
        for key in sorted(hists):
            name, labels = _parse_metric_key(key)
            if name != family:
                continue
            entry = hists[key]
            win = entry.get("10s") or {}
            n = int(win.get("count", 0))
            # quiet families fall back to lifetime percentiles so the
            # table stays readable between bursts
            src, n_shown, tag = (
                (win, n, "10s")
                if n
                else (entry.get("overall", {}), int(entry.get("count", 0)), "all")
            )
            rows.append(
                f"  {label_fmt(labels):<28}"
                f" {src.get('p50', 0.0) * 1e3:>9.2f}"
                f" {src.get('p95', 0.0) * 1e3:>9.2f}"
                f" {src.get('p99', 0.0) * 1e3:>9.2f}"
                f" {n_shown:>8} {tag:>4}"
            )
        return rows

    request_rows = hist_rows("request", lambda lb: lb.get("kind", "?"))
    if request_rows:
        lines.append("")
        lines.append(
            f"  {'request latency (ms)':<28} {'p50':>9} {'p95':>9} {'p99':>9}"
            f" {'n':>8} {'win':>4}"
        )
        lines.extend(request_rows)
    stage_rows = hist_rows(
        "stage", lambda lb: f"{lb.get('kind', '?')}/{lb.get('stage', '?')}"
    )
    if stage_rows:
        lines.append("")
        lines.append(
            f"  {'stage latency (ms)':<28} {'p50':>9} {'p95':>9} {'p99':>9}"
            f" {'n':>8} {'win':>4}"
        )
        lines.extend(stage_rows)
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    """``top --connect host:port``: poll deep stats, render frames."""
    import time

    from .serve import RemoteClient, ServerClosed

    if args.interval <= 0:
        print("top: --interval must be > 0")
        return 2
    try:
        client = RemoteClient(args.connect, timeout=30.0)
    except (OSError, ValueError) as exc:
        print(f"top: cannot connect to {args.connect}: {exc}")
        return 2
    clear = "" if args.no_clear else "\x1b[2J\x1b[H"
    frames = 0
    try:
        with client:
            while True:
                snap = client.stats(deep=True)
                print(f"{clear}{_render_top(snap, args.connect)}", flush=True)
                frames += 1
                if args.iterations and frames >= args.iterations:
                    break
                time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    except (RuntimeError, ServerClosed) as exc:
        print(f"top: {exc}")
        return 1
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .experiments.figures import ALL_FIGURES

    names = args.names or list(ALL_FIGURES)
    bad = [n for n in names if n not in ALL_FIGURES]
    if bad:
        print(f"unknown figures {bad}; choose from {sorted(ALL_FIGURES)}")
        return 2
    ok = True
    for name in names:
        figure = ALL_FIGURES[name](engine=args.engine, backend=args.backend)
        print(figure.report())
        print()
        ok = ok and figure.ok
    return 0 if ok else 1


def _cmd_apps(_args: argparse.Namespace) -> int:
    from .apps import (
        make_active_pixels_app,
        make_knn_app,
        make_vmscope_app,
        make_zbuffer_app,
    )

    for factory in (
        make_zbuffer_app,
        make_active_pixels_app,
        make_knn_app,
        make_vmscope_app,
    ):
        app = factory()
        print(f"{app.name:<20} {app.notes}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Coarse-grained pipelined-parallelism compiler (SC 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a dialect source file")
    p_compile.add_argument("file", help="dialect source file")
    p_compile.add_argument(
        "--width", type=int, default=1, help="pipeline width (w-w-1 config)"
    )
    p_compile.add_argument(
        "--objective",
        choices=["fill", "total", "brute"],
        default="total",
        help="decomposition objective (fill = published Fig 3)",
    )
    p_compile.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="workload profile parameter (repeatable)",
    )
    p_compile.add_argument(
        "--backend",
        choices=["auto", "scalar", "vector"],
        default="auto",
        help="codegen backend for foreach bodies (vector = columnar NumPy; auto = $REPRO_BACKEND or scalar)",
    )
    p_compile.add_argument(
        "--emit", action="store_true", help="print generated filter sources"
    )
    p_compile.set_defaults(fn=_cmd_compile)

    p_run = sub.add_parser("run", help="compile + execute one application")
    p_run.add_argument("app", choices=sorted(_APP_FACTORIES))
    p_run.add_argument(
        "--engine",
        choices=["threaded", "process"],
        default="threaded",
        help="execution engine (process = one OS process per filter copy)",
    )
    p_run.add_argument(
        "--version",
        choices=["Default", "Decomp-Comp", "Decomp-Manual"],
        default="Decomp-Comp",
        help="pipeline version to run",
    )
    p_run.add_argument(
        "--width", type=int, default=1, help="pipeline width (w-w-1 config)"
    )
    p_run.add_argument(
        "--backend",
        choices=["auto", "scalar", "vector"],
        default="auto",
        help="codegen backend for foreach bodies (vector = columnar NumPy; auto = $REPRO_BACKEND or scalar)",
    )
    p_run.add_argument(
        "--packets", type=int, default=8, help="number of input packets"
    )
    p_run.set_defaults(fn=_cmd_run)

    p_trace = sub.add_parser(
        "trace", help="run one application with tracing and export the trace"
    )
    p_trace.add_argument("app", choices=sorted(_APP_FACTORIES))
    p_trace.add_argument(
        "--engine",
        choices=["threaded", "process"],
        default="threaded",
        help="execution engine to trace",
    )
    p_trace.add_argument(
        "--version",
        choices=["Default", "Decomp-Comp", "Decomp-Manual"],
        default="Decomp-Comp",
        help="pipeline version to run",
    )
    p_trace.add_argument(
        "--width", type=int, default=1, help="pipeline width (w-w-1 config)"
    )
    p_trace.add_argument(
        "--packets", type=int, default=8, help="number of input packets"
    )
    p_trace.add_argument(
        "-o",
        "--out",
        default="trace.json",
        help="output path (default trace.json)",
    )
    p_trace.add_argument(
        "--backend",
        choices=["auto", "scalar", "vector"],
        default="auto",
        help="codegen backend for foreach bodies (vector = columnar NumPy; auto = $REPRO_BACKEND or scalar)",
    )
    p_trace.add_argument(
        "--format",
        choices=["chrome", "jsonl"],
        default="chrome",
        help="chrome = trace_event JSON for chrome://tracing / Perfetto; "
        "jsonl = one span/sample per line",
    )
    p_trace.set_defaults(fn=_cmd_trace)

    p_chaos = sub.add_parser(
        "chaos",
        help="inject a fault into one run and verify recovery heals it",
    )
    p_chaos.add_argument("app", choices=sorted(_APP_FACTORIES))
    p_chaos.add_argument(
        "--engine",
        choices=["threaded", "process"],
        default="threaded",
        help="execution engine to inject into",
    )
    p_chaos.add_argument(
        "--version",
        choices=["Default", "Decomp-Comp", "Decomp-Manual"],
        default="Decomp-Comp",
        help="pipeline version to run",
    )
    p_chaos.add_argument(
        "--width", type=int, default=1, help="pipeline width (w-w-1 config)"
    )
    p_chaos.add_argument(
        "--packets", type=int, default=8, help="number of input packets"
    )
    p_chaos.add_argument(
        "--backend",
        choices=["auto", "scalar", "vector"],
        default="auto",
        help="codegen backend for foreach bodies (vector = columnar NumPy; auto = $REPRO_BACKEND or scalar)",
    )
    p_chaos.add_argument(
        "--filter",
        default=None,
        help="logical filter to fault (default: the middle pipeline stage)",
    )
    p_chaos.add_argument(
        "--kind",
        choices=["crash", "exception", "stall", "drop_heartbeat"],
        default="crash",
        help="fault kind (crash = abrupt worker death, no goodbye)",
    )
    p_chaos.add_argument(
        "--copy", type=int, default=0, help="transparent-copy index to fault"
    )
    p_chaos.add_argument(
        "--packet-index",
        type=int,
        default=0,
        help="packet on which the fault fires",
    )
    p_chaos.add_argument(
        "--attempts",
        type=int,
        default=3,
        help="retry budget per filter copy (first run included)",
    )
    p_chaos.add_argument(
        "-o",
        "--out",
        default=None,
        help="also export the recovery trace (chrome trace_event JSON)",
    )
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_fig = sub.add_parser("figures", help="reproduce evaluation figures")
    p_fig.add_argument("names", nargs="*", help="fig5 .. fig12 (default all)")
    p_fig.add_argument(
        "--backend",
        choices=["auto", "scalar", "vector"],
        default="auto",
        help="codegen backend for foreach bodies (vector = columnar NumPy; auto = $REPRO_BACKEND or scalar)",
    )
    p_fig.add_argument(
        "--engine",
        choices=["threaded", "process"],
        default="threaded",
        help="execution engine for the measured runs",
    )
    p_fig.set_defaults(fn=_cmd_figures)

    p_serve = sub.add_parser(
        "serve",
        help="start a pipeline server and push a mixed request burst through it",
    )
    p_serve.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help="serve remote clients over the socket transport instead of "
        "pushing a local burst (port 0 picks a free port; runs until "
        "--duration elapses or SIGINT/SIGTERM)",
    )
    p_serve.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="push the burst through a RemoteClient against a server "
        "started elsewhere with --listen",
    )
    p_serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="seconds a --listen server stays up (default: until signalled)",
    )
    p_serve.add_argument(
        "--max-frame",
        type=int,
        default=64 * 1024 * 1024,
        help="wire-frame size cap in bytes (default 64 MiB); oversized "
        "frames get a structured error response",
    )
    p_serve.add_argument(
        "--engine",
        choices=["threaded", "process"],
        default="threaded",
        help="execution engine behind the warm session",
    )
    p_serve.add_argument(
        "--requests", type=int, default=60, help="burst size (default 60)"
    )
    p_serve.add_argument(
        "--mix",
        default="knn=3,vmscope=1",
        help="request mix as kind=weight,... (default knn=3,vmscope=1)",
    )
    p_serve.add_argument(
        "--policy",
        choices=["block", "reject", "shed-oldest"],
        default="block",
        help="admission policy when the queue is full",
    )
    p_serve.add_argument(
        "--queue", type=int, default=256, help="admission queue capacity"
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=16, help="micro-batch size budget"
    )
    p_serve.add_argument(
        "--fuse",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="fuse distinct-param requests of a fusable service into one "
        "lane-batched execution (--no-fuse falls back to equal-param "
        "coalescing only)",
    )
    p_serve.add_argument(
        "--max-fuse-lanes",
        type=int,
        default=32,
        help="cap on lanes per fused execution (default 32)",
    )
    p_serve.add_argument(
        "--backend",
        choices=["auto", "scalar", "vector"],
        default="auto",
        help="codegen backend for foreach bodies (vector = columnar NumPy; auto = $REPRO_BACKEND or scalar)",
    )
    p_serve.add_argument(
        "--seed", type=int, default=7, help="burst RNG seed (deterministic)"
    )
    p_serve.add_argument(
        "--verify",
        action="store_true",
        help="check every response byte-identical to a fresh one-shot run",
    )
    p_serve.add_argument(
        "-o",
        "--out",
        default=None,
        help="export serving metrics as JSON lines",
    )
    p_serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the Prometheus text exposition on exit (in --connect "
        "mode the listener's registry is scraped over the wire)",
    )
    p_serve.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="export the linked request trace as Chrome trace_event JSON "
        "(local burst and --listen modes; open in Perfetto)",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_top = sub.add_parser(
        "top",
        help="live terminal dashboard over a running serve --listen server",
    )
    p_top.add_argument(
        "--connect",
        metavar="HOST:PORT",
        required=True,
        help="address of a server started with serve --listen",
    )
    p_top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="refresh period in seconds (default 1.0)",
    )
    p_top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="frames to render before exiting (default 0 = until ^C)",
    )
    p_top.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen (logs, CI)",
    )
    p_top.set_defaults(fn=_cmd_top)

    p_apps = sub.add_parser("apps", help="list bundled applications")
    p_apps.set_defaults(fn=_cmd_apps)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
