"""CLI tests for ``python -m repro``."""

import json

import pytest

from repro.__main__ import main
from repro.datacutter.obs import read_jsonl, validate_chrome_trace

SOURCE = """
native Rectdomain<1, E> read();
native double[] work(double[] v, double s);
class E { double key; double[] data; }
class Acc implements Reducinterface {
    double[] total;
    void add(double[] v) { return; }
    void merge(Acc o) { return; }
}
class M {
    void run(double s, double cutoff) {
        runtime_define int num_packets;
        Rectdomain<1, E> elems = read();
        Acc result = new Acc();
        PipelinedLoop (p in elems) {
            Acc local = new Acc();
            foreach (e in p) {
                if (e.key < cutoff) {
                    double[] v = work(e.data, s);
                    local.add(v);
                }
            }
            result.merge(local);
        }
    }
}
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "app.pipe"
    path.write_text(SOURCE)
    return str(path)


def test_compile_report(source_file, capsys):
    assert main(["compile", source_file]) == 0
    out = capsys.readouterr().out
    assert "plan:" in out and "volumes" in out


def test_compile_emit_and_params(source_file, capsys):
    code = main(
        [
            "compile",
            source_file,
            "--width",
            "2",
            "--objective",
            "fill",
            "--param",
            "packet_size=500",
            "--param",
            "sel.g0=0.2",
            "--emit",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "unit C_1" in out and "def generate" in out


def test_apps_listing(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    assert "iso-zbuffer" in out and "vmscope" in out


def test_figures_rejects_unknown(capsys):
    assert main(["figures", "fig99"]) == 2


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_exit_zero_and_accounting(capsys):
    assert main(["run", "knn", "--packets", "4"]) == 0
    out = capsys.readouterr().out
    assert "oracle check: OK" in out
    assert "stream" in out and "bytes" in out


def test_run_rejects_bad_engine():
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "knn", "--engine", "distributed"])
    assert exc_info.value.code == 2


def test_run_rejects_bad_packet_count(capsys):
    assert main(["run", "knn", "--packets", "0"]) == 2


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_writes_valid_chrome_json(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    code = main(["trace", "knn", "--packets", "4", "-o", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert validate_chrome_trace(doc) == []
    names = {
        ev["args"]["name"]
        for ev in doc["traceEvents"]
        if ev["ph"] == "M" and ev["name"] == "thread_name"
    }
    assert any(name.endswith("#0") for name in names)
    out = capsys.readouterr().out
    assert "trace written to" in out
    assert "cost model vs" in out  # compiled version -> measured-vs-predicted


def test_trace_jsonl_round_trips(tmp_path, capsys):
    out_path = tmp_path / "trace.jsonl"
    code = main(
        ["trace", "knn", "--packets", "4", "--format", "jsonl", "-o", str(out_path)]
    )
    assert code == 0
    trace = read_jsonl(str(out_path))
    assert trace.engine == "threaded"
    assert trace.spans and trace.queue_samples


def test_trace_rejects_bad_engine():
    with pytest.raises(SystemExit) as exc_info:
        main(["trace", "knn", "--engine", "bogus"])
    assert exc_info.value.code == 2


def test_chaos_heals_and_exports_restart_span(tmp_path, capsys):
    out_path = tmp_path / "chaos.json"
    code = main(
        [
            "chaos",
            "knn",
            "--engine",
            "threaded",
            "--packets",
            "4",
            "--kind",
            "crash",
            "-o",
            str(out_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "outputs identical to fault-free run: YES" in out
    assert "restarts: 1" in out
    doc = json.loads(out_path.read_text())
    assert validate_chrome_trace(doc) == []
    restart_events = [
        ev
        for ev in doc["traceEvents"]
        if ev["ph"] == "X" and ev["name"] == "restart"
    ]
    assert restart_events


def test_chaos_rejects_unknown_filter(capsys):
    code = main(["chaos", "knn", "--filter", "nope"])
    assert code == 2
    assert "no filter named 'nope'" in capsys.readouterr().out


def test_serve_burst_verifies_and_exports_metrics(tmp_path, capsys):
    out_path = tmp_path / "serve.jsonl"
    code = main(
        [
            "serve",
            "--requests",
            "16",
            "--max-batch",
            "16",
            "--verify",
            "-o",
            str(out_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "requests: 16  ok: 16  failed: 0" in out
    assert "verify vs one-shot" in out and "OK" in out
    trace = read_jsonl(str(out_path))
    assert trace.meta["role"] == "serve"
    assert {s.phase for s in trace.spans} >= {"request", "execute"}


def test_serve_rejects_bad_mix(capsys):
    code = main(["serve", "--requests", "4", "--mix", "bogus=1"])
    assert code == 2
    assert "unknown kinds" in capsys.readouterr().out


#: every subcommand taking --engine/--backend, with its required positionals
_FLAG_COMMANDS = [
    ["compile", "app.pipe"],
    ["run", "knn"],
    ["trace", "knn"],
    ["chaos", "knn"],
    ["figures"],
    ["serve"],
]


@pytest.mark.parametrize("command", _FLAG_COMMANDS, ids=lambda c: c[0])
def test_engine_and_backend_flags(command):
    from repro.__main__ import build_parser

    parser = build_parser()
    flags = {"backend": "vector"}
    if command[0] != "compile":  # compiling runs nothing
        flags["engine"] = "process"
    argv = [x for name, value in flags.items() for x in (f"--{name}", value)]
    args = parser.parse_args(command + argv)
    assert {name: getattr(args, name) for name in flags} == flags
    for name in flags:
        with pytest.raises(SystemExit):
            parser.parse_args(command + [f"--{name}", "bogus"])


def test_top_renders_a_live_server(capsys):
    """``top`` against a real in-process server: one frame from its deep
    stats, through ``_render_top`` directly and through ``top --connect``."""
    from repro.__main__ import _render_top
    from repro.apps import make_knn_service
    from repro.serve import LocalClient, PipelineServer, ServerOptions

    service = make_knn_service(n_points=2_000, num_packets=3)
    with PipelineServer([service], ServerOptions(max_batch=8)) as server:
        host, port = server.listen()
        responses = LocalClient(server).burst(
            [("knn", {"x": 0.1 * i, "y": 0.5, "z": 0.5}) for i in range(4)]
        )
        assert all(r.ok for r in responses)
        frame = _render_top(server.stats(deep=True), "in-process")
        code = main(
            ["top", "--connect", f"{host}:{port}", "--iterations", "1", "--no-clear"]
        )
    assert code == 0
    lines = frame.splitlines()
    assert lines[0].startswith("repro serve top — in-process — ")
    assert "served 4" in lines[1] and "errors 0" in lines[1]
    rows = {line.split()[0] for line in lines[4:] if line.strip()}
    assert {"admitted", "served", "batches"} <= rows
    assert "request latency (ms)" in frame and "knn" in rows
    assert "stage latency (ms)" in frame and "knn/execute" in rows
    remote = capsys.readouterr().out
    assert remote.startswith(f"repro serve top — {host}:{port} — ")
    assert "request latency (ms)" in remote


def test_serve_listen_runs_for_its_duration(capsys):
    code = main(["serve", "--listen", "127.0.0.1:0", "--duration", "0.2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "listening on 127.0.0.1:" in out
    assert "served: 0  executions: 0" in out
