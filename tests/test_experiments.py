"""Experiment-harness tests: per-packet timing, measurement aggregation,
calibration, and simulation of measured runs."""

import pytest

from repro.apps import make_knn_app
from repro.cost import cluster_config
from repro.datacutter import Filter, FilterSpec, SourceFilter, run_pipeline
from repro.experiments import (
    calibrate_net_scale,
    format_results,
    measure_pipeline,
    measure_version,
    run_experiment,
    simulate_measured,
)
from repro.experiments.harness import VersionTimes


class _Src(SourceFilter):
    def generate(self, ctx):
        for k in range(4):
            yield float(k)


class _Work(Filter):
    def process(self, buf, ctx):
        total = sum(i * 0.5 for i in range(2000))
        ctx.write(buf.payload + total * 0, buf.packet)


class TestPerPacketTiming:
    """The harness's per-(filter, packet) seconds come from the run's
    trace (``Trace.seconds_by_packet``), with the specs left as they are."""

    SPECS = [
        FilterSpec("src", _Src),
        FilterSpec("work", _Work, placement=1),
    ]

    def test_trace_records_per_packet(self):
        _run, trace = measure_pipeline(self.SPECS)
        per = trace.seconds_by_packet("work")
        assert set(per) >= {0, 1, 2, 3}
        assert all(t >= 0 for t in per.values())

    def test_traced_run_preserves_results(self):
        plain = run_pipeline(self.SPECS).payloads
        run, _trace = measure_pipeline(self.SPECS)
        assert sorted(plain) == sorted(run.payloads)


@pytest.fixture(scope="module")
def knn_measured():
    app = make_knn_app(k=3)
    workload = app.make_workload(n_points=3000, num_packets=5)
    return app, workload, measure_version(app, workload, "Decomp-Comp")


class TestMeasurement:
    def test_measured_run_shape(self, knn_measured):
        _app, workload, measured = knn_measured
        assert measured.correct
        assert measured.num_packets == 5
        assert len(measured.stage_seconds) == 3
        assert len(measured.link_bytes) == 2
        assert measured.modeled_packet_seconds is not None

    def test_stage_means_positive_where_work_happens(self, knn_measured):
        _app, _wl, measured = knn_measured
        assert measured.measured_packet_seconds() > 0

    def test_calibration_at_least_one(self, knn_measured):
        _app, _wl, measured = knn_measured
        assert calibrate_net_scale(measured) >= 1.0

    def test_simulation_of_measured_run(self, knn_measured):
        _app, _wl, measured = knn_measured
        env1 = cluster_config(1)
        env4 = cluster_config(4)
        scale = calibrate_net_scale(measured)
        t1 = simulate_measured(measured, env1, scale).makespan
        t4 = simulate_measured(measured, env4, scale).makespan
        assert t4 <= t1

    def test_manual_version_measured(self):
        app = make_knn_app(k=3)
        workload = app.make_workload(n_points=2000, num_packets=4)
        measured = measure_version(app, workload, "Decomp-Manual")
        assert measured.correct

    def test_unknown_version_rejected(self):
        app = make_knn_app(k=3)
        workload = app.make_workload(n_points=1000, num_packets=2)
        with pytest.raises(ValueError, match="unknown version"):
            measure_version(app, workload, "Nonsense")


class TestRunExperiment:
    def test_full_experiment_and_formatting(self):
        app = make_knn_app(k=3)
        workload = app.make_workload(n_points=3000, num_packets=5)
        results = run_experiment(
            app,
            workload,
            ["Default", "Decomp-Comp"],
            configs={"1-1-1": cluster_config(1), "2-2-1": cluster_config(2)},
        )
        assert set(results) == {"Default", "Decomp-Comp"}
        for vt in results.values():
            assert vt.correct
            assert set(vt.times) == {"1-1-1", "2-2-1"}
        table = format_results("test", results, ["1-1-1", "2-2-1"])
        assert "Decomp-Comp" in table and "1-1-1" in table

    def test_version_times_speedup(self):
        vt = VersionTimes("x", times={"a": 2.0, "b": 1.0})
        assert vt.speedup("a", "b") == 2.0
