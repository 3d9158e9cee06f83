"""Command line, measurement loop and report of the benchmark.

One invocation with ``--workload NAME`` is one process measuring one
workload: set-up (timed, repeated), reference values, then rounds of the
workload's fixed basket until ``--seconds`` have passed.  The last line of
standard output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); everything above it is for people.  Without ``--workload``
every workload runs, each in a process of its own, so that ``peak_rss_mb``
means the same in both modes.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .layers import PER_LAYER, run_probes
from .spans import SpanRecorder
from .workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 20030915
RUN_SECONDS = 13
#: cold set-ups per run, at least and at most; ``setup_s`` is their median
SETUP_REPEATS = 5
MAX_SETUP_REPEATS = 7
#: the latency percentiles are medians over this many consecutive slices of
#: the timed window: a neighbour's burst on this shared box lands in one or
#: two slices and is outvoted, where it would own the tail of the whole window
SLICES = 7


@dataclass(frozen=True, slots=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may get worse before
    #: a change counts as a regression (``--selfcheck`` judges by it)
    bound: float
    #: ``bound`` as BENCHMARK.json states it.  The driver takes one bound per
    #: metric for all workloads and refuses a benchmark whose ten-seed spread
    #: on any workload is wider than it, so this one follows the least steady
    #: workload, not the regression rule.
    driver_bound: float
    #: absolute allowance under which a difference never counts (``setup_s``:
    #: a quarter of a 0.1 s set-up is scheduler noise)
    floor: float = 0.0

    def allowance(self, median: float) -> float:
        return max(self.bound * median, self.floor)


#: ``failed_share`` is not in this list because the contract wants metrics
#: that are never 0; it is the ``failed`` / ``attempted`` pair of the result
#: line, printed as a share in the report, and any failure fails the command.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25, 0.25, floor=0.2),
    EndToEnd("ops_per_s", "op/s", "higher", 0.10, 0.25),
    EndToEnd("op_ms_p50", "ms", "lower", 0.10, 0.25),
    EndToEnd("op_ms_p95", "ms", "lower", 0.15, 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, 0.10),
)


def manifest() -> dict[str, Any]:
    """What BENCHMARK.json must say (``--manifest`` prints it)."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": cls.name, "why": cls.why} for cls in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.driver_bound}
            for m in END_TO_END
        ],
        "per_layer": [asdict(m) for m in PER_LAYER],
    }


def fingerprint() -> dict[str, Any]:
    """Where the numbers were taken; written into every report."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
    }


def max_rss_mb(who: int) -> float:
    """High-water resident set of this process (``RUSAGE_SELF``) or of its
    largest reaped child (``RUSAGE_CHILDREN``: the engine's workers)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def sliced_percentile(latencies_ms: list[float], q: float) -> float:
    """Median over ``SLICES`` consecutive slices of the samples (in the
    order they were taken) of the slice's ``q``-th percentile."""
    slices = np.array_split(latencies_ms, min(SLICES, len(latencies_ms)))
    return statistics.median(float(np.percentile(part, q)) for part in slices)


def rounds_until(workload: Workload, seconds: float, rec: SpanRecorder | None = None):
    """Repeat the workload's round until ``seconds`` have passed.  With a
    recorder every second round is traced (interleaved, so drift hits both
    kinds alike).  Returns (untraced rounds, traced rounds, this process's
    high-water RSS after ``workload.rss_rounds`` rounds)."""
    plain, traced = [], []
    rss_mb = None
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        trace_this = rec is not None and index % 2 == 1
        result = workload.round(rec if trace_this else None)
        (traced if trace_this else plain).append(result)
        index += 1
        if index == workload.rss_rounds:
            rss_mb = max_rss_mb(resource.RUSAGE_SELF)
        enough = bool(plain) and (rec is None or bool(traced))
        if enough and (workload.quick or time.perf_counter() >= deadline):
            return plain, traced, rss_mb or max_rss_mb(resource.RUSAGE_SELF)


def in_child(fn, *args: Any) -> Any:
    """``fn(*args)`` in a forked child of its own; returns what it returned.

    The parent never sets up a workload itself, so it has no threads when it
    forks, every set-up is a cold one, and ``peak_rss_mb`` is that of the one
    process that ran the timed window (plus its workers), not of whatever
    ran before it."""
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)

    def target() -> None:
        try:
            sender.send((True, fn(*args)))
        except BaseException:  # noqa: BLE001 - reported to the parent, which raises
            sender.send((False, traceback.format_exc()))

    sys.stdout.flush()  # or the child would flush its copy of the buffer too
    child = ctx.Process(target=target)
    child.start()
    sender.close()
    try:
        ok, value = receiver.recv()
    except EOFError:
        ok, value = False, "child exited without a result"
    finally:
        child.join()
    if not ok:
        raise RuntimeError(f"{fn.__name__}{args} failed in its child:\n{value}")
    return value


def cold_setup_seconds(name: str, seed: int) -> float:
    workload = WORKLOADS[name](seed)
    t0 = time.perf_counter()
    workload.setup()
    seconds = time.perf_counter() - t0
    workload.teardown()
    return seconds


def measure_here(name: str, seed: int, seconds: float, quick: bool) -> dict[str, Any]:
    """The untraced pass in this process: one set-up, the reference values,
    rounds until ``seconds`` have passed, the end-to-end metrics."""
    workload = WORKLOADS[name](seed, quick)
    t0 = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - t0
    try:
        workload.oracles()
        gc.collect()
        rounds, _, rss_mb = rounds_until(workload, seconds)
    finally:
        workload.teardown()
    samples = [s for r in rounds for s in r.samples]
    latencies_ms = [1e3 * s.latency for s in samples]
    failed = sum(not s.ok for s in samples)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(r.ops_per_s for r in rounds),
        "op_ms_p50": sliced_percentile(latencies_ms, 50),
        "op_ms_p95": sliced_percentile(latencies_ms, 95),
        # workers are reaped at tear-down, so their share is read after it
        "peak_rss_mb": rss_mb + max_rss_mb(resource.RUSAGE_CHILDREN),
    }
    return {
        "workload": name,
        "metrics": metrics,
        "attempted": len(samples),
        "failed": failed,
        "info": {
            "basket": workload.basket,
            "rounds": len(rounds),
            "samples": len(samples),
            "failed_share": failed / len(samples),
            "errors": workload.errors[:5],
            **workload.info(),
        },
    }


def measure(name: str, seed: int, seconds: float) -> dict[str, Any]:
    """One run: cold set-ups in children of their own until there are
    ``SETUP_REPEATS`` of them and a second of set-up time (a 70 ms set-up
    needs more repeats than a 700 ms one), the last of them followed by the
    timed window.  The first set-up of a fresh process reads up to twice the
    later ones (the idle vCPU waking up), hence no fewer than five."""
    setups: list[float] = []
    while len(setups) < SETUP_REPEATS - 1 or (
        sum(setups) < 1.0 and len(setups) < MAX_SETUP_REPEATS - 1
    ):
        setups.append(in_child(cold_setup_seconds, name, seed))
    result = in_child(measure_here, name, seed, seconds, False)
    setups.append(result["metrics"]["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["info"]["setups"] = len(setups)
    return result


def measure_traced(
    name: str, seed: int, seconds: float, quick: bool, out_dir: Path,
    probes: bool = True,
) -> dict[str, Any]:
    """The traced pass: a quarter of the rounds with the span recorder on,
    as many without for the overhead figure, then the layer probes."""
    workload = WORKLOADS[name](seed, quick)
    rec = SpanRecorder()
    workload.setup()
    try:
        workload.oracles()
        gc.collect()
        plain, traced, _ = rounds_until(workload, seconds / 2, rec)
        own_layers = workload.layer_metrics()
    finally:
        workload.teardown()
    samples = [s for r in plain + traced for s in r.samples]
    failed = sum(not s.ok for s in samples)
    layer_metrics: dict[str, Any] = {}
    warnings: list[str] = []
    if probes:
        layer_metrics, warnings = run_probes(seed, quick)
    layer_metrics.update(own_layers)
    layer_metrics["bench.trace_overhead_share"] = (
        statistics.median(r.wall for r in traced)
        / statistics.median(r.wall for r in plain)
        - 1.0
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    span_file = out_dir / f"spans-{name}-seed{seed}.jsonl"
    rec.write_jsonl(str(span_file))
    info: dict[str, Any] = {
        "rounds_traced": len(traced),
        "rounds_untraced": len(plain),
        "spans": len(rec.spans),
        "span_file": str(span_file),
        "self_ms_by_span": rec.self_ms_by_name(),
        "errors": workload.errors[:5],
        "warnings": warnings,
    }
    if name == "compile-cold":
        info["compile_child_coverage"] = rec.child_coverage("compile")
    return {
        "workload": name,
        "metrics": layer_metrics,
        "attempted": len(samples),
        "failed": failed,
        "info": info,
    }


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

UNITS = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}


def result_line(result: dict[str, Any]) -> str:
    """The contract's last line: exactly correct/attempted/failed/metrics."""
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": UNITS[name]}
                for name, value in result["metrics"].items()
            },
        }
    )


def print_result(result: dict[str, Any]) -> None:
    print(f"== {result['workload']} ==")
    for key, value in result["info"].items():
        if isinstance(value, dict):
            print(f"  {key}:")
            for k, v in value.items():
                print(f"    {k:<28} {v:.4f}" if isinstance(v, float) else f"    {k:<28} {v}")
        elif value not in ([], None):
            print(f"  {key}: {value:.4f}" if isinstance(value, float) else f"  {key}: {value}")
    for name, value in result["metrics"].items():
        shown = "null" if value is None else f"{value:.4f}"
        print(f"  {name:<52} {shown:>14} {UNITS[name]}")


def write_report(out_dir: Path, stem: str, payload: dict[str, Any]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({"fingerprint": fingerprint(), **payload}, fh, indent=1)


# ---------------------------------------------------------------------------
# every workload, each in its own process
# ---------------------------------------------------------------------------


def run_child(name: str, args: argparse.Namespace, trace: int, seed: int) -> dict[str, Any]:
    """Run one workload in a child process; returns its parsed result line
    (``correct`` False with no metrics if the child failed)."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--out", str(args.out),
    ]  # fmt: skip
    if trace and name != args.workloads[0]:
        command.append("--no-probes")  # the probes do not depend on the workload
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not args.quiet:  # the parent has printed the fingerprint line already
        print("\n".join(line for line in lines[:-1] if not line.startswith("# ")))
        if done.stderr.strip():
            print(done.stderr.strip(), file=sys.stderr)
    if done.returncode not in (0, 1) or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return json.loads(lines[-1])


def run_all(args: argparse.Namespace, seed: int) -> tuple[dict[str, Any], bool]:
    """Every selected workload, untraced (and traced with ``--trace``)."""
    results: dict[str, Any] = {}
    ok = True
    for name in args.workloads:
        result = run_child(name, args, 0, seed)
        ok &= result["correct"]
        if args.trace:
            traced = run_child(name, args, 1, seed)
            ok &= traced["correct"]
            result = {**result, "per_layer": traced["metrics"]}
        results[name] = result
    return results, ok


def smoke(args: argparse.Namespace) -> int:
    """``--quick``: one round of every workload and one or two calls of
    every probe, in this process; proves they still run and verify."""
    failed = 0
    for name in args.workloads:
        result = measure_here(name, args.seed, 0.0, quick=True)
        failed += result["failed"]
        print(f"{name:<14} {result['attempted']:>4} ops, {result['failed']} failed")
    layers, _warnings = run_probes(args.seed, quick=True)
    missing = [name for name, value in layers.items() if value is None]
    print(f"probes: {len(layers) - len(missing)} metrics, {len(missing)} unavailable")
    described = ROOT / "BENCHMARK.json"
    stale = described.exists() and json.loads(described.read_text()) != manifest()
    if stale:
        print("BENCHMARK.json differs from `run.py --manifest`")
    print(json.dumps({"correct": failed == 0, "failed": failed, "unavailable": missing}))
    return 0 if failed == 0 and not missing and not stale else 1


def selfcheck(args: argparse.Namespace) -> int:
    """Two sets of ``--runs`` untraced runs of the same code.  For every
    end-to-end metric of every workload the two set medians must agree
    within the metric's bound; where the runs themselves spread wider than
    the bound (quartile distance of all of them over their median) the pair
    is *unresolved*: at that bound this box cannot tell the sets apart, so
    it can show neither a regression nor its absence."""
    bounds = {m.name: m for m in END_TO_END}
    values: dict[tuple[str, str], list[list[float]]] = {}
    correct = True
    seed = args.seed
    for which in range(2):
        for _ in range(args.runs):
            seed += 1
            results, ok = run_all(args, seed)
            correct &= ok
            for name, result in results.items():
                for metric, entry in result["metrics"].items():
                    sets = values.setdefault((name, metric), [[], []])
                    sets[which].append(entry["value"])
    report = []
    counts = {"agree": 0, "unresolved": 0, "DISAGREE": 0}
    print(f"{'workload':<14}{'metric':<13}{'set A':>12}{'set B':>12}"
          f"{'B vs A':>9}{'spread':>9}{'bound':>8}")
    for (name, metric), (a, b) in values.items():
        bound = bounds[metric]
        med_a, med_b = statistics.median(a), statistics.median(b)
        median = statistics.median(a + b)
        q1, _, q3 = statistics.quantiles(a + b, n=4)
        if q3 - q1 > bound.allowance(median):
            status = "unresolved"
        elif abs(med_b - med_a) <= bound.allowance(med_a):
            status = "agree"
        else:
            status = "DISAGREE"
        counts[status] += 1
        worse = (med_b - med_a) / med_a * (1 if bound.better == "lower" else -1)
        spread = (q3 - q1) / median
        print(f"{name:<14}{metric:<13}{med_a:>12.4f}{med_b:>12.4f}"
              f"{worse:>+9.1%}{spread:>9.1%}{bound.bound:>8.0%}"
              f"{'' if status == 'agree' else '  ' + status}")
        report.append({
            "workload": name, "metric": metric, "unit": bound.unit,
            "median_a": med_a, "median_b": med_b, "worse_share": worse,
            "median": median, "spread": spread, "bound": bound.bound,
            "floor": bound.floor, "status": status, "runs": a + b,
        })  # fmt: skip
    write_report(
        args.out,
        "selfcheck",
        {"first_seed": args.seed + 1, "runs_per_set": args.runs,
         "run_seconds": args.seconds, "correct": correct, "metrics": report},
    )  # fmt: skip
    print(f"selfcheck: {counts['agree']} pairs agree, {counts['unresolved']} "
          f"unresolved (spread wider than the bound), {counts['DISAGREE']} disagree"
          f"{'' if correct else '; OUTPUTS WRONG'}; wrote {args.out}/selfcheck.json")
    return 0 if correct and not counts["DISAGREE"] else 1


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks/perf/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=list(WORKLOADS), action="append",
                        dest="workloads", help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="length of the timed window of one run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced pass: spans + per-layer metrics")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for span files and reports")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: one round and one call of everything")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two sets of --runs runs must agree within the bounds")
    parser.add_argument("--runs", type=int, default=3, help="runs per selfcheck set")
    parser.add_argument("--manifest", action="store_true",
                        help="print what BENCHMARK.json must contain and exit")
    parser.add_argument("--no-probes", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--quiet", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)  # fmt: skip


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    args.out = args.out.resolve()
    single = args.workloads is not None and len(args.workloads) == 1
    args.workloads = args.workloads or list(WORKLOADS)
    if args.selfcheck:
        args.quiet = True
        return selfcheck(args)
    if args.quick and not single:
        return smoke(args)
    if not single:
        print(f"# {json.dumps(fingerprint())}")
        results, ok = run_all(args, args.seed)
        write_report(args.out, "report", {"seed": args.seed, "results": results})
        print(json.dumps({"correct": ok, "results": results}))
        return 0 if ok else 1
    name = args.workloads[0]
    if args.trace:
        result = measure_traced(
            name, args.seed, args.seconds, args.quick, args.out,
            probes=not args.no_probes,
        )  # fmt: skip
    else:
        result = (
            measure_here(name, args.seed, 0.0, quick=True)
            if args.quick
            else measure(name, args.seed, args.seconds)
        )
    print(f"# {json.dumps(fingerprint())}")
    print_result(result)
    print(result_line(result))
    return 0 if result["failed"] == 0 else 1
