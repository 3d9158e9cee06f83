"""Discrete-event simulation of a placed pipeline on a grid environment.

The paper ran on a Myrinet cluster; we reproduce the *timing shape* of
those experiments with a deterministic tandem queueing network:

* stage ``j`` has ``width_j`` identical servers (transparent copies), FIFO;
* the link between stages ``j`` and ``j+1`` has ``min(width_j, width_{j+1})``
  parallel channels (the w-w-1 configurations pair data and compute nodes);
* per-packet service times come from the cost model (weighted ops / power,
  bytes / bandwidth) or from *measured* kernel times, and may vary per
  packet (vmscope's load imbalance on small queries, §6.5).

The simulator is exact for this network class and is property-tested
against the §4.3 closed form: with constant service times the makespan is
``(N-1)·bottleneck + fill`` (to per-packet rounding effects of multi-width
stages).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

TimeFn = Union[float, Callable[[int], float]]


def _resolve(fn: TimeFn, packet: int) -> float:
    return fn(packet) if callable(fn) else float(fn)


@dataclass(slots=True)
class SimStage:
    """One service center: a pipeline stage or a link."""

    name: str
    servers: int
    service: TimeFn

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise ValueError(f"stage {self.name}: needs >= 1 server")


@dataclass(slots=True)
class SimReport:
    """Timing of one simulated run."""

    makespan: float
    completion: list[float]  # per packet, at the last stage
    stage_busy: dict[str, float] = field(default_factory=dict)
    stage_wait: dict[str, float] = field(default_factory=dict)

    def utilization(self, name: str) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.stage_busy.get(name, 0.0) / self.makespan


def multi_server_fifo(
    arrivals: Sequence[float],
    service: TimeFn,
    servers: int,
) -> tuple[list[float], float, float]:
    """Completion times of a FIFO multi-server station.

    Packets are served in arrival order.  Returns (completion times aligned
    to the input index, total busy time, total waiting time).
    """
    n = len(arrivals)
    order = sorted(range(n), key=lambda k: (arrivals[k], k))
    free: list[float] = [0.0] * servers
    heapq.heapify(free)
    completion = [0.0] * n
    busy = 0.0
    wait = 0.0
    for k in order:
        t_arrive = arrivals[k]
        t_server = heapq.heappop(free)
        start = max(t_arrive, t_server)
        dur = _resolve(service, k)
        if dur < 0:
            raise ValueError("negative service time")
        end = start + dur
        completion[k] = end
        busy += dur
        wait += start - t_arrive
        heapq.heappush(free, end)
    return completion, busy, wait


def simulate(stages: Sequence[SimStage], num_packets: int) -> SimReport:
    """Run ``num_packets`` packets through the tandem of ``stages``.

    All packets are available at time zero at the first stage (the data is
    stored on the data host); every subsequent arrival time is the
    completion at the previous stage.
    """
    if num_packets < 0:
        raise ValueError("num_packets must be >= 0")
    if num_packets == 0:
        return SimReport(makespan=0.0, completion=[])
    arrivals = [0.0] * num_packets
    report = SimReport(makespan=0.0, completion=[])
    for stage in stages:
        completion, busy, wait = multi_server_fifo(
            arrivals, stage.service, stage.servers
        )
        report.stage_busy[stage.name] = busy
        report.stage_wait[stage.name] = wait
        arrivals = completion
    report.completion = list(arrivals)
    report.makespan = max(arrivals)
    return report


def stages_for_pipeline(
    comp_times: Sequence[TimeFn],
    link_times: Sequence[TimeFn],
    widths: Sequence[int],
    names: Sequence[str] | None = None,
) -> list[SimStage]:
    """Interleave compute stages and links into the tandem order
    C_1, L_1, C_2, L_2, ..., C_m with the §6.2 width/channel rules."""
    m = len(comp_times)
    if len(link_times) != m - 1 or len(widths) != m:
        raise ValueError("need m comp times, m-1 link times, m widths")
    names = list(names) if names is not None else [f"C{j + 1}" for j in range(m)]
    stages: list[SimStage] = []
    for j in range(m):
        stages.append(SimStage(names[j], int(widths[j]), comp_times[j]))
        if j < m - 1:
            channels = min(int(widths[j]), int(widths[j + 1]))
            stages.append(SimStage(f"L{j + 1}", channels, link_times[j]))
    return stages


def simulate_pipeline(
    comp_times: Sequence[TimeFn],
    link_times: Sequence[TimeFn],
    widths: Sequence[int],
    num_packets: int,
) -> SimReport:
    """One-call wrapper used by the experiment harness."""
    return simulate(
        stages_for_pipeline(comp_times, link_times, widths), num_packets
    )
