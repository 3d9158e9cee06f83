"""Automatic packet-count selection (paper §8 future work).

    "Automatically choosing the packet size is another issue."

The §3 language leaves ``runtime_define num_packets`` to the user.  This
module closes the loop: given the analysed chain and a workload profile
describing the *total* data (elements = packet_size x num_packets), it
sweeps candidate packet counts under the §4.3 cost model — re-running the
DP decomposition for each, since the optimal placement can shift with
packet granularity — and returns the best count.

The trade-off it navigates: too few packets cannot amortize pipeline fill
((N-1)·bottleneck needs N), too many pay per-buffer latency and per-packet
overheads (reduction merges happen once per packet).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..analysis.boundaries import FilterChain
from ..analysis.reqcomm import CommAnalysis
from .compiler import CompileOptions, compute_problem, decompose


@dataclass(slots=True)
class PacketSweepResult:
    """Outcome of one packet-count sweep."""

    best: int
    #: packet count -> estimated total time (§4.3 objective, widths applied)
    estimates: dict[int, float] = field(default_factory=dict)
    #: packet count -> plan string, for inspection
    plans: dict[int, str] = field(default_factory=dict)


DEFAULT_CANDIDATES = (1, 2, 4, 8, 16, 32, 64, 128)


def choose_packet_count(
    chain: FilterChain,
    comm: CommAnalysis,
    options: CompileOptions,
    candidates: Sequence[int] = DEFAULT_CANDIDATES,
) -> PacketSweepResult:
    """Pick the packet count minimizing the §4.3 estimate.

    The total element count is taken from the profile
    (``packet_size * num_packets``) and held fixed across the sweep; each
    candidate re-derives per-packet sizes, re-prices the chain, and re-runs
    the decomposition.
    """
    base = options.profile
    total_elements = base.packet_size * base.num_packets
    if total_elements <= 0:
        raise ValueError("profile must define a positive total data size")
    result = PacketSweepResult(best=0)
    for n in candidates:
        if n < 1 or n > total_elements:
            continue
        profile = base.with_params(
            num_packets=float(n), packet_size=total_elements / n
        )
        swept = CompileOptions(
            env=options.env,
            profile=profile,
            weights=options.weights,
            objective=options.objective,
            charge_raw_input=options.charge_raw_input,
            size_hints=dict(options.size_hints),
            runtime_classes=dict(options.runtime_classes),
            method=options.method,
            use_widths=options.use_widths,
            method_costs=dict(options.method_costs),
        )
        _tasks, _vols, problem = compute_problem(chain, comm, swept)
        plan, _cost = decompose(problem, swept)
        estimate = problem.evaluate(plan)
        result.estimates[n] = estimate
        result.plans[n] = str(plan)
    if not result.estimates:
        raise ValueError("no feasible packet counts among the candidates")
    result.best = min(result.estimates, key=result.estimates.__getitem__)
    return result
