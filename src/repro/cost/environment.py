"""The execution environment: a pipeline of computing units and links
(paper §4.1, §4.3, §6.2).

    "We denote the computing units in the pipeline by C_1, ..., C_m.  The
    connection between units C_i and C_{i+1} is denoted by L_i."

The first unit hosts the data, the last views the results.  Units carry a
*power* (weighted operations per second) and a *width* — the number of
transparent copies available at that stage (the paper's 1-1-1 / 2-2-1 /
4-4-1 configurations); links carry bandwidth (bytes/second) and latency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence


@dataclass(frozen=True, slots=True)
class ComputeUnit:
    """One pipeline stage's compute resource."""

    name: str
    power: float  # weighted ops / second (see OpCount.total)
    width: int = 1  # transparent copies available at this stage

    def __post_init__(self) -> None:
        if self.power <= 0:
            raise ValueError(f"unit {self.name}: power must be positive")
        if self.width < 1:
            raise ValueError(f"unit {self.name}: width must be >= 1")


@dataclass(frozen=True, slots=True)
class Link:
    """Connection between consecutive units."""

    name: str
    bandwidth: float  # bytes / second
    latency: float = 0.0  # seconds per buffer

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"link {self.name}: bandwidth must be positive")
        if self.latency < 0:
            raise ValueError(f"link {self.name}: latency must be >= 0")


@dataclass(frozen=True, slots=True)
class PipelineEnv:
    """C_1..C_m and L_1..L_{m-1}."""

    units: tuple[ComputeUnit, ...]
    links: tuple[Link, ...]

    def __post_init__(self) -> None:
        if len(self.units) < 1:
            raise ValueError("a pipeline needs at least one computing unit")
        if len(self.links) != len(self.units) - 1:
            raise ValueError(
                f"{len(self.units)} units need {len(self.units) - 1} links, "
                f"got {len(self.links)}"
            )

    @property
    def m(self) -> int:
        return len(self.units)

    def unit(self, j: int) -> ComputeUnit:
        """1-based accessor: C_j."""
        return self.units[j - 1]

    def link(self, j: int) -> Link:
        """1-based accessor: L_j connects C_j and C_{j+1}."""
        return self.links[j - 1]

    def with_widths(self, widths: Sequence[int]) -> "PipelineEnv":
        if len(widths) != self.m:
            raise ValueError("one width per unit required")
        return PipelineEnv(
            tuple(replace(u, width=w) for u, w in zip(self.units, widths)),
            self.links,
        )


def make_pipeline(
    powers: Sequence[float],
    bandwidths: Sequence[float],
    widths: Sequence[int] | None = None,
    latencies: Sequence[float] | None = None,
    names: Sequence[str] | None = None,
) -> PipelineEnv:
    """Convenience constructor used throughout tests and experiments."""
    m = len(powers)
    widths = list(widths) if widths is not None else [1] * m
    latencies = list(latencies) if latencies is not None else [0.0] * (m - 1)
    names = list(names) if names is not None else [f"C{i + 1}" for i in range(m)]
    units = tuple(
        ComputeUnit(names[i], float(powers[i]), int(widths[i])) for i in range(m)
    )
    links = tuple(
        Link(f"L{i + 1}", float(bandwidths[i]), float(latencies[i]))
        for i in range(m - 1)
    )
    return PipelineEnv(units, links)


# ---------------------------------------------------------------------------
# The paper's cluster configurations (§6.2)
# ---------------------------------------------------------------------------

#: Weighted ops/second for a 700 MHz Pentium III-class node: the paper's
#: cluster.  One weighted op ~ a flop with our default OpCount weights.
PENTIUM_700_POWER = 250e6

#: Myrinet LANai 7.0 point-to-point bandwidth, ~1 Gbit/s effective.
MYRINET_BANDWIDTH = 125e6

#: Per-buffer latency on Myrinet within one cluster.
MYRINET_LATENCY = 50e-6


def cluster_config(width: int, *, stages: int = 3) -> PipelineEnv:
    """The paper's w-w-1 configurations: data nodes, compute nodes, and one
    view node, all 700 MHz Pentiums on Myrinet.

    ``cluster_config(1)`` is 1-1-1, ``cluster_config(2)`` is 2-2-1,
    ``cluster_config(4)`` is 4-4-1 (§6.2)."""
    if stages != 3:
        raise ValueError("the paper's configurations have 3 stages")
    widths = [width, width, 1]
    return make_pipeline(
        powers=[PENTIUM_700_POWER] * 3,
        bandwidths=[MYRINET_BANDWIDTH] * 2,
        widths=widths,
        latencies=[MYRINET_LATENCY] * 2,
        names=["data", "compute", "view"],
    )


#: Name -> configuration, as used in every §6 figure.
PAPER_CONFIGS = {
    "1-1-1": cluster_config(1),
    "2-2-1": cluster_config(2),
    "4-4-1": cluster_config(4),
}
