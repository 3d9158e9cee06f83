"""Intrinsic (native) function registry.

The paper's prototype compiles applications whose numeric kernels (triangle
extraction, coordinate transforms, rasterization, ...) are ordinary Java
methods analyzed interprocedurally.  In this reproduction the pipeline
*structure* is written in the dialect while heavy kernels may be registered
as intrinsics: Python/NumPy callables carrying a declared analysis summary —

* which parameter access paths they **read** (may-use: joins ``Cons``),
* which they **write** (must-def: joins ``Gen``),
* an operation-count model for the cost analysis (Section 4.3), and
* an output-volume model for the communication analysis (Section 4.2).

This mirrors how a production compiler summarizes library calls; dialect
methods are still analyzed context-sensitively (``repro.analysis.interproc``),
so both the interprocedural path and the summary path are exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from .types import Type


@dataclass(frozen=True, slots=True)
class OpCount:
    """Operation counts for one call, in the units of the cost model:
    floating-point ops, integer ops, and branch/compare ops."""

    flops: float = 0.0
    iops: float = 0.0
    branches: float = 0.0

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(
            self.flops + other.flops,
            self.iops + other.iops,
            self.branches + other.branches,
        )

    def scaled(self, factor: float) -> "OpCount":
        return OpCount(self.flops * factor, self.iops * factor, self.branches * factor)


@dataclass(frozen=True, slots=True)
class Intrinsic:
    """Declaration + summary + implementation of one native function.

    ``reads``/``writes`` name access paths rooted at parameter names, e.g.
    ``("cube.corners", "cube.values")`` — the analysis renames them to the
    actual-argument paths at each call site.  ``"return"`` in ``writes``
    marks the returned value as freshly generated.

    ``cost`` maps a workload profile (a ``Mapping[str, float]`` of symbolic
    parameters such as selectivities) to an :class:`OpCount` per call.
    ``out_scale`` estimates the number of *result elements* produced per
    call (e.g. triangles per accepted cube) for volume estimation.
    """

    name: str
    param_types: tuple[Type, ...]
    ret_type: Type
    fn: Callable
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ("return",)
    cost: Callable[[Mapping[str, float]], OpCount] = field(
        default=lambda profile: OpCount()
    )
    out_scale: Callable[[Mapping[str, float]], float] = field(
        default=lambda profile: 1.0
    )
    #: True when the call only filters/inspects (no observable writes other
    #: than its return value); such calls may sit inside a foreach safely.
    pure: bool = True
    #: Optional columnar (batch) form consumed by the ``vector`` codegen
    #: backend: called once per packet with whole columns (1-D arrays for
    #: scalar parameters, ``(n, L)`` arrays or ``(values, offsets)`` ragged
    #: pairs for array parameters; packet scalars broadcast) and returning a
    #: column of results.  A loop calling an intrinsic without a batch form
    #: is not vectorizable and falls back to the scalar backend.
    batch_fn: Optional[Callable] = None


class IntrinsicRegistry:
    """Name -> :class:`Intrinsic` mapping used by the typechecker, the
    analyses, and generated code (which dispatches through the registry)."""

    def __init__(self, intrinsics: Sequence[Intrinsic] = ()) -> None:
        self._table: dict[str, Intrinsic] = {}
        for intr in intrinsics:
            self.register(intr)

    def register(self, intr: Intrinsic) -> Intrinsic:
        if intr.name in self._table:
            raise ValueError(f"intrinsic '{intr.name}' already registered")
        self._table[intr.name] = intr
        return intr

    def lookup(self, name: str) -> Optional[Intrinsic]:
        return self._table.get(name)

    def __iter__(self):
        return iter(self._table.values())

    def __len__(self) -> int:
        return len(self._table)


#: Registry shared by all compilations unless the driver supplies its own.
GLOBAL_REGISTRY = IntrinsicRegistry()
