"""The filter interface (paper §2.2).

    "The interface for filters consists of an initialization function
    (init), a processing function (process), and a finalization function
    (finalize). ... A work cycle starts when the filtering service calls
    the filter init function, which is where any required resources such as
    memory or disk scratch space are pre-allocated.  Next the process
    function is called to continually read data arriving on the input
    streams ... The finalize function is called after all processing is
    finished for the current unit-of-work."

Concrete filters subclass :class:`Filter`:

* ``init(ctx)`` — allocate scratch (e.g. a local z-buffer);
* ``process(buf, ctx)`` — handle one arriving buffer, emit via
  ``ctx.write(payload, packet)``;
* ``finalize(ctx)`` — flush accumulated state (e.g. the merged reduction
  object) before the stream closes.

:class:`FilterSpec` describes a logical filter: a factory, a placement
(which pipeline stage hosts it) and a width (transparent copies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .buffers import Buffer
from .streams import DistributionPolicy


class FilterContext:
    """Per-copy runtime handle given to every filter callback."""

    def __init__(
        self,
        name: str,
        copy_index: int,
        n_copies: int,
        emit: Callable[[Buffer], None],
        params: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.copy_index = copy_index
        self.n_copies = n_copies
        self._emit = emit
        self._origin = f"{name}#{copy_index}"
        #: run parameters (isovalue, query window, ...) shared by all copies
        self.params: dict[str, Any] = params or {}

    def write(self, payload: Any, packet: int = -1) -> None:
        """Send one buffer downstream."""
        self._emit(Buffer(payload=payload, packet=packet, origin=self._origin))

    def write_buffer(self, buf: Buffer) -> None:
        self._emit(buf)


class Filter:
    """Base class; the default callbacks make pass-through trivial."""

    def init(self, ctx: FilterContext) -> None:  # noqa: B027 - optional hook
        pass

    def process(self, buf: Buffer, ctx: FilterContext) -> None:
        ctx.write_buffer(buf)

    def finalize(self, ctx: FilterContext) -> None:  # noqa: B027 - optional hook
        pass


class SourceFilter(Filter):
    """A filter with no input stream: ``generate`` yields payloads.

    The runtime calls :meth:`generate` once per copy; packets are split
    round-robin across source copies (copy k produces packets k, k+c, ...),
    matching a declustered dataset across the data nodes."""

    def generate(self, ctx: FilterContext):  # pragma: no cover - abstract
        raise NotImplementedError
        yield  # noqa: W0101


class FunctionFilter(Filter):
    """Adapts a plain callable ``fn(payload, ctx) -> payload | None``."""

    def __init__(self, fn: Callable[[Any, FilterContext], Any]) -> None:
        self.fn = fn

    def process(self, buf: Buffer, ctx: FilterContext) -> None:
        out = self.fn(buf.payload, ctx)
        if out is not None:
            ctx.write(out, buf.packet)


@dataclass(slots=True)
class FilterSpec:
    """Description of one logical filter in a placed pipeline."""

    name: str
    factory: Callable[[], Filter]
    placement: int = 0  # pipeline stage index (0 = data host)
    width: int = 1  # transparent copies
    out_policy: Optional[DistributionPolicy] = None
    params: dict[str, Any] = field(default_factory=dict)

    def make(self) -> Filter:
        return self.factory()
