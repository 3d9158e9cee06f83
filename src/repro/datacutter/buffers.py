"""Buffer abstraction of the filter-stream model (paper §2.2).

    "All transfers to and from streams are through a provided buffer
    abstraction.  A buffer represents a contiguous memory region containing
    useful data.  Streams transfer data in fixed size buffers."

A :class:`Buffer` carries a payload (either raw ``bytes`` — what compiled
filters exchange — or an arbitrary Python object for hand-written filters),
the packet index it belongs to, and control flags.  ``nbytes`` is what the
simulator and the volume accounting charge to the link.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

import numpy as np


class BufferKind(enum.Enum):
    DATA = "data"
    END_OF_WORK = "end_of_work"  # end of one unit-of-work (one query)


#: hoisted: an enum member read off its class goes through the enum
#: metaclass, a cost ``StreamStats.record`` would pay on every hop
_DATA = BufferKind.DATA


@dataclass(slots=True)
class Buffer:
    """One stream transfer unit."""

    payload: Any = None
    packet: int = -1
    kind: BufferKind = BufferKind.DATA
    #: producer copy that emitted this buffer (for debugging/accounting)
    origin: str = ""

    @property
    def is_data(self) -> bool:
        return self.kind is _DATA

    @property
    def nbytes(self) -> int:
        return payload_nbytes(self.payload)

    @staticmethod
    def end_of_work() -> "Buffer":
        return Buffer(kind=BufferKind.END_OF_WORK)


def payload_nbytes(payload: Any) -> int:
    """Size accounting for the payload types filters exchange."""
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, dict):
        return sum(payload_nbytes(v) for v in payload.values())
    if isinstance(payload, (list, tuple)):
        return sum(payload_nbytes(v) for v in payload)
    if isinstance(payload, (int, float, bool)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode())
    # objects expose nbytes or are charged a pointer
    return int(getattr(payload, "nbytes", 8))


@dataclass(slots=True)
class StreamStats:
    """Per-logical-stream accounting (buffers and bytes moved)."""

    buffers: int = 0
    bytes: int = 0
    by_packet: dict[int, int] = field(default_factory=dict)

    def record(self, buf: Buffer) -> None:
        if buf.kind is not _DATA:
            return
        size = payload_nbytes(buf.payload)
        self.buffers += 1
        self.bytes += size
        self.by_packet[buf.packet] = self.by_packet.get(buf.packet, 0) + size
