"""Large payload leaves across a process hop: segments owned by the edge.

A buffer crossing a process boundary travels inside a pickled frame (see
:mod:`repro.datacutter.mp.channels`).  Pickling a multi-megabyte NumPy
payload would push it through a pipe with a 64 KiB kernel buffer, so leaves
at or above ``DEFAULT_SHM_MIN_BYTES`` — contiguous ``ndarray`` without
object dtype, ``bytes`` / ``bytearray`` / ``memoryview`` — are instead
copied into a POSIX shared-memory segment and replaced in the frame by a
small :class:`ShmRef`.  Smaller or irregular leaves stay in the pickle.

The segments belong to the *edge*, not to a process (:class:`EdgeSegments`):

* **A fixed set per producer copy.**  Producer copy ``p`` owns slots
  ``p * 8 .. p * 8 + 7`` (:data:`SEGMENTS_PER_PRODUCER`).  That bound is
  what keeps the pool's memory flat: a producer that finds every one of its
  segments in flight waits for one to come back instead of creating more.
  A slot's size and its *busy* flag live in arrays shared by every process
  of the pool, so a producer restarted mid-epoch sees exactly which of its
  predecessor's segments are still in flight.
* **Mapped once on each side.**  Names are deterministic
  (``psm_<edge token>_<slot>``); the producer creates a segment on first
  use and the consumer maps it on first sight, and both keep the mapping.
  A steady-state hop is one copy in, one copy out and a few bytes of
  frame: no ``shm_open``, ``ftruncate``, ``mmap`` or ``munmap``, and no
  ``resource_tracker`` message ever (the segments are never registered).
* **Handed back, not unlinked.**  The consumer copies a leaf out and
  clears the slot's busy flag; the producer's next leaf reuses it.  The
  first leaf a producer cannot place sizes all of its free slots to it, so
  a warm edge never creates another segment; a later, larger leaf regrows
  free slots that are too small (``evicted``).
* **The owner unlinks.**  The process that built the edge — the engine's
  parent — unlinks every slot in :meth:`EdgeSegments.close`, called when it
  releases the pool's IPC: after a clean close (which ends every one-shot
  run), a failed epoch or a refork (an engine never closed is swept at
  interpreter exit).  Workers never unlink, so no segment can vanish
  while a frame still names it.  A slot's size is recorded before its
  segment is created, so a crash between the two leaves nothing the owner
  does not know about.

Counters (``hits``, ``misses``, ``released``, ``evicted``) are per process
and per edge; the engine sums them into the ``shm_pool`` trace note.
"""

from __future__ import annotations

import mmap
import os
import secrets
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable

import _posixshmem
import numpy as np

#: payload leaves at or above this size ride shared memory (configurable
#: per pipeline via ``ProcessPipeline(shm_min_bytes=...)``)
DEFAULT_SHM_MIN_BYTES = 64 * 1024

#: segments each producer copy of an edge may own
SEGMENTS_PER_PRODUCER = 8

#: smallest segment created (a page; sizes round up to a power of two)
_MIN_SEGMENT = 4096


@dataclass(slots=True)
class ShmRef:
    """Stands in a frame for one payload leaf parked in an edge segment."""

    slot: int
    #: size of the segment when the leaf was written: a consumer holding a
    #: mapping of another size remaps (the slot was regrown since)
    size: int
    nbytes: int
    kind: str  # "ndarray" | "bytes"
    #: np.lib.format descr (handles structured dtypes); None for bytes
    dtype_descr: Any = None
    shape: tuple = field(default_factory=tuple)


def segment_size(nbytes: int) -> int:
    """Segment size for a leaf of ``nbytes``: a power of two, at least a
    page, so slightly larger leaves later still fit."""
    size = _MIN_SEGMENT
    while size < nbytes:
        size <<= 1
    return size


def _unlink(name: str) -> None:
    try:
        _posixshmem.shm_unlink(name)
    except FileNotFoundError:
        pass


def _unlink_slots(prefix: str, sizes: Any, owner: int) -> None:
    # also the interpreter-exit finalizer: forked children inherit it and
    # must never unlink what the owner's pool may still be using
    if os.getpid() != owner:
        return
    for slot, size in enumerate(sizes):
        if size:
            _unlink(f"{prefix}{slot}")
            sizes[slot] = 0


class EdgeSegments:
    """The shared-memory segments of one edge, :data:`SEGMENTS_PER_PRODUCER`
    per producer copy.  Built in the parent before the fork."""

    def __init__(self, mpctx: Any, n_producers: int) -> None:
        n_slots = n_producers * SEGMENTS_PER_PRODUCER
        self.prefix = f"/psm_{secrets.token_hex(4)}_"
        #: slot -> segment size; 0 = never created
        self._sizes = mpctx.RawArray("q", n_slots)
        #: slot -> 1 while a frame naming it is in flight
        self._busy = mpctx.RawArray("b", n_slots)
        #: this process's mappings, slot -> mmap
        self._maps: dict[int, mmap.mmap] = {}
        self.hits = self.misses = self.released = self.evicted = 0
        self._finalizer = weakref.finalize(
            self, _unlink_slots, self.prefix, self._sizes, os.getpid()
        )

    # -- producer side -------------------------------------------------------
    def acquire(self, producer: int, nbytes: int) -> int | None:
        """A free slot of ``producer`` that holds ``nbytes``, marked busy;
        None when all of them are in flight."""
        sizes, busy = self._sizes, self._busy
        base = producer * SEGMENTS_PER_PRODUCER
        best = None
        short = []
        for slot in range(base, base + SEGMENTS_PER_PRODUCER):
            if busy[slot]:
                continue
            size = sizes[slot]
            if size < nbytes:
                short.append(slot)
            elif best is None or size < sizes[best]:
                best = slot
        if best is not None:
            self.hits += 1
        elif short:
            # size every free slot that is too small to this leaf at once:
            # the edge warms up in one step instead of one slot per epoch
            size = segment_size(nbytes)
            for slot in short:
                self._create(slot, size)
            best = short[0]
        else:
            return None
        busy[best] = 1
        return best

    def _create(self, slot: int, size: int) -> None:
        if self._sizes[slot]:
            _unlink(f"{self.prefix}{slot}")
            self.evicted += 1
        # recorded first: the owner unlinks every slot with a size
        self._sizes[slot] = size
        self._map(slot, size, create=True)
        self.misses += 1

    def _map(self, slot: int, size: int, create: bool = False) -> mmap.mmap:
        """This process's mapping of ``slot``, (re)mapped when missing or
        of another size (the slot was regrown since)."""
        seg = self._maps.get(slot)
        if seg is None or len(seg) != size:
            if seg is not None:
                seg.close()
            # producers create: a restarted one may find a slot whose size
            # its predecessor recorded but whose segment it never created
            flags = os.O_RDWR | (os.O_CREAT if create else 0)
            fd = _posixshmem.shm_open(f"{self.prefix}{slot}", flags, mode=0o600)
            try:
                if os.fstat(fd).st_size < size:
                    os.ftruncate(fd, size)
                seg = mmap.mmap(fd, size)
            finally:
                os.close(fd)
            self._maps[slot] = seg
        return seg

    def _park(self, producer: int, nbytes: int, wait: Callable[[], bool]) -> int | None:
        nbytes = max(nbytes, 1)
        while True:
            slot = self.acquire(producer, nbytes)
            if slot is not None:
                return slot
            if not wait():
                # nothing in flight any more — but a consumer may have
                # handed a segment back since the first look
                return self.acquire(producer, nbytes)

    def encode(
        self,
        obj: Any,
        producer: int,
        min_bytes: int,
        wait: Callable[[], bool],
    ) -> Any:
        """Copy the large leaves of payload ``obj`` into ``producer``'s
        segments, replacing each with a :class:`ShmRef`.

        ``wait`` is called when every segment of the producer is in
        flight: it blocks until one may have come back (True) or reports
        that none is in flight any more (False); a leaf that still finds
        no free segment then stays in the pickle."""
        if isinstance(obj, np.ndarray) and obj.nbytes >= min_bytes and not obj.dtype.hasobject:
            slot = self._park(producer, obj.nbytes, wait)
            if slot is None:
                return obj
            size = self._sizes[slot]
            dst = np.ndarray(obj.shape, obj.dtype, buffer=self._map(slot, size, create=True))
            dst[...] = obj
            del dst
            return ShmRef(
                slot,
                size,
                obj.nbytes,
                "ndarray",
                np.lib.format.dtype_to_descr(obj.dtype),
                tuple(obj.shape),
            )
        if isinstance(obj, (bytes, bytearray, memoryview)) and len(obj) >= min_bytes:
            # straight into the segment: one copy (a strided view has to be
            # gathered first, there is no flat buffer to copy from)
            raw = memoryview(obj)
            raw = raw.cast("B") if raw.c_contiguous else memoryview(bytes(raw))
            slot = self._park(producer, raw.nbytes, wait)
            if slot is None:
                return obj
            size = self._sizes[slot]
            self._map(slot, size, create=True)[: raw.nbytes] = raw
            return ShmRef(slot, size, raw.nbytes, "bytes")
        if isinstance(obj, dict):
            return {k: self.encode(v, producer, min_bytes, wait) for k, v in obj.items()}
        if isinstance(obj, list):
            return [self.encode(v, producer, min_bytes, wait) for v in obj]
        if isinstance(obj, tuple):
            return tuple(self.encode(v, producer, min_bytes, wait) for v in obj)
        return obj

    # -- consumer side -------------------------------------------------------
    def decode(self, obj: Any) -> Any:
        """Inverse of :meth:`encode`: copy each leaf out of its segment and
        hand the segment back to its producer."""
        if isinstance(obj, ShmRef):
            seg = self._map(obj.slot, obj.size)
            if obj.kind == "ndarray":
                dtype = np.lib.format.descr_to_dtype(obj.dtype_descr)
                value: Any = np.ndarray(obj.shape, dtype, buffer=seg).copy()
            else:
                value = seg[: obj.nbytes]
            self._busy[obj.slot] = 0
            self.released += 1
            return value
        if isinstance(obj, dict):
            return {k: self.decode(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [self.decode(v) for v in obj]
        if isinstance(obj, tuple):
            return tuple(self.decode(v) for v in obj)
        return obj

    # -- accounting and teardown ---------------------------------------------
    def counters(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "released": self.released,
            "evicted": self.evicted,
        }

    def reset_counters(self) -> None:
        self.hits = self.misses = self.released = self.evicted = 0

    def census(self) -> tuple[int, int]:
        """(segments, bytes) alive on this edge right now."""
        sizes = [size for size in self._sizes if size]
        return len(sizes), sum(sizes)

    def close(self) -> None:
        """Unmap this process's views; in the owner, unlink every slot."""
        for seg in self._maps.values():
            seg.close()
        self._maps.clear()
        self._finalizer()
