"""Shared-memory buffer transport for the process engine.

Stream buffers crossing a process boundary are pickled through a
``multiprocessing.Queue``.  Pickling a multi-megabyte NumPy payload copies
it twice (serialize + deserialize) through a pipe with a small kernel
buffer; for those payloads we instead park the bytes in a
:class:`multiprocessing.shared_memory.SharedMemory` segment and send only
a small :class:`ShmRef` descriptor.  The consumer attaches, copies the
data out, closes, and unlinks the segment, so every segment lives exactly
as long as one buffer is in flight.

Small or irregular payloads (scalars, strings, objects, arrays below
``DEFAULT_SHM_MIN_BYTES``) take the plain pickle path — for them the
descriptor bookkeeping would cost more than it saves.

The encoder walks the payload tree (dict / list / tuple containers) and
replaces eligible leaves — contiguous ``ndarray`` without object dtype,
``bytes``/``bytearray``/``memoryview`` — with descriptors; the decoder
inverts the walk.  Teardown after a failed run uses
:func:`collect_shm_refs` / :func:`unlink_ref` to reclaim segments whose
consumer died before draining them.

Segments are recycled through a per-process :class:`ShmPool`: creating a
segment is a syscall pair (``shm_open`` + ``ftruncate`` + ``mmap``) paid
per packet per link, so instead of unlinking after the copy-out the
consumer parks the attached segment on a bounded free list keyed by
power-of-two size class, and the next ``encode_payload`` in that process
pops it instead of creating a fresh one.  Segments migrate with the data:
a middle-stage worker consumes from upstream and reuses the very segments
it just drained for its own output.  The pool is torn down (close +
unlink) when a worker exits or the engine finishes; hit/miss counts ride
the control queue and land in the run trace under ``shm_pool``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

#: payload leaves at or above this size ride shared memory (configurable
#: per pipeline via ``ProcessPipeline(shm_min_bytes=...)``)
DEFAULT_SHM_MIN_BYTES = 64 * 1024


class EndOfStream:
    """Queue sentinel: every producer copy of the stream has closed.

    Carries the *work epoch* it was sent in: with a resident worker pool
    (see :mod:`repro.datacutter.mp.engine`) the same queues host many
    units of work back to back, and a consumer must never let a straggler
    sentinel from epoch N satisfy the end-of-stream count of epoch N+1.
    """

    __slots__ = ("epoch",)

    def __init__(self, epoch: int = 0) -> None:
        self.epoch = epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EndOfStream(epoch={self.epoch})"


@dataclass(slots=True)
class ShmRef:
    """Descriptor of one payload leaf parked in a shared-memory segment."""

    name: str
    nbytes: int
    kind: str  # "ndarray" | "bytes"
    #: np.lib.format descr (handles structured dtypes); None for bytes
    dtype_descr: Any = None
    shape: tuple = field(default_factory=tuple)


class ShmPool:
    """Bounded per-process free list of shared-memory segments.

    Keyed by power-of-two size class (min :data:`MIN_CLASS` bytes): an
    ``acquire`` pops any pooled segment of the right class (hit) or
    creates one sized to the class (miss); a ``release`` parks a
    still-attached segment for reuse, or refuses when the class list or
    the total byte budget is full (the caller then unlinks as before).
    Pooled segments stay open and resource-tracker-registered, so one
    ownership claim survives exactly as for an in-flight buffer; a
    :meth:`teardown` closes and unlinks everything.

    Thread safety: acquire/release/stats/teardown hold an internal
    ``threading.Lock`` — negligible next to the shm syscalls it protects —
    so encode/decode on two threads of one process, or a teardown on the
    engine's interrupt path racing a concurrent release, cannot pop from
    an emptied free list, misaccount the byte budget, or leak a segment.

    Fork safety: workers are forked mid-run, so a child may inherit its
    parent's pool dict.  Every operation checks the pid and drops
    inherited entries (closing only this process's mappings — the parent
    still owns the segments and will unlink them at its own teardown).
    """

    MIN_CLASS = 4096

    def __init__(
        self,
        max_per_class: int = 8,
        max_total_bytes: int = 256 * 1024 * 1024,
    ) -> None:
        self._classes: dict[int, list[shared_memory.SharedMemory]] = {}
        self._total = 0
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self.max_per_class = max_per_class
        self.max_total_bytes = max_total_bytes
        self.hits = 0
        self.misses = 0
        self.released = 0
        self.evicted = 0

    @staticmethod
    def size_class(nbytes: int) -> int:
        cls = ShmPool.MIN_CLASS
        while cls < nbytes:
            cls <<= 1
        return cls

    def _locked(self) -> threading.Lock:
        # a forked child inherits the parent's lock in whatever state it
        # held at fork time; the child is single-threaded here, so swap
        # in a fresh lock before acquiring (the pid-keyed cleanup of the
        # inherited entries happens under it, in _fork_guard)
        if os.getpid() != self._pid:
            self._lock = threading.Lock()
        return self._lock

    def _fork_guard(self) -> None:
        if os.getpid() == self._pid:
            return
        # forked child: the parent owns these segments; unmap our
        # inherited views, never unlink, and start with a clean pool
        for segs in self._classes.values():
            for seg in segs:
                try:
                    seg.close()
                except Exception:  # pragma: no cover - stale mapping
                    pass
        self._classes = {}
        self._total = 0
        self._pid = os.getpid()
        self.hits = self.misses = self.released = self.evicted = 0

    def acquire(self, nbytes: int) -> shared_memory.SharedMemory:
        cls = self.size_class(max(nbytes, 1))
        with self._locked():
            self._fork_guard()
            segs = self._classes.get(cls)
            if segs:
                self.hits += 1
                self._total -= cls
                return segs.pop()
            self.misses += 1
        # create outside the lock: the syscall pair is the slow path
        return shared_memory.SharedMemory(create=True, size=cls)

    def release(self, seg: shared_memory.SharedMemory) -> bool:
        """Park an attached segment for reuse; False = caller unlinks."""
        with self._locked():
            self._fork_guard()
            cls = seg.size
            if cls < self.MIN_CLASS or cls & (cls - 1):
                return False  # pre-pool segment of arbitrary size: don't keep
            segs = self._classes.setdefault(cls, [])
            if (
                len(segs) >= self.max_per_class
                or self._total + cls > self.max_total_bytes
            ):
                self.evicted += 1
                return False
            segs.append(seg)
            self._total += cls
            self.released += 1
            return True

    def _stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "released": self.released,
            "evicted": self.evicted,
            "pooled_bytes": self._total,
        }

    def stats(self) -> dict[str, int]:
        with self._locked():
            return self._stats()

    def teardown(self) -> dict[str, int]:
        """Unlink every pooled segment; returns the final stats."""
        with self._locked():
            self._fork_guard()
            stats = self._stats()
            classes = self._classes
            self._classes = {}
            self._total = 0
        # the segments are now owned by this call alone; unlink them
        # outside the lock so a concurrent acquire is not held up
        for segs in classes.values():
            for seg in segs:
                seg.close()
                try:
                    seg.unlink()
                except FileNotFoundError:  # pragma: no cover - racing cleanup
                    pass
        return stats


#: the process-wide pool (one per OS process; fork-guarded internally)
_POOL = ShmPool()


def pool_stats() -> dict[str, int]:
    return _POOL.stats()


def pool_teardown() -> dict[str, int]:
    return _POOL.teardown()


def _park(raw_nbytes: int) -> shared_memory.SharedMemory:
    # zero-size segments are rejected by the OS; never parked anyway
    return _POOL.acquire(max(raw_nbytes, 1))


def _handoff(seg: shared_memory.SharedMemory) -> None:
    """Close the producer's mapping and drop its resource-tracker claim.

    CPython registers a segment with the resource tracker on *attach* as
    well as on create (bpo-39959).  Ownership of an in-flight segment
    transfers producer -> consumer, so exactly one claim — the consumer's,
    made when it attaches — should survive; without this unregister the
    tracker warns about (already-unlinked) leaked segments at shutdown."""
    seg.close()
    try:
        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker gone at shutdown
        pass


def encode_payload(
    payload: Any, min_bytes: int = DEFAULT_SHM_MIN_BYTES
) -> tuple[Any, list[str]]:
    """Replace large leaves with :class:`ShmRef`; returns (tree, segment
    names created) so a failed ``put`` can reclaim the segments."""
    names: list[str] = []

    def walk(obj: Any) -> Any:
        if (
            isinstance(obj, np.ndarray)
            and obj.nbytes >= min_bytes
            and not obj.dtype.hasobject
        ):
            arr = np.ascontiguousarray(obj)
            seg = _park(arr.nbytes)
            dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
            dst[...] = arr
            ref = ShmRef(
                name=seg.name,
                nbytes=arr.nbytes,
                kind="ndarray",
                dtype_descr=np.lib.format.dtype_to_descr(arr.dtype),
                shape=tuple(arr.shape),
            )
            _handoff(seg)  # the segment persists until the consumer unlinks
            names.append(ref.name)
            return ref
        if isinstance(obj, (bytes, bytearray, memoryview)) and len(obj) >= min_bytes:
            # straight into the segment: one copy (a strided view has to
            # be gathered first, there is no flat buffer to copy from)
            raw = memoryview(obj)
            raw = raw.cast("B") if raw.c_contiguous else memoryview(bytes(raw))
            seg = _park(raw.nbytes)
            seg.buf[: raw.nbytes] = raw
            ref = ShmRef(name=seg.name, nbytes=raw.nbytes, kind="bytes")
            _handoff(seg)
            names.append(ref.name)
            return ref
        if isinstance(obj, dict):
            return {k: walk(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [walk(v) for v in obj]
        if isinstance(obj, tuple):
            return tuple(walk(v) for v in obj)
        return obj

    return walk(payload), names


def decode_payload(payload: Any) -> Any:
    """Inverse of :func:`encode_payload`; consumes the in-flight buffer.
    After the copy-out the segment is parked on this process's
    :class:`ShmPool` for the next encode to reuse (unlinked only when the
    pool is full)."""

    def walk(obj: Any) -> Any:
        if isinstance(obj, ShmRef):
            seg = shared_memory.SharedMemory(name=obj.name)
            pooled = False
            try:
                if obj.kind == "ndarray":
                    dtype = np.lib.format.descr_to_dtype(obj.dtype_descr)
                    src = np.ndarray(obj.shape, dtype=dtype, buffer=seg.buf)
                    value: Any = src.copy()
                else:
                    value = bytes(seg.buf[: obj.nbytes])
                pooled = _POOL.release(seg)
            finally:
                if not pooled:
                    seg.close()
                    try:
                        seg.unlink()
                    except FileNotFoundError:  # pragma: no cover - gone
                        pass
            return value
        if isinstance(obj, dict):
            return {k: walk(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [walk(v) for v in obj]
        if isinstance(obj, tuple):
            return tuple(walk(v) for v in obj)
        return obj

    return walk(payload)


def collect_shm_refs(payload: Any) -> list[ShmRef]:
    """All descriptors inside a still-encoded payload (teardown sweep)."""
    refs: list[ShmRef] = []

    def walk(obj: Any) -> None:
        if isinstance(obj, ShmRef):
            refs.append(obj)
        elif isinstance(obj, dict):
            for v in obj.values():
                walk(v)
        elif isinstance(obj, (list, tuple)):
            for v in obj:
                walk(v)

    walk(payload)
    return refs


def unlink_ref(ref: ShmRef) -> None:
    """Best-effort reclamation of one segment (failed-run cleanup)."""
    try:
        seg = shared_memory.SharedMemory(name=ref.name)
    except FileNotFoundError:
        return
    seg.close()
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - racing cleanup
        pass
