"""Epoch arena: a work epoch's dataset reaches the worker pool once.

The paper's runtime model (§2.2, §4.2) keeps a unit of work's data at the
data host; only ``ReqComm(b)`` crosses a filter boundary.  A long-lived
worker pool (:mod:`repro.datacutter.mp.engine`) still has to learn each
epoch's freshly bound :class:`~repro.datacutter.filters.FilterSpec` list —
whose ``params["packets"]`` *is* the dataset, shared by every filter of
the pipeline.  The arena is how it learns it without the dataset ever
entering a pipe:

* the pool creates one :class:`EpochArena` **before it forks** — an
  anonymous file (``memfd_create``, or a temporary file unlinked at
  creation) that has no name, is registered with nobody (no
  ``resource_tracker``), and that no ``SIGKILL`` can leak: it lives
  exactly as long as a process holds its descriptor, and every worker
  inherits that descriptor through ``fork``;
* per epoch the parent calls :meth:`EpochArena.store` **once** on the
  whole spec list: ``pickle`` protocol 5 with a ``buffer_callback``, so
  every contiguous array leaves the pickle stream and is written
  out-of-band, 64-byte aligned, behind a header, a slot table and the
  (small) metadata stream.  One ``dumps`` call means one pickle memo, so
  the ``params`` dict the specs share is encoded once, not once per
  filter;
* each worker receives a 16-byte reference over its order pipe and calls
  :meth:`EpochArena.load`: it maps the file ``MAP_PRIVATE`` and writable
  and unpickles with ``buffers=`` slices of that mapping.  Packets are
  never copied again; only the copies that read a packet (the sources)
  ever fault its pages in; and a filter that writes into its packet
  dirties private pages of its own process — exactly the isolation a
  private unpickle gave it.

File layout (little endian)::

    header   magic, generation, nbytes, meta_len, n_slots
    slots    n_slots x (offset, length)
    meta     the protocol-5 pickle stream (in-band objects, array headers)
    buffers  each at a 64-byte aligned offset; gaps are never read

Invariants the engine holds, and that this module relies on:

1. **One writer, between epochs.**  The parent overwrites the arena only
   after epoch N's last ``done`` handshake and before epoch N+1's orders
   (``ProcessPipeline._run_lock`` plus the handshake): an untouched page
   of a ``MAP_PRIVATE`` mapping still shows later writes to the file, so
   a worker must be done with epoch N's packets before N+1 is stored.
   For the same reason every :meth:`load` takes a *fresh* mapping — pages
   a filter dirtied stay private for the life of their mapping and would
   hide the next epoch's bytes.
2. **The file only grows.**  It reaches the size of the largest epoch and
   is never truncated: a parked worker still holds its last mapping, and
   touching a mapped page beyond end-of-file is ``SIGBUS``.  A smaller
   epoch leaves a stale tail that no slot points into.
3. **Respawns do not read the arena.**  A worker restarted mid-epoch
   takes its spec from the fork image (``pool.spawn_args``), like the
   first generation did; it meets the arena at the *next* epoch's order.
4. **The arena dies with its pool.**  The descriptor is closed with the
   rest of the pool's IPC (``ProcessPipeline._release_pool_ipc``), on
   the clean and the failed path alike.

:meth:`store` encodes completely before it writes a byte, so an
unpicklable spec raises with the previous epoch still loadable (the
engine then reforks, shipping the specs through the fork image instead).
"""

from __future__ import annotations

import mmap
import os
import pickle
import struct
import tempfile
from typing import Any

_MAGIC = b"RPARENA1"
#: magic, generation, nbytes, meta_len, n_slots
_HEADER = struct.Struct("<8sQQQQ")
#: offset, length of one out-of-band buffer
_SLOT = struct.Struct("<QQ")
#: generation, nbytes — what crosses the order pipe; fixed width, so an
#: order's size does not depend on the dataset's
_REF = struct.Struct("<QQ")
_ALIGN = 64


class ArenaError(RuntimeError):
    """A reference does not match what the arena holds (stale or torn)."""


def _anonymous_file() -> int:
    try:
        return os.memfd_create("repro-epoch-arena", os.MFD_CLOEXEC)
    except (AttributeError, OSError):  # pre-3.17 kernels, non-Linux
        fd, path = tempfile.mkstemp(prefix="repro-epoch-arena-")
        os.unlink(path)
        return fd


def _pwrite_all(fd: int, data: Any, offset: int) -> None:
    view = memoryview(data)
    while view.nbytes:
        written = os.pwrite(fd, view, offset)
        view = view[written:]
        offset += written


class EpochArena:
    """One anonymous file: the parent stores, forked workers load."""

    def __init__(self) -> None:
        self._fd = _anonymous_file()
        self._generation = 0
        #: bytes encoded by the last :meth:`store`
        self.nbytes = 0

    def store(self, obj: Any) -> bytes:
        """Encode ``obj`` into the arena; returns the reference to load it.

        Raises whatever ``pickle`` raises, before anything is written."""
        buffers: list[pickle.PickleBuffer] = []
        meta = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
        raws = [buf.raw() for buf in buffers]
        offset = _HEADER.size + _SLOT.size * len(raws) + len(meta)
        slots = []
        for raw in raws:
            offset = -(-offset // _ALIGN) * _ALIGN
            slots.append((offset, raw.nbytes))
            offset += raw.nbytes

        self._generation += 1
        self.nbytes = offset
        head = bytearray(
            _HEADER.pack(_MAGIC, self._generation, offset, len(meta), len(raws))
        )
        for slot in slots:
            head += _SLOT.pack(*slot)
        _pwrite_all(self._fd, head, 0)
        _pwrite_all(self._fd, meta, len(head))
        for (start, _length), raw in zip(slots, raws):
            _pwrite_all(self._fd, raw, start)
        return _REF.pack(self._generation, offset)

    def load(self, ref: bytes) -> Any:
        """Decode what :meth:`store` returned ``ref`` for.

        Arrays in the result are views of a private copy-on-write mapping
        that lives as long as they do."""
        generation, nbytes = _REF.unpack(ref)
        view = memoryview(
            mmap.mmap(
                self._fd,
                nbytes,
                flags=mmap.MAP_PRIVATE,
                prot=mmap.PROT_READ | mmap.PROT_WRITE,
            )
        )
        magic, stored, total, meta_len, n_slots = _HEADER.unpack_from(view)
        if (magic, stored, total) != (_MAGIC, generation, nbytes):
            raise ArenaError(
                f"epoch arena holds generation {stored} ({total} bytes), "
                f"the order names generation {generation} ({nbytes} bytes)"
            )
        meta_at = _HEADER.size + _SLOT.size * n_slots
        slots = [
            view[start : start + length]
            for start, length in _SLOT.iter_unpack(view[_HEADER.size : meta_at])
        ]
        return pickle.loads(view[meta_at : meta_at + meta_len], buffers=slots)

    def close(self) -> None:
        """Close this process's descriptor (idempotent).  Live mappings
        keep their pages; the file goes when the last holder does."""
        fd, self._fd = self._fd, -1
        if fd >= 0:
            os.close(fd)
