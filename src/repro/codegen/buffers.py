"""Packet encoding/decoding — the concrete realization of Figure 4.

A :class:`RecordBatch` is the in-memory form of one packet crossing a
filter boundary: per-record columns (fixed-width or ragged), once-per-packet
fields, and packed reduction state.  :func:`pack` serializes a batch against
a :class:`~repro.codegen.layout.PacketLayout` into a single contiguous
``bytes`` buffer:

* the **instance-wise** group becomes one NumPy structured array — records
  interleaved, exactly the ``<count, t1.x, t1.y, ..., tcount.x, tcount.y>``
  arrangement of §5;
* each **field-wise** column is a contiguous region with its own offset —
  the ``<count, offset1, t1.x .. tcount.x, t1.y .. tcount.y>`` arrangement
  (ragged columns carry an offsets table, the generalization for
  variable-length values like triangle lists);
* packet fields and reduction state follow in layout order.

``unpack`` inverts ``pack`` bit-for-bit (property-tested).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .layout import ColumnSpec, PacketLayout
from .runtime_support import ragged_from_rows

_MAGIC = b"RB02"
_HDR = struct.Struct("<4sqq")  # magic, packet index, record count
_I64 = struct.Struct("<q")


@dataclass(slots=True)
class RecordBatch:
    """One packet's worth of records between two filters."""

    count: int = 0
    packet: int = -1
    #: fixed-width per-record data: shape (count,) or (count, L)
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    #: ragged per-record data: (values, offsets) with len(offsets)==count+1
    ragged: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    #: once-per-packet values (python scalars or arrays)
    packet_fields: dict[str, Any] = field(default_factory=dict)
    #: packed reduction state: root -> {field: ndarray}
    reductions: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)

    def ragged_row(self, source: str, r: int) -> np.ndarray:
        values, offsets = self.ragged[source]
        return values[offsets[r] : offsets[r + 1]]

    @property
    def nbytes(self) -> int:
        total = 0
        for arr in self.columns.values():
            total += arr.nbytes
        for values, offsets in self.ragged.values():
            total += values.nbytes + offsets.nbytes
        for val in self.packet_fields.values():
            total += val.nbytes if isinstance(val, np.ndarray) else 8
        for packed in self.reductions.values():
            total += sum(a.nbytes for a in packed.values())
        return total


def _as_ragged_chunk(
    value: Any, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a columnar chunk to a ``(values, offsets)`` pair."""
    if isinstance(value, tuple):
        values, offsets = value
        return (
            np.asarray(values, dtype=dtype).reshape(-1),
            np.asarray(offsets, dtype=np.int64),
        )
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim == 2:
        n, length = arr.shape
        return arr.reshape(-1), np.arange(n + 1, dtype=np.int64) * length
    if arr.ndim == 1:
        return arr, np.arange(len(arr) + 1, dtype=np.int64)
    raise TypeError(f"cannot treat array of shape {arr.shape} as ragged chunk")


def _as_fixed_chunk(value: Any, dtype: np.dtype, length: int) -> np.ndarray:
    """Normalize a columnar chunk to a fixed ``(n, length)`` array,
    zero-padding short rows exactly like the row-wise builder."""
    if isinstance(value, tuple):
        values, offsets = value
        values = np.asarray(values, dtype=dtype).reshape(-1)
        offsets = np.asarray(offsets, dtype=np.int64)
        n = len(offsets) - 1
        lens = offsets[1:] - offsets[:-1]
        arr = np.zeros((n, length), dtype=dtype)
        if len(values):
            row_idx = np.repeat(np.arange(n, dtype=np.int64), lens)
            col_idx = np.arange(len(values), dtype=np.int64) - np.repeat(
                offsets[:-1], lens
            )
            arr[row_idx, col_idx] = values
        return arr
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim == 2 and arr.shape[1] == length:
        return arr
    if arr.ndim == 2 and arr.shape[1] < length:
        out = np.zeros((arr.shape[0], length), dtype=dtype)
        out[:, : arr.shape[1]] = arr
        return out
    raise TypeError(
        f"cannot treat array of shape {arr.shape} as fixed({length}) chunk"
    )


def _chunk_count(value: Any) -> int:
    if isinstance(value, tuple):
        return len(value[1]) - 1
    arr = np.asarray(value)
    if arr.ndim == 0:
        raise TypeError("columnar chunk must have a record axis")
    return arr.shape[0]


class BatchBuilder:
    """Output-batch builder used by generated filter code.

    Scalar-backend code calls :meth:`append` once per record; vector-backend
    code calls :meth:`extend` once per columnar chunk.  The two cannot be
    mixed on one builder."""

    def __init__(self, layout: PacketLayout, packet: int = -1) -> None:
        self.layout = layout
        self.packet = packet
        self._rows: dict[str, list] = {c.source: [] for c in layout.columns}
        self._chunks: dict[str, list] = {c.source: [] for c in layout.columns}
        self._mode: str | None = None
        self._count = 0
        self.packet_fields: dict[str, Any] = {}
        self.reductions: dict[str, dict[str, np.ndarray]] = {}

    def _set_mode(self, mode: str) -> None:
        if self._mode is None:
            self._mode = mode
        elif self._mode != mode:
            raise RuntimeError(
                "cannot mix append() and extend() on one BatchBuilder"
            )

    def append(self, **values: Any) -> None:
        """One output record; keyword names are *mangled* column names."""
        self._set_mode("rows")
        by_name = {c.name: c for c in self.layout.columns}
        for name, value in values.items():
            col = by_name[name]
            self._rows[col.source].append(value)
        self._count += 1

    def extend(self, **values: Any) -> None:
        """A columnar chunk of output records.

        Keyword names are mangled column names (as for :meth:`append`); each
        value covers the whole chunk: a 1-D array for scalar columns, a
        ``(n, L)`` array or ragged pair for array columns.  All columns of
        the layout must be supplied with a consistent record count."""
        self._set_mode("chunks")
        by_name = {c.name: c for c in self.layout.columns}
        n = None
        for name, value in values.items():
            col = by_name[name]
            vn = _chunk_count(value)
            if n is None:
                n = vn
            elif vn != n:
                raise ValueError(
                    f"column {name}: chunk covers {vn} records, expected {n}"
                )
            if col.ragged:
                self._chunks[col.source].append(_as_ragged_chunk(value, col.dtype))
            elif col.length > 1:
                self._chunks[col.source].append(
                    _as_fixed_chunk(value, col.dtype, col.length)
                )
            else:
                arr = np.asarray(value, dtype=col.dtype)
                if arr.ndim != 1:
                    raise TypeError(
                        f"column {name}: scalar column chunk must be 1-D, "
                        f"got shape {arr.shape}"
                    )
                self._chunks[col.source].append(arr)
        if n is not None:
            self._count += n

    def build(self) -> RecordBatch:
        batch = RecordBatch(count=self._count, packet=self.packet)
        if self._mode == "chunks":
            self._build_from_chunks(batch)
        else:
            self._build_from_rows(batch)
        batch.packet_fields = dict(self.packet_fields)
        batch.reductions = dict(self.reductions)
        return batch

    def _build_from_rows(self, batch: RecordBatch) -> None:
        for col in self.layout.columns:
            rows = self._rows[col.source]
            if col.ragged:
                batch.ragged[col.source] = ragged_from_rows(rows, col.dtype)
            elif col.length > 1:
                arr = np.zeros((self._count, col.length), dtype=col.dtype)
                for r, v in enumerate(rows):
                    arr[r, : len(v)] = v
                batch.columns[col.source] = arr
            else:
                batch.columns[col.source] = np.asarray(rows, dtype=col.dtype)

    def _build_from_chunks(self, batch: RecordBatch) -> None:
        for col in self.layout.columns:
            chunks = self._chunks[col.source]
            if col.ragged:
                if not chunks:
                    batch.ragged[col.source] = (
                        np.zeros(0, dtype=col.dtype),
                        np.zeros(self._count + 1, dtype=np.int64),
                    )
                    continue
                values = np.concatenate([c[0] for c in chunks])
                offsets = np.zeros(self._count + 1, dtype=np.int64)
                pos, base = 1, np.int64(0)
                for _, off in chunks:
                    k = len(off) - 1
                    offsets[pos : pos + k] = off[1:] + base
                    base += off[-1]
                    pos += k
                batch.ragged[col.source] = (values, offsets)
            elif col.length > 1:
                batch.columns[col.source] = (
                    np.concatenate(chunks, axis=0)
                    if chunks
                    else np.zeros((0, col.length), dtype=col.dtype)
                )
            else:
                batch.columns[col.source] = (
                    np.concatenate(chunks)
                    if chunks
                    else np.zeros(0, dtype=col.dtype)
                )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _put_array(parts: list[bytes], arr: np.ndarray) -> None:
    raw = np.ascontiguousarray(arr).tobytes()
    parts.append(_I64.pack(len(raw)))
    parts.append(raw)


def _take_array(
    buf: memoryview, pos: int, dtype: np.dtype, shape: tuple[int, ...]
) -> tuple[np.ndarray, int]:
    (nbytes,) = _I64.unpack_from(buf, pos)
    pos += _I64.size
    arr = np.frombuffer(buf[pos : pos + nbytes], dtype=dtype).reshape(shape).copy()
    return arr, pos + nbytes


def _structured_dtype(columns: list[ColumnSpec]) -> np.dtype:
    fields = []
    for col in columns:
        if col.length > 1:
            fields.append((col.name, col.dtype, (col.length,)))
        else:
            fields.append((col.name, col.dtype))
    return np.dtype(fields)


def pack(batch: RecordBatch, layout: PacketLayout) -> bytes:
    """Serialize ``batch`` per ``layout`` (see module docstring)."""
    parts: list[bytes] = [_HDR.pack(_MAGIC, batch.packet, batch.count)]

    instance = [c for c in layout.columns if c.group == "instance" and not c.ragged]
    fieldwise = [c for c in layout.columns if c.group != "instance" or c.ragged]

    if instance:
        sdt = _structured_dtype(instance)
        rec = np.zeros(batch.count, dtype=sdt)
        for col in instance:
            rec[col.name] = batch.columns[col.source]
        _put_array(parts, rec.view(np.uint8).reshape(-1))
    for col in fieldwise:
        if col.ragged:
            values, offsets = batch.ragged[col.source]
            _put_array(parts, offsets)
            _put_array(parts, values)
        else:
            _put_array(parts, batch.columns[col.source])

    for spec in layout.packet_fields:
        val = batch.packet_fields[spec.source]
        if spec.array:
            arr = np.asarray(val, dtype=spec.dtype)
            _put_array(parts, arr)
        else:
            parts.append(np.asarray([val], dtype=spec.dtype).tobytes())

    for root in layout.reduction_roots:
        packed = batch.reductions[root]
        parts.append(_I64.pack(len(packed)))
        for name in sorted(packed):
            arr = packed[name]
            name_b = name.encode()
            parts.append(_I64.pack(len(name_b)))
            parts.append(name_b)
            dt = str(arr.dtype).encode()
            parts.append(_I64.pack(len(dt)))
            parts.append(dt)
            _put_array(parts, arr.reshape(-1))
    return b"".join(parts)


def unpack(data: bytes, layout: PacketLayout) -> RecordBatch:
    """Inverse of :func:`pack`."""
    buf = memoryview(data)
    magic, packet, count = _HDR.unpack_from(buf, 0)
    if magic != _MAGIC:
        raise ValueError("not a RecordBatch buffer")
    pos = _HDR.size
    batch = RecordBatch(count=count, packet=packet)

    instance = [c for c in layout.columns if c.group == "instance" and not c.ragged]
    fieldwise = [c for c in layout.columns if c.group != "instance" or c.ragged]

    if instance:
        sdt = _structured_dtype(instance)
        raw, pos = _take_array(buf, pos, np.dtype(np.uint8), (-1,))
        rec = raw.view(sdt)
        for col in instance:
            batch.columns[col.source] = np.ascontiguousarray(rec[col.name])
    for col in fieldwise:
        if col.ragged:
            offsets, pos = _take_array(buf, pos, np.dtype(np.int64), (count + 1,))
            values, pos = _take_array(buf, pos, col.dtype, (-1,))
            batch.ragged[col.source] = (values, offsets)
        else:
            shape = (count, col.length) if col.length > 1 else (count,)
            arr, pos = _take_array(buf, pos, col.dtype, shape)
            batch.columns[col.source] = arr

    for spec in layout.packet_fields:
        if spec.array:
            arr, pos = _take_array(buf, pos, spec.dtype, (-1,))
            batch.packet_fields[spec.source] = arr
        else:
            val = np.frombuffer(buf[pos : pos + spec.dtype.itemsize], dtype=spec.dtype)[0]
            batch.packet_fields[spec.source] = val.item()
            pos += spec.dtype.itemsize

    for root in layout.reduction_roots:
        (n_entries,) = _I64.unpack_from(buf, pos)
        pos += _I64.size
        packed: dict[str, np.ndarray] = {}
        for _ in range(n_entries):
            (nlen,) = _I64.unpack_from(buf, pos)
            pos += _I64.size
            name = bytes(buf[pos : pos + nlen]).decode()
            pos += nlen
            (dlen,) = _I64.unpack_from(buf, pos)
            pos += _I64.size
            dt = np.dtype(bytes(buf[pos : pos + dlen]).decode())
            pos += dlen
            arr, pos = _take_array(buf, pos, dt, (-1,))
            packed[name] = arr
        batch.reductions[root] = packed
    return batch
