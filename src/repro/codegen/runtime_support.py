"""Runtime support objects shared by generated filter code.

Generated filters receive their input either as :class:`RawPacket` (the
first filter, reading directly from the data host's packets) or as packed
:class:`~repro.codegen.buffers.RecordBatch` bytes (every later filter).

The second half of this module is the columnar runtime used by the
``vector`` codegen backend (:mod:`repro.codegen.vectorize`): a *column* is
either a fixed NumPy array of shape ``(n,)`` / ``(n, L)`` or a ragged
``(values, offsets)`` pair with ``len(offsets) == n + 1``.  The helpers
here count, compress (:func:`col_take`) and index (:func:`col_row`)
columns in either representation, so generated vector code and batch
intrinsics stay agnostic of which one a field happens to use.  A compress
that keeps every row hands back the column itself, which is safe because
generated code never writes into a column.  Batch intrinsics bring
their own columnar kernels (``batch_fn``), each byte-identical to
folding its scalar form over the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass(slots=True)
class RawPacket:
    """One packet as stored on the data host.

    ``fields`` maps *element-class field names* (e.g. ``minval``,
    ``corners``) to either

    * a fixed array of shape ``(count,)`` or ``(count, L)``, or
    * a ragged pair ``(values, offsets)`` with ``len(offsets) == count + 1``.
    """

    count: int
    fields: dict[str, Any] = field(default_factory=dict)

    def row(self, name: str, r: int):
        """Value of field ``name`` for element ``r``."""
        data = self.fields[name]
        if isinstance(data, tuple):
            values, offsets = data
            return values[offsets[r] : offsets[r + 1]]
        return data[r]

    @property
    def nbytes(self) -> int:
        total = 0
        for data in self.fields.values():
            if isinstance(data, tuple):
                total += data[0].nbytes + data[1].nbytes
            else:
                total += data.nbytes
        return total


def ragged_from_rows(
    rows: list[np.ndarray], dtype=np.float64
) -> tuple[np.ndarray, np.ndarray]:
    """Build a (values, offsets) ragged pair from per-row arrays.

    The values buffer is sized once from the row lengths and filled by
    slice — repeated ``np.concatenate`` over a growing prefix would make
    batch construction quadratic in the row count."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    for r, row in enumerate(rows):
        offsets[r + 1] = offsets[r] + len(row)
    values = np.empty(int(offsets[-1]), dtype=dtype)
    for r, row in enumerate(rows):
        if offsets[r + 1] > offsets[r]:
            values[offsets[r] : offsets[r + 1]] = row
    return values, offsets


# ---------------------------------------------------------------------------
# Columnar helpers (vector backend)
# ---------------------------------------------------------------------------


def col_count(col: Any) -> int:
    """Number of records a column covers."""
    if isinstance(col, tuple):
        return len(col[1]) - 1
    return len(col)


def col_row(col: Any, r: int) -> Any:
    """Record ``r`` of a column in either representation; scalars pass
    through (broadcast arguments of batch intrinsics)."""
    if isinstance(col, tuple):
        values, offsets = col
        return values[offsets[r] : offsets[r + 1]]
    if isinstance(col, np.ndarray) and col.ndim >= 1:
        return col[r]
    return col


def ragged_take(
    pair: tuple[np.ndarray, np.ndarray], selector: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Select rows of a ragged pair by boolean mask or index array."""
    values, offsets = pair
    selector = np.asarray(selector)
    idx = np.flatnonzero(selector) if selector.dtype == np.bool_ else selector
    lens = (offsets[1:] - offsets[:-1])[idx]
    new_offsets = np.zeros(len(idx) + 1, dtype=np.int64)
    np.cumsum(lens, out=new_offsets[1:])
    total = int(new_offsets[-1])
    if total == 0:
        return np.zeros(0, dtype=values.dtype), new_offsets
    # source index for output position t in row j: start_j + (t - out_off_j)
    src = np.repeat(offsets[:-1][idx] - new_offsets[:-1], lens)
    src = src + np.arange(total, dtype=np.int64)
    return values[src], new_offsets


def col_take(col: Any, selector: np.ndarray) -> Any:
    """Compress a column (fixed or ragged) by boolean mask or index.

    A mask that keeps every row returns the column itself: generated code
    never writes into a column, so the copy would buy nothing."""
    selector = np.asarray(selector)
    if selector.dtype == np.bool_ and selector.all():
        return col
    if isinstance(col, tuple):
        return ragged_take(col, selector)
    return col[selector]


def vec_mask(mask: Any, n: int) -> np.ndarray:
    """Normalize a guard value to a boolean column of length ``n`` (a
    guard over packet scalars alone evaluates to one bool)."""
    mask = np.asarray(mask)
    if mask.ndim == 0:
        return np.full(n, bool(mask))
    return mask.astype(bool, copy=False)


#: packet index marking a FINAL buffer (reduction state flush at finalize)
FINAL_PACKET = -2
