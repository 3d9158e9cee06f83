"""Numeric kernels for isosurface rendering (paper §3, §6.3).

The pipeline structure lives in the dialect sources; these NumPy kernels
implement the per-cube geometry:

* :func:`extract_triangles` — a simplified marching-cubes step: find the
  cube edges the isosurface crosses, interpolate crossing points, and
  triangulate them as a fan.  Not the full 256-case MC table, but data
  dependent and geometrically coherent, which is all the pipeline shape
  depends on (triangle count per accepted cube, floats per triangle).
* :func:`project_triangles` — rotate by the view angle, perspective-less
  projection to a W x H screen, clip, and emit splat points
  ``(px, py, depth, color)`` for accumulation.

Both carry analysis summaries (reads/writes/cost) when registered as
intrinsics — see :func:`make_iso_registry` in the app modules.

Each kernel also has a ``batch_*`` columnar form for the vector codegen
backend (:mod:`repro.codegen.vectorize`): one call per packet over whole
columns instead of one call per record.  The batch forms are written to be
**bit-identical** to folding the scalar kernel over the rows — they perform
the same elementwise IEEE operations in the same per-record order, only
gathered across records — which the differential tests rely on.
"""

from __future__ import annotations

import math

import numpy as np

from ...codegen.generated_registry import register_generated

#: cube corner coordinates in the order datasets.make_cube_dataset uses
_CORNERS = np.array(
    [
        (dx, dy, dz)
        for dx in (0, 1)
        for dy in (0, 1)
        for dz in (0, 1)
    ],
    dtype=np.float64,
)

#: the 12 cube edges as corner-index pairs
_EDGES = np.array(
    [
        (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3),
        (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7),
    ],
    dtype=np.int64,
)


def extract_triangles(
    vals: np.ndarray, x: float, y: float, z: float, isoval: float
) -> np.ndarray:
    """Triangles approximating the isosurface inside one cube.

    Returns a flat float64 array of length ``9 * n_triangles``
    (three xyz vertices per triangle); empty when the surface misses the
    cube."""
    vals = np.asarray(vals, dtype=np.float64)
    a = vals[_EDGES[:, 0]]
    b = vals[_EDGES[:, 1]]
    crossing = ((a - isoval) * (b - isoval)) < 0.0
    n_cross = int(crossing.sum())
    if n_cross < 3:
        return np.zeros(0, dtype=np.float64)
    denom = b[crossing] - a[crossing]
    t = (isoval - a[crossing]) / denom
    p0 = _CORNERS[_EDGES[crossing, 0]]
    p1 = _CORNERS[_EDGES[crossing, 1]]
    pts = p0 + t[:, None] * (p1 - p0)
    pts = pts + np.array([x, y, z])
    # fan triangulation around the first crossing point
    n_tris = n_cross - 2
    out = np.empty((n_tris, 9), dtype=np.float64)
    for k in range(n_tris):
        out[k, 0:3] = pts[0]
        out[k, 3:6] = pts[k + 1]
        out[k, 6:9] = pts[k + 2]
    return out.ravel()


def project_triangles(
    tris: np.ndarray,
    angle: float,
    grid_extent: float,
    width: int,
    height: int,
) -> np.ndarray:
    """Transform triangles to view coordinates and project to the screen.

    Returns screen-space triangle records, flat 10-value tuples
    ``(px0, px1, px2, py0, py1, py2, depth0, depth1, depth2, color)``;
    ``color`` encodes the surface orientation (a cheap shading proxy).
    Rasterization (:func:`rasterize_triangles`) turns these into
    per-pixel fragments."""
    tris = np.asarray(tris, dtype=np.float64)
    if tris.size == 0:
        return np.zeros(0, dtype=np.float64)
    v = tris.reshape(-1, 3, 3)
    ca, sa = math.cos(angle), math.sin(angle)
    xr = v[:, :, 0] * ca - v[:, :, 2] * sa
    zr = v[:, :, 0] * sa + v[:, :, 2] * ca
    yr = v[:, :, 1]
    # orthographic projection filling the screen; rotation can push points
    # up to extent*sqrt(2)/2 from the axis, hence the 1.5 margin
    half = grid_extent * 0.75
    px = (xr - grid_extent / 2 + half) * (width - 1) / (2 * half)
    py = (yr - grid_extent / 2 + half) * (height - 1) / (2 * half)
    depth = zr
    # shading proxy: triangle normal's z component
    e1 = v[:, 1, :] - v[:, 0, :]
    e2 = v[:, 2, :] - v[:, 0, :]
    normal_z = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    norm = np.sqrt((e1**2).sum(axis=1) * (e2**2).sum(axis=1)) + 1e-12
    color = 0.5 + 0.5 * np.abs(normal_z) / norm

    n = len(v)
    out = np.empty((n, 10), dtype=np.float64)
    out[:, 0:3] = px
    out[:, 3:6] = py
    out[:, 6:9] = depth
    out[:, 9] = color
    return out.ravel()


def rasterize_triangles(
    screen_tris: np.ndarray, width: int, height: int
) -> np.ndarray:
    """Scan-convert projected triangles into fragments.

    Input: flat array of 10-value records ``(px0..2, py0..2, depth0..2,
    color)`` from :func:`project_triangles`.  Output: flat ``(px, py,
    depth, color)`` quadruples, one per covered pixel, with barycentric
    depth interpolation — the per-pixel work that makes rendering the
    compute-heavy stage of the pipeline (§6.3)."""
    tris = np.asarray(screen_tris, dtype=np.float64)
    if tris.size == 0:
        return np.zeros(0, dtype=np.float64)
    recs = tris.reshape(-1, 10)
    frags: list[np.ndarray] = []
    for rec in recs:
        xs, ys, zs, color = rec[0:3], rec[3:6], rec[6:9], rec[9]
        x_min = max(int(np.floor(xs.min())), 0)
        x_max = min(int(np.ceil(xs.max())), width - 1)
        y_min = max(int(np.floor(ys.min())), 0)
        y_max = min(int(np.ceil(ys.max())), height - 1)
        if x_min > x_max or y_min > y_max:
            continue
        gx, gy = np.meshgrid(
            np.arange(x_min, x_max + 1), np.arange(y_min, y_max + 1)
        )
        # barycentric coordinates
        d = (ys[1] - ys[2]) * (xs[0] - xs[2]) + (xs[2] - xs[1]) * (ys[0] - ys[2])
        if abs(d) < 1e-12:
            continue
        l0 = ((ys[1] - ys[2]) * (gx - xs[2]) + (xs[2] - xs[1]) * (gy - ys[2])) / d
        l1 = ((ys[2] - ys[0]) * (gx - xs[2]) + (xs[0] - xs[2]) * (gy - ys[2])) / d
        l2 = 1.0 - l0 - l1
        inside = (l0 >= -1e-9) & (l1 >= -1e-9) & (l2 >= -1e-9)
        if not inside.any():
            continue
        depth = l0 * zs[0] + l1 * zs[1] + l2 * zs[2]
        out = np.empty((int(inside.sum()), 4))
        out[:, 0] = gx[inside]
        out[:, 1] = gy[inside]
        out[:, 2] = depth[inside]
        out[:, 3] = color
        frags.append(out.ravel())
    if not frags:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(frags)


# ---------------------------------------------------------------------------
# Columnar (batch) kernel forms for the vector backend
# ---------------------------------------------------------------------------


def _as_ragged_pair(col) -> tuple[np.ndarray, np.ndarray]:
    """Accept a (values, offsets) pair or a fixed (n, L) array."""
    if isinstance(col, tuple):
        values, offsets = col
        return (
            np.asarray(values, dtype=np.float64).reshape(-1),
            np.asarray(offsets, dtype=np.int64),
        )
    arr = np.asarray(col, dtype=np.float64)
    n, length = arr.shape
    return arr.reshape(-1), np.arange(n + 1, dtype=np.int64) * length


def batch_extract_triangles(vals, x, y, z, isoval):
    """Columnar :func:`extract_triangles`: all cubes of a packet at once.

    ``vals`` is the (n, 8) corner-value column (or ragged pair with uniform
    rows); ``x``/``y``/``z`` are 1-D columns; ``isoval`` broadcasts.
    Returns the triangle lists as one ragged pair."""
    n = len(vals[1]) - 1 if isinstance(vals, tuple) else len(vals)
    if n == 0:
        return np.zeros(0, dtype=np.float64), np.zeros(1, dtype=np.int64)
    if isinstance(vals, tuple):
        vals2 = np.asarray(vals[0], dtype=np.float64).reshape(n, -1)
    else:
        vals2 = np.asarray(vals, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)

    a = vals2[:, _EDGES[:, 0]]
    b = vals2[:, _EDGES[:, 1]]
    crossing = ((a - isoval) * (b - isoval)) < 0.0  # (n, 12)
    n_cross = crossing.sum(axis=1)
    # np.nonzero is row-major: crossing points appear per cube, in edge
    # order — exactly the order the scalar kernel's boolean selection uses
    cube_idx, edge_idx = np.nonzero(crossing)
    ac = a[cube_idx, edge_idx]
    bc = b[cube_idx, edge_idx]
    t = (isoval - ac) / (bc - ac)
    p0 = _CORNERS[_EDGES[edge_idx, 0]]
    p1 = _CORNERS[_EDGES[edge_idx, 1]]
    pts = p0 + t[:, None] * (p1 - p0)
    pts = pts + np.stack([x, y, z], axis=1)[cube_idx]

    n_tris = np.where(n_cross >= 3, n_cross - 2, 0)
    out_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(9 * n_tris, out=out_offsets[1:])
    total = int(n_tris.sum())
    if total == 0:
        return np.zeros(0, dtype=np.float64), out_offsets

    pts_start = np.zeros(n, dtype=np.int64)
    pts_start[1:] = np.cumsum(n_cross)[:-1]
    tri_start = np.zeros(n, dtype=np.int64)
    tri_start[1:] = np.cumsum(n_tris)[:-1]
    tri_cube = np.repeat(np.arange(n, dtype=np.int64), n_tris)
    # fan triangulation: triangle k of a cube is (pts[0], pts[k+1], pts[k+2])
    k = np.arange(total, dtype=np.int64) - tri_start[tri_cube]
    base = pts_start[tri_cube]
    out = np.empty((total, 9), dtype=np.float64)
    out[:, 0:3] = pts[base]
    out[:, 3:6] = pts[base + k + 1]
    out[:, 6:9] = pts[base + k + 2]
    return out.ravel(), out_offsets


def batch_project_triangles(tris, angle, grid_extent, width, height):
    """Columnar :func:`project_triangles`.

    Projection is elementwise per triangle, so one call over the
    concatenated triangle values is bit-identical to per-cube calls; only
    the offsets need rescaling (9 floats per input triangle -> 10 per
    screen record)."""
    values, offsets = _as_ragged_pair(tris)
    out = project_triangles(values, angle, grid_extent, width, height)
    if out.size == 0:
        out = np.zeros(0, dtype=np.float64)
    return out, offsets // 9 * 10


def batch_rasterize_triangles(stris, width, height):
    """Columnar :func:`rasterize_triangles`: every triangle of the packet
    scan-converted in one flat computation.

    The barycentric coefficients are computed once per triangle; bounding
    boxes expand to rows and rows to pixels by ``repeat`` + ``cumsum``, so
    per pixel only the terms that vary along a row are evaluated, and depth
    and colour are taken for the covered pixels alone.  Every value goes
    through the scalar kernel's IEEE operations in its order, and fragment
    order is preserved: triangles stay in record order and pixels within a
    triangle keep the scalar kernel's meshgrid-ravel order (y-rows outer,
    x fastest)."""
    values, offsets = _as_ragged_pair(stris)
    recs = values.reshape(-1, 10)
    m = len(recs)
    if m == 0:
        return np.zeros(0, dtype=np.float64), np.zeros(len(offsets), dtype=np.int64)
    x0, x1, x2, y0, y1, y2, z0, z1, z2, color = recs.T
    x_min = np.maximum(np.floor(np.minimum(np.minimum(x0, x1), x2)).astype(np.int64), 0)
    x_max = np.minimum(
        np.ceil(np.maximum(np.maximum(x0, x1), x2)).astype(np.int64), width - 1
    )
    y_min = np.maximum(np.floor(np.minimum(np.minimum(y0, y1), y2)).astype(np.int64), 0)
    y_max = np.minimum(
        np.ceil(np.maximum(np.maximum(y0, y1), y2)).astype(np.int64), height - 1
    )
    # l0 = (a*(gx-x2) + b*(gy-y2)) / d and l1 = (c*(gx-x2) + e*(gy-y2)) / d
    a = y1 - y2
    b = x2 - x1
    c = y2 - y0
    e = x0 - x2
    d = a * e + b * (y0 - y2)
    valid = (x_min <= x_max) & (y_min <= y_max) & (np.abs(d) >= 1e-12)
    ny = np.where(valid, y_max - y_min + 1, 0)
    nx = np.where(valid, x_max - x_min + 1, 0)
    # rows: the gy terms are constant along a row
    row_tri = np.repeat(np.arange(m), ny)
    gy = np.arange(len(row_tri), dtype=np.float64) + (y_min - np.cumsum(ny) + ny)[row_tri]
    ty = gy - y2[row_tri]
    b_ty = b[row_tri] * ty
    e_ty = e[row_tri] * ty
    # pixels
    row_nx = nx[row_tri]
    pix_row = np.repeat(np.arange(len(row_tri)), row_nx)
    gx = (
        np.arange(len(pix_row), dtype=np.float64)
        + (x_min[row_tri] - np.cumsum(row_nx) + row_nx)[pix_row]
    )
    pix_tri = row_tri[pix_row]
    tx = gx - x2[pix_tri]
    dp = d[pix_tri]
    l0 = (a[pix_tri] * tx + b_ty[pix_row]) / dp
    l1 = (c[pix_tri] * tx + e_ty[pix_row]) / dp
    l2 = 1.0 - l0 - l1
    inside = np.flatnonzero((l0 >= -1e-9) & (l1 >= -1e-9) & (l2 >= -1e-9))
    tri = pix_tri[inside]
    out = np.empty((len(inside), 4))
    out[:, 0] = gx[inside]
    out[:, 1] = gy[pix_row[inside]]
    out[:, 2] = l0[inside] * z0[tri] + l1[inside] * z1[tri] + l2[inside] * z2[tri]
    out[:, 3] = color[tri]
    # fragment offsets per cube: 4 floats per fragment, 10 per screen record
    frag_end = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(4 * np.bincount(tri, minlength=m), out=frag_end[1:])
    return out.ravel(), frag_end[(offsets - offsets[0]) // 10]


# ---------------------------------------------------------------------------
# Reduction classes: dense z-buffer and sparse active pixels (§6.1)
# ---------------------------------------------------------------------------


def make_zbuffer_class(width: int, height: int) -> type:
    """Dense z-buffer: a full depth + color plane per accumulator.

    This is the §6.3 z-buffer algorithm: cheap updates, expensive to
    allocate/communicate (width*height*16 bytes per partial).

    A fresh buffer keeps its first accumulation sparse: the surviving
    fragment per pixel, sorted by pixel.  The planes are allocated by the
    first operation that needs them (a second accum, a merge into it,
    ``pack``, ``image``), so a per-packet partial that is accumulated once
    and merged never allocates them, and merging it visits only the pixels
    it reached.  That equals the dense merge: a pixel no fragment reached
    holds ``(inf, 0)``, which would win only against ``(inf, c > 0)``, and
    no sequence of accums and merges produces that (leaving ``(inf, 0)``
    takes a fragment at depth ``inf`` with a colour below 0)."""
    n_pix = width * height

    class ZBuffer:
        W, H = width, height
        #: two float64 planes, whichever state the buffer is in
        nbytes = 16 * n_pix

        def __init__(self) -> None:
            #: (depth, color) planes once allocated
            self._planes: tuple[np.ndarray, np.ndarray] | None = None
            #: (idx, depth, color) of the first accumulation while the
            #: planes are not allocated: one entry per pixel, by pixel
            self._sparse: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

        def _dense(self) -> tuple[np.ndarray, np.ndarray]:
            if self._planes is None:
                depth = np.full(n_pix, np.inf)
                color = np.zeros(n_pix)
                if self._sparse is not None:
                    idx, sparse_depth, sparse_color = self._sparse
                    depth[idx] = sparse_depth
                    color[idx] = sparse_color
                    self._sparse = None
                self._planes = depth, color
            return self._planes

        def accum(self, frags: np.ndarray) -> None:
            """Accumulate fragments (px, py, depth, color), vectorized.

            Equal depths tie-break by color so accumulation is fully
            commutative (foreach order-independence, §3)."""
            pts = np.asarray(frags, dtype=np.float64).reshape(-1, 4)
            if len(pts) == 0:
                return
            idx = pts[:, 1].astype(np.int64) * width + pts[:, 0].astype(np.int64)
            depth, color = pts[:, 2], pts[:, 3]
            # one survivor per pixel within the batch ...
            order = np.lexsort((color, depth, idx))
            idx, depth, color = idx[order], depth[order], color[order]
            first = np.ones(len(idx), dtype=bool)
            first[1:] = idx[1:] != idx[:-1]
            idx, depth, color = idx[first], depth[first], color[first]
            # ... then the batch winner against the buffer
            if self._planes is None and self._sparse is None:
                # the `better` test below against untouched (inf, 0) pixels
                better = (depth < np.inf) | ((depth == np.inf) & (color < 0.0))
                self._sparse = idx[better], depth[better], color[better]
                return
            plane_depth, plane_color = self._dense()
            better = (depth < plane_depth[idx]) | (
                (depth == plane_depth[idx]) & (color < plane_color[idx])
            )
            plane_depth[idx[better]] = depth[better]
            plane_color[idx[better]] = color[better]

        def batch_accum(self, frags) -> None:
            """Columnar accum: all fragment lists of a packet at once.

            The surviving (depth, color) per pixel is the lexicographic
            minimum over buffer and fragments, so one accumulation over the
            concatenated fragments equals folding accum row by row."""
            values = frags[0] if isinstance(frags, tuple) else frags
            self.accum(np.asarray(values, dtype=np.float64).reshape(-1))

        def merge(self, other: "ZBuffer") -> None:
            if other._planes is not None:
                at = slice(None)  # every pixel
                depth, color = other._planes
            elif other._sparse is not None:
                at, depth, color = other._sparse  # the pixels it reached
            else:
                return
            self_depth, self_color = self._dense()
            closer = (depth < self_depth[at]) | (
                (depth == self_depth[at]) & (color < self_color[at])
            )
            hit = at[closer] if isinstance(at, np.ndarray) else closer
            self_depth[hit] = depth[closer]
            self_color[hit] = color[closer]

        def pack(self) -> dict[str, np.ndarray]:
            depth, color = self._dense()
            return {"depth": depth.copy(), "color": color.copy()}

        @classmethod
        def unpack(cls, packed: dict[str, np.ndarray]) -> "ZBuffer":
            obj = cls()
            obj._planes = packed["depth"].copy(), packed["color"].copy()
            return obj

        # -- test/bench helpers ------------------------------------------
        def image(self) -> np.ndarray:
            depth, color = self._dense()
            img = np.zeros(n_pix)
            covered = np.isfinite(depth)
            img[covered] = color[covered]
            return img.reshape(height, width)

    ZBuffer.__name__ = f"ZBuffer{width}x{height}"
    # anchor for pickling across the process engine boundary
    return register_generated(ZBuffer)


def make_active_pixels_class(width: int, height: int) -> type:
    """Sparse z-buffer (the §6.3 *active pixels* algorithm): only pixels
    actually touched are stored and communicated — it "avoids allocating,
    initializing, or communicating a full z-buffer"."""

    class ActivePixels:
        W, H = width, height

        def __init__(self) -> None:
            self.idx = np.zeros(0, dtype=np.int64)
            self.depth = np.zeros(0)
            self.color = np.zeros(0)
            #: entries left by the last _compact(); the arrays are
            #: canonical exactly while their length still equals it
            self._compacted = 0

        def accum(self, frags: np.ndarray) -> None:
            pts = np.asarray(frags, dtype=np.float64).reshape(-1, 4)
            if len(pts) == 0:
                return
            ix = pts[:, 0].astype(np.int64)
            iy = pts[:, 1].astype(np.int64)
            idx = iy * width + ix
            self._extend(idx, pts[:, 2], pts[:, 3])

        def _extend(self, idx, depth, color) -> None:
            """Append entries; compact only once the set has doubled since
            the last compaction (and is worth sorting at all), so folding
            P partials costs O(log P) sorts of the whole set, not P."""
            self.idx = np.concatenate([self.idx, idx])
            self.depth = np.concatenate([self.depth, depth])
            self.color = np.concatenate([self.color, color])
            if len(self.idx) > max(8 * width, 2 * self._compacted):
                self._compact()

        def _compact(self) -> None:
            """One entry per pixel, sorted by pixel: the canonical state.

            The survivor per pixel is the (depth, color) minimum, so when
            and how often this runs cannot change what it converges to."""
            if len(self.idx) == self._compacted:
                return
            # sort by pixel, then depth, then color: the survivor per pixel
            # is order-independent even under depth ties
            order = np.lexsort((self.color, self.depth, self.idx))
            idx = self.idx[order]
            first = np.ones(len(idx), dtype=bool)
            first[1:] = idx[1:] != idx[:-1]
            self.idx = idx[first]
            self.depth = self.depth[order][first]
            self.color = self.color[order][first]
            self._compacted = len(self.idx)

        def batch_accum(self, frags) -> None:
            """Columnar accum; canonical on pack()/_compact(), so the
            packed state matches the scalar fold byte for byte."""
            values = frags[0] if isinstance(frags, tuple) else frags
            self.accum(np.asarray(values, dtype=np.float64).reshape(-1))

        def merge(self, other: "ActivePixels") -> None:
            self._extend(other.idx, other.depth, other.color)

        def pack(self) -> dict[str, np.ndarray]:
            self._compact()
            return {
                "idx": self.idx.copy(),
                "depth": self.depth.copy(),
                "color": self.color.copy(),
            }

        @classmethod
        def unpack(cls, packed: dict[str, np.ndarray]) -> "ActivePixels":
            obj = cls()
            obj.idx = packed["idx"].copy()
            obj.depth = packed["depth"].copy()
            obj.color = packed["color"].copy()
            return obj

        # -- test/bench helpers ------------------------------------------
        def covered_pixels(self) -> int:
            self._compact()
            return len(self.idx)

        def image(self) -> np.ndarray:
            self._compact()
            img = np.zeros(width * height)
            img[self.idx] = self.color
            return img.reshape(height, width)

        @property
        def nbytes(self) -> int:
            self._compact()
            return self.idx.nbytes + self.depth.nbytes + self.color.nbytes

    ActivePixels.__name__ = f"ActivePixels{width}x{height}"
    return register_generated(ActivePixels)
