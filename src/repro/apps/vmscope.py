"""Virtual microscope (paper §6.1, §6.5).

Serves a rectangular query over a tiled digitized slide at a given
subsampling factor.  The compiler-decomposed version pushes the
tile-intersection test to the data nodes and ships only intersecting,
already-subsampled blocks.

The Decomp-Comp vs Decomp-Manual gap of §6.5 is reproduced mechanically:

* the *compiled* path selects sample pixels with **conditional masks**
  (``(x - qx0) % subsamp == 0`` tests over the whole tile), the moral
  equivalent of the generated per-element conditional the paper describes;
* the *manual* path uses **strided slicing** directly
  (``img[ly:ey:s, lx:ex:s]``), touching only the output pixels.

Both produce identical blocks; only the work per tile differs.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..analysis.workload import WorkloadProfile
from ..codegen.generated_registry import register_generated
from ..datacutter.buffers import Buffer
from ..datacutter.filters import Filter, FilterContext, FilterSpec, SourceFilter
from ..codegen.runtime_support import col_count, col_row, rowwise_batch
from ..lang.intrinsics import Intrinsic, IntrinsicRegistry, OpCount
from ..lang.types import DOUBLE, INT, VOID, ArrayType
from .common import AppBundle, Workload
from .datasets import TileDataset, make_tile_dataset

VMSCOPE_SOURCE = """
native Rectdomain<1, Tile> read_tiles();
native double[] subsample_tile(float[] pixels, double x0, double y0,
                               double w, double h, int qx0, int qy0,
                               int qx1, int qy1, int subsamp);
native void display(VImage r);

class Tile {
    double x0;
    double y0;
    double w;
    double h;
    float[] pixels;
}

class VImage implements Reducinterface {
    double[] data;
    void paste(double[] block) { return; }
    void merge(VImage other) { return; }
}

class Microscope {
    void view(int qx0, int qy0, int qx1, int qy1, int subsamp) {
        runtime_define int num_packets;
        Rectdomain<1, Tile> tiles = read_tiles();
        VImage result = new VImage();
        PipelinedLoop (p in tiles) {
            VImage local = new VImage();
            foreach (t in p) {
                if (t.x0 < qx1 && t.x0 + t.w > qx0 && t.y0 < qy1 && t.y0 + t.h > qy0) {
                    double[] block = subsample_tile(t.pixels, t.x0, t.y0,
                                                    t.w, t.h, qx0, qy0,
                                                    qx1, qy1, subsamp);
                    local.paste(block);
                }
            }
            result.merge(local);
        }
        display(result);
    }
}
"""


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def subsample_tile_masked(
    pixels, x0, y0, w, h, qx0, qy0, qx1, qy1, subsamp
) -> np.ndarray:
    """Compiled-style kernel: conditional masks over every tile pixel."""
    x0, y0, w, h = int(x0), int(y0), int(w), int(h)
    s = int(subsamp)
    img = np.asarray(pixels, dtype=np.float64).reshape(h, w, 3)
    xs = np.arange(x0, x0 + w)
    ys = np.arange(y0, y0 + h)
    mx = (xs >= qx0) & (xs < qx1) & ((xs - qx0) % s == 0)
    my = (ys >= qy0) & (ys < qy1) & ((ys - qy0) % s == 0)
    if not mx.any() or not my.any():
        return np.zeros(0, dtype=np.float64)
    sub = img[my][:, mx]
    ox = (int(xs[mx][0]) - qx0) // s
    oy = (int(ys[my][0]) - qy0) // s
    bh, bw = sub.shape[0], sub.shape[1]
    return np.concatenate(
        [np.array([ox, oy, bw, bh], dtype=np.float64), sub.ravel()]
    )


def subsample_tile_strided(
    pixels, x0, y0, w, h, qx0, qy0, qx1, qy1, subsamp
) -> np.ndarray:
    """Manual-style kernel: direct strided slicing, identical output."""
    x0, y0, w, h = int(x0), int(y0), int(w), int(h)
    s = int(subsamp)
    img = np.asarray(pixels, dtype=np.float64).reshape(h, w, 3)
    gx = qx0 + max(0, math.ceil((x0 - qx0) / s)) * s
    gy = qy0 + max(0, math.ceil((y0 - qy0) / s)) * s
    ex = min(qx1, x0 + w)
    ey = min(qy1, y0 + h)
    if gx >= ex or gy >= ey:
        return np.zeros(0, dtype=np.float64)
    sub = img[gy - y0 : ey - y0 : s, gx - x0 : ex - x0 : s]
    ox = (gx - qx0) // s
    oy = (gy - qy0) // s
    bh, bw = sub.shape[0], sub.shape[1]
    return np.concatenate(
        [np.array([ox, oy, bw, bh], dtype=np.float64), sub.ravel()]
    )


def make_vimage_class(qx0: int, qy0: int, qx1: int, qy1: int, subsamp: int) -> type:
    """Output image for one query: NaN-initialized until pasted (tiles are
    disjoint, so paste/merge are trivially commutative)."""
    out_w = max(0, -(-(qx1 - qx0) // subsamp))
    out_h = max(0, -(-(qy1 - qy0) // subsamp))

    class VImage:
        W, H = out_w, out_h

        def __init__(self) -> None:
            self.data = np.full(out_h * out_w * 3, np.nan)

        def paste(self, block: np.ndarray) -> None:
            block = np.asarray(block, dtype=np.float64)
            if block.size == 0:
                return
            ox, oy, bw, bh = (int(v) for v in block[:4])
            sub = block[4:].reshape(bh, bw, 3)
            img = self.data.reshape(out_h, out_w, 3)
            img[oy : oy + bh, ox : ox + bw, :] = sub

        def batch_paste(self, blocks) -> None:
            """Columnar form of :meth:`paste`: a whole packet's blocks as a
            ragged pair.  Tiles are disjoint, so pasting row-by-row here is
            exactly the scalar fold."""
            for r in range(col_count(blocks)):
                self.paste(col_row(blocks, r))

        def merge(self, other: "VImage") -> None:
            filled = ~np.isnan(other.data)
            self.data[filled] = other.data[filled]

        def pack(self) -> dict[str, np.ndarray]:
            return {"data": self.data.copy()}

        @classmethod
        def unpack(cls, packed: dict[str, np.ndarray]) -> "VImage":
            obj = cls()
            obj.data = packed["data"].copy()
            return obj

        def image(self) -> np.ndarray:
            return np.nan_to_num(self.data, nan=0.0).reshape(out_h, out_w, 3)

        @property
        def nbytes(self) -> int:
            return self.data.nbytes

    VImage.__name__ = f"VImage{out_w}x{out_h}"
    # query-dependent class: anchor it so instances can cross process
    # boundaries (the process engine pickles final reduction objects)
    return register_generated(VImage)


_D, _DA = DOUBLE, ArrayType(DOUBLE)


def make_vmscope_registry() -> IntrinsicRegistry:
    return IntrinsicRegistry(
        [
            Intrinsic("read_tiles", (), None, fn=lambda: None, writes=("return",)),  # type: ignore[arg-type]
            Intrinsic(
                "subsample_tile",
                (_DA, _D, _D, _D, _D, INT, INT, INT, INT, INT),
                _DA,
                fn=subsample_tile_masked,
                reads=(
                    "pixels",
                    "x0",
                    "y0",
                    "w",
                    "h",
                    "qx0",
                    "qy0",
                    "qx1",
                    "qy1",
                    "subsamp",
                ),
                writes=("return",),
                # per-tile work is already NumPy-vectorized internally, so
                # the batch form is the generic rowwise wrapper
                batch_fn=rowwise_batch(subsample_tile_masked),
                # conditional-mask kernel touches every tile pixel
                cost=lambda p: OpCount(
                    flops=2.0 * p.get("tile.pixels", 4096.0),
                    iops=6.0 * p.get("tile.pixels", 4096.0),
                    branches=3.0 * p.get("tile.pixels", 4096.0),
                ),
                out_scale=lambda p: p.get("scale.block_floats", 1.0),
            ),
            Intrinsic("display", (), VOID, fn=lambda r: None, reads=("r",), writes=()),
        ]
    )


# ---------------------------------------------------------------------------
# Decomp-Manual filters (strided)
# ---------------------------------------------------------------------------


class _ManualVmSource(SourceFilter):
    def generate(self, ctx: FilterContext):
        p = ctx.params
        qx0, qy0, qx1, qy1, s = (
            p["qx0"], p["qy0"], p["qx1"], p["qy1"], p["subsamp"],
        )
        for pk in p["packets"]:
            blocks: list[np.ndarray] = []
            x0s, y0s = pk.fields["x0"], pk.fields["y0"]
            ws, hs = pk.fields["w"], pk.fields["h"]
            for r in range(pk.count):
                if (
                    x0s[r] < qx1
                    and x0s[r] + ws[r] > qx0
                    and y0s[r] < qy1
                    and y0s[r] + hs[r] > qy0
                ):
                    block = subsample_tile_strided(
                        pk.row("pixels", r),
                        x0s[r], y0s[r], ws[r], hs[r],
                        qx0, qy0, qx1, qy1, s,
                    )
                    if block.size:
                        blocks.append(block)
            yield blocks


class _ManualVmPaste(Filter):
    def init(self, ctx: FilterContext) -> None:
        self._cls = ctx.params["vimage_class"]
        self._acc = self._cls()

    def process(self, buf: Buffer, ctx: FilterContext) -> None:
        for block in buf.payload:
            self._acc.paste(block)

    def finalize(self, ctx: FilterContext) -> None:
        ctx.write(self._acc.pack(), -2)


class _ManualVmView(Filter):
    def init(self, ctx: FilterContext) -> None:
        self._cls = ctx.params["vimage_class"]
        self._acc = self._cls()

    def process(self, buf: Buffer, ctx: FilterContext) -> None:
        self._acc.merge(self._cls.unpack(buf.payload))

    def finalize(self, ctx: FilterContext) -> None:
        ctx.write({"result": self._acc})


def manual_vmscope_specs(workload: Workload, widths: list[int]) -> list[FilterSpec]:
    params = dict(workload.params)
    params["packets"] = workload.packets
    return [
        FilterSpec("man_src", _ManualVmSource, placement=0, width=widths[0], params=params),
        FilterSpec("man_paste", _ManualVmPaste, placement=1, width=widths[1], params=params),
        FilterSpec("man_view", _ManualVmView, placement=2, width=widths[2], params=params),
    ]


# ---------------------------------------------------------------------------
# App bundle
# ---------------------------------------------------------------------------

#: query presets: the paper's 'small query' (low selectivity, load
#: imbalance limits speedup) and 'large query' (most of the slide)
QUERIES = {
    "small": {"frac": 0.18, "subsamp": 2},
    "large": {"frac": 0.85, "subsamp": 4},
}


# ---------------------------------------------------------------------------
# Serving adapter (repro.serve): request -> packets + params
# ---------------------------------------------------------------------------


def _vmscope_extract(payloads: list) -> np.ndarray:
    """Final pipeline payload -> the rendered region image (ndarray, so
    responses are byte-comparable across serving and one-shot paths)."""
    return payloads[-1]["result"].image()


class VmscopeService:
    """Serves virtual-microscope region queries over one loaded slide.

    Unlike knn, the query shapes the *compilation*: the output-image
    reduction class and the workload profile (selectivity, block sizes)
    are query-dependent, so each distinct preset gets its own plan-cache
    entry — compiled on first request, warm on every repeat.  That is the
    cache working as intended: the key covers the whole decomposition
    context, not just the source text."""

    name = "vmscope"

    def __init__(
        self,
        image_w: int = 256,
        image_h: int = 256,
        tile: int = 32,
        num_packets: int = 6,
        width: int = 1,
        backend: str = "auto",
        objective: str = "total",
    ) -> None:
        self.app = make_vmscope_app(image_w=image_w, image_h=image_h, tile=tile)
        self.num_packets = num_packets
        self.width = width
        self.backend = backend
        self.objective = objective
        self._prepared: dict[str, tuple] = {}  # preset -> (workload, options)

    def _prepare(self, preset: str):
        from ..core.compiler import CompileOptions
        from ..cost.environment import cluster_config

        if preset not in QUERIES:
            known = ", ".join(sorted(QUERIES))
            raise ValueError(f"unknown vmscope query {preset!r}; presets: {known}")
        if preset not in self._prepared:
            workload = self.app.make_workload(
                query=preset, num_packets=self.num_packets
            )
            options = CompileOptions(
                env=cluster_config(self.width),
                profile=workload.profile,
                objective=self.objective,
                size_hints=dict(self.app.size_hints),
                runtime_classes={"VImage": workload.params["vimage_class"]},
                method_costs=dict(self.app.method_costs),
                backend=self.backend,
            )
            self._prepared[preset] = (workload, options)
        return self._prepared[preset]

    def plan(self, body):
        from ..serve.requests import ServicePlan

        preset = str(body.get("query", "large"))
        workload, options = self._prepare(preset)
        return ServicePlan(
            service=self.name,
            group_key=f"query={preset}",
            source=self.app.source,
            registry=self.app.registry,
            options=options,
            packets=workload.packets,
            params=dict(workload.params),
            extract=_vmscope_extract,
            # explicit protocol opt-out: each preset compiles its own
            # query-specialized VImage class, so there are no per-request
            # runtime params to stack into lanes — not fusable
            fuse_key=None,
        )


def make_vmscope_service(**kwargs) -> VmscopeService:
    return VmscopeService(**kwargs)


def make_vmscope_app(
    image_w: int = 768, image_h: int = 768, tile: int = 64
) -> AppBundle:
    def make_workload(
        query: str = "large",
        num_packets: int = 10,
        seed: int = 13,
    ) -> Workload:
        preset = QUERIES[query]
        dataset: TileDataset = make_tile_dataset(image_w, image_h, tile, seed)
        frac = preset["frac"]
        span_x = int(image_w * frac)
        span_y = int(image_h * frac)
        qx0 = (image_w - span_x) // 2
        qy0 = (image_h - span_y) // 2
        qx1, qy1 = qx0 + span_x, qy0 + span_y
        s = preset["subsamp"]
        vimage_cls = make_vimage_class(qx0, qy0, qx1, qy1, s)
        packets = dataset.packets(num_packets)
        params: dict[str, Any] = {
            "qx0": qx0,
            "qy0": qy0,
            "qx1": qx1,
            "qy1": qy1,
            "subsamp": s,
            "num_packets": num_packets,
            "vimage_class": vimage_cls,
        }
        sel = dataset.query_selectivity(qx0, qy0, qx1, qy1)
        out_pixels = vimage_cls.W * vimage_cls.H
        profile = WorkloadProfile(
            {
                "num_packets": float(num_packets),
                "packet_size": dataset.n_tiles / num_packets,
                "sel.g0": max(sel, 1e-6),
                "tile.pixels": float(tile * tile * 3),
                # average block floats per accepted tile
                "scale.block_floats": 4.0
                + (tile / s) * (tile / s) * 3.0,
                "block": 4.0 + (tile / s) * (tile / s) * 3.0,
                "Tile.pixels": float(tile * tile * 3),
                "vimage.floats": float(out_pixels * 3),
            }
        )

        def oracle():
            acc = vimage_cls()
            for i in range(dataset.n_tiles):
                if (
                    dataset.x0s[i] < qx1
                    and dataset.x0s[i] + dataset.ws[i] > qx0
                    and dataset.y0s[i] < qy1
                    and dataset.y0s[i] + dataset.hs[i] > qy0
                ):
                    block = subsample_tile_strided(
                        dataset.pixels[i],
                        dataset.x0s[i], dataset.y0s[i],
                        dataset.ws[i], dataset.hs[i],
                        qx0, qy0, qx1, qy1, s,
                    )
                    if block.size:
                        acc.paste(block)
            return acc

        def check(final_payload: dict[str, Any], expected) -> bool:
            got = final_payload["result"]
            return bool(np.array_equal(got.image(), expected.image()))

        return Workload(
            packets=packets,
            params=params,
            profile=profile,
            oracle=oracle,
            check=check,
            label=f"vmscope/{query}",
        )

    return AppBundle(
        name="vmscope",
        source=VMSCOPE_SOURCE,
        registry=make_vmscope_registry(),
        runtime_classes={},  # VImage depends on the query: injected per run
        size_hints={
            "Tile.pixels": "Tile.pixels",
            "block": "block",
            "VImage.data": "vimage.floats",
        },
        make_workload=make_workload,
        manual_specs=manual_vmscope_specs,
        method_costs={
            # paste copies one subsampled block into the output image
            "VImage.paste": lambda p: OpCount(
                iops=3.0 * p.get("scale.block_floats", 1.0),
                branches=0.5 * p.get("scale.block_floats", 1.0),
            ),
            # merge touches the whole (subsampled) output image
            "VImage.merge": lambda p: OpCount(
                iops=2.0 * p.get("vimage.floats", 1.0),
                branches=1.0 * p.get("vimage.floats", 1.0),
            ),
        },
        notes="Virtual microscope (Figs 11-12); small and large queries.",
    )
