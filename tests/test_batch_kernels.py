"""Batch kernels and touched-only merges, held byte for byte to the folds.

The vector backend calls one columnar kernel per packet instead of one
scalar kernel per record, and a per-packet reduction partial is merged by
visiting only what the packet touched.  Each must give exactly the bytes
of the plain version: the per-record concatenation of the scalar kernel,
a plain per-row gather, and the dense merge of a partial that
went through ``pack``/``unpack``.
"""

import copy

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps import make_zbuffer_app
from repro.apps.isosurface.kernels import (
    batch_extract_triangles,
    batch_rasterize_triangles,
    extract_triangles,
    make_zbuffer_class,
    rasterize_triangles,
)
from repro.apps.vmscope import (
    batch_subsample_tile,
    make_vimage_class,
    subsample_tile_masked,
)
from repro.codegen.runtime_support import col_take, ragged_from_rows, ragged_take
from repro.core.compiler import CompileOptions, compile_source
from repro.cost import cluster_config
from repro.datacutter import EngineOptions, run_pipeline
from repro.decompose.plan import DecompositionPlan

SEED = st.integers(0, 2**32 - 1)


def _fold(rows, dtype=np.float64):
    """The scalar kernel's outputs as the ragged pair a batch form returns."""
    return ragged_from_rows([np.asarray(r, dtype=dtype) for r in rows], dtype)


def _same(got, want):
    assert got[0].dtype == want[0].dtype
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


# ---------------------------------------------------------------------------
# isosurface kernels
# ---------------------------------------------------------------------------


def _screen_triangles(rng, count, width, height, kind):
    """``count`` screen records (px0..2, py0..2, depth0..2, color)."""
    if kind == "on-screen":
        xy = rng.uniform(-1.0, [width, height], size=(count, 3, 2))
    elif kind == "off-screen":
        xy = rng.uniform(-3.0 * width, 4.0 * width, size=(count, 3, 2))
    elif kind == "on-edges":
        # vertices on pixel centres and half pixels: edges pass through
        # pixel centres, where the inside test's tolerance decides
        xy = rng.integers(-2, 2 * max(width, height) + 2, size=(count, 3, 2)) / 2.0
    else:  # degenerate: collinear, near-collinear or repeated vertices
        base = rng.uniform(0, width, size=(count, 1, 2))
        step = rng.uniform(-3, 3, size=(count, 1, 2))
        xy = base + step * np.array([0.0, 1.0, 2.0])[None, :, None]
        xy[:, 2, 0] += rng.choice([0.0, 1e-14, 1e-13, 1e-11], size=count)
    recs = np.empty((count, 10))
    recs[:, 0:3] = xy[:, :, 0]
    recs[:, 3:6] = xy[:, :, 1]
    recs[:, 6:9] = rng.normal(size=(count, 3))
    recs[:, 9] = rng.uniform(0.5, 1.0, size=count)
    return recs


@settings(max_examples=150, deadline=None)
@given(
    seed=SEED,
    cubes=st.integers(0, 12),
    width=st.integers(1, 24),
    height=st.integers(1, 24),
    kinds=st.lists(
        st.sampled_from(["on-screen", "off-screen", "on-edges", "degenerate"]),
        min_size=1,
        max_size=4,
    ),
)
def test_rasterize_equals_scalar_concatenation(seed, cubes, width, height, kinds):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(cubes):
        count = int(rng.integers(0, 5))
        kind = kinds[int(rng.integers(len(kinds)))]
        rows.append(_screen_triangles(rng, count, width, height, kind).ravel())
    pair = _fold(rows)
    want = _fold(rasterize_triangles(r, width, height) for r in rows)
    _same(batch_rasterize_triangles(pair, width, height), want)


def test_rasterize_empty_packet():
    empty = np.zeros(0), np.zeros(1, dtype=np.int64)
    _same(batch_rasterize_triangles(empty, 8, 8), empty)
    nothing = np.zeros(0), np.zeros(4, dtype=np.int64)
    _same(batch_rasterize_triangles(nothing, 8, 8), nothing)


@settings(max_examples=150, deadline=None)
@given(
    seed=SEED,
    cubes=st.integers(0, 40),
    pool=st.sampled_from([0, 2, 3]),
    ragged=st.booleans(),
)
def test_extract_equals_scalar_fold(seed, cubes, pool, ragged):
    """Corner values from a small pool make corners equal the isovalue, so
    the strict crossing test and its ties are exercised."""
    rng = np.random.default_rng(seed)
    if pool:
        vals = rng.choice(np.linspace(0.0, 1.0, pool), size=(cubes, 8))
    else:
        vals = rng.uniform(size=(cubes, 8))
    x, y, z = (rng.uniform(0, 16, size=cubes) for _ in range(3))
    isoval = 0.5
    want = _fold(
        extract_triangles(vals[i], x[i], y[i], z[i], isoval) for i in range(cubes)
    )
    column = (vals.ravel(), np.arange(cubes + 1) * 8) if ragged else vals
    _same(batch_extract_triangles(column, x, y, z, isoval), want)


# ---------------------------------------------------------------------------
# vmscope tile subsampler
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    seed=SEED,
    image=st.tuples(st.integers(1, 48), st.integers(1, 48)),
    tile=st.tuples(st.integers(1, 20), st.integers(1, 20)),
    subsamp=st.integers(1, 8),
    keep=st.floats(0.0, 1.0),
)
def test_subsample_equals_masked_fold(seed, image, tile, subsamp, keep):
    """A tile grid with ragged edge tiles, a query window that cuts tiles,
    and a random subset of tiles (some outside the query) as the packet."""
    rng = np.random.default_rng(seed)
    image_w, image_h = image
    tile_w, tile_h = tile
    qx0, qy0 = (int(v) for v in rng.integers(-4, [image_w, image_h]))
    qx1 = qx0 + int(rng.integers(0, image_w + 4))
    qy1 = qy0 + int(rng.integers(0, image_h + 4))
    tiles = [
        (x0, y0, min(tile_w, image_w - x0), min(tile_h, image_h - y0))
        for y0 in range(0, image_h, tile_h)
        for x0 in range(0, image_w, tile_w)
    ]
    tiles = [t for t in tiles if rng.random() < keep]
    pixels = [
        rng.uniform(0, 255, size=w * h * 3).astype(np.float32) for _, _, w, h in tiles
    ]
    x0, y0, w, h = (np.array([t[i] for t in tiles], dtype=np.float64) for i in range(4))
    query = (qx0, qy0, qx1, qy1, subsamp)
    want = _fold(
        subsample_tile_masked(pixels[i], x0[i], y0[i], w[i], h[i], *query)
        for i in range(len(tiles))
    )
    column = ragged_from_rows(pixels, dtype=np.float32)
    _same(batch_subsample_tile(column, x0, y0, w, h, *query), want)
    if pixels and len({len(p) for p in pixels}) == 1:  # as a fixed column
        _same(batch_subsample_tile(np.stack(pixels), x0, y0, w, h, *query), want)


# ---------------------------------------------------------------------------
# col_take / ragged_take against a plain per-row gather, the all-rows
# pass-through included
# ---------------------------------------------------------------------------


def _take_reference(pair, selector):
    values, offsets = pair
    selector = np.asarray(selector)
    idx = np.flatnonzero(selector) if selector.dtype == np.bool_ else selector
    return ragged_from_rows(
        [values[offsets[i] : offsets[i + 1]] for i in idx], values.dtype
    )


@settings(max_examples=200, deadline=None)
@given(
    seed=SEED,
    rows=st.integers(0, 30),
    shape=st.sampled_from(["uniform", "uniform-empty", "non-uniform"]),
    select=st.sampled_from(["all", "mask", "none", "index"]),
    dtype=st.sampled_from([np.float64, np.float32]),
)
def test_take_equals_row_gather(seed, rows, shape, select, dtype):
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        lens = np.full(rows, int(rng.integers(1, 6)))
    elif shape == "uniform-empty":
        lens = np.zeros(rows, dtype=np.int64)
    else:
        lens = rng.integers(0, 6, size=rows)
    pair = ragged_from_rows([rng.normal(size=n).astype(dtype) for n in lens], dtype)
    if select == "all":
        selector = np.ones(rows, dtype=bool)
    elif select == "none":
        selector = np.zeros(rows, dtype=bool)
    elif select == "mask":
        selector = rng.random(rows) < 0.6
    else:
        selector = rng.integers(0, max(rows, 1), size=rows if rows else 0)
    want = _take_reference(pair, selector)
    _same(ragged_take(pair, selector), want)
    got = col_take(pair, selector)
    _same(got, want)
    if select == "all":
        assert got is pair


def test_col_take_all_rows_is_the_column():
    fixed = np.arange(12.0).reshape(4, 3)
    assert col_take(fixed, np.ones(4, dtype=bool)) is fixed
    assert col_take(fixed, np.array([True, False, True, True])).tobytes() == (
        fixed[[0, 2, 3]].tobytes()
    )


# ---------------------------------------------------------------------------
# touched-only merges
# ---------------------------------------------------------------------------


def _dense_copy(partial):
    """The same partial as the dense path sees it: through pack/unpack.
    ``pack`` allocates a partial's plane, so a copy is packed and the
    partial itself stays as it was."""
    return type(partial).unpack(copy.deepcopy(partial).pack())


def _packed_bytes(obj):
    return {name: arr.tobytes() for name, arr in obj.pack().items()}


def _zbuffer_partials(rng, zb_class, count):
    """``count`` fresh partials, and the same accumulations into buffers
    whose planes exist from the start: the dense reference."""
    width, height = zb_class.W, zb_class.H
    fresh, dense = [], []
    for _ in range(count):
        part, ref = zb_class(), zb_class.unpack(zb_class().pack())
        # 0 accums: an untouched partial; 2: one whose planes are allocated
        for _ in range(int(rng.choice([0, 1, 1, 1, 2]))):
            n = int(rng.integers(0, 40))
            frags = np.column_stack(
                [
                    rng.integers(0, width, n),
                    rng.integers(0, height, n),
                    rng.choice([0.25, 0.5, 1.0, np.inf], size=n),
                    rng.choice([0.5, 0.75, 1.0], size=n),
                ]
            )
            column = frags.ravel(), np.array([0, 4 * n])
            part.batch_accum(column)
            ref.batch_accum(column)
        fresh.append(part)
        dense.append(ref)
    return fresh, dense


@settings(max_examples=150, deadline=None)
@given(seed=SEED, parts=st.integers(1, 8), via_unpack=st.integers(-1, 7))
def test_zbuffer_touched_merge_equals_dense(seed, parts, via_unpack):
    """Few depth and colour values, so pixels tie on depth and on both;
    depth ``inf`` fragments too.  ``via_unpack`` sends one partial through
    pack/unpack on the touched side as well."""
    rng = np.random.default_rng(seed)
    zb_class = make_zbuffer_class(int(rng.integers(1, 12)), int(rng.integers(1, 12)))
    partials, dense = _zbuffer_partials(rng, zb_class, parts)
    assert [_packed_bytes(copy.deepcopy(p)) for p in partials] == [
        _packed_bytes(d) for d in dense
    ]
    if 0 <= via_unpack < parts:
        partials[via_unpack] = _dense_copy(partials[via_unpack])
    order = rng.permutation(parts)
    touched, reference = zb_class(), zb_class()
    for i in order:
        touched.merge(partials[i])
        reference.merge(dense[i])
    assert _packed_bytes(touched) == _packed_bytes(reference)
    assert touched.nbytes == reference.nbytes == 16 * zb_class.W * zb_class.H
    # a tree of merges: fresh partials merged into a fresh partial first
    left, right = zb_class(), zb_class()
    for i in order[: parts // 2]:
        left.merge(partials[i])
    for i in order[parts // 2 :]:
        right.merge(partials[i])
    right.merge(left)
    assert _packed_bytes(right) == _packed_bytes(reference)


def _vimage_partials(rng, count):
    """Blocks of one query over a disjoint tile grid, dealt to partials."""
    size, tile = 40, int(rng.integers(3, 12))
    qx0, qy0 = (int(v) for v in rng.integers(-2, 20, size=2))
    qx1, qy1 = qx0 + int(rng.integers(1, 30)), qy0 + int(rng.integers(1, 30))
    subsamp = int(rng.integers(1, 5))
    vi_class = make_vimage_class(qx0, qy0, qx1, qy1, subsamp)
    partials = [vi_class() for _ in range(count)]
    for y0 in range(0, size, tile):
        for x0 in range(0, size, tile):
            pixels = rng.uniform(0, 255, size=tile * tile * 3).astype(np.float32)
            block = subsample_tile_masked(
                pixels, x0, y0, tile, tile, qx0, qy0, qx1, qy1, subsamp
            )
            partials[int(rng.integers(count))].paste(block)
    return vi_class, partials


@settings(max_examples=150, deadline=None)
@given(seed=SEED, parts=st.integers(1, 8), via_unpack=st.integers(-1, 7))
def test_vimage_touched_merge_equals_dense(seed, parts, via_unpack):
    rng = np.random.default_rng(seed)
    vi_class, partials = _vimage_partials(rng, parts)
    if 0 <= via_unpack < parts:
        partials[via_unpack] = _dense_copy(partials[via_unpack])
    dense = [_dense_copy(p) for p in partials]
    order = rng.permutation(parts)
    touched, reference = vi_class(), vi_class()
    for i in order:
        touched.merge(partials[i])
        reference.merge(dense[i])
    assert _packed_bytes(touched) == _packed_bytes(reference)
    assert touched.nbytes == reference.nbytes == vi_class.W * vi_class.H * 24
    assert touched.image().tobytes() == reference.image().tobytes()


def test_zbuffer_cut_before_merge_ships_the_same_bytes():
    """A plan that packs each packet's partial on unit 2 and merges it on
    unit 3 ships one dense z-buffer per packet, exactly as many bytes as a
    dense partial packs to (the figures below were measured with dense
    partials), and still matches the oracle."""
    app = make_zbuffer_app(width=32, height=32)
    workload = app.make_workload(dataset="tiny", num_packets=4)
    for backend in ("scalar", "vector"):
        options = CompileOptions(
            env=cluster_config(3),
            profile=workload.profile,
            size_hints=dict(app.size_hints),
            runtime_classes=dict(app.runtime_classes),
            method_costs=dict(app.method_costs),
            backend=backend,
        )
        # atoms: alloc, guard, extract, project, rasterize, accum | merge
        plan = DecompositionPlan((1, 1, 2, 2, 2, 2, 3), 3)
        result = compile_source(app.source, app.registry, options, plan=plan)
        run = run_pipeline(
            result.pipeline.specs(workload.packets, workload.params), EngineOptions()
        )
        assert run.stream_bytes == {
            "gen_unit1->gen_unit2": 5872,
            "gen_unit2->gen_unit3": 65936,
            "gen_unit3->out": 16384,
        }
        assert workload.check(run.payloads[-1], workload.oracle())
