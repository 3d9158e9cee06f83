"""The reduction folds that select instead of sort, held to the sort.

``KNN._select_k`` / ``KNNLanes._select_k`` cut a candidate set by
partitioning on distance and sorting only the near candidates, and
``ActivePixels.merge`` defers its compaction; both must stay
indistinguishable from the plain versions.  The references here are the
plain versions: a full 4-key lexsort, and a compaction after every merge.
Everything is compared as bytes, so ``-0.0`` vs ``0.0`` and which of two
equal candidates survives both count.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps.isosurface.kernels import make_active_pixels_class
from repro.apps.knn import make_knn_class, make_knn_lanes_class

COLS = ("dist", "px", "py", "pz")

#: few distinct values, so most candidates tie on one key or all four;
#: NaN sorts last and compares unequal to itself, the infinities tie
TIE_POOL = np.array([0.0, -0.0, 1.0, 1.0, 2.5, np.inf, -np.inf, np.nan])
#: the same without -0.0: 0.0 == -0.0 but their bytes differ, so which of
#: the two a fold keeps rightly depends on arrival order
ORDER_FREE_POOL = np.array([0.0, 1.0, 1.0, 2.5, np.inf, -np.inf, np.nan])


def _columns(rng, shape, pool, pool_size):
    """Four key columns drawn from the first ``pool_size`` pool values
    (``pool_size`` 0: continuous, no ties)."""
    if pool_size == 0:
        return [rng.random(shape) for _ in COLS]
    return [rng.choice(pool[:pool_size], size=shape) for _ in COLS]


def _load(acc, cols):
    for name, col in zip(COLS, cols):
        setattr(acc, name, col.copy())
    return acc


def _bytes(acc):
    return [getattr(acc, name).tobytes() for name in COLS]


def _packed(acc):
    return {name: arr.tobytes() for name, arr in acc.pack().items()}


CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([1, 3, 200]),
    n=st.integers(0, 450),
    pool_size=st.integers(0, len(TIE_POOL)),
)


class TestSelectMatchesFullSort:
    @settings(max_examples=300, deadline=None)
    @given(**CASES)
    def test_knn(self, seed, k, n, pool_size):
        rng = np.random.default_rng(seed)
        dist, px, py, pz = cols = _columns(rng, n, TIE_POOL, pool_size)
        order = np.lexsort((pz, py, px, dist))[:k]
        acc = _load(make_knn_class(k)(), cols)
        acc._select_k()
        assert _bytes(acc) == [c[order].tobytes() for c in cols]

    @settings(max_examples=300, deadline=None)
    @given(lanes=st.sampled_from([1, 2, 16]), **CASES)
    def test_knn_lanes(self, seed, k, n, pool_size, lanes):
        rng = np.random.default_rng(seed)
        cols = _columns(rng, (lanes, n), TIE_POOL, pool_size)
        if pool_size:
            # a different tie count in every lane: lane l draws its
            # distances from l % pool_size + 1 values
            for lane in range(lanes):
                cols[0][lane] = rng.choice(
                    TIE_POOL[: lane % pool_size + 1], size=n
                )
        dist, px, py, pz = cols
        order = np.lexsort((pz, py, px, dist))[:, :k]
        acc = _load(make_knn_lanes_class(k, lanes)(), cols)
        acc._select_k()
        assert _bytes(acc) == [
            np.take_along_axis(c, order, axis=1).tobytes() for c in cols
        ]

    def test_large_tie_set_takes_the_full_sort(self):
        """One lane all ties, one lane none: the rectangle would be the
        whole input, so the lanes fall back, and still agree."""
        rng = np.random.default_rng(0)
        cols = [rng.random((2, 64)) for _ in COLS]
        cols[0][0] = 1.0
        order = np.lexsort(tuple(reversed(cols)))[:, :3]
        acc = _load(make_knn_lanes_class(3, 2)(), cols)
        acc._select_k()
        assert _bytes(acc) == [
            np.take_along_axis(c, order, axis=1).tobytes() for c in cols
        ]


def _fragments(rng, n, pool_size=0, side=4):
    """``n`` (px, py, depth, color) fragments on a side x side screen, flat."""
    _, _, depth, color = _columns(rng, n, ORDER_FREE_POOL, pool_size)
    return np.column_stack(
        [rng.integers(0, side, n), rng.integers(0, side, n), depth, color]
    ).ravel()


def _fold(make, parts, order, grouping):
    """Merge ``parts`` (packed states) in ``order``: left to right, or
    ("tree") pairwise, as copies of a widened merge filter would."""
    accs = [make(parts[i]) for i in order]
    if grouping == "tree":
        while len(accs) > 1:
            merged = []
            for a, b in itertools.zip_longest(accs[::2], accs[1::2]):
                if b is not None:
                    a.merge(b)
                merged.append(a)
            accs = merged
        return accs[0]
    total = accs[0]
    for acc in accs[1:]:
        total.merge(acc)
    return total


def _assert_merge_order_free(rng, make, parts):
    """Every order x grouping tried ends in the same pack() bytes."""
    orders = [list(range(len(parts)))] + [
        list(rng.permutation(len(parts))) for _ in range(3)
    ]
    results = [
        _packed(_fold(make, parts, order, grouping))
        for order in orders
        for grouping in ("left", "tree")
    ]
    assert all(r == results[0] for r in results[1:])


class TestMergeIsOrderFree:
    """ROADMAP 4b: merge is associative and commutative, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([1, 3, 200]),
        n_parts=st.integers(2, 6),
        pool_size=st.integers(0, len(ORDER_FREE_POOL)),
    )
    def test_knn(self, seed, k, n_parts, pool_size):
        rng = np.random.default_rng(seed)
        cls = make_knn_class(k)
        parts = []
        for _ in range(n_parts):
            acc = cls()
            n = int(rng.integers(0, 2 * k + 3))
            acc.batch_insert(*_columns(rng, n, ORDER_FREE_POOL, pool_size))
            parts.append(acc.pack())
        _assert_merge_order_free(rng, cls.unpack, parts)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([1, 3]),
        lanes=st.sampled_from([1, 2, 16]),
        n_parts=st.integers(2, 5),
        pool_size=st.integers(0, len(ORDER_FREE_POOL)),
    )
    def test_knn_lanes(self, seed, k, lanes, n_parts, pool_size):
        rng = np.random.default_rng(seed)
        cls = make_knn_lanes_class(k, lanes)
        parts = []
        for _ in range(n_parts):
            n = int(rng.integers(1, 2 * k + 3))
            d, x, y, z = _columns(rng, (lanes, n), ORDER_FREE_POOL, pool_size)
            acc = cls()
            acc.batch_insert(d, x[0], y[0], z[0])
            parts.append(acc.pack())
        _assert_merge_order_free(rng, cls.unpack, parts)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_parts=st.integers(2, 8),
        pool_size=st.integers(0, len(ORDER_FREE_POOL)),
    )
    def test_active_pixels(self, seed, n_parts, pool_size):
        rng = np.random.default_rng(seed)
        cls = make_active_pixels_class(4, 4)
        parts = [cls().pack()]  # an empty partial among them
        for _ in range(n_parts):
            acc = cls()
            acc.accum(_fragments(rng, int(rng.integers(0, 40)), pool_size))
            parts.append(acc.pack())
        _assert_merge_order_free(rng, cls.unpack, parts)


class TestActivePixelsLazyCompaction:
    SIDE = 64  # compaction is deferred until the set passes 8 * 64 entries

    def _partials(self, seed, n_parts):
        rng = np.random.default_rng(seed)
        cls = make_active_pixels_class(self.SIDE, self.SIDE)
        partials = []
        for _ in range(n_parts):
            acc = cls()
            acc.accum(_fragments(rng, int(rng.integers(1, 60)), side=self.SIDE))
            partials.append(acc)
        return cls, partials

    def test_lazy_and_eager_accumulators_agree(self):
        """An accumulator whose merges deferred compaction reads the same
        through every accessor as one compacted after each merge."""
        cls, partials = self._partials(7, n_parts=40)
        lazy, eager = cls(), cls()
        for part in partials:
            lazy.merge(part)
            eager.merge(part)
            eager._compact()
        # the deferral is real: it compacted on the way, and still holds
        # entries that the eager one has already folded away
        assert 0 < lazy._compacted < len(eager.idx) < len(lazy.idx)
        # nbytes first: it must not report the uncompacted size
        assert lazy.nbytes == eager.nbytes == 24 * len(eager.idx)
        assert lazy.covered_pixels() == eager.covered_pixels()
        assert lazy.image().tobytes() == eager.image().tobytes()
        assert _packed(lazy) == _packed(eager)

    def test_merges_sort_the_whole_set_o_log_p_times(self):
        """Folding P partials sorts when the set has doubled, not P times."""
        base, partials = self._partials(11, n_parts=128)
        sorts = []

        class Counting(base):
            def _compact(self):
                if len(self.idx) != self._compacted:
                    sorts.append(len(self.idx))
                super()._compact()

        total = Counting()
        for part in partials:
            total.merge(part)
        assert 2 <= len(sorts) <= 8  # log2(128) + 1
        total.pack()
        assert total.covered_pixels() == len(
            np.unique(np.concatenate([p.idx for p in partials]))
        )
