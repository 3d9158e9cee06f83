"""k-nearest-neighbour search (paper §6.1, §6.4).

A data-mining kernel: find the k points closest to a query point.  The
compiler-decomposed version computes distances and the *local* candidate
set on the data nodes, shipping k candidates per packet instead of every
point — the source of the ~150% improvement over Default in Figures 9-10.

The dialect source computes the squared distance inline (pure arithmetic —
exercising the statement-level translation) and updates the bounded
candidate set through the reduction object's ``insert``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..analysis.workload import WorkloadProfile
from ..codegen.generated_registry import register_generated
from ..datacutter.buffers import Buffer
from ..datacutter.filters import Filter, FilterContext, FilterSpec, SourceFilter
from ..lang.intrinsics import Intrinsic, IntrinsicRegistry, OpCount
from ..lang.types import VOID
from .common import AppBundle, Workload
from .datasets import PointDataset, make_point_dataset

KNN_SOURCE = """
native Rectdomain<1, Point> read_points();
native void display(KNN r);

class Point {
    double x;
    double y;
    double z;
}

class KNN implements Reducinterface {
    double[] dist;
    double[] px;
    double[] py;
    double[] pz;
    void insert(double d, double x, double y, double z) { return; }
    void merge(KNN other) { return; }
}

class Search {
    void search(double qx, double qy, double qz) {
        runtime_define int num_packets;
        Rectdomain<1, Point> points = read_points();
        KNN result = new KNN();
        PipelinedLoop (p in points) {
            KNN local = new KNN();
            foreach (pt in p) {
                double dx = pt.x - qx;
                double dy = pt.y - qy;
                double dz = pt.z - qz;
                double d = dx * dx + dy * dy + dz * dz;
                local.insert(d, pt.x, pt.y, pt.z);
            }
            result.merge(local);
        }
        display(result);
    }
}
"""


def make_knn_class(k: int) -> type:
    """Bounded candidate set: the k best (distance, x, y, z) tuples, with a
    deterministic lexicographic tie-break so accumulation is commutative."""

    class KNN:
        K = k

        def __init__(self) -> None:
            self.dist = np.zeros(0)
            self.px = np.zeros(0)
            self.py = np.zeros(0)
            self.pz = np.zeros(0)
            self._worst = -1  # cached argmax into dist (lazily refreshed)

        def insert(self, d: float, x: float, y: float, z: float) -> None:
            if len(self.dist) < k:
                self.dist = np.append(self.dist, d)
                self.px = np.append(self.px, x)
                self.py = np.append(self.py, y)
                self.pz = np.append(self.pz, z)
                self._worst = -1
                return
            if self._worst < 0:
                # lexicographic worst, so ties on distance resolve exactly
                # like the oracle's (d, x, y, z) ordering
                self._worst = int(
                    np.lexsort((self.pz, self.py, self.px, self.dist))[-1]
                )
            w = self._worst
            if (d, x, y, z) < (
                self.dist[w],
                self.px[w],
                self.py[w],
                self.pz[w],
            ):
                self.dist[w] = d
                self.px[w] = x
                self.py[w] = y
                self.pz[w] = z
                self._worst = -1

        def batch_insert(self, d, x, y, z) -> None:
            """Columnar form of :meth:`insert` for the vector backend: fold a
            whole packet of candidates at once.  Produces the same candidate
            *set* as the per-record fold (the k lexicographically smallest
            (d, x, y, z) tuples seen); the stored order is canonical rather
            than arrival order, which downstream ``merge``/``rows`` already
            normalize."""
            cols = [np.asarray(c, dtype=np.float64) for c in (d, x, y, z)]
            n = max((c.shape[0] for c in cols if c.ndim), default=1)
            cols = [np.broadcast_to(c, (n,)) for c in cols]
            self.dist = np.concatenate([self.dist, cols[0]])
            self.px = np.concatenate([self.px, cols[1]])
            self.py = np.concatenate([self.py, cols[2]])
            self.pz = np.concatenate([self.pz, cols[3]])
            self._select_k()

        def merge(self, other: "KNN") -> None:
            self.dist = np.concatenate([self.dist, other.dist])
            self.px = np.concatenate([self.px, other.px])
            self.py = np.concatenate([self.py, other.py])
            self.pz = np.concatenate([self.pz, other.pz])
            self._select_k()

        def _select_k(self) -> None:
            """Cut to the k lexicographically smallest (d, x, y, z), sorted.

            Selects before it sorts: only candidates no farther than the
            k-th smallest distance can make the cut, so the 4-key lexsort
            runs over those few (k plus boundary ties) instead of the whole
            packet.  The survivors keep their relative order, so the stable
            sort breaks full ties exactly as it does over everything.
            With at most k candidates, or fewer than k comparable distances
            (NaN), everything is sorted."""
            cols = (self.pz, self.py, self.px, self.dist)
            near = None
            if len(self.dist) > k:
                kth = np.partition(self.dist, k - 1)[k - 1]
                near = np.flatnonzero(self.dist <= kth)
            if near is not None and len(near) >= k:
                order = near[np.lexsort(tuple(c[near] for c in cols))[:k]]
            else:
                order = np.lexsort(cols)[:k]
            self.dist = self.dist[order]
            self.px = self.px[order]
            self.py = self.py[order]
            self.pz = self.pz[order]
            self._worst = -1

        def pack(self) -> dict[str, np.ndarray]:
            return {
                "dist": self.dist.copy(),
                "px": self.px.copy(),
                "py": self.py.copy(),
                "pz": self.pz.copy(),
            }

        @classmethod
        def unpack(cls, packed: dict[str, np.ndarray]) -> "KNN":
            obj = cls()
            obj.dist = packed["dist"].copy()
            obj.px = packed["px"].copy()
            obj.py = packed["py"].copy()
            obj.pz = packed["pz"].copy()
            return obj

        def rows(self) -> np.ndarray:
            """Canonical sorted (dist, x, y, z) rows for comparison."""
            order = np.lexsort((self.pz, self.py, self.px, self.dist))
            return np.stack(
                [self.dist[order], self.px[order], self.py[order], self.pz[order]],
                axis=1,
            )

        @property
        def nbytes(self) -> int:
            return (
                self.dist.nbytes + self.px.nbytes + self.py.nbytes + self.pz.nbytes
            )

    KNN.__name__ = f"KNN{k}"
    # anchor for pickling across the process engine boundary
    return register_generated(KNN)


#: process-wide cache of registered lane classes — one stable pickle
#: anchor (and therefore one plan-cache identity) per (k, lanes) bucket
_LANE_CLASSES: dict[tuple[int, int], type] = {}


def make_knn_lanes_class(k: int, lanes: int) -> type:
    """Lane-batched candidate set: ``lanes`` independent k-NN searches
    folded by the *same* compiled pipeline in one pass.

    The fused plan ships the query point as ``(lanes, 1)``-shaped runtime
    params, so the generated per-record arithmetic broadcasts every
    distance to a ``(lanes, 1)`` column (scalar backend) or a
    ``(lanes, n)`` block (vector backend); this class folds those lane-wise
    exactly as :func:`make_knn_class` folds scalars, keeping the k
    lexicographically smallest (d, x, y, z) per lane.  ``pack`` flattens
    to the same 1-D wire shape the single-lane class ships; ``lane_rows``
    demuxes one lane's canonical result, byte-identical to a single-query
    run."""
    key = (k, lanes)
    cached = _LANE_CLASSES.get(key)
    if cached is not None:
        return cached
    # scalar inserts buffer into a pending list and fold in slabs, so the
    # per-record path stays O(1) numpy calls amortized
    cut_width = max(4 * k, 32)

    class KNNLanes:
        K = k
        LANES = lanes

        def __init__(self) -> None:
            self.dist = np.zeros((lanes, 0))
            self.px = np.zeros((lanes, 0))
            self.py = np.zeros((lanes, 0))
            self.pz = np.zeros((lanes, 0))
            self._pend: list[tuple[np.ndarray, float, float, float]] = []

        def insert(self, d, x: float, y: float, z: float) -> None:
            # d arrives (lanes, 1): the record's distance to every query
            self._pend.append(
                (
                    np.asarray(d, dtype=np.float64).reshape(lanes),
                    float(x),
                    float(y),
                    float(z),
                )
            )
            if len(self._pend) >= cut_width:
                self._flush()

        def _flush(self) -> None:
            if not self._pend:
                return
            m = len(self._pend)
            d = np.stack([p[0] for p in self._pend], axis=1)
            xs = np.array([p[1] for p in self._pend])
            ys = np.array([p[2] for p in self._pend])
            zs = np.array([p[3] for p in self._pend])
            self._pend = []
            self.dist = np.concatenate([self.dist, d], axis=1)
            self.px = np.concatenate(
                [self.px, np.broadcast_to(xs, (lanes, m))], axis=1
            )
            self.py = np.concatenate(
                [self.py, np.broadcast_to(ys, (lanes, m))], axis=1
            )
            self.pz = np.concatenate(
                [self.pz, np.broadcast_to(zs, (lanes, m))], axis=1
            )
            self._select_k()

        def batch_insert(self, d, x, y, z) -> None:
            """Columnar fold for the vector backend: ``d`` arrives
            ``(lanes, n)`` (packet columns broadcast against the
            ``(lanes, 1)`` query params), x/y/z as ``(n,)`` columns."""
            self._flush()
            d = np.asarray(d, dtype=np.float64)
            if d.ndim == 0:
                d = d.reshape(1)
            if d.ndim == 1:
                d = np.broadcast_to(d, (lanes, d.shape[0]))
            n = d.shape[1]
            cols = [
                np.broadcast_to(np.asarray(c, dtype=np.float64), (lanes, n))
                for c in (x, y, z)
            ]
            self.dist = np.concatenate([self.dist, d], axis=1)
            self.px = np.concatenate([self.px, cols[0]], axis=1)
            self.py = np.concatenate([self.py, cols[1]], axis=1)
            self.pz = np.concatenate([self.pz, cols[2]], axis=1)
            self._select_k()

        def merge(self, other: "KNNLanes") -> None:
            self._flush()
            other._flush()
            self.dist = np.concatenate([self.dist, other.dist], axis=1)
            self.px = np.concatenate([self.px, other.px], axis=1)
            self.py = np.concatenate([self.py, other.py], axis=1)
            self.pz = np.concatenate([self.pz, other.pz], axis=1)
            self._select_k()

        def _select_k(self) -> None:
            """Per lane, cut to the k smallest (d, x, y, z), sorted.

            Same select-then-sort as the single-lane class, on a
            rectangle: every lane keeps its ``m`` nearest candidates in
            arrival order, ``m`` being the largest per-lane count of
            distances no farther than that lane's k-th smallest, and the
            lexsort runs over ``(lanes, m)``.  With at most k candidates,
            a lane with fewer than k comparable distances (NaN), or a tie
            set so large that the rectangle would be most of the input,
            everything is sorted."""
            cols = (self.pz, self.py, self.px, self.dist)
            n = self.dist.shape[1]
            keep = None
            if n > k:
                kth = np.partition(self.dist, k - 1, axis=1)[:, k - 1 : k]
                near = self.dist <= kth
                counts = near.sum(axis=1)
                m = int(counts.max())
                if int(counts.min()) >= k and 2 * m <= n:
                    # stable sort on "not near": each lane's near
                    # candidates first, in arrival order
                    keep = np.argsort(~near, axis=1, kind="stable")[:, :m]
            if keep is None:
                order = np.lexsort(cols)[:, :k]
            else:
                order = np.take_along_axis(
                    keep,
                    np.lexsort(
                        tuple(np.take_along_axis(c, keep, axis=1) for c in cols)
                    )[:, :k],
                    axis=1,
                )
            self.dist = np.take_along_axis(self.dist, order, axis=1)
            self.px = np.take_along_axis(self.px, order, axis=1)
            self.py = np.take_along_axis(self.py, order, axis=1)
            self.pz = np.take_along_axis(self.pz, order, axis=1)

        def pack(self) -> dict[str, np.ndarray]:
            # cut before shipping so a packet still crosses the boundary
            # as lanes*k candidates, then flatten to the single-lane wire
            # shape (every lane holds the same count, so unpack's
            # reshape(lanes, -1) is exact)
            self._flush()
            self._select_k()
            return {
                "dist": self.dist.reshape(-1).copy(),
                "px": self.px.reshape(-1).copy(),
                "py": self.py.reshape(-1).copy(),
                "pz": self.pz.reshape(-1).copy(),
            }

        @classmethod
        def unpack(cls, packed: dict[str, np.ndarray]) -> "KNNLanes":
            obj = cls()
            obj.dist = packed["dist"].reshape(lanes, -1).copy()
            obj.px = packed["px"].reshape(lanes, -1).copy()
            obj.py = packed["py"].reshape(lanes, -1).copy()
            obj.pz = packed["pz"].reshape(lanes, -1).copy()
            return obj

        def lane_rows(self, lane: int) -> np.ndarray:
            """One lane's canonical sorted (dist, x, y, z) rows — the
            same array a single-query run's ``rows()`` returns."""
            self._flush()
            d = self.dist[lane]
            x = self.px[lane]
            y = self.py[lane]
            z = self.pz[lane]
            order = np.lexsort((z, y, x, d))
            return np.stack(
                [d[order], x[order], y[order], z[order]], axis=1
            )

        def rows(self) -> np.ndarray:
            """All lanes stacked, each in canonical order (debug aid)."""
            self._flush()
            return np.stack(
                [self.lane_rows(lane) for lane in range(lanes)], axis=0
            )

        @property
        def nbytes(self) -> int:
            return (
                self.dist.nbytes + self.px.nbytes + self.py.nbytes + self.pz.nbytes
            )

    KNNLanes.__name__ = f"KNNLanes{k}x{lanes}"
    cls = register_generated(KNNLanes)
    _LANE_CLASSES[key] = cls
    return cls


def knn_oracle(points: np.ndarray, q: tuple[float, float, float], k: int):
    """Vectorized exact reference."""
    d = ((points - np.asarray(q)) ** 2).sum(axis=1)
    order = np.lexsort((points[:, 2], points[:, 1], points[:, 0], d))[:k]
    return np.stack(
        [d[order], points[order, 0], points[order, 1], points[order, 2]], axis=1
    )


def make_knn_registry() -> IntrinsicRegistry:
    return IntrinsicRegistry(
        [
            Intrinsic("read_points", (), None, fn=lambda: None, writes=("return",)),  # type: ignore[arg-type]
            Intrinsic("display", (), VOID, fn=lambda r: None, reads=("r",), writes=()),
        ]
    )


# ---------------------------------------------------------------------------
# Decomp-Manual: hand-written DataCutter filters (vectorized NumPy)
# ---------------------------------------------------------------------------


class _ManualKnnSource(SourceFilter):
    """Data-node filter: vectorized local k-NN per packet, ships only the
    k candidates — the decomposition a careful human writes (§6.4)."""

    def generate(self, ctx: FilterContext):
        q = np.array([ctx.params["qx"], ctx.params["qy"], ctx.params["qz"]])
        k = ctx.params["k"]
        for pk in ctx.params["packets"]:
            pts = np.stack(
                [pk.fields["x"], pk.fields["y"], pk.fields["z"]], axis=1
            )
            d = ((pts - q) ** 2).sum(axis=1)
            take = min(k, len(d))
            idx = np.argpartition(d, take - 1)[:take] if take else np.zeros(0, int)
            yield {
                "dist": d[idx],
                "px": pts[idx, 0],
                "py": pts[idx, 1],
                "pz": pts[idx, 2],
            }


class _ManualKnnMerge(Filter):
    def init(self, ctx: FilterContext) -> None:
        self._cls = ctx.params["knn_class"]
        self._acc = self._cls()

    def process(self, buf: Buffer, ctx: FilterContext) -> None:
        self._acc.merge(self._cls.unpack(buf.payload))

    def finalize(self, ctx: FilterContext) -> None:
        ctx.write(self._acc.pack(), -2)


class _ManualKnnView(Filter):
    def init(self, ctx: FilterContext) -> None:
        self._cls = ctx.params["knn_class"]
        self._acc = self._cls()

    def process(self, buf: Buffer, ctx: FilterContext) -> None:
        self._acc.merge(self._cls.unpack(buf.payload))

    def finalize(self, ctx: FilterContext) -> None:
        ctx.write({"result": self._acc})


def manual_knn_specs(workload: Workload, widths: list[int]) -> list[FilterSpec]:
    params = dict(workload.params)
    params["packets"] = workload.packets
    return [
        FilterSpec("man_src", _ManualKnnSource, placement=0, width=widths[0], params=params),
        FilterSpec("man_merge", _ManualKnnMerge, placement=1, width=widths[1], params=params),
        FilterSpec("man_view", _ManualKnnView, placement=2, width=widths[2], params=params),
    ]


# ---------------------------------------------------------------------------
# Serving adapter (repro.serve): request -> packets + params
# ---------------------------------------------------------------------------


def _knn_extract(payloads: list) -> np.ndarray:
    """Final pipeline payload -> canonical sorted (dist, x, y, z) rows —
    a plain ndarray, so responses are byte-comparable across serving and
    one-shot paths."""
    return payloads[-1]["result"].rows()


def _knn_extract_lane(payloads: list, lane: int) -> np.ndarray:
    """Fused-plan demux: one lane's canonical rows — byte-identical to
    what :func:`_knn_extract` returns for that query run alone."""
    return payloads[-1]["result"].lane_rows(lane)


def _knn_extract_all(payloads: list) -> list[np.ndarray]:
    """Whole-plan extract of a fused run (diagnostic path; the server
    demuxes per lane via ``extract_lane``)."""
    result = payloads[-1]["result"]
    return [result.lane_rows(lane) for lane in range(result.LANES)]


class KnnService:
    """Serves k-NN queries over one resident point dataset.

    The compiled pipeline takes the query point as *runtime parameters*
    (``qx``/``qy``/``qz``), so every query shares a single plan-cache
    entry: the first request compiles, every later request — any query
    point — streams straight through the warm pipeline.  Requests with
    identical query points coalesce into one execution, and the service
    opts into request fusion (``ServicePlan.fuse_key``): *distinct*
    query points in one micro-batch merge into a single lane-batched
    execution whose ``(lanes, 1)``-shaped query params broadcast through
    the unchanged dialect source, one plan-cache entry per (k, lane
    bucket) — lane counts round up to a power of two, padded with a
    duplicate of the last query, so fused plans stay cache-warm across
    varying batch widths."""

    name = "knn"

    def __init__(
        self,
        k: int = 3,
        n_points: int = 20_000,
        num_packets: int = 8,
        width: int = 1,
        backend: str = "auto",
        objective: str = "total",
    ) -> None:
        from ..core.compiler import CompileOptions
        from ..cost.environment import cluster_config

        self.k = k
        self.app = make_knn_app(k)
        self.workload = self.app.make_workload(
            n_points=n_points, num_packets=num_packets
        )
        self.options = CompileOptions(
            env=cluster_config(width),
            profile=self.workload.profile,
            objective=objective,
            size_hints=dict(self.app.size_hints),
            runtime_classes=dict(self.app.runtime_classes),
            method_costs=dict(self.app.method_costs),
            backend=backend,
        )
        # fusion compatibility identity: everything that must match for
        # two plans to ride one batched run — dataset, k, decomposition
        # inputs — excluding the per-request query point
        self._fuse_key = (
            f"{self.workload.label}/packets={num_packets}"
            f"/w={width}/{backend}/{objective}"
        )
        #: per lane-bucket CompileOptions (stable identity keeps the
        #: plan cache warm: one entry per (service, k, bucket))
        self._lane_options: dict[int, Any] = {}

    def plan(self, body):
        from ..serve.requests import ServicePlan

        q = tuple(float(body.get(axis, 0.5)) for axis in ("x", "y", "z"))
        params = dict(self.workload.params)
        params["qx"], params["qy"], params["qz"] = q
        return ServicePlan(
            service=self.name,
            group_key=f"q=({q[0]!r},{q[1]!r},{q[2]!r})",
            source=self.app.source,
            registry=self.app.registry,
            options=self.options,
            packets=self.workload.packets,
            params=params,
            extract=_knn_extract,
            fuse_key=self._fuse_key,
            fuse=self.fuse_plans,
        )

    def fuse_plans(self, plans):
        """Combine distinct-query plans into one lane-batched plan.

        Lane *i* of the fused run answers ``plans[i]``.  The lane count
        rounds up to the next power of two (padding with the last real
        query) so the compiled plan — keyed by the lane-batched runtime
        class — is reused across nearby batch widths."""
        from ..serve.requests import ServicePlan

        n_real = len(plans)
        bucket = 1 << max(1, (n_real - 1).bit_length())
        lanes_cls = make_knn_lanes_class(self.k, bucket)
        options = self._lane_options.get(bucket)
        if options is None:
            options = self.options.replace(
                runtime_classes={"KNN": lanes_cls}
            )
            self._lane_options[bucket] = options
        qx = np.zeros((bucket, 1))
        qy = np.zeros((bucket, 1))
        qz = np.zeros((bucket, 1))
        for i, plan in enumerate(plans):
            qx[i, 0] = plan.params["qx"]
            qy[i, 0] = plan.params["qy"]
            qz[i, 0] = plan.params["qz"]
        qx[n_real:, 0] = qx[n_real - 1, 0]
        qy[n_real:, 0] = qy[n_real - 1, 0]
        qz[n_real:, 0] = qz[n_real - 1, 0]
        params = dict(self.workload.params)
        params["qx"], params["qy"], params["qz"] = qx, qy, qz
        params["knn_class"] = lanes_cls
        return ServicePlan(
            service=self.name,
            group_key=f"fused[{n_real}/{bucket}]"
            + ";".join(plan.group_key for plan in plans),
            source=self.app.source,
            registry=self.app.registry,
            options=options,
            packets=self.workload.packets,
            params=params,
            extract=_knn_extract_all,
            extract_lane=_knn_extract_lane,
            lanes=n_real,
        )


def make_knn_service(**kwargs) -> KnnService:
    return KnnService(**kwargs)


# ---------------------------------------------------------------------------
# App bundle
# ---------------------------------------------------------------------------


def make_knn_app(k: int = 3) -> AppBundle:
    knn_cls = make_knn_class(k)

    def make_workload(
        n_points: int = 60_000,
        num_packets: int = 10,
        seed: int = 11,
        query: tuple[float, float, float] = (0.5, 0.5, 0.5),
    ) -> Workload:
        dataset: PointDataset = make_point_dataset(n_points, seed)
        packets = dataset.packets(num_packets)
        params: dict[str, Any] = {
            "qx": query[0],
            "qy": query[1],
            "qz": query[2],
            "k": k,
            "num_packets": num_packets,
            "knn_class": knn_cls,
        }
        profile = WorkloadProfile(
            {
                "num_packets": float(num_packets),
                "packet_size": n_points / num_packets,
                "knn.k": float(k),
            }
        )

        def oracle():
            return knn_oracle(dataset.points, query, k)

        def check(final_payload: dict[str, Any], expected) -> bool:
            got = final_payload["result"].rows()
            return bool(
                got.shape == expected.shape and np.allclose(got, expected)
            )

        return Workload(
            packets=packets,
            params=params,
            profile=profile,
            oracle=oracle,
            check=check,
            label=f"knn/k={k}/n={n_points}",
        )

    return AppBundle(
        name=f"knn-k{k}",
        source=KNN_SOURCE,
        registry=make_knn_registry(),
        runtime_classes={"KNN": knn_cls},
        size_hints={
            "KNN.dist": "knn.k",
            "KNN.px": "knn.k",
            "KNN.py": "knn.k",
            "KNN.pz": "knn.k",
        },
        make_workload=make_workload,
        manual_specs=manual_knn_specs,
        method_costs={
            # bounded-set insert: threshold compare, occasional O(k) rescan
            "KNN.insert": lambda p: OpCount(
                flops=4.0,
                iops=4.0 + 0.05 * p.get("knn.k", 3.0),
                branches=3.0,
            ),
            "KNN.merge": lambda p: OpCount(
                iops=12.0 * p.get("knn.k", 3.0),
                branches=2.0 * p.get("knn.k", 3.0),
            ),
        },
        notes="k-nearest neighbours (Figs 9-10); k=3 and k=200 in the paper.",
    )
