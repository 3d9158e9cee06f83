"""Cross-cutting property tests: the §3 semantic guarantees the compiler
relies on, analysis determinism, and pipeline invariances."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    GenConsAnalyzer,
    analyze_communication,
    build_filter_chain,
)
from repro.lang import check, parse

SOURCE = """
native Rectdomain<1, E> read();
native double[] work(double[] v, double s);
class E { double key; double[] data; }
class Acc implements Reducinterface {
    double[] total;
    void add(double[] v) { return; }
    void merge(Acc o) { return; }
}
class M {
    void run(double s, double cutoff) {
        runtime_define int num_packets;
        Rectdomain<1, E> elems = read();
        Acc result = new Acc();
        PipelinedLoop (p in elems) {
            Acc local = new Acc();
            foreach (e in p) {
                if (e.key < cutoff) {
                    double[] v = work(e.data, s);
                    local.add(v);
                }
            }
            result.merge(local);
        }
    }
}
"""


def reqcomm_sizes():
    checked = check(parse(SOURCE))
    meth, loop = checked.pipelined_loops()[0]
    chain = build_filter_chain(checked, meth, loop)
    analysis = analyze_communication(chain, GenConsAnalyzer(checked))
    return [len(req) for req in analysis.reqcomm]


class TestAnalysisDeterminism:
    def test_reqcomm_stable_across_runs(self):
        a = reqcomm_sizes()
        b = reqcomm_sizes()
        assert a == b


class TestForeachOrderIndependence:
    """§3: foreach iterations may run in any order.  The generated pipeline
    relies on this; verify it for the real application reductions."""

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=20, deadline=None)
    def test_zbuffer_accumulation_commutes(self, rng):
        from repro.apps.isosurface import make_zbuffer_class

        ZB = make_zbuffer_class(8, 8)
        frags = [
            np.array(
                [rng.randint(0, 7), rng.randint(0, 7), rng.uniform(0, 1), rng.uniform(0, 1)]
            )
            for _ in range(20)
        ]
        order = list(range(len(frags)))
        rng.shuffle(order)
        a, b = ZB(), ZB()
        for f in frags:
            a.accum(f)
        for i in order:
            b.accum(frags[i])
        assert np.array_equal(a.image(), b.image())

    @given(st.integers(2, 6), st.randoms(use_true_random=False))
    @settings(max_examples=15, deadline=None)
    def test_partition_independence(self, parts, rng):
        """Merging per-partition accumulators gives the sequential answer
        regardless of how elements are partitioned — the property that
        makes packet boundaries and transparent copies safe."""
        from repro.apps import make_knn_class

        KNN = make_knn_class(4)
        items = [
            (rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1))
            for _ in range(40)
        ]
        sequential = KNN()
        for item in items:
            sequential.insert(*item)
        # random partition
        buckets = [[] for _ in range(parts)]
        for item in items:
            buckets[rng.randrange(parts)].append(item)
        merged = KNN()
        for bucket in buckets:
            acc = KNN()
            for item in bucket:
                acc.insert(*item)
            merged.merge(acc)
        assert np.allclose(merged.rows(), sequential.rows())


class TestVolumeMonotonicity:
    @given(
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=25, deadline=None)
    def test_volume_monotone_in_selectivity(self, s1, s2):
        """More elements surviving the guard can never shrink a
        post-guard boundary's volume."""
        from repro.analysis import VolumeModel, WorkloadProfile

        checked = check(parse(SOURCE))
        meth, loop = checked.pipelined_loops()[0]
        chain = build_filter_chain(checked, meth, loop)
        analysis = analyze_communication(chain)
        vm = VolumeModel(checked, size_hints={"E.data": 4})
        guard = next(a for a in chain.atoms if a.guard is not None)
        b = chain.boundaries[guard.index - 1]
        req = analysis.reqcomm[guard.index - 1]
        lo_sel, hi_sel = sorted((s1, s2))
        lo = vm.boundary_volume(
            chain, b, req, WorkloadProfile({"packet_size": 100, "sel.g0": lo_sel})
        )
        hi = vm.boundary_volume(
            chain, b, req, WorkloadProfile({"packet_size": 100, "sel.g0": hi_sel})
        )
        assert lo <= hi + 1e-9
