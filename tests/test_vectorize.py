"""Differential tests for the columnar (vector) codegen backend.

The vector backend must be a pure performance knob: for every bundled
application and for hand-written dialect snippets, compiling with
``backend="vector"`` must produce byte-identical final payloads to the
scalar backend on both execution engines, while actually emitting
columnar element loops (asserted through the per-filter
``vector_loops``/``scalar_loops`` counters).  Loops the analyzer cannot
vectorize must fall back to the scalar path per loop — with the reason
recorded in the generated source — and still compute the same answer.
"""

import warnings

import numpy as np
import pytest

from repro.apps import (
    make_active_pixels_app,
    make_knn_app,
    make_vmscope_app,
    make_zbuffer_app,
)
from repro.codegen.runtime_support import RawPacket
from repro.codegen.vectorize import resolve_backend
from repro.core.compiler import CompileOptions, compile_source
from repro.cost import cluster_config
from repro.datacutter import EngineOptions, run_pipeline
from repro.experiments.harness import _specs_for_version
from repro.lang.intrinsics import Intrinsic, IntrinsicRegistry
from repro.lang.types import DOUBLE, VOID

from .conftest import no_orphans

#: generous wall-clock cap for process-engine runs so a regression fails
#: instead of hanging the suite
PROC_TIMEOUT = 120.0

ENGINE_NAMES = ("threaded", "process")
BACKENDS = ("scalar", "vector")

APPS = {
    "zbuffer": lambda: _bundle(
        make_zbuffer_app(width=48, height=48), dataset="tiny", num_packets=4
    ),
    "apixels": lambda: _bundle(
        make_active_pixels_app(width=48, height=48), dataset="tiny", num_packets=4
    ),
    "knn": lambda: _bundle(make_knn_app(k=5), n_points=4000, num_packets=5),
    "vmscope": lambda: _bundle(
        make_vmscope_app(image_w=256, image_h=256, tile=64),
        query="large",
        num_packets=4,
    ),
}


def _bundle(app, **workload_kwargs):
    return app, app.make_workload(**workload_kwargs)


def _run(specs, engine):
    timeout = PROC_TIMEOUT if engine == "process" else None
    return run_pipeline(specs, EngineOptions(engine=engine, timeout=timeout))




def _canonical(finals):
    """Final payload dict -> {name: {field: ndarray}} in a backend-neutral
    byte-exact form.  Reductions whose *stored* order is arrival-dependent
    but whose value is a set (KNN candidate lists) are compared through
    their canonical ``rows()`` view; everything else through ``pack()``."""
    out = {}
    for key, value in finals.items():
        if hasattr(value, "rows"):
            out[key] = {"rows": np.asarray(value.rows())}
        elif hasattr(value, "pack"):
            out[key] = {k: np.asarray(v) for k, v in value.pack().items()}
        else:
            out[key] = {"value": np.asarray(value)}
    return out


def _assert_identical(a, b):
    assert a.keys() == b.keys()
    for key in a:
        assert a[key].keys() == b[key].keys(), key
        for fld in a[key]:
            assert a[key][fld].dtype == b[key][fld].dtype, (key, fld)
            assert np.array_equal(a[key][fld], b[key][fld]), (key, fld)


# ---------------------------------------------------------------------------
# All four applications, both engines: vector == scalar, byte for byte
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_backends_identical(app_name, engine):
    """backend='vector' is a pure perf knob: same bytes out on every app."""
    app, workload = APPS[app_name]()
    env = cluster_config(1)
    runs = {}
    for backend in BACKENDS:
        # fresh specs per run: reduction instances are stateful
        specs, result = _specs_for_version(
            app, workload, "Decomp-Comp", env, backend=backend
        )
        assert result.pipeline.backend == backend
        vec = sum(f.vector_loops for f in result.pipeline.filters)
        if backend == "vector":
            # every bundled app must actually exercise the columnar path
            assert vec >= 1, f"{app_name}: no element loop vectorized"
        else:
            assert vec == 0
        runs[backend] = _run(specs, engine)

    a = _canonical(runs["scalar"].payloads[-1])
    b = _canonical(runs["vector"].payloads[-1])
    _assert_identical(a, b)

    # both backends must also agree with the sequential oracle
    expected = workload.oracle()
    assert workload.check(runs["scalar"].payloads[-1], expected)
    assert workload.check(runs["vector"].payloads[-1], expected)
    if engine == "process":
        no_orphans()


# ---------------------------------------------------------------------------
# Dialect snippets: masked conditionals, reductions, scalar fallback
# ---------------------------------------------------------------------------

_PRELUDE = """
native Rectdomain<1, Rec> read_recs();
native double wiggle(double x);
native void display(Acc r);

class Rec {
    double a;
    double b;
}

class Acc implements Reducinterface {
    double best;
    void add(double v) { return; }
    void merge(Acc other) { return; }
}
"""

#: nested if/else computing a value under masks, then one reduction fold
MASKED_SOURCE = _PRELUDE + """
class Main {
    void go(double thresh) {
        runtime_define int num_packets;
        Rectdomain<1, Rec> recs = read_recs();
        Acc result = new Acc();
        PipelinedLoop (p in recs) {
            Acc local = new Acc();
            foreach (r in p) {
                double v = r.a;
                if (r.a > thresh) {
                    v = r.a * 2.0 + r.b;
                } else {
                    if (r.b > 0.0) {
                        v = r.b - r.a;
                    } else {
                        v = 0.0 - r.b;
                    }
                }
                local.add(v);
            }
            result.merge(local);
        }
        display(result);
    }
}
"""

#: two element loops: the first vectorizes, the second calls an intrinsic
#: with no batch form and must fall back — per loop, not per program
PARTIAL_SOURCE = _PRELUDE + """
class Main {
    void go(double thresh) {
        runtime_define int num_packets;
        Rectdomain<1, Rec> recs = read_recs();
        Acc result = new Acc();
        PipelinedLoop (p in recs) {
            Acc local = new Acc();
            foreach (r in p) {
                double v = r.a * 2.0 + r.b;
                local.add(v);
            }
            foreach (s in p) {
                double w = wiggle(s.b);
                local.add(w);
            }
            result.merge(local);
        }
        display(result);
    }
}
"""

#: reduction folds nested inside conditional branches: a documented
#: analyzer limit — must fall back (with the reason) and stay correct
BRANCH_REDUCE_SOURCE = _PRELUDE + """
class Main {
    void go(double thresh) {
        runtime_define int num_packets;
        Rectdomain<1, Rec> recs = read_recs();
        Acc result = new Acc();
        PipelinedLoop (p in recs) {
            Acc local = new Acc();
            foreach (r in p) {
                if (r.a > thresh) {
                    local.add(r.a * 2.0);
                } else {
                    local.add(r.b);
                }
            }
            result.merge(local);
        }
        display(result);
    }
}
"""


#: compound assignment on a local initialized from an element field: the
#: local's binding starts as a zero-copy view of the caller's column, so
#: the emitted update must rebind, never run an in-place ufunc (the
#: trailing 'v + r.a' reads the column again and exposes any mutation)
COMPOUND_SOURCE = _PRELUDE + """
class Main {
    void go(double thresh) {
        runtime_define int num_packets;
        Rectdomain<1, Rec> recs = read_recs();
        Acc result = new Acc();
        PipelinedLoop (p in recs) {
            Acc local = new Acc();
            foreach (r in p) {
                double v = r.a;
                v += r.b;
                local.add(v + r.a);
            }
            result.merge(local);
        }
        display(result);
    }
}
"""

#: the same update under a guard: a guard that keeps every row hands the
#: packet's own arrays on, so the update must not write through them either
GUARDED_COMPOUND_SOURCE = COMPOUND_SOURCE.replace(
    "double v = r.a;", "if (r.a > thresh) {\n                double v = r.a;"
).replace("local.add(v + r.a);", "local.add(v + r.a);\n                }")

#: compound assignment inside a branch: the branch-save is an alias of
#: the pre-branch value, so an in-place '+=' would leak the branch effect
#: into every lane through the np.where merge
BRANCH_COMPOUND_SOURCE = _PRELUDE + """
class Main {
    void go(double thresh) {
        runtime_define int num_packets;
        Rectdomain<1, Rec> recs = read_recs();
        Acc result = new Acc();
        PipelinedLoop (p in recs) {
            Acc local = new Acc();
            foreach (r in p) {
                double v = r.b;
                if (r.a > thresh) {
                    v += 10.0;
                }
                local.add(v);
            }
            result.merge(local);
        }
        display(result);
    }
}
"""

#: '&&' whose right operand divides by the value the left operand guards:
#: scalar short-circuits past the divide, the eager columnar '&' runs it
#: on every lane — under errstate(ignore) inside the generated code
SHORT_CIRCUIT_DIV_SOURCE = _PRELUDE + """
class Main {
    void go(double thresh) {
        runtime_define int num_packets;
        Rectdomain<1, Rec> recs = read_recs();
        Acc result = new Acc();
        PipelinedLoop (p in recs) {
            Acc local = new Acc();
            foreach (r in p) {
                double v = 0.0;
                if (r.b != 0.0 && r.a / r.b > 1.0) {
                    v = r.a;
                }
                local.add(v);
            }
            result.merge(local);
        }
        display(result);
    }
}
"""


class MaxAcc:
    """Max fold: an exact selection, so batch and scalar agree bitwise."""

    def __init__(self):
        self.best = -np.inf

    def add(self, v):
        self.best = max(self.best, float(v))

    def batch_add(self, v):
        v = np.asarray(v, dtype=np.float64)
        if v.size:
            self.best = max(self.best, float(v.max()))

    def merge(self, other):
        self.best = max(self.best, other.best)

    def pack(self):
        return {"best": np.array([self.best])}

    @classmethod
    def unpack(cls, packed):
        obj = cls()
        obj.best = float(packed["best"][0])
        return obj

    @property
    def nbytes(self):
        return 8


def _snippet_registry():
    return IntrinsicRegistry(
        [
            Intrinsic("read_recs", (), None, fn=lambda: None, writes=("return",)),
            Intrinsic(
                "wiggle",
                (DOUBLE,),
                DOUBLE,
                fn=lambda x: x * 1.5 + 0.25,
                reads=("x",),
                writes=("return",),
            ),
            Intrinsic("display", (), VOID, fn=lambda r: None, reads=("r",), writes=()),
        ]
    )


def _snippet_packets(seed, count=50, num_packets=4):
    rng = np.random.default_rng(seed)
    return [
        RawPacket(
            count=count,
            fields={"a": rng.normal(size=count), "b": rng.normal(size=count)},
        )
        for _ in range(num_packets)
    ]


def _run_snippet(source, backend, packets, params):
    options = CompileOptions(
        env=cluster_config(2),
        runtime_classes={"Acc": MaxAcc},
        backend=backend,
    )
    result = compile_source(source, _snippet_registry(), options)
    out = result.execute(packets, dict(params))
    return result, out.payloads[-1]["result"].best


def _loop_counts(result):
    return [(f.vector_loops, f.scalar_loops) for f in result.pipeline.filters]


def test_masked_conditional_vectorizes():
    """Nested if/else lowers to masks/where; the fold is batched exactly."""
    packets = _snippet_packets(seed=7)
    params = {"thresh": 0.2, "num_packets": len(packets)}
    scalar, s_best = _run_snippet(MASKED_SOURCE, "scalar", packets, params)
    vector, v_best = _run_snippet(MASKED_SOURCE, "vector", packets, params)
    assert sum(v for v, _ in _loop_counts(scalar)) == 0
    counts = _loop_counts(vector)
    assert counts[0] == (1, 0), counts
    assert np.float64(s_best).tobytes() == np.float64(v_best).tobytes()


def test_partial_vectorization_per_loop():
    """One program, two loops: the vectorizable one goes columnar, the one
    calling a batchless intrinsic falls back — and the source names why."""
    packets = _snippet_packets(seed=5, count=40, num_packets=3)
    params = {"thresh": 0.0, "num_packets": len(packets)}
    scalar, s_best = _run_snippet(PARTIAL_SOURCE, "scalar", packets, params)
    vector, v_best = _run_snippet(PARTIAL_SOURCE, "vector", packets, params)
    assert _loop_counts(scalar)[0] == (0, 2)
    assert _loop_counts(vector)[0] == (1, 1)
    src = vector.pipeline.filters[0].source
    assert "# scalar fallback:" in src
    assert "no batch form" in src
    assert np.float64(s_best).tobytes() == np.float64(v_best).tobytes()


def test_branch_reduction_falls_back():
    """Reduction updates under if/else are a documented analyzer limit:
    the loop stays scalar, the reason is recorded, the answer is right."""
    packets = _snippet_packets(seed=11, count=40, num_packets=3)
    params = {"thresh": 0.1, "num_packets": len(packets)}
    scalar, s_best = _run_snippet(BRANCH_REDUCE_SOURCE, "scalar", packets, params)
    vector, v_best = _run_snippet(BRANCH_REDUCE_SOURCE, "vector", packets, params)
    assert _loop_counts(vector)[0] == (0, 1)
    assert "reduction update under if/else" in vector.pipeline.filters[0].source
    assert np.float64(s_best).tobytes() == np.float64(v_best).tobytes()


def test_compound_assign_does_not_mutate_input():
    """'v = r.a; v += r.b' vectorizes, and the caller's packet arrays come
    back byte-identical: the hoisted column is a zero-copy view, so the
    update must rebind rather than run an in-place ufunc through it."""
    packets = _snippet_packets(seed=13)
    before = [{k: v.copy() for k, v in pk.fields.items()} for pk in packets]
    params = {"thresh": 0.0, "num_packets": len(packets)}
    scalar, s_best = _run_snippet(COMPOUND_SOURCE, "scalar", packets, params)
    vector, v_best = _run_snippet(COMPOUND_SOURCE, "vector", packets, params)
    assert _loop_counts(vector)[0] == (1, 0)
    for pk, orig in zip(packets, before):
        for fld, arr in orig.items():
            assert np.array_equal(pk.fields[fld], arr), fld
    assert np.float64(s_best).tobytes() == np.float64(v_best).tobytes()


def test_compound_assign_under_all_rows_guard_does_not_mutate_input():
    """A guard that keeps every row returns the packet's columns unchanged
    (no copy), and the update after it still leaves them untouched."""
    packets = _snippet_packets(seed=17)
    before = [{k: v.copy() for k, v in pk.fields.items()} for pk in packets]
    params = {"thresh": -1e9, "num_packets": len(packets)}
    scalar, s_best = _run_snippet(GUARDED_COMPOUND_SOURCE, "scalar", packets, params)
    vector, v_best = _run_snippet(GUARDED_COMPOUND_SOURCE, "vector", packets, params)
    assert _loop_counts(vector)[0] == (1, 0)
    assert "_col_take(" in vector.pipeline.filters[0].source
    for pk, orig in zip(packets, before):
        for fld, arr in orig.items():
            assert np.array_equal(pk.fields[fld], arr), fld
    assert np.float64(s_best).tobytes() == np.float64(v_best).tobytes()


def test_compound_assign_in_branch_masks_lanes():
    """'v += 10.0' under if/else applies to the guarded lanes only: an
    in-place update would write through the branch-save alias and the
    np.where merge would then add 10 to every lane."""
    count = 32
    a = np.full(count, -1.0)
    a[:4] = 1.0  # only lanes 0..3 take the branch
    b = np.arange(count, dtype=np.float64)
    packets = [RawPacket(count=count, fields={"a": a, "b": b})]
    params = {"thresh": 0.0, "num_packets": len(packets)}
    scalar, s_best = _run_snippet(
        BRANCH_COMPOUND_SOURCE, "scalar", packets, params
    )
    vector, v_best = _run_snippet(
        BRANCH_COMPOUND_SOURCE, "vector", packets, params
    )
    assert _loop_counts(vector)[0] == (1, 0)
    # unmasked max (31.0) beats the masked lanes (3.0 + 10.0); a leaked
    # branch effect would report 41.0 instead
    assert s_best == 31.0
    assert np.float64(s_best).tobytes() == np.float64(v_best).tobytes()


def test_short_circuit_divide_is_silent():
    """Eager '&' legally divides on lanes the scalar code short-circuits
    past; the generated errstate block keeps those lanes silent even when
    the caller escalates warnings to errors."""
    count = 40
    rng = np.random.default_rng(17)
    packets = [
        RawPacket(
            count=count,
            fields={
                "a": rng.normal(size=count) * 4.0,
                "b": rng.normal(size=count).round(),  # exact zeros
            },
        )
        for _ in range(3)
    ]
    assert any((pk.fields["b"] == 0.0).any() for pk in packets)
    params = {"thresh": 0.0, "num_packets": len(packets)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar, s_best = _run_snippet(
            SHORT_CIRCUIT_DIV_SOURCE, "scalar", packets, params
        )
        vector, v_best = _run_snippet(
            SHORT_CIRCUIT_DIV_SOURCE, "vector", packets, params
        )
    assert _loop_counts(vector)[0] == (1, 0)
    assert "with _np.errstate" in vector.pipeline.filters[0].source
    assert np.float64(s_best).tobytes() == np.float64(v_best).tobytes()


# ---------------------------------------------------------------------------
# Backend selection plumbing
# ---------------------------------------------------------------------------


def test_resolve_backend(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend("scalar") == "scalar"
    assert resolve_backend("vector") == "vector"
    assert resolve_backend("auto") == "scalar"
    monkeypatch.setenv("REPRO_BACKEND", "vector")
    assert resolve_backend("auto") == "vector"
    # explicit choices win over the environment
    assert resolve_backend("scalar") == "scalar"
    with pytest.raises(ValueError, match="unknown codegen backend"):
        resolve_backend("simd")
    monkeypatch.setenv("REPRO_BACKEND", "gpu")
    with pytest.raises(ValueError, match="unknown codegen backend"):
        resolve_backend("auto")


def test_compile_options_thread_backend(monkeypatch):
    """CompileOptions.backend='auto' resolves through the environment and
    the resolved name is recorded on the compiled pipeline."""
    monkeypatch.setenv("REPRO_BACKEND", "vector")
    packets = _snippet_packets(seed=3, count=20, num_packets=2)
    params = {"thresh": 0.0, "num_packets": len(packets)}
    result, _ = _run_snippet(MASKED_SOURCE, "auto", packets, params)
    assert result.pipeline.backend == "vector"
    assert _loop_counts(result)[0] == (1, 0)
