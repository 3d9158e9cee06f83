"""Pickle anchors for generated classes: by-reference pickling, weak
anchors that die with their class, and serials that are never reused."""

import gc
import pickle

import pytest

from repro import CompileOptions, WorkloadProfile, compile_source
from repro.codegen import generated_registry
from repro.codegen.generated_registry import (
    generated_serial,
    next_serial,
    register_generated,
)
from repro.cost import cluster_config

SOURCE = """
native Rectdomain<1, E> read();
class E { double key; }
class Acc implements Reducinterface {
    double total;
    void add(double v) { total = total + v; }
    void merge(Acc other) { total = total + other.total; }
}
class M {
    void run(double cutoff) {
        runtime_define int num_packets;
        Rectdomain<1, E> elems = read();
        Acc result = new Acc();
        PipelinedLoop (p in elems) {
            Acc local = new Acc();
            foreach (e in p) {
                if (e.key < cutoff) {
                    local.add(e.key);
                }
            }
            result.merge(local);
        }
    }
}
"""

OPTIONS = CompileOptions(
    env=cluster_config(1),
    profile=WorkloadProfile({"num_packets": 4, "packet_size": 100}),
)


def _live_generated_classes() -> int:
    return sum(
        isinstance(obj, type) and obj.__module__ == generated_registry.__name__
        for obj in gc.get_objects()
    )


def _fresh_class():
    class Gen:
        pass

    return register_generated(Gen)


def test_instances_pickle_by_reference():
    cls = _fresh_class()
    assert cls.__name__ == "Gen"
    assert cls.__module__ == generated_registry.__name__
    assert pickle.loads(pickle.dumps(cls)) is cls
    assert type(pickle.loads(pickle.dumps(cls()))) is cls


def test_serials_grow_and_are_never_reused():
    first = _fresh_class()
    second = _fresh_class()
    assert generated_serial(second) == generated_serial(first) + 1
    assert next_serial() > generated_serial(second)
    assert first.__qualname__ != second.__qualname__
    name = first.__qualname__
    del first
    gc.collect()
    # a dead class's anchor is gone and its name is not handed out again
    with pytest.raises(AttributeError):
        getattr(generated_registry, name)
    assert _fresh_class().__qualname__ != name
    assert generated_serial(int) is None


def test_repeated_compiles_do_not_grow_the_registry():
    compile_source(SOURCE, None, OPTIONS)
    gc.collect()
    before = _live_generated_classes()
    first = next_serial()
    for _ in range(200):
        compile_source(SOURCE, None, OPTIONS)
    gc.collect()
    assert next_serial() - first >= 200  # every compile anchored classes
    assert _live_generated_classes() <= before
