"""The epoch arena: how a work epoch's dataset reaches the resident pool.

Two layers under test.  :class:`EpochArena` alone — round trip, growth
without shrinking, a failed ``store`` that leaves the previous epoch
loadable, stale references refused.  And the arena as the process
engine uses it — every epoch after the fork loads its specs from it, so
warm epochs must stay byte-identical to the threaded engine and to
fork-per-run, a filter that writes into its packets must not be seen by
any other worker or by the next epoch, an injected crash must heal from
the fork image and the epoch after it load from the arena again, and
fifty epochs must not cost one descriptor.
"""

import gc
import os
import pickle

import numpy as np
import pytest

from repro.apps import make_knn_app, make_vmscope_app
from repro.cost import cluster_config
from repro.datacutter import (
    EngineOptions,
    FaultSpec,
    Filter,
    FilterSpec,
    RetryPolicy,
    SourceFilter,
    Trace,
    run_pipeline,
)
from repro.datacutter.engine import EngineSession
from repro.datacutter.mp.arena import ArenaError, EpochArena
from repro.experiments.harness import _specs_for_version

PROC_TIMEOUT = 120.0
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.01, jitter=0.0)


def proc_options(**overrides) -> EngineOptions:
    merged = {"engine": "process", "timeout": PROC_TIMEOUT, "death_grace": 0.3}
    merged.update(overrides)
    return EngineOptions(**merged)


def _open_descriptors() -> int:
    # garbage first: a worker inherits whatever cycles the forking process
    # had not collected yet (earlier tests' pipes and mappings), and frees
    # them whenever its own collector gets there
    gc.collect()
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def arena():
    arena = EpochArena()
    yield arena
    arena.close()


# ---------------------------------------------------------------------------
# the arena alone
# ---------------------------------------------------------------------------


def test_round_trip_nested_specs(arena):
    structured = np.zeros(5, dtype=[("id", "<i4"), ("w", "<f8")])
    structured["id"] = np.arange(5)
    structured["w"] = np.linspace(0.0, 1.0, 5)
    strided = np.arange(20.0).reshape(4, 5)[:, ::2]
    frozen = np.arange(7, dtype=np.int16)
    frozen.flags.writeable = False
    arrays = {
        "plain": np.arange(1000, dtype=np.float64),
        "structured": structured,
        "empty": np.empty((0, 3), dtype=np.float32),
        "fortran": np.asfortranarray(np.arange(12.0).reshape(3, 4)),
        "strided": strided,  # not contiguous: pickled in-band
        "frozen": frozen,
        "objects": np.array(["a", None, 3], dtype=object),
    }
    params = {"packets": [arrays, (arrays["plain"], b"raw", 7)], "k": 3}
    specs = [
        FilterSpec("src", SourceFilter, 0, width=2, params=params),
        FilterSpec("sink", Filter, 1, params=params),
    ]
    out = arena.load(arena.store(specs))

    assert [(s.name, s.factory, s.placement, s.width) for s in out] == [
        (s.name, s.factory, s.placement, s.width) for s in specs
    ]
    # one pickle memo: the dict the specs share is still one dict, and the
    # array that appears twice is one array
    assert out[0].params is out[1].params
    got = out[0].params["packets"][0]
    assert out[0].params["packets"][1][0] is got["plain"]
    assert out[0].params["packets"][1][1:] == (b"raw", 7)
    for name, want in arrays.items():
        assert got[name].dtype == want.dtype, name
        assert got[name].shape == want.shape, name
        assert got[name].tolist() == want.tolist(), name
    assert got["fortran"].flags.f_contiguous
    assert not got["frozen"].flags.writeable
    for name in ("plain", "structured", "fortran"):
        # out-of-band: a writable, 64-byte aligned view of the mapping
        assert not got[name].flags.owndata, name
        assert got[name].flags.writeable, name
        assert got[name].ctypes.data % 64 == 0, name
    # encoded once: the twice-referenced array and the shared dict do not
    # double the arena
    once = sum(a.nbytes for a in arrays.values() if a.dtype != object)
    assert arena.nbytes < once + 4096


def test_grows_and_never_shrinks(arena):
    big = np.arange(300_000, dtype=np.float64)
    small = np.arange(100, dtype=np.float64) * -1.0
    big_ref = arena.store([big])
    big_size = os.fstat(arena._fd).st_size
    assert big_size >= big.nbytes
    held = arena.load(big_ref)[0]

    small_ref = arena.store([small])
    assert arena.nbytes < big.nbytes // 100
    # a parked worker's mapping of the big epoch must stay backed: the
    # file keeps its size, and the last page is still there to touch
    assert os.fstat(arena._fd).st_size == big_size
    assert held[-1] == big[-1]
    # the smaller epoch reads nothing of the stale tail
    assert np.array_equal(arena.load(small_ref)[0], small)
    with pytest.raises(ArenaError, match="generation"):
        arena.load(big_ref)

    bigger = np.arange(400_000, dtype=np.float64)
    assert np.array_equal(arena.load(arena.store([bigger]))[0], bigger)
    assert os.fstat(arena._fd).st_size > big_size


def test_loads_are_private_copies(arena):
    ref = arena.store([np.zeros(4096)])
    first, second = arena.load(ref)[0], arena.load(ref)[0]
    first[:] = 1.0
    assert not second.any()
    assert not arena.load(ref)[0].any()  # nor did the write reach the file


def test_failed_store_leaves_previous_epoch_loadable(arena):
    good = {"packets": [np.arange(50_000, dtype=np.int64)], "tag": "epoch-1"}
    ref = arena.store(good)
    nbytes = arena.nbytes
    with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
        arena.store({"packets": [np.ones(100_000)], "fn": lambda: None})
    assert arena.nbytes == nbytes
    out = arena.load(ref)
    assert out["tag"] == "epoch-1"
    assert np.array_equal(out["packets"][0], good["packets"][0])


def test_close_is_idempotent_and_releases_the_descriptor():
    before = _open_descriptors()
    arena = EpochArena()
    held = arena.load(arena.store([np.arange(10)]))
    assert _open_descriptors() > before
    arena.close()
    arena.close()
    assert held[0].tolist() == list(range(10))  # the mapping outlives close
    del held
    assert _open_descriptors() == before


# ---------------------------------------------------------------------------
# the arena under the engine: paper apps, warm epochs
# ---------------------------------------------------------------------------


def _canonical(payloads) -> bytes:
    """A run's final payload in its byte-exact canonical form."""
    parts = []
    for key, value in sorted(payloads[-1].items()):
        fields = value.pack() if hasattr(value, "pack") else {"value": value}
        for name, data in sorted(fields.items()):
            data = np.asarray(data)
            parts.append(f"{key}.{name}:{data.dtype}:{data.shape}".encode())
            parts.append(data.tobytes())
    return b"|".join(parts)


def _compiled_bundles():
    """(label, make_specs) for two apps x two dataset sizes, all compiled
    before any pool forks — a class generated later cannot be unpickled
    by workers forked earlier, and would refork instead of using the
    arena."""
    env = cluster_config(1)
    knn = make_knn_app(k=5)
    bundles = [
        ("knn-small", knn, knn.make_workload(n_points=1_000, num_packets=3)),
        ("knn-large", knn, knn.make_workload(n_points=6_000, num_packets=8)),
    ]
    for label, side in (("vmscope-small", 128), ("vmscope-large", 256)):
        app = make_vmscope_app(image_w=side, image_h=side, tile=64)
        bundles.append((label, app, app.make_workload(query="large", num_packets=4)))
    out = []
    for label, app, workload in bundles:
        _, result = _specs_for_version(app, workload, "Decomp-Comp", env)

        def make_specs(result=result, workload=workload):
            return result.pipeline.specs(
                workload.packets, workload.params, [1, 2, 1]
            )

        out.append((label, make_specs))
    return out


def test_alternating_apps_and_sizes_match_threaded_and_fork_per_run():
    bundles = _compiled_bundles()
    threaded = {
        label: _canonical(
            run_pipeline(make_specs(), EngineOptions(engine="threaded")).payloads
        )
        for label, make_specs in bundles
    }
    for label, make_specs in bundles:
        forked = run_pipeline(make_specs(), proc_options())
        assert _canonical(forked.payloads) == threaded[label], label

    trace = Trace()
    order = [0, 3, 1, 2, 2, 0, 3, 1]  # apps and sizes both alternate
    with EngineSession(proc_options(trace=trace)) as session:
        for step, index in enumerate(order):
            label, make_specs = bundles[index]
            run = session.run(make_specs())
            assert _canonical(run.payloads) == threaded[label], (step, label)
            note = trace.meta["worker_pool"]
            assert note["refork_reason"] is None
            assert (note["arena_bytes"] > 0) == (step > 0)
        assert session._engine._forks == 1
        assert session._engine._reforks == 0


def test_source_crash_heals_and_next_epoch_loads_from_arena():
    """The fault fires in every epoch: in the forked one, and in epochs
    whose (respawned) source took its spec from the arena.  Each heals
    from the fork image; none reforks the pool."""
    label, make_specs = _compiled_bundles()[1]
    expected = _canonical(
        run_pipeline(make_specs(), EngineOptions(engine="threaded")).payloads
    )
    trace = Trace()
    options = proc_options(
        trace=trace,
        retry=FAST_RETRY,
        faults=[FaultSpec(filter="gen_unit1", kind="crash", copy=0, packet=1)],
    )
    with EngineSession(options) as session:
        for epoch in (1, 2, 3):
            run = session.run(make_specs())
            assert _canonical(run.payloads) == expected, epoch
            restarts = [s for s in trace.spans if s.phase == "restart"]
            assert len(restarts) == epoch
            note = trace.meta["worker_pool"]
            assert (note["forks"], note["reforks"]) == (1, 0)
            assert (note["arena_bytes"] > 0) == (epoch > 1)


# ---------------------------------------------------------------------------
# copy-on-write isolation
# ---------------------------------------------------------------------------


class ScribbleSource(SourceFilter):
    """Negates every packet it can see in place, then reports the sums."""

    def generate(self, ctx):
        for packet in ctx.params["packets"]:
            packet *= -1.0
            yield float(packet.sum())


class PristineCheck(Filter):
    """Runs in another process, after a source copy scribbled: reports
    what *its* view of the dataset holds."""

    def process(self, buf, ctx):
        mine = sum(float(p.sum()) for p in ctx.params["packets"])
        ctx.write((buf.payload, mine), buf.packet)


def _scribble_specs(packets):
    params = {"packets": packets}
    return [
        FilterSpec("scribble", ScribbleSource, 0, width=2, params=params),
        FilterSpec("check", PristineCheck, 1, params=params),
    ]


def test_filter_writes_stay_private_to_its_copy_and_its_epoch():
    first = [np.full(2048, float(i + 1)) for i in range(6)]
    second = [np.full(2048, float(i + 10)) for i in range(6)]
    with EngineSession(proc_options()) as session:
        for packets in (first, first, second, first):
            pristine = [float(p.sum()) for p in packets]
            got = sorted(session.run(_scribble_specs(packets)).payloads)
            # each source copy negated each packet exactly once — its
            # sibling's writes never reached it — and the downstream
            # worker's view was untouched by both
            assert got == sorted((-s, sum(pristine)) for s in pristine)
            # nor did anything reach the caller's arrays
            assert [float(p.sum()) for p in packets] == pristine
        assert session._engine._reforks == 0


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


class FdSource(SourceFilter):
    def generate(self, ctx):
        assert ctx.params["packets"][0][-1] == 4095.0  # touch the mapping
        for _ in range(2):
            yield (os.getpid(), _open_descriptors())


class FdRelay(Filter):
    def process(self, buf, ctx):
        ctx.write(buf.payload, buf.packet)

    def finalize(self, ctx):
        ctx.write((os.getpid(), _open_descriptors()))


def _fd_specs():
    params = {"packets": [np.arange(4096.0)]}
    return [
        FilterSpec("src", FdSource, 0, width=2, params=params),
        FilterSpec("relay", FdRelay, 1, params=params),
    ]


def test_fifty_epochs_cost_no_descriptor():
    def snapshot(session):
        workers = dict(session.run(_fd_specs()).payloads)
        return workers, _open_descriptors()

    with EngineSession(proc_options()) as session:
        session.run(_fd_specs())  # the fork; epoch 2 is the first arena epoch
        workers_early, parent_early = snapshot(session)
        for _ in range(47):
            session.run(_fd_specs())
        workers_late, parent_late = snapshot(session)
        assert session._engine._epoch == 50
        assert session._engine._forks == 1
    assert len(workers_early) == 3
    assert workers_late == workers_early
    assert parent_late == parent_early
