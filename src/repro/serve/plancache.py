"""Compilation plan cache: compile once, serve forever.

A one-shot ``run`` pays the full parse → typecheck → analysis →
decomposition → codegen stack per invocation.  A server multiplexing many
small requests through warm pipelines must not: the compiled artifact is
a pure function of the *source program* and the *compilation context*, so
it can be keyed and reused across requests (the long-lived pipeline shape
of Pipeflow, arXiv:2202.00717; requests parameterize the dataflow rather
than rebuilding it, as in Parameterized Dataflow, arXiv:1610.08170).

The cache key (:meth:`PlanCache.key_for`) fingerprints everything that
changes what ``compile_source`` produces:

* the source text (SHA-256),
* the intrinsic registry (names, signatures, implementation identities),
* every compile-relevant :class:`~repro.core.compiler.CompileOptions`
  field — the decomposition environment (units/links), workload profile,
  op weights, objective, size hints, runtime classes, method costs, and
  the **resolved** codegen backend (``"auto"`` keys as whatever
  ``REPRO_BACKEND`` resolves it to, so a scalar-compiled entry is never
  served to a vector request),
* an explicit plan override and extra intrinsic implementations.

Execution-time fields (``engine``, ``engine_options``) stay *out* of the
key: they do not affect the compiled artifact, and one cached pipeline
serves both engines.

Entries are :class:`~repro.core.compiler.CompilationResult` objects,
shared by reference: they are immutable in practice (``pipeline.specs``
builds fresh filter instances per run), and callers must not mutate
them.  Nor may they mutate the arguments they hand the cache:
:meth:`PlanCache.key_for` memoises keys by the *identity* of its arguments
(plus the resolved backend), so a warm hit hashes nothing — derive new
options with ``options.replace(...)``, which keys afresh.  The cache is
thread-safe and LRU-bounded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Protocol, runtime_checkable

from ..codegen.vectorize import resolve_backend
from ..core.compiler import CompilationResult, CompileOptions, compile_source
from ..decompose.plan import DecompositionPlan
from ..lang.intrinsics import IntrinsicRegistry


@runtime_checkable
class PlanCacheProtocol(Protocol):
    """What :func:`repro.core.compiler.compile_source` needs from a
    compilation cache (its ``cache=`` hook).

    :class:`PlanCache` below is the stock implementation; anything with
    the same three methods — a disk-spilling cache, a distributed one, a
    recording stub in tests — plugs in the same way.  The compiler
    itself stays import-independent of the serving subsystem and only
    references this protocol from its docstrings."""

    def key_for(
        self,
        source: str,
        registry: IntrinsicRegistry | None,
        options: CompileOptions,
        plan: DecompositionPlan | None = None,
        intrinsic_impls: dict[str, Callable] | None = None,
    ) -> str:  # pragma: no cover - protocol
        ...

    def get(self, key: str) -> CompilationResult | None:  # pragma: no cover
        ...

    def put(self, key: str, result: CompilationResult) -> None:  # pragma: no cover
        ...

#: CompileOptions fields that configure *execution*, not compilation —
#: excluded from the key so one cached pipeline serves any engine
_EXECUTION_FIELDS = frozenset({"engine", "engine_options"})


def _canon(value: Any) -> Any:
    """Canonical, order-insensitive, hashable form of a key component.

    Callables and classes key by qualified name — stable for everything
    the apps register (module-level functions, ``register_generated``
    classes whose names encode their parameters, e.g. ``KNN3`` /
    ``VImage96x96``); ad-hoc closures with identical qualnames would
    alias, which the source hash and profile fingerprint disambiguate in
    practice."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return (type(value).__name__, value)
    if isinstance(value, type):
        return ("type", value.__module__, value.__qualname__)
    if isinstance(value, dict):
        return ("dict", tuple(sorted((str(k), _canon(v)) for k, v in value.items())))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_canon(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(repr(_canon(v)) for v in value)))
    if dataclasses.is_dataclass(value):
        return (
            type(value).__name__,
            tuple(
                (f.name, _canon(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if callable(value):
        return (
            "callable",
            getattr(value, "__module__", "?"),
            getattr(value, "__qualname__", repr(value)),
        )
    return ("repr", repr(value))


def _registry_fingerprint(registry: IntrinsicRegistry | None) -> Any:
    if registry is None:
        return None
    entries = []
    for intr in registry:
        entries.append(
            (
                intr.name,
                _canon(getattr(intr, "params", ())),
                _canon(getattr(intr, "ret", None)),
                _canon(getattr(intr, "fn", None)),
                _canon(getattr(intr, "batch_fn", None)),
                _canon(getattr(intr, "reads", ())),
                _canon(getattr(intr, "writes", ())),
            )
        )
    return tuple(sorted(entries))


def options_fingerprint(options: CompileOptions) -> Any:
    """Canonical form of the compile-relevant option fields."""
    parts = []
    for f in dataclasses.fields(options):
        if f.name in _EXECUTION_FIELDS:
            continue
        value = getattr(options, f.name)
        if f.name == "backend":
            # "auto" must key as whatever it resolves to right now, so a
            # REPRO_BACKEND flip cannot serve stale codegen
            value = resolve_backend(value)
        parts.append((f.name, _canon(value)))
    return tuple(parts)


@dataclasses.dataclass(slots=True)
class CacheStats:
    """Hit/miss accounting of one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


class PlanCache:
    """Thread-safe LRU cache of :class:`CompilationResult` objects.

    The stock :class:`PlanCacheProtocol` implementation — the hook
    :func:`repro.core.compiler.compile_source` accepts as ``cache=``
    (``key_for`` / ``get`` / ``put``); :meth:`compile` is the convenience
    wrapper the serving subsystem uses."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, CompilationResult] = OrderedDict()
        #: argument ids + backend -> (the arguments, held so no id is reused; key)
        self._keys: OrderedDict[tuple, tuple[tuple, str]] = OrderedDict()
        self.stats = CacheStats()

    def key_for(
        self,
        source: str,
        registry: IntrinsicRegistry | None,
        options: CompileOptions,
        plan: DecompositionPlan | None = None,
        intrinsic_impls: dict[str, Callable] | None = None,
    ) -> str:
        """Deterministic key over everything that changes the compile,
        memoised by the identity of the arguments."""
        args = (source, registry, options, plan, intrinsic_impls)
        memo = (*map(id, args), resolve_backend(options.backend))
        with self._lock:
            found = self._keys.get(memo)
            if found is not None:
                self._keys.move_to_end(memo)
                return found[1]
        material = repr(
            (
                ("source", hashlib.sha256(source.encode()).hexdigest()),
                ("registry", _registry_fingerprint(registry)),
                ("options", options_fingerprint(options)),
                ("plan", _canon(plan)),
                ("impls", _canon(intrinsic_impls or {})),
            )
        )
        key = hashlib.sha256(material.encode()).hexdigest()
        with self._lock:
            self._keys[memo] = (args, key)
            while len(self._keys) > self.capacity:
                self._keys.popitem(last=False)
        return key

    def get(self, key: str) -> CompilationResult | None:
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return result

    def put(self, key: str, result: CompilationResult) -> None:
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def compile(
        self,
        source: str,
        registry: IntrinsicRegistry | None = None,
        options: CompileOptions | None = None,
        intrinsic_impls: dict[str, Callable] | None = None,
        plan: DecompositionPlan | None = None,
    ) -> tuple[CompilationResult, bool]:
        """``compile_source`` through the cache; returns (result, was_hit)."""
        if options is None:
            raise ValueError("CompileOptions (with a PipelineEnv) are required")
        key = self.key_for(
            source, registry, options, plan=plan, intrinsic_impls=intrinsic_impls
        )
        hit = self.get(key)
        if hit is not None:
            return hit, True
        result = compile_source(
            source, registry, options, intrinsic_impls=intrinsic_impls, plan=plan
        )
        self.put(key, result)
        return result, False

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._keys.clear()
