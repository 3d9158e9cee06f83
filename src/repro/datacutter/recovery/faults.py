"""Deterministic fault injection for pipeline runs.

A :class:`FaultPlan` (carried on ``EngineOptions.faults``) describes
which filter copies misbehave, how, and on which packet.  The engines
build one :class:`FaultInjector` per copy *attempt*, so a fault that
fired on attempt 0 does not re-fire after the copy is restarted — which
is what lets the recovery tests assert full end-to-end healing.

Fault kinds (the failure modes the supervisor/retry machinery must
survive or diagnose):

* ``"exception"`` — raise :class:`FaultInjected` while handling packet
  k (a filter bug: traceback reaches the caller, copy is retried);
* ``"crash"`` — die abruptly on packet k: the process engine calls
  ``os._exit`` (no traceback, no goodbye — the supervisor's sentinel
  watch must notice), the threaded engine raises
  :class:`InjectedCrash`;
* ``"stall"`` — sleep ``stall_seconds`` on packet k (a wedged filter:
  heartbeat/timeout diagnostics must name it);
* ``"drop_heartbeat"`` — stop stamping the heartbeat from packet k on
  (a live-but-silent worker: the stalest-heartbeat diagnostic must
  still point at it).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

FAULT_KINDS = frozenset({"exception", "crash", "stall", "drop_heartbeat"})


class FaultInjected(RuntimeError):
    """An injected filter failure (retryable, carries a traceback)."""


class InjectedCrash(FaultInjected):
    """An injected abrupt death (the threaded engine's stand-in for a
    process crash, where no real SIGKILL can target one thread)."""


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One injected fault, pinned to a filter copy and packet."""

    #: logical filter name the fault targets
    filter: str
    #: fault kind, one of :data:`FAULT_KINDS`
    kind: str = "exception"
    #: transparent-copy index the fault fires in
    copy: int = 0
    #: packet index that triggers the fault (source: owned packet index)
    packet: int = 0
    #: sleep length for ``kind="stall"``
    stall_seconds: float = 0.25
    #: number of *attempts* on which the fault fires; the default 1
    #: means the restarted copy runs clean, >= the retry budget means
    #: the copy can never succeed (budget-exhaustion tests)
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {sorted(FAULT_KINDS)}"
            )
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be >= 0")


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A run's worth of injected faults."""

    faults: tuple[FaultSpec, ...] = ()

    @classmethod
    def coerce(cls, obj: "FaultPlan | Iterable[FaultSpec] | None") -> "FaultPlan | None":
        """Normalize ``EngineOptions.faults`` input (plan, iterable of
        specs, or None)."""
        if obj is None:
            return None
        if isinstance(obj, FaultPlan):
            return obj if obj.faults else None
        faults = tuple(obj)
        for f in faults:
            if not isinstance(f, FaultSpec):
                raise TypeError(f"faults must be FaultSpec instances, got {f!r}")
        return cls(faults) if faults else None

    def for_copy(self, filter_name: str, copy_index: int) -> tuple[FaultSpec, ...]:
        return tuple(
            f
            for f in self.faults
            if f.filter == filter_name and f.copy == copy_index
        )

    def __bool__(self) -> bool:
        return bool(self.faults)


class FaultInjector:
    """Applies one copy-attempt's faults at packet boundaries.

    Built per attempt: ``attempt`` gates firing (``attempt < times``),
    so restarted copies are only re-faulted when the plan says so.
    ``crash`` is the engine's abrupt-death action — ``os._exit`` in a
    worker process, None (raise :class:`InjectedCrash`) on a thread.
    """

    def __init__(
        self,
        faults: Sequence[FaultSpec],
        attempt: int = 0,
        crash: Callable[[FaultSpec], None] | None = None,
    ) -> None:
        self._faults = tuple(faults)
        self._attempt = attempt
        self._crash = crash
        self._heartbeat_dropped = False

    def wrap_heartbeat(self, heartbeat):
        """Heartbeat passthrough that ``drop_heartbeat`` can switch off."""
        if heartbeat is None or not any(
            f.kind == "drop_heartbeat" for f in self._faults
        ):
            return heartbeat

        def beat() -> None:
            if not self._heartbeat_dropped:
                heartbeat()

        return beat

    def on_packet(self, packet: int) -> None:
        """Fire any fault pinned to this packet (called by the runner
        once per owned/delivered packet, before its effects flush)."""
        for f in self._faults:
            if f.packet != packet or self._attempt >= f.times:
                continue
            if f.kind == "stall":
                time.sleep(f.stall_seconds)
            elif f.kind == "drop_heartbeat":
                self._heartbeat_dropped = True
            elif f.kind == "crash":
                if self._crash is not None:
                    self._crash(f)  # process engine: os._exit, no return
                raise InjectedCrash(
                    f"injected crash on packet {packet} "
                    f"(attempt {self._attempt})"
                )
            else:
                raise FaultInjected(
                    f"injected exception on packet {packet} "
                    f"(attempt {self._attempt})"
                )


def make_injector(
    faults: "FaultPlan | None",
    filter_name: str,
    copy_index: int,
    attempt: int,
    crash: Callable[[FaultSpec], None] | None = None,
) -> FaultInjector | None:
    """Injector for one copy attempt, or None when no fault targets it."""
    if not faults:
        return None
    copy_faults = faults.for_copy(filter_name, copy_index)
    if not copy_faults:
        return None
    return FaultInjector(copy_faults, attempt, crash)
