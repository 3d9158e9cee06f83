"""Packet-granularity fault tolerance for filter pipelines.

The paper's ``PipelinedLoop`` semantics (§3) make packets independent
except through reduction objects whose accumulation is associative and
commutative.  That property is exactly what makes two recovery moves
*provably safe* for the runtime to perform behind the program's back:

* **packet replay** — a packet delivered to a filter copy that died
  before acknowledging it can be re-delivered to a restarted copy; no
  other packet's result can observe the difference;
* **reduction checkpointing** — a filter holding reduction state can
  snapshot its accumulator at packet boundaries and a restarted copy can
  resume from the last checkpoint without double-counting, because the
  checkpoint records exactly which packets it folds in.

This package is the engine-independent half of that machinery, shared by
:class:`~repro.datacutter.runtime.ThreadedPipeline` (restarts inside its
scheduler loop) and the process engine's supervisor (worker respawn):

* :mod:`~repro.datacutter.recovery.policy` — :class:`RetryPolicy`
  (attempt budgets, exponential backoff with jitter, per-filter
  overrides);
* :mod:`~repro.datacutter.recovery.faults` — :class:`FaultPlan` /
  :class:`FaultInjector`, the deterministic fault injection used by
  tests, CI, and the ``python -m repro chaos`` CLI;
* :mod:`~repro.datacutter.recovery.checkpoint` — accumulator
  snapshot/restore at packet boundaries;
* :mod:`~repro.datacutter.recovery.replay` — :class:`CopyRecovery`,
  the strategy that makes the one copy protocol
  (:class:`~repro.datacutter.runtime.FilterCopy`) recoverable
  (transactional per-packet emits, in-flight tracking, replay);
  :class:`CopyLedger`, one logical copy's acknowledged progress on
  either engine; and :class:`CopyProgress`, the resume point it builds
  for a restart.

Recovery is opt-in: with ``EngineOptions(retry=None, faults=None)`` —
the default — both engines run the copy protocol without a strategy, which
stages nothing and snapshots nothing.
"""

from .checkpoint import (
    CheckpointError,
    clone_state,
    freeze_state,
    restore_state,
    snapshot_state,
)
from .faults import (
    FAULT_KINDS,
    FaultInjected,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
)
from .policy import RetryPolicy
from .replay import CopyLedger, CopyProgress, CopyRecovery, recovery_policy

__all__ = [
    "FAULT_KINDS",
    "CheckpointError",
    "CopyLedger",
    "CopyProgress",
    "CopyRecovery",
    "FaultInjected",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "RetryPolicy",
    "clone_state",
    "freeze_state",
    "recovery_policy",
    "restore_state",
    "snapshot_state",
]
