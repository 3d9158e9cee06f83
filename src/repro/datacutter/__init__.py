"""DataCutter-style filter-stream runtime substrate (paper §2.2).

Built from scratch for this reproduction: filters with
``init``/``process``/``finalize``, streams moving fixed-size buffers,
transparent copies with round-robin distribution, two interchangeable
execution engines (a threaded local engine and a process engine with
shared-memory transport — see :mod:`repro.datacutter.engine`), and a
deterministic discrete-event simulator used by the experiment harness."""

from .buffers import Buffer, BufferKind, StreamStats, payload_nbytes
from .filters import (
    Filter,
    FilterContext,
    FilterSpec,
    SourceFilter,
)
from .engine import ENGINES, Engine, EngineOptions, make_engine, run_pipeline
from .mp import ProcessPipeline
from .obs import Trace, TraceCollector
from .recovery import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    RetryPolicy,
)
from .runtime import PipelineError, RunResult, ThreadedPipeline
from .simulation import (
    SimReport,
    SimStage,
    multi_server_fifo,
    simulate,
    simulate_pipeline,
    stages_for_pipeline,
)
from .streams import (
    Broadcast,
    ByPacket,
    CollectorStream,
    DistributionPolicy,
    LogicalStream,
    RoundRobin,
)

__all__ = [
    "Broadcast",
    "Buffer",
    "BufferKind",
    "ByPacket",
    "CollectorStream",
    "DistributionPolicy",
    "ENGINES",
    "Engine",
    "EngineOptions",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "Filter",
    "FilterContext",
    "FilterSpec",
    "InjectedCrash",
    "LogicalStream",
    "PipelineError",
    "ProcessPipeline",
    "RetryPolicy",
    "RoundRobin",
    "RunResult",
    "SimReport",
    "SimStage",
    "SourceFilter",
    "StreamStats",
    "ThreadedPipeline",
    "Trace",
    "TraceCollector",
    "make_engine",
    "multi_server_fifo",
    "payload_nbytes",
    "run_pipeline",
    "simulate",
    "simulate_pipeline",
    "stages_for_pipeline",
]
