"""Process-parallel execution engine (shared-memory transport + supervision).

The multiprocess counterpart of the threaded local engine: same
``FilterSpec`` pipelines, same ``RunResult``, same engine-native tracing
(worker-side event buffers merged by the supervisor — see
:mod:`repro.datacutter.obs`), true parallelism.  See
:mod:`repro.datacutter.mp.engine` for the architecture overview.
"""

from .channels import EndOfStream, ProcessEdge
from .engine import ProcessPipeline
from .supervisor import Supervisor, WorkerHandle
from .transport import DEFAULT_SHM_MIN_BYTES, EdgeSegments, ShmRef

__all__ = [
    "DEFAULT_SHM_MIN_BYTES",
    "EdgeSegments",
    "EndOfStream",
    "ProcessEdge",
    "ProcessPipeline",
    "ShmRef",
    "Supervisor",
    "WorkerHandle",
]
