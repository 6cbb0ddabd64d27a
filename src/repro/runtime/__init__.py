"""Online serving substrate: orchestrator, client, serving cost model (§6.3)."""

from .orchestrator import (
    BatchResult,
    CanaryStatus,
    InferenceRequest,
    Orchestrator,
    OrchestratorStopped,
    UnknownModelError,
)
from .client import Client, InferenceFuture
from .serving import (
    ONLINE_PHASES,
    OnlineCostModel,
    QPSResult,
    ServingSession,
    ThroughputResult,
    measure_serving_throughput,
    measure_sustained_qps,
)
from .sharding import OverloadError, ProcessShardPool, ShardRing, ThreadShardPool, WorkerLostError
from .shm_store import SegmentAttachments, ShmHandle, ShmTensorStore
from .guard import GuardStats, GuardedSurrogate, bounds_validator, default_validator, residual_validator

__all__ = [
    "BatchResult",
    "CanaryStatus",
    "InferenceRequest",
    "Orchestrator",
    "OrchestratorStopped",
    "UnknownModelError",
    "Client",
    "InferenceFuture",
    "ONLINE_PHASES",
    "OnlineCostModel",
    "QPSResult",
    "ServingSession",
    "ThroughputResult",
    "measure_serving_throughput",
    "measure_sustained_qps",
    "OverloadError",
    "ProcessShardPool",
    "ShardRing",
    "ThreadShardPool",
    "WorkerLostError",
    "SegmentAttachments",
    "ShmHandle",
    "ShmTensorStore",
    "GuardStats",
    "GuardedSurrogate",
    "bounds_validator",
    "default_validator",
    "residual_validator",
]
