"""Online serving substrate: orchestrator, client, serving cost model (§6.3)."""

from .orchestrator import (
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
from .sharding import OverloadError, ProcessShardPool, RowsResult, ShardRing, ThreadShardPool, WorkerLostError
from .shm_store import SegmentAttachments, ShmHandle, ShmTensorStore
from .guard import GuardStats, GuardedSurrogate, bounds_validator, default_validator, residual_validator

__all__ = [
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
    "RowsResult",
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
