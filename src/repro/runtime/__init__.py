"""Online serving substrate: orchestrator, client, serving cost model (§6.3)."""

from .orchestrator import (
    BatchResult,
    CanaryStatus,
    Orchestrator,
    OrchestratorStopped,
    UnknownModelError,
)
from .client import Client
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
    "Orchestrator",
    "OrchestratorStopped",
    "UnknownModelError",
    "Client",
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
