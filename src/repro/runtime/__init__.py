"""Online serving substrate: orchestrator, client, serving cost model (§6.3).

Each submodule loads on first use: a thread-mode Listing-2 process loads
the client, the orchestrator and its thread pool, and neither process
mode (:mod:`~repro.runtime.procpool`) nor the guard or the cost model.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".orchestrator": [
        "BatchResult", "CanaryStatus", "Orchestrator", "OrchestratorStopped",
        "UnknownModelError",
    ],
    ".client": ["Client"],
    ".serving": [
        "ONLINE_PHASES", "OnlineCostModel", "QPSResult", "ServingSession",
        "ThroughputResult", "measure_serving_throughput", "measure_sustained_qps",
    ],
    ".sharding": ["OverloadError", "ShardRing", "ThreadShardPool", "WorkerLostError"],
    ".procpool": ["ProcessShardPool"],
    ".shm_store": ["SegmentAttachments", "ShmHandle", "ShmTensorStore"],
    ".guard": [
        "GuardStats", "GuardedSurrogate", "bounds_validator", "default_validator",
        "residual_validator",
    ],
})
