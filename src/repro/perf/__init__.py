"""Performance substrate: device models, cache simulator, metrics, timers."""

from .devices import (
    PCIE3_X16,
    TESLA_V100_NN,
    TESLA_V100_SOLVER,
    XEON_E5_2698V4,
    DeviceModel,
    Link,
    estimate_kernel_time,
    transfer_time,
)
from .cache import CacheConfig, CacheHierarchy, CacheStats, SetAssociativeCache, V100_L2, XEON_L1, XEON_L2
from .metrics import (
    SpeedupBreakdown,
    effective_speedup,
    harmonic_mean,
    hit_rate,
    qoi_hits,
    reconstruction_similarity,
    speedup,
)
from .timers import PhaseTimer
from .counting import (
    FlopCounter,
    axpy_cost,
    dense_mm_cost,
    dot_cost,
    fft_cost,
    nn_inference_cost,
    spmv_cost,
    stencil_cost,
)

__all__ = [
    "DeviceModel", "Link", "XEON_E5_2698V4", "TESLA_V100_NN",
    "TESLA_V100_SOLVER", "PCIE3_X16", "estimate_kernel_time", "transfer_time",
    "CacheConfig", "CacheHierarchy", "CacheStats", "SetAssociativeCache", "V100_L2", "XEON_L1", "XEON_L2",
    "SpeedupBreakdown", "effective_speedup", "harmonic_mean", "hit_rate",
    "qoi_hits", "reconstruction_similarity", "speedup",
    "PhaseTimer",
    "FlopCounter", "axpy_cost", "dense_mm_cost", "dot_cost", "fft_cost",
    "nn_inference_cost", "spmv_cost", "stencil_cost",
]
