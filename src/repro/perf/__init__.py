"""Performance substrate: device models, cache simulator, metrics, timers."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".devices": [
        "DeviceModel", "Link", "XEON_E5_2698V4", "TESLA_V100_NN",
        "TESLA_V100_SOLVER", "PCIE3_X16", "estimate_kernel_time", "transfer_time",
    ],
    ".cache": [
        "CacheConfig", "CacheHierarchy", "CacheStats", "SetAssociativeCache",
        "V100_L2", "XEON_L1", "XEON_L2",
    ],
    ".metrics": [
        "SpeedupBreakdown", "effective_speedup", "harmonic_mean", "hit_rate",
        "qoi_hits", "reconstruction_similarity", "speedup",
    ],
    ".timers": ["PhaseTimer"],
    ".counting": [
        "FlopCounter", "axpy_cost", "dense_mm_cost", "dot_cost", "fft_cost",
        "nn_inference_cost", "spmv_cost", "stencil_cost",
    ],
})
