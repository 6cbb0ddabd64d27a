"""Trace-and-compile inference for the surrogate serving hot path.

JAX-style trace -> specialize -> cache, scaled to this repo's NumPy
stack: :func:`compile_package` partially evaluates a surrogate package
into a flat :class:`CompiledPlan` (weights folded, Dense/activation and
conv/activation fused, conv gather indices baked as constants, scratch
preallocated) and :class:`PlanCache` persists plans across restarts,
content-addressed by registry digest + specialization key.  The orchestrator consults both transparently and
falls back to the interpreted path on :class:`UntraceableModelError`,
counting each fallback by its ``reason``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".plan": [
        "PLAN_SCHEMA_VERSION", "UNTRACEABLE_KINDS", "CompiledPlan",
        "UntraceableModelError", "untraceable_reason", "compile_package",
        "plan_payload", "plan_from_payload",
    ],
    ".cache": ["PlanCache", "package_digest", "plan_key", "warm_plan_cache"],
})
