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

from .cache import (
    PlanCache,
    package_digest,
    plan_key,
    warm_plan_cache,
)
from .plan import (
    PLAN_SCHEMA_VERSION,
    UNTRACEABLE_KINDS,
    CompiledPlan,
    UntraceableModelError,
    compile_package,
    plan_from_payload,
    plan_payload,
    untraceable_reason,
)

__all__ = [
    "PLAN_SCHEMA_VERSION",
    "UNTRACEABLE_KINDS",
    "CompiledPlan",
    "UntraceableModelError",
    "untraceable_reason",
    "compile_package",
    "plan_payload",
    "plan_from_payload",
    "PlanCache",
    "package_digest",
    "plan_key",
    "warm_plan_cache",
]
