"""Telemetry subsystem: process-global metrics registry + tracer.

Every instrumented component (orchestrator, serving session, guard, NAS
loops, build pipeline, SPMD pool) reports through the one global
:data:`TELEMETRY` state.  An instrument call returns at once when off,
so components call them unconditionally; only the per-request paths
``tests/obs/test_overhead.py`` bounds at 5% (``Orchestrator.run_model``,
``ServingCore.serve``, ``GuardedSurrogate.run``) read the switch to skip
their calls.  A per-request path binds its series once
(``metric.labels(**labels)``, at construction or on a model's first
call) and then writes to it with no label check::

    from repro import obs

    obs.configure(enabled=True)            # on (the default)
    with obs.disabled():                   # temporarily off
        ...
    served = obs.get_registry().counter("served_total").labels()
    served.inc()                           # bound: no label check
    obs.get_registry().to_prometheus()     # scrape
    obs.get_tracer().export_chrome_trace("build.trace.json")

Set ``REPRO_TELEMETRY=0`` in the environment to start disabled.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from ..perf.timers import PhaseTimer
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    TELEMETRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _TelemetryState,
)
from .tracing import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "Span",
    "Tracer",
    "TELEMETRY",
    "configure",
    "disabled",
    "is_enabled",
    "get_registry",
    "get_tracer",
    "span",
    "phase",
]


def configure(
    enabled: Optional[bool] = None,
    *,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    reset: bool = False,
) -> _TelemetryState:
    """(Re)configure global telemetry; call before building instrumented
    components so they bind to the right registry.

    ``reset=True`` swaps in a fresh registry and tracer (test isolation).
    """
    if reset:
        TELEMETRY.registry = MetricsRegistry()
        TELEMETRY.tracer = Tracer()
    if registry is not None:
        TELEMETRY.registry = registry
    if tracer is not None:
        TELEMETRY.tracer = tracer
    if enabled is not None:
        TELEMETRY.enabled = bool(enabled)
    return TELEMETRY


def is_enabled() -> bool:
    return TELEMETRY.enabled


def get_registry() -> MetricsRegistry:
    return TELEMETRY.registry


def get_tracer() -> Tracer:
    return TELEMETRY.tracer


@contextmanager
def disabled() -> Iterator[None]:
    """Temporarily switch telemetry off (restores the previous state)."""
    previous = TELEMETRY.enabled
    TELEMETRY.enabled = False
    try:
        yield
    finally:
        TELEMETRY.enabled = previous


class _NullSpan:
    """Shared no-op stand-in returned when telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


def span(name: str, **attributes: Any):
    """Open a span on the global tracer; a shared no-op when disabled."""
    if not TELEMETRY.enabled:
        return _NULL_SPAN
    return TELEMETRY.tracer.span(name, **attributes)


@contextmanager
def phase(
    name: str,
    *,
    timer: Optional[PhaseTimer] = None,
    histogram: Optional[Histogram] = None,
    labels: Optional[dict[str, Any]] = None,
    attributes: Optional[dict[str, Any]] = None,
) -> Iterator[Optional[Span]]:
    """Measure a block ONCE and feed every consumer the same number.

    The elapsed seconds from one ``perf_counter`` pair are written to the
    span, the :class:`~repro.perf.timers.PhaseTimer` entry ``name``, and
    the latency ``histogram`` — so simulated/measured breakdowns and trace
    views can never drift apart.  When telemetry is disabled the span and
    histogram are skipped but an attached timer still accumulates (the
    §7.3 breakdown is a functional output, not telemetry).
    """
    state = TELEMETRY
    enabled = state.enabled
    open_span = state.tracer.start_span(name, attributes) if enabled else None
    start = open_span.start if open_span is not None else time.perf_counter()
    try:
        yield open_span
    finally:
        elapsed = time.perf_counter() - start
        if open_span is not None:
            state.tracer.end_span(open_span, duration=elapsed)
        if timer is not None:
            timer.add(name, elapsed)
        if enabled and histogram is not None:
            histogram.observe(elapsed, **(labels or {}))
