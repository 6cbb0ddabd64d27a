"""Metrics registry: counters, gauges, and latency histograms.

The paper's claims are quantitative (Eqn 2 speedup, Eqn 3 HitRate, the
§7.3 online breakdown), so the runtime needs first-class instruments
rather than ad-hoc arithmetic scattered through the stack.  This module
provides the three Prometheus-style metric kinds:

* :class:`Counter` — monotonically increasing totals (requests served,
  guard fallbacks);
* :class:`Gauge` — a value that goes up and down (queue depth, tensor
  store size, best-so-far NAS objective);
* :class:`Histogram` — fixed-bucket latency distributions with
  p50/p90/p99 quantile estimates (per-model inference time).

All instruments are thread-safe and label-aware, and the owning
:class:`MetricsRegistry` exports the whole set as Prometheus text
exposition (scrapeable) or JSON (machine-readable snapshots).

``metric.labels(**labels)`` binds one label key: it checks the label
names once and returns that key's series, the same object on every
call.  A series' ``inc``/``set``/``observe`` write under the metric's
lock with no label check, so a per-request path binds its series once
(at construction, or on a model's first call) and then only writes.
A bound write and an unbound write of one key land in the same place.

The telemetry switch (:data:`TELEMETRY`, re-exported by
:mod:`repro.obs`) lives here, next to the instruments that check it:
``Counter.inc``, ``Gauge.set``/``inc``/``dec`` and ``Histogram.observe``,
bound or not, return at once while it is off, so an instrumented
component calls them unconditionally.
"""

from __future__ import annotations

import json
import math
import os
import threading
from bisect import bisect_left
from typing import Iterable, Mapping, Optional, Sequence

from .tracing import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Bucket upper bounds (seconds) spanning sub-microsecond kernel launches
#: to multi-second solver runs; the +Inf bucket is implicit.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
    1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
)

_RESERVED_LABELS = frozenset({"le", "quantile"})


def _label_key(
    label_names: tuple[str, ...], labels: Mapping[str, object]
) -> tuple[str, ...]:
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {sorted(label_names)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in label_names)


def _format_labels(label_names: Sequence[str], key: Sequence[str], extra: str = "") -> str:
    parts = [f'{n}="{v}"' for n, v in zip(label_names, key)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Metric:
    """Base: name/help/label bookkeeping plus the per-metric lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        bad = _RESERVED_LABELS.intersection(labels)
        if bad:
            raise ValueError(f"reserved label names: {sorted(bad)}")
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        self._lock = threading.Lock()
        self._bound: dict[tuple[str, ...], object] = {}  # cc: guarded-by(_lock)

    def labels(self, **labels: object):
        """The series of one label key; the same object for every call.

        The label names are checked here, once; the series' writes skip
        the check.  Binding records nothing: a key appears in the exports
        at its first write, bound or not.
        """
        key = _label_key(self.label_names, labels)
        with self._lock:
            series = self._bound.get(key)
            if series is None:
                series = self._bound[key] = self._series_type(self, key)
        return series

    def _header(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class _Series:
    """One label key of a metric, bound by :meth:`_Metric.labels`."""

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: _Metric, key: tuple[str, ...]) -> None:
        self._metric = metric
        self._key = key


class _CounterSeries(_Series):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        if not TELEMETRY.enabled:
            return
        metric, key = self._metric, self._key
        with metric._lock:
            metric._values[key] = metric._values.get(key, 0.0) + amount


class Counter(_Metric):
    """Monotonically increasing total, optionally split by labels."""

    kind = "counter"
    _series_type = _CounterSeries

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        super().__init__(name, help, labels)
        self._values: dict[tuple[str, ...], float] = {}  # cc: guarded-by(_lock)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        if not TELEMETRY.enabled:
            return
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum across every label combination."""
        with self._lock:
            return sum(self._values.values()) if self._values else 0.0

    def raw_series(self) -> dict[tuple[str, ...], float]:
        """Snapshot of every label key's value (cross-process merge source)."""
        with self._lock:
            return dict(self._values)

    def inc_series(self, key: Sequence[str], amount: float) -> None:
        """Add ``amount`` to one label key given positionally.

        The merge path (:mod:`repro.obs.merge`) replays worker-process
        deltas whose label keys arrive as tuples, not keyword arguments.
        """
        if len(key) != len(self.label_names):
            raise ValueError(
                f"expected {len(self.label_names)} label values, got {len(key)}"
            )
        if amount < 0:
            raise ValueError("counters only go up")
        k = tuple(str(v) for v in key)
        with self._lock:
            self._values[k] = self._values.get(k, 0.0) + amount

    def expose(self) -> list[str]:
        lines = self._header()
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.label_names:
            items = [((), 0.0)]
        for key, value in items:
            lines.append(f"{self.name}{_format_labels(self.label_names, key)} {value:g}")
        return lines

    def snapshot(self) -> dict:
        with self._lock:
            series = [
                {"labels": dict(zip(self.label_names, key)), "value": value}
                for key, value in sorted(self._values.items())
            ]
        return {"name": self.name, "type": self.kind, "help": self.help,
                "series": series, "total": sum(s["value"] for s in series)}


class _GaugeSeries(_Series):
    __slots__ = ()

    def set(self, value: float) -> None:
        if not TELEMETRY.enabled:
            return
        metric = self._metric
        with metric._lock:
            metric._values[self._key] = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not TELEMETRY.enabled:
            return
        metric, key = self._metric, self._key
        with metric._lock:
            metric._values[key] = metric._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Gauge(_Metric):
    """A value that can go up and down (queue depth, store size, ...)."""

    kind = "gauge"
    _series_type = _GaugeSeries

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        super().__init__(name, help, labels)
        self._values: dict[tuple[str, ...], float] = {}  # cc: guarded-by(_lock)

    def set(self, value: float, **labels: object) -> None:
        if not TELEMETRY.enabled:
            return
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not TELEMETRY.enabled:
            return
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def expose(self) -> list[str]:
        lines = self._header()
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.label_names:
            items = [((), 0.0)]
        for key, value in items:
            lines.append(f"{self.name}{_format_labels(self.label_names, key)} {value:g}")
        return lines

    def snapshot(self) -> dict:
        with self._lock:
            series = [
                {"labels": dict(zip(self.label_names, key)), "value": value}
                for key, value in sorted(self._values.items())
            ]
        return {"name": self.name, "type": self.kind, "help": self.help, "series": series}


class _HistogramState:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * (n_buckets + 1)   # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0


def _bucket(bounds: tuple[float, ...], value: float) -> int:
    """Index of the first bound ``>= value``; NaN goes to +Inf.

    ``bisect_left`` alone would put NaN in bucket 0, since every
    comparison with NaN is false.
    """
    return bisect_left(bounds, value) if value == value else len(bounds)


class _HistogramSeries(_Series):
    __slots__ = ()

    def observe(self, value: float) -> None:
        if not TELEMETRY.enabled:
            return
        metric = self._metric
        bounds = metric.buckets
        # _bucket, inlined: this write is a per-request path
        idx = bisect_left(bounds, value) if value == value else len(bounds)
        with metric._lock:
            state = metric._states.get(self._key) or metric._state(self._key)
            state.bucket_counts[idx] += 1
            state.sum += value
            state.count += 1


class Histogram(_Metric):
    """Fixed-bucket latency histogram with interpolated quantile estimates."""

    kind = "histogram"
    _series_type = _HistogramSeries

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Iterable[float]] = None,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError("bucket bounds must be finite (the +Inf bucket is implicit)")
        self.buckets = bounds
        self._states: dict[tuple[str, ...], _HistogramState] = {}  # cc: guarded-by(_lock)

    def _state(self, key: tuple[str, ...]) -> _HistogramState:  # cc: requires(_lock)
        state = self._states.get(key)
        if state is None:
            state = self._states.setdefault(key, _HistogramState(len(self.buckets)))
        return state

    def observe(self, value: float, **labels: object) -> None:
        if not TELEMETRY.enabled:
            return
        key = _label_key(self.label_names, labels)
        idx = _bucket(self.buckets, value)
        with self._lock:
            state = self._state(key)
            state.bucket_counts[idx] += 1
            state.sum += value
            state.count += 1

    def count(self, **labels: object) -> int:
        key = _label_key(self.label_names, labels)
        with self._lock:
            state = self._states.get(key)
            return state.count if state else 0

    def sum(self, **labels: object) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            state = self._states.get(key)
            return state.sum if state else 0.0

    def quantile(self, q: float, **labels: object) -> float:
        """Estimate the ``q`` quantile by linear interpolation in-bucket.

        The estimate is bucket-resolution accurate — exactly what the
        operator gets from a Prometheus ``histogram_quantile`` query.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        key = _label_key(self.label_names, labels)
        with self._lock:
            state = self._states.get(key)
            if state is None or state.count == 0:
                return float("nan")
            counts = list(state.bucket_counts)
            total = state.count
        rank = q * total
        cumulative = 0.0
        lower = 0.0
        for i, bound in enumerate(self.buckets):
            prev = cumulative
            cumulative += counts[i]
            if cumulative >= rank:
                if counts[i] == 0:
                    return bound
                frac = (rank - prev) / counts[i]
                return lower + frac * (bound - lower)
            lower = bound
        return self.buckets[-1]   # rank fell in the +Inf bucket: clamp

    def percentiles(self, **labels: object) -> dict[str, float]:
        """The operator's trio: p50/p90/p99 of the observed distribution."""
        return {f"p{int(q * 100)}": self.quantile(q, **labels) for q in (0.5, 0.9, 0.99)}

    def raw_series(self) -> dict[tuple[str, ...], tuple[list[int], float, int]]:
        """Per-key ``(bucket_counts, sum, count)`` snapshot (for merging)."""
        with self._lock:
            return {
                key: (list(state.bucket_counts), state.sum, state.count)
                for key, state in self._states.items()
            }

    def merge_series(
        self,
        key: Sequence[str],
        bucket_counts: Sequence[int],
        sum_delta: float,
        count_delta: int,
    ) -> None:
        """Fold another histogram's per-bucket deltas into this one.

        The caller must have identical bucket bounds — the merge path
        creates the receiving histogram from the shipped bounds, so a
        mismatch means two processes defined one metric differently.
        """
        if len(key) != len(self.label_names):
            raise ValueError(
                f"expected {len(self.label_names)} label values, got {len(key)}"
            )
        if len(bucket_counts) != len(self.buckets) + 1:
            raise ValueError(
                f"expected {len(self.buckets) + 1} bucket counts, "
                f"got {len(bucket_counts)}"
            )
        k = tuple(str(v) for v in key)
        with self._lock:
            state = self._state(k)
            for i, delta in enumerate(bucket_counts):
                state.bucket_counts[i] += int(delta)
            state.sum += float(sum_delta)
            state.count += int(count_delta)

    def expose(self) -> list[str]:
        lines = self._header()
        with self._lock:
            items = sorted(
                (key, list(state.bucket_counts), state.sum, state.count)
                for key, state in self._states.items()
            )
        for key, counts, total_sum, count in items:
            cumulative = 0
            for bound, c in zip(self.buckets, counts):
                cumulative += c
                labels = _format_labels(self.label_names, key, f'le="{bound:g}"')
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            labels = _format_labels(self.label_names, key, 'le="+Inf"')
            lines.append(f"{self.name}_bucket{labels} {count}")
            plain = _format_labels(self.label_names, key)
            lines.append(f"{self.name}_sum{plain} {total_sum:g}")
            lines.append(f"{self.name}_count{plain} {count}")
        return lines

    def snapshot(self) -> dict:
        with self._lock:
            keys = sorted(self._states)
        series = []
        for key in keys:
            labels = dict(zip(self.label_names, key))
            series.append({
                "labels": labels,
                "count": self.count(**labels),
                "sum": self.sum(**labels),
                **self.percentiles(**labels),
            })
        return {"name": self.name, "type": self.kind, "help": self.help,
                "buckets": list(self.buckets), "series": series}


class MetricsRegistry:
    """Thread-safe get-or-create registry for every instrument in a process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}  # cc: guarded-by(_lock)

    def _get_or_create(self, cls, name: str, help: str, labels: Sequence[str], **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                if existing.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.label_names}"
                    )
                return existing
            metric = cls(name, help, labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Iterable[float]] = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    # -- export ----------------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.expose())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """JSON-able dict of every metric's current state."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        return {"metrics": [m.snapshot() for m in metrics]}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)


class _TelemetryState:
    """The one mutable switchboard; instruments read ``.enabled`` first."""

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(self, enabled: bool, registry: MetricsRegistry, tracer: Tracer) -> None:
        self.enabled = enabled
        self.registry = registry
        self.tracer = tracer


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TELEMETRY", "1").strip().lower() not in (
        "0", "false", "off", "no",
    )


#: Process-global telemetry state (``repro.obs.TELEMETRY``).  Its identity
#: is stable for the life of the process — ``repro.obs.configure`` mutates
#: it in place.
TELEMETRY = _TelemetryState(_env_enabled(), MetricsRegistry(), Tracer())
