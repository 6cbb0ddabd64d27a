"""Bound series: ``metric.labels(**labels)`` checks once, then only writes.

A bound series must be indistinguishable from the unbound call it
replaces on a per-request path: the same key, the same bucket, the same
exports, and nothing at all while telemetry is off.
"""

import math
import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.obs import DEFAULT_LATENCY_BUCKETS, MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture(autouse=True)
def telemetry_on():
    previous = obs.is_enabled()
    obs.configure(enabled=True)
    yield
    obs.configure(enabled=previous)


def _linear_bucket(bounds, value) -> int:
    """The bucket search ``Histogram.observe`` made before it bisected."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


def _probe_values(bounds) -> list[float]:
    values = [0.0, -1.0, math.inf, -math.inf, math.nan]
    for bound in bounds:
        values += [bound, np.nextafter(bound, -math.inf), np.nextafter(bound, math.inf)]
    return values


class TestBinding:
    @pytest.mark.parametrize("kind", ["counter", "gauge", "histogram"])
    def test_one_object_per_key(self, registry, kind):
        metric = getattr(registry, kind)(f"bound_{kind}", labels=("model",))
        series = metric.labels(model="a")
        assert metric.labels(model="a") is series
        # label values are stringified into the key, as unbound calls do
        assert metric.labels(model="a") is not metric.labels(model="b")
        assert metric.labels(model=1) is metric.labels(model="1")

    @pytest.mark.parametrize("kind", ["counter", "gauge", "histogram"])
    def test_wrong_or_missing_labels_raise_when_binding(self, registry, kind):
        metric = getattr(registry, kind)(f"checked_{kind}", labels=("app", "reason"))
        with pytest.raises(ValueError):
            metric.labels(app="cg")
        with pytest.raises(ValueError):
            metric.labels(app="cg", reason="invalid", extra="x")
        with pytest.raises(ValueError):
            metric.labels(model="cg", reason="invalid")
        unlabelled = getattr(registry, kind)(f"plain_{kind}")
        with pytest.raises(ValueError):
            unlabelled.labels(app="cg")
        assert unlabelled.labels() is unlabelled.labels()

    def test_binding_records_nothing(self, registry):
        registry.counter("c_total", labels=("app",)).labels(app="cg")
        registry.gauge("g").labels()
        registry.histogram("h_seconds", labels=("model",)).labels(model="m")
        assert all(m["series"] == [] for m in registry.snapshot()["metrics"])


class TestTelemetryOff:
    def test_series_write_nothing(self, registry):
        counter = registry.counter("c_total").labels()
        gauge = registry.gauge("g", labels=("shard",)).labels(shard=0)
        histogram = registry.histogram("h_seconds", labels=("model",)).labels(model="m")
        with obs.disabled():
            counter.inc()
            counter.inc(5)
            gauge.set(3)
            gauge.inc()
            gauge.dec(2)
            histogram.observe(1e-3)
        assert all(m["series"] == [] for m in registry.snapshot()["metrics"])
        counter.inc()
        assert registry.get("c_total").value() == 1.0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_negative_inc_raises_either_way(self, registry, enabled):
        series = registry.counter("c_total").labels()
        obs.configure(enabled=enabled)
        with pytest.raises(ValueError, match="only go up"):
            series.inc(-1)
        assert registry.get("c_total").total() == 0.0


class TestBuckets:
    @pytest.mark.parametrize(
        "bounds", [DEFAULT_LATENCY_BUCKETS, (1.0,), (-2.0, 0.0, 0.0, 3.5)],
        ids=["default", "one", "duplicates"],
    )
    def test_bisect_matches_linear_scan(self, registry, bounds):
        histogram = registry.histogram("h", labels=("via",), buckets=bounds)
        bound = histogram.labels(via="series")
        for value in _probe_values(histogram.buckets):
            before = histogram.raw_series()
            bound.observe(value)
            histogram.observe(value, via="call")
            after = histogram.raw_series()
            want = _linear_bucket(histogram.buckets, value)
            for via in ("series", "call"):
                old = before.get((via,), ([0] * (len(bounds) + 1), 0.0, 0))[0]
                moved = [
                    i for i, (a, b) in enumerate(zip(after[(via,)][0], old)) if a != b
                ]
                assert moved == [want], (via, value)

    def test_nan_lands_in_the_inf_bucket(self, registry):
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        histogram.labels().observe(math.nan)
        counts, _, count = histogram.raw_series()[()]
        assert counts == [0, 0, 1] and count == 1


class TestConcurrency:
    def test_threads_on_one_series_lose_nothing(self, registry):
        series = registry.counter("hammered_total", labels=("app",)).labels(app="x")
        n_threads, per_thread = 8, 20_000
        start = threading.Barrier(n_threads)

        def hammer():
            start.wait()
            for _ in range(per_thread):
                series.inc()

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # switch threads mid-update if it can
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert registry.get("hammered_total").value(app="x") == n_threads * per_thread


class TestExports:
    def test_bound_and_unbound_writes_export_identically(self):
        def fill(registry, bound: bool):
            counter = registry.counter("req_total", "requests", labels=("app",))
            gauge = registry.gauge("depth", "queue depth")
            histogram = registry.histogram("lat_seconds", "latency", labels=("model",))
            plain = registry.counter("served_total", "served")
            for i, value in enumerate([2e-6, 3e-4, 0.7, 12.0, 4e-5]):
                app, model = ("cg", "fft")[i % 2], ("a", "b", "c")[i % 3]
                if bound:
                    counter.labels(app=app).inc(i + 1)
                    gauge.labels().set(i)
                    gauge.labels().inc(0.5)
                    histogram.labels(model=model).observe(value)
                    plain.labels().inc()
                else:
                    counter.inc(i + 1, app=app)
                    gauge.set(i)
                    gauge.inc(0.5)
                    histogram.observe(value, model=model)
                    plain.inc()
            return registry

        via_series, via_calls = fill(MetricsRegistry(), True), fill(MetricsRegistry(), False)
        assert via_series.to_prometheus() == via_calls.to_prometheus()
        assert via_series.to_json() == via_calls.to_json()
