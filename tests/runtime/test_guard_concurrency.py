"""GuardedSurrogate under concurrent invocations: its metric series lose
no counts."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import obs
from repro.runtime import GuardedSurrogate


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.configure(enabled=True, reset=True)
    yield
    obs.configure(enabled=True, reset=True)


class _StubApp:
    name = "stub"

    def exact_outputs(self, problem):
        return {"v": np.zeros(1)}

    def qoi_from_outputs(self, problem, outputs):
        return float(outputs["v"][0])


class _StubSurrogate:
    """Duck-typed DeployedSurrogate: app + run()."""

    def __init__(self):
        self.app = _StubApp()

    def run(self, problem):
        return {"v": np.array([float(problem["val"])])}


def _make_guarded():
    # valid iff val <= 0.5 — the caller controls the fallback pattern
    def validator(problem, outputs):
        return float(outputs["v"][0]) <= 0.5

    return GuardedSurrogate(_StubSurrogate(), validator)


class TestGuardStatsThreadSafety:
    def test_record_is_atomic(self):
        # the guard's books are its series: every counter and both split
        # histograms count each of a hammer's calls exactly once
        guarded = _make_guarded()
        n_threads, per_thread = 8, 2000

        def hammer(worker):
            for i in range(per_thread):
                guarded.run({"val": 1.0 if i % 4 == 0 else 0.0})

        with ThreadPoolExecutor(n_threads) as pool:
            list(pool.map(hammer, range(n_threads)))
        total, fallbacks = n_threads * per_thread, n_threads * (per_thread // 4)
        registry = obs.get_registry()
        assert registry.get("repro_guard_invocations_total").value(app="stub") == total
        assert (
            registry.get("repro_guard_fallbacks_total").value(app="stub", reason="invalid")
            == fallbacks
        )
        assert registry.get("repro_guard_surrogate_seconds").count(app="stub") == total
        assert registry.get("repro_guard_fallback_seconds").count(app="stub") == fallbacks


class TestGuardedConcurrency:
    def test_thread_pool_hammer_counts_exactly(self):
        guarded = _make_guarded()
        n_threads, per_thread = 8, 400

        def hammer(worker):
            rng = np.random.default_rng(worker)
            fallbacks = 0
            for _ in range(per_thread):
                val = float(rng.uniform(0.0, 1.0))
                out = guarded.run({"val": val})
                if val > 0.5:
                    fallbacks += 1
                    assert out["v"][0] == 0.0   # exact restart result
                else:
                    assert out["v"][0] == pytest.approx(val)
            return fallbacks

        with ThreadPoolExecutor(n_threads) as pool:
            expected_fallbacks = sum(pool.map(hammer, range(n_threads)))

        total = n_threads * per_thread
        registry = obs.get_registry()
        assert registry.get("repro_guard_invocations_total").value(app="stub") == total
        assert (
            registry.get("repro_guard_fallbacks_total").value(app="stub", reason="invalid")
            == expected_fallbacks
        )

    def test_counters_skipped_when_disabled(self):
        guarded = _make_guarded()
        with obs.disabled():
            assert guarded.invoke({"val": 0.1})[1] is None
            assert guarded.invoke({"val": 0.9})[1] == "invalid"
        # the guard still restarted, but wrote no telemetry
        registry = obs.get_registry()
        for name in ("repro_guard_invocations_total", "repro_guard_fallbacks_total"):
            assert registry.get(name).total() == 0
        for name in ("repro_guard_surrogate_seconds", "repro_guard_fallback_seconds"):
            assert registry.get(name).count(app="stub") == 0
