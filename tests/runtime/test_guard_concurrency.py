"""GuardedSurrogate under concurrent invocations: no lost counts."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import obs
from repro.runtime import GuardedSurrogate, GuardStats


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
        stats = GuardStats()
        n_threads, per_thread = 8, 5000

        def hammer(worker):
            for i in range(per_thread):
                stats.record(fallback=(i % 4 == 0))

        with ThreadPoolExecutor(n_threads) as pool:
            list(pool.map(hammer, range(n_threads)))
        assert stats.invocations == n_threads * per_thread
        assert stats.fallbacks == n_threads * (per_thread // 4)

    def test_positional_construction_still_works(self):
        stats = GuardStats(10, 3)
        assert stats.fallback_rate == pytest.approx(0.3)
        assert stats.surrogate_rate == pytest.approx(0.7)


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
        assert guarded.stats.invocations == total
        assert guarded.stats.fallbacks == expected_fallbacks
        assert guarded.stats.fallback_rate == pytest.approx(expected_fallbacks / total)
        # telemetry counters agree with the stats object
        registry = obs.get_registry()
        assert registry.get("repro_guard_invocations_total").value(app="stub") == total
        assert (
            registry.get("repro_guard_fallbacks_total").value(app="stub", reason="invalid")
            == expected_fallbacks
        )

    def test_counters_skipped_when_disabled(self):
        guarded = _make_guarded()
        with obs.disabled():
            guarded.run({"val": 0.1})
            guarded.run({"val": 0.9})
        # stats are functional output and still accumulate...
        assert guarded.stats.invocations == 2
        assert guarded.stats.fallbacks == 1
        # ...but no telemetry was written
        assert obs.get_registry().get("repro_guard_invocations_total").total() == 0
