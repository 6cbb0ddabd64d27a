"""Disabled-telemetry overhead on the instrumented hot paths.

The acceptance bar: with telemetry off, `Orchestrator.run_model` and
`GuardedSurrogate.run` may cost at most 5 % more than the equivalent
uninstrumented (seed) code path.  Both measurements use min-of-repeats so
scheduler noise cancels instead of accumulating, and the two sides run
in alternating blocks inside each repeat, so both meet the same host
speed.
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.runtime import GuardedSurrogate, Orchestrator


@pytest.fixture(autouse=True)
def telemetry_off():
    obs.configure(enabled=False, reset=True)
    yield
    obs.configure(enabled=True, reset=True)


def _block_time(fn, n_calls: int) -> float:
    start = time.perf_counter()
    for _ in range(n_calls):
        fn()
    return time.perf_counter() - start


def _best_of(baseline, instrumented, n_calls: int,
             repeats: int = 9) -> tuple[float, float]:
    """Min-of-repeats of each side; one block of each side per repeat."""
    base = inst = float("inf")
    for _ in range(repeats):
        base = min(base, _block_time(baseline, n_calls))
        inst = min(inst, _block_time(instrumented, n_calls))
    return base, inst


def _assert_overhead_within(baseline, instrumented, n_calls, *, bound=1.05,
                            attempts=5):
    """Assert instrumented/baseline <= bound on at least one clean attempt.

    A single micro-benchmark pass is at the mercy of whatever else the
    machine is doing; re-measuring from scratch a few times rejects load
    spikes without loosening the bound itself.
    """
    ratio = float("inf")
    for _ in range(attempts):
        base, inst = _best_of(baseline, instrumented, n_calls)
        ratio = min(ratio, inst / base)
        if ratio <= bound:
            return
    raise AssertionError(
        f"disabled-telemetry overhead {(ratio - 1.0) * 100:.2f}% exceeds "
        f"{(bound - 1.0) * 100:.0f}% across {attempts} attempts"
    )


class TestOrchestratorOverhead:
    def test_run_model_disabled_within_5_percent(self):
        orc = Orchestrator()
        w = np.random.default_rng(0).standard_normal((128, 128))
        orc.register_model("mm", lambda x: x @ w)
        orc.put_tensor("in", np.ones(128))

        # seed-equivalent body: the exact same work — admission, input
        # fetch, forward, store — without the core's telemetry checks
        def baseline():
            with orc._lock:
                version = orc._admit_locked("mm")
                x = orc._input_locked(("in",))
            y, _, _ = orc._core._forward("mm", version, x, False)
            orc.put_tensor("out", y)

        def instrumented():
            orc.run_model("mm", ("in",), ("out",))

        instrumented()   # warm-up
        _assert_overhead_within(baseline, instrumented, n_calls=200)


class TestGuardOverhead:
    def test_guard_run_disabled_within_5_percent(self):
        w = np.random.default_rng(1).standard_normal((512, 512))

        class App:
            name = "bench"

            def exact_outputs(self, problem):
                return {"v": problem["x"] @ w}

        class Surrogate:
            app = App()

            def run(self, problem):
                return {"v": problem["x"] @ w}

        def validator(problem, outputs):
            return bool(np.isfinite(outputs["v"]).all())

        guarded = GuardedSurrogate(Surrogate(), validator)
        problem = {"x": np.ones(512)}

        # seed-equivalent guard: same surrogate call, same validator, the
        # seed's unsynchronized counter arithmetic
        seed_stats = {"invocations": 0, "fallbacks": 0}

        def baseline():
            seed_stats["invocations"] += 1
            outputs = guarded.surrogate.run(problem)
            if not validator(problem, outputs):
                seed_stats["fallbacks"] += 1

        def instrumented():
            guarded.run(problem)

        instrumented()   # warm-up
        _assert_overhead_within(baseline, instrumented, n_calls=300)
