"""Guarded-surrogate (restart mechanism) tests."""

import numpy as np
import pytest

from repro import AutoHPCnet, AutoHPCnetConfig, obs
from repro.apps import CGApplication
from repro.runtime import GuardedSurrogate, bounds_validator, residual_validator


FAST = AutoHPCnetConfig(
    n_samples=120, outer_iterations=1, inner_trials=2, num_epochs=50,
    quality_problems=4, quality_loss=0.9, qoi_mu=0.5, seed=0,
)


@pytest.fixture(scope="module")
def cg_guarded():
    app = CGApplication()
    build = AutoHPCnet(FAST).build(app)
    return GuardedSurrogate(
        build.surrogate, residual_validator("A", "b", "x", rtol=0.25)
    )


class TestResidualValidator:
    def test_accepts_exact_solution(self, cg_guarded, rng):
        app = cg_guarded.surrogate.app
        problem = app.example_problem(rng)
        exact = app.run_exact(problem).outputs
        validate = residual_validator("A", "b", "x", rtol=0.05)
        assert validate(problem, exact)

    def test_rejects_garbage_solution(self, cg_guarded, rng):
        app = cg_guarded.surrogate.app
        problem = app.example_problem(rng)
        validate = residual_validator("A", "b", "x", rtol=0.05)
        assert not validate(problem, {"x": rng.standard_normal(app.n) * 100})

    def test_dense_matrix_supported(self, rng):
        a = np.eye(3) * 2.0
        validate = residual_validator()
        assert validate({"A": a, "b": np.ones(3)}, {"x": np.full(3, 0.5)})


class TestBoundsValidator:
    def test_within_bounds(self):
        validate = bounds_validator("prices", low=0.0)
        assert validate({}, {"prices": np.array([1.0, 2.0])})
        assert not validate({}, {"prices": np.array([-1.0, 2.0])})

    def test_rejects_nonfinite(self):
        validate = bounds_validator("v")
        assert not validate({}, {"v": np.array([np.nan])})

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            bounds_validator("v", low=1.0, high=0.0)


class TestGuardedExecution:
    def test_valid_outputs_pass_through(self, cg_guarded, rng):
        app = cg_guarded.surrogate.app
        problems = app.generate_problems(5, rng)
        obs.configure(enabled=True, reset=True)
        guarded = GuardedSurrogate(
            cg_guarded.surrogate, residual_validator("A", "b", "x", rtol=0.25)
        )
        for p in problems:
            outputs = guarded.run(p)
            # guarded output always satisfies the validity check
            assert residual_validator("A", "b", "x", rtol=0.25)(p, outputs)
        invocations = obs.get_registry().get("repro_guard_invocations_total")
        assert invocations.value(app="CG") == 5

    def test_fallback_engages_on_broken_surrogate(self, cg_guarded, rng):
        app = cg_guarded.surrogate.app
        # sabotage the surrogate: zero out the model head
        for param in cg_guarded.surrogate.package.model.parameters():
            param.data[:] = 0.0
        problem = app.example_problem(rng)
        outputs, reason, version = cg_guarded.invoke(problem)
        assert (reason, version) == ("invalid", None)
        # the restart produced the exact result
        exact = app.run_exact(problem).outputs
        assert np.allclose(outputs["x"], exact["x"])

    def test_qoi_valid_even_with_broken_surrogate(self, cg_guarded, rng):
        app = cg_guarded.surrogate.app
        problem = app.example_problem(rng)
        qoi = cg_guarded.qoi(problem)
        assert qoi == pytest.approx(app.run_exact(problem).qoi)


class TestDefaultValidators:
    def test_every_app_has_a_default(self):
        from repro.apps import ALL_APPLICATIONS
        from repro.runtime import default_validator

        for cls in ALL_APPLICATIONS:
            assert callable(default_validator(cls.name))

    def test_defaults_accept_exact_outputs(self):
        from repro.apps import ALL_APPLICATIONS
        from repro.runtime import default_validator

        for cls in ALL_APPLICATIONS:
            app = cls()
            problem = app.example_problem(np.random.default_rng(0))
            run = app.run_exact(problem)
            assert default_validator(app.name)(problem, run.outputs), app.name

    def test_unknown_app_rejected(self):
        from repro.runtime import default_validator

        with pytest.raises(ValueError):
            default_validator("doom")


class TestSplitLatencyAndWindow:
    def test_surrogate_and_fallback_seconds_accumulate(self, cg_guarded, rng):
        app = cg_guarded.surrogate.app
        problem = app.example_problem(rng)
        obs.configure(enabled=True, reset=True)
        try:
            passing = GuardedSurrogate(cg_guarded.surrogate, lambda p, o: True)
            failing = GuardedSurrogate(cg_guarded.surrogate, lambda p, o: False)
            passing.run(problem)
            failing.run(problem)
            registry = obs.get_registry()
            surrogate = registry.get("repro_guard_surrogate_seconds")
            fallback = registry.get("repro_guard_fallback_seconds")
            # every attempt lands in the surrogate histogram; only the
            # restart lands in the fallback one
            assert surrogate.count(app="CG") == 2 and surrogate.sum(app="CG") > 0
            assert fallback.count(app="CG") == 1 and fallback.sum(app="CG") > 0
        finally:
            obs.configure(enabled=True, reset=True)

    def test_split_histograms_exported(self, rng):
        from repro import obs
        from repro.apps import CGApplication
        from repro.core import AutoHPCnet
        from repro.runtime import GuardedSurrogate, residual_validator

        obs.configure(enabled=True, reset=True)
        try:
            app = CGApplication()
            build = AutoHPCnet(FAST).build(app)
            guarded = GuardedSurrogate(
                build.surrogate, residual_validator("A", "b", "x", rtol=0.25)
            )
            guarded.run(app.example_problem(rng))
            rendered = obs.get_registry().to_prometheus()
            assert "repro_guard_surrogate_seconds" in rendered
        finally:
            obs.configure(enabled=False, reset=True)


class TestGuardHooks:
    def test_capture_fires_only_on_fallback(self, rng):
        from repro.apps import CGApplication
        from repro.core import AutoHPCnet
        from repro.runtime import GuardedSurrogate, residual_validator

        app = CGApplication()
        build = AutoHPCnet(FAST).build(app)
        captured = []
        guarded = GuardedSurrogate(
            build.surrogate,
            residual_validator("A", "b", "x", rtol=0.25),
            capture=lambda problem, x, outputs: captured.append((x, outputs)),
        )
        problem = app.example_problem(rng)
        _, reason, _ = guarded.invoke(problem)
        assert len(captured) == (reason is not None)
        # now sabotage: every run falls back and must be captured
        for param in guarded.surrogate.package.model.parameters():
            param.data[:] = 0.0
        before = len(captured)
        guarded.run(problem)
        assert len(captured) == before + 1
        x, outputs = captured[-1]
        assert x.ndim == 1  # flattened model-space feature row
        exact = app.run_exact(problem).outputs
        assert np.allclose(outputs["x"], exact["x"])

    def test_drift_detector_observes_every_invocation(self, rng):
        from repro.apps import CGApplication
        from repro.core import AutoHPCnet
        from repro.runtime import GuardedSurrogate, residual_validator

        class Recorder:
            def __init__(self):
                self.calls = []

            def observe(self, x, *, fallback=False):
                self.calls.append((np.asarray(x).copy(), fallback))

        app = CGApplication()
        build = AutoHPCnet(FAST).build(app)
        recorder = Recorder()
        guarded = GuardedSurrogate(
            build.surrogate,
            residual_validator("A", "b", "x", rtol=0.25),
            drift_detector=recorder,
        )
        for problem in app.generate_problems(3, rng):
            guarded.run(problem)
        assert len(recorder.calls) == 3
        assert recorder.calls[0][0].ndim == 1
