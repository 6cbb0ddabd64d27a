"""End-to-end integration: full Auto-HPCnet builds on real applications.

Budgets are kept small so the whole suite stays fast; the benchmark
harness runs the full-budget versions.
"""

import numpy as np
import pytest

from repro import AutoHPCnet, AutoHPCnetConfig, evaluate_surrogate
from repro.apps import (
    BlackscholesApplication,
    FFTApplication,
    LaghosApplication,
    MGApplication,
)
from repro.runtime import Client, Orchestrator

FAST = AutoHPCnetConfig(
    n_samples=150,
    outer_iterations=2,
    inner_trials=2,
    num_epochs=60,
    ae_epochs=25,
    quality_problems=6,
    quality_loss=0.5,
    qoi_mu=0.25,
    encoding_loss=0.95,
    seed=0,
)


@pytest.fixture(scope="module")
def fft_build():
    return AutoHPCnet(FAST).build(FFTApplication())


class TestBuild:
    def test_build_produces_working_surrogate(self, fft_build):
        app = fft_build.surrogate.app
        problem = app.example_problem(np.random.default_rng(5))
        outputs = fft_build.surrogate.run(problem)
        assert set(outputs) == {"re_out", "im_out"}

    def test_offline_timers_cover_all_phases(self, fft_build):
        phases = fft_build.timers.phases
        assert {"trace_generation", "autoencoder_training", "bayesian_optimization"} <= set(
            phases
        )
        assert all(v > 0 for v in phases.values())

    def test_quality_constraint_satisfied(self, fft_build):
        assert fft_build.f_e <= FAST.quality_loss

    def test_build_summary_readable(self, fft_build):
        text = fft_build.summary()
        assert "region" in text and "2D NAS" in text

    def test_build_report_formatting(self, fft_build):
        from repro.core import format_build_report

        text = format_build_report(fft_build)
        assert "outer-loop history" in text
        assert "offline phases" in text
        assert "K=" in text

    def test_guarded_deployment_integration(self, fft_build):
        from repro import obs
        from repro.runtime import GuardedSurrogate, default_validator

        obs.configure(enabled=True, reset=True)
        guard = GuardedSurrogate(
            fft_build.surrogate, default_validator("FFT")
        )
        app = fft_build.surrogate.app
        problem = app.example_problem(np.random.default_rng(21))
        outputs = guard.run(problem)
        assert set(outputs) == {"re_out", "im_out"}
        invocations = obs.get_registry().get("repro_guard_invocations_total")
        assert invocations.value(app="FFT") == 1

    def test_evaluation_row(self, fft_build):
        row = evaluate_surrogate(
            fft_build.surrogate, n_problems=15, rng=np.random.default_rng(7)
        )
        assert row.speedup > 1.0
        assert 0.0 <= row.hit_rate <= 1.0
        assert row.breakdown.t_numerical_solver > 0

    def test_full_input_mode(self):
        cfg = AutoHPCnetConfig(
            n_samples=100, search_type="fullInput", inner_trials=2,
            outer_iterations=1, num_epochs=30, quality_problems=3,
            quality_loss=0.9, qoi_mu=0.5, seed=1,
        )
        build = AutoHPCnet(cfg).build(LaghosApplication())
        assert build.surrogate.package.autoencoder is None

    def test_deploy_through_orchestrator(self, fft_build, tmp_path):
        # save, reload through the client, predict through the store
        pkg = fft_build.surrogate.package
        pkg.save(tmp_path / "pkg")
        client = Client(Orchestrator())
        loaded = client.set_model_from_file("fft-net", str(tmp_path / "pkg"))
        x = np.random.default_rng(3).standard_normal((2, pkg.input_dim))
        out = client.run_model("fft-net", inputs=x, outputs="out")
        assert out.shape == (2, pkg.output_dim)

    def test_surrogate_qoi_close_to_exact(self, fft_build):
        app = fft_build.surrogate.app
        rng = np.random.default_rng(11)
        problems = app.generate_problems(10, rng)
        errors = []
        for p in problems:
            exact = app.run_exact(p).qoi
            errors.append(abs(fft_build.surrogate.qoi(p) - exact) / abs(exact))
        assert np.mean(errors) < 0.4


class TestCheckpointedBuild:
    def test_resume_produces_surrogate(self, tmp_path):
        app = MGApplication()
        cfg1 = AutoHPCnetConfig(
            n_samples=100, outer_iterations=1, inner_trials=2, num_epochs=30,
            ae_epochs=20, quality_problems=3, quality_loss=0.9, qoi_mu=0.5, seed=2,
        )
        AutoHPCnet(cfg1).build(app, checkpoint_dir=str(tmp_path))
        cfg2 = AutoHPCnetConfig(
            n_samples=100, outer_iterations=2, inner_trials=2, num_epochs=30,
            ae_epochs=20, quality_problems=3, quality_loss=0.9, qoi_mu=0.5, seed=2,
        )
        build = AutoHPCnet(cfg2).build(app, checkpoint_dir=str(tmp_path))
        assert len(build.search.outer_history) >= 2
        assert (tmp_path / "best_package" / "package.json").exists()
