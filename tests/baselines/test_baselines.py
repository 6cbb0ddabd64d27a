"""Baseline tests: ACCEPT, loop perforation, Autokeras substitute."""

import numpy as np
import pytest

from repro.apps import (
    ALL_APPLICATIONS,
    BlackscholesApplication,
    CGApplication,
    FFTApplication,
    FluidanimateApplication,
    MGApplication,
    StreamclusterApplication,
    X264Application,
)
from repro.baselines import (
    ACCEPT_TOPOLOGIES,
    PERFORATABLE,
    build_accept_surrogate,
    build_autokeras_surrogate,
    evaluate_perforation,
    find_max_rate,
    perforated_run,
)


class TestAcceptBaseline:
    def test_topology_table_covers_type2(self):
        type2 = {c.name for c in ALL_APPLICATIONS if c.app_type == "II"}
        assert set(ACCEPT_TOPOLOGIES) == type2

    def test_builds_for_type2(self):
        app = BlackscholesApplication()
        surrogate = build_accept_surrogate(app, n_samples=60, num_epochs=15, seed=0)
        problem = app.example_problem(np.random.default_rng(1))
        outputs = surrogate.run(problem)
        assert "prices" in outputs

    def test_rejected_for_type1(self):
        with pytest.raises(ValueError, match="Type-II"):
            build_accept_surrogate(CGApplication(), n_samples=40, num_epochs=5)

    def test_no_feature_reduction(self):
        app = StreamclusterApplication()
        surrogate = build_accept_surrogate(app, n_samples=60, num_epochs=10, seed=0)
        assert surrogate.package.autoencoder is None


class TestPerforation:
    def test_strategy_table_covers_all_apps(self):
        assert set(PERFORATABLE) == {c.name for c in ALL_APPLICATIONS}

    def test_rate_zero_matches_exact(self, rng):
        for cls in (CGApplication, MGApplication, X264Application):
            app = cls()
            problem = app.example_problem(rng)
            exact = app.run_exact(problem)
            outputs, cost = perforated_run(app, problem, 0.0)
            assert app.qoi_from_outputs(problem, outputs) == pytest.approx(
                exact.qoi, rel=1e-9
            )

    def test_perforation_reduces_cost(self, rng):
        app = FluidanimateApplication()
        problem = app.example_problem(rng)
        _, full = perforated_run(app, problem, 0.0)
        _, half = perforated_run(app, problem, 0.5)
        assert half.flops < full.flops

    def test_inadmissible_rate_rejected(self, rng):
        app = CGApplication()
        with pytest.raises(ValueError):
            perforated_run(app, app.example_problem(rng), 0.9)

    def test_unperforatable_apps_only_rate_zero(self, rng):
        app = FFTApplication()
        problem = app.example_problem(rng)
        outputs, _ = perforated_run(app, problem, 0.0)
        assert app.qoi_from_outputs(problem, outputs) == pytest.approx(
            app.run_exact(problem).qoi
        )
        with pytest.raises(ValueError):
            perforated_run(app, problem, 0.25)

    def test_find_max_rate_respects_quality(self):
        app = FluidanimateApplication()
        rate = find_max_rate(app, mu=0.10, n_problems=4, rng=np.random.default_rng(0))
        assert 0.0 <= rate <= 0.75
        # the found rate must actually keep quality on fresh problems
        result = evaluate_perforation(
            app, rate, n_problems=10, rng=np.random.default_rng(9)
        )
        assert result.hit_rate >= 0.7

    def test_fft_max_rate_is_zero(self):
        assert find_max_rate(FFTApplication(), n_problems=3) == 0.0

    def test_speedup_bounded_by_iteration_ceiling(self):
        # perforation at rate r on the region alone cannot exceed
        # (solver+other)/(solver*(1-r)+other)
        app = FluidanimateApplication()
        result = evaluate_perforation(app, 0.5, n_problems=6)
        assert result.speedup < 2.5

    def test_blackscholes_strided_fill(self, rng):
        app = BlackscholesApplication()
        problem = app.example_problem(rng)
        outputs, cost = perforated_run(app, problem, 0.5)
        exact = app.run_exact(problem)
        assert outputs["prices"].shape == exact.outputs["prices"].shape
        assert cost.flops < exact.region_cost.flops


class TestAutokerasBaseline:
    def test_builds_and_predicts(self):
        app = FFTApplication()
        surrogate = build_autokeras_surrogate(
            app, n_trials=2, n_samples=60, num_epochs=10, seed=0
        )
        problem = app.example_problem(np.random.default_rng(1))
        outputs = surrogate.run(problem)
        assert set(outputs) == {"re_out", "im_out"}

    def test_never_reduces_features(self):
        app = FFTApplication()
        surrogate = build_autokeras_surrogate(
            app, n_trials=2, n_samples=60, num_epochs=10, seed=0
        )
        assert surrogate.package.autoencoder is None
        assert surrogate.package.input_dim == 64

    def test_sparse_apps_skip_standardization(self):
        app = CGApplication()
        surrogate = build_autokeras_surrogate(
            app, n_trials=1, n_samples=40, num_epochs=5, seed=0
        )
        assert surrogate.package.x_scaler.is_identity
