"""Config, scaler and pipeline-component tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AutoHPCnetConfig, Scaler
from repro.nn import Topology


class TestConfig:
    def test_defaults_valid(self):
        cfg = AutoHPCnetConfig()
        assert cfg.quality_loss == 0.10
        assert cfg.search_type == "autokeras"

    def test_lowers_to_search_config(self):
        cfg = AutoHPCnetConfig(quality_loss=0.2, inner_trials=7)
        sc = cfg.to_search_config()
        assert sc.quality_loss == 0.2
        assert sc.inner_trials == 7

    def test_overrides_applied(self):
        cfg = AutoHPCnetConfig()
        sc = cfg.to_search_config(inner_trials=11)
        assert sc.inner_trials == 11

    def test_user_model_round_trip(self):
        topo = Topology(hidden=(8,), activation="relu")
        cfg = AutoHPCnetConfig(search_type="userModel", init_model=topo)
        assert cfg.to_search_config().init_model == topo

    def test_invalid_preprocessing_rejected(self):
        with pytest.raises(ValueError):
            AutoHPCnetConfig(preprocessing="pca")

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            AutoHPCnetConfig(n_samples=5)


class TestScaler:
    def test_fit_transform_standardizes(self, rng):
        x = rng.standard_normal((100, 4)) * 5 + 3
        scaler = Scaler.fit(x)
        z = scaler.transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_inverse_round_trip(self, rng):
        x = rng.standard_normal((30, 3)) * 2 + 1
        scaler = Scaler.fit(x)
        assert np.allclose(scaler.inverse(scaler.transform(x)), x)

    def test_constant_feature_safe(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        scaler = Scaler.fit(x)
        z = scaler.transform(x)
        assert np.all(np.isfinite(z))

    def test_identity(self):
        scaler = Scaler.identity(3)
        x = np.arange(6.0).reshape(2, 3)
        assert np.allclose(scaler.transform(x), x)
        assert scaler.is_identity

    def test_fitted_not_identity(self, rng):
        assert not Scaler.fit(rng.standard_normal((10, 2)) + 5).is_identity


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 5))
def test_scaler_round_trip_property(seed, dim):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((20, dim)) * rng.uniform(0.5, 10) + rng.uniform(-5, 5)
    scaler = Scaler.fit(x)
    assert np.allclose(scaler.inverse(scaler.transform(x)), x, atol=1e-9)
