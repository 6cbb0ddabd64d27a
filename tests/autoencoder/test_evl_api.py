"""Tests for the error-bounded feature-reduction API (§6.2)."""

import numpy as np
import pytest

from repro.autoencoder import AETrainConfig, Autoencoder, train_autoencoder


class TestEvlAPI:
    def test_evl_improves_with_training(self, rng):
        z = rng.standard_normal((120, 3))
        x = np.tanh(z @ rng.standard_normal((3, 24)))
        ae = Autoencoder(24, 6, depth=2, activation="tanh", rng=rng)
        before = ae.evl(x)
        train_autoencoder(ae, x, AETrainConfig(num_epochs=120, lr=3e-3, seed=0))
        after = ae.evl(x)
        assert after < before

    def test_evl_tolerance_monotone(self, rng):
        x = rng.standard_normal((30, 10))
        ae = Autoencoder(10, 3, rng=rng)
        strict = ae.evl(x, mu=0.01)
        loose = ae.evl(x, mu=0.5)
        assert loose <= strict

    def test_quality_vs_reduction_trade(self, rng):
        """The central §4/§5 trade: more reduction, worse (or equal) sigma."""
        z = rng.standard_normal((150, 4))
        x = np.tanh(z @ rng.standard_normal((4, 32)))
        sigmas = {}
        for k in (2, 16):
            ae = Autoencoder(32, k, depth=2, activation="tanh",
                             rng=np.random.default_rng(1))
            train_autoencoder(ae, x, AETrainConfig(num_epochs=80, lr=3e-3, seed=2))
            sigmas[k] = ae.evl(x)
        assert sigmas[16] <= sigmas[2] + 0.05
